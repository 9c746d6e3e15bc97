"""End-to-end command-line checks on a small synthetic experiment."""

import json
import hashlib
import warnings
from pathlib import Path

import numpy as np
import pytest

import fleetcast.relocation
from fleetcast.cli import main
from fleetcast.data import DemandSeries
from fleetcast.recurrent import load_model

SMALL_CFG = """
data_dir = {run}
seed = 7
synth_days = 140
window_size = 8
hidden_size = 12
dense_sizes = 24,12
epochs = 12
learning_rate = 0.03
n_scenarios = 25
em_restarts = 2
em_max_iter = 100
"""


@pytest.fixture()
def run_dir(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(SMALL_CFG.format(run=tmp_path / "run"))
    return tmp_path / "run", cfg_path


def call(cfg_path, *argv):
    return main(["--config", str(cfg_path), *argv])


def file_hash(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestPipeline:
    def test_full_pipeline_produces_artifacts(self, run_dir):
        run, cfg = run_dir
        assert call(cfg, "synth") == 0
        assert call(cfg, "ingest") == 0
        assert call(cfg, "train", "--model", "mdn") == 0
        assert call(cfg, "train", "--model", "lstm") == 0
        assert call(cfg, "train", "--model", "gru-point") == 0
        assert call(cfg, "fit-gmm") == 0
        assert call(cfg, "forecast", "--model", "mdn") == 0
        assert call(cfg, "optimize", "--export-lp") == 0
        assert call(cfg, "evaluate", "--mode", "stochastic", "--forecaster",
                    "mdn", "--per-day-csv") == 0
        assert call(cfg, "evaluate", "--mode", "deterministic", "--forecaster",
                    "lstm") == 0
        assert call(cfg, "compare", str(run / "report_mdn_stochastic.json"),
                    str(run / "report_lstm_deterministic.json")) == 0
        for name in ("trips.csv", "demand.csv", "ingest_report.json",
                     "forecasts.json", "em_fit.json",
                     "report_mdn_stochastic.json",
                     "report_lstm_deterministic.json",
                     "comparison.json", "comparison.txt"):
            assert (run / name).exists(), name
        assert list(run.glob("plan_*.json"))
        assert list(run.glob("program_*.lp"))
        manifest = json.loads((run / "ingest.manifest.json").read_text())
        assert manifest["command"] == "ingest"
        assert manifest["seed"] == 7
        assert len(manifest["config_hash"]) == 16
        # evaluation in posthoc mode also runs off the same artifacts
        assert call(cfg, "evaluate", "--mode", "stochastic", "--forecaster",
                    "posthoc") == 0

    def test_missing_upstream_artifact_names_producer(self, run_dir, capsys):
        run, cfg = run_dir
        assert call(cfg, "ingest") == 2
        err = capsys.readouterr().err
        assert "synth" in err
        assert call(cfg, "train") == 2
        err = capsys.readouterr().err
        assert "fleetcast ingest" in err
        call(cfg, "synth")
        call(cfg, "ingest")
        capsys.readouterr()
        assert call(cfg, "forecast") == 2
        err = capsys.readouterr().err
        assert "fleetcast train" in err
        assert call(cfg, "evaluate", "--forecaster", "posthoc") == 2
        err = capsys.readouterr().err
        assert "fleetcast train" in err

    def test_zero_epoch_training_checkpoints_the_initialization(self, run_dir):
        run, cfg = run_dir
        call(cfg, "synth")
        call(cfg, "ingest")
        assert call(cfg, "train", "--model", "mdn", "--epochs", "0") == 0
        trained, extra = load_model(str(run / "checkpoints" / "mdn"))
        assert extra["loss_history"] == []
        from fleetcast.recurrent import init_model, HeadSpec

        fresh = init_model("gru", 2, 12, dense_sizes=(24, 12),
                           head=HeadSpec("mdn", 2, k=3), seed=7, window_size=8)
        for name, arr in fresh.parameters().items():
            np.testing.assert_array_equal(arr, trained.parameters()[name])

    def test_failed_solve_is_a_named_error_with_exit_2(self, run_dir, capsys,
                                                       monkeypatch):
        run, cfg = run_dir
        for argv in (("synth",), ("ingest",), ("train", "--model", "mdn", "--epochs", "1"),
                     ("forecast", "--model", "mdn")):
            assert call(cfg, *argv) == 0
        capsys.readouterr()
        monkeypatch.setattr("fleetcast.simplex.certify",
                            lambda lp, x, duals: {"primal": 1.0, "dual": 0.0, "cs": 0.0})
        assert call(cfg, "optimize") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: relocation program failed its optimality certificate")
        assert "Traceback" not in err

    def test_failed_evaluation_day_is_named_with_exit_2(self, run_dir, capsys,
                                                        monkeypatch):
        run, cfg = run_dir
        for argv in (("synth",), ("ingest",), ("train", "--model", "mdn", "--epochs", "1")):
            assert call(cfg, *argv) == 0
        capsys.readouterr()
        real = fleetcast.relocation._dual_certificate

        def corrupt_fourth_day(*args):
            alpha, beta, gamma = real(*args)
            alpha = alpha.copy()
            alpha[3, 0] = -2.0
            return alpha, beta, gamma

        monkeypatch.setattr("fleetcast.relocation._dual_certificate", corrupt_fourth_day)
        assert call(cfg, "evaluate", "--mode", "stochastic", "--forecaster", "mdn") == 2
        err = capsys.readouterr().err
        fourth = DemandSeries.from_csv(run / "demand.csv").days[-35 + 3]  # 35 test days
        assert err.startswith(f"error: relocation program for {fourth.isoformat()} "
                              "failed its optimality certificate: residual ")
        assert "Traceback" not in err
        assert not (run / "report_mdn_stochastic.json").exists()

    @pytest.mark.parametrize("stock", ["inf,50", "nan,50", "-1,50"])
    def test_bad_stock_is_a_config_error(self, run_dir, capsys, stock):
        _, cfg = run_dir
        cfg.write_text(cfg.read_text() + f"stock = {stock}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert call(cfg, "optimize") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config.stock: ") and "Traceback" not in err

    def test_unknown_flags_fail_fast(self, run_dir):
        _, cfg = run_dir
        with pytest.raises(SystemExit):
            call(cfg, "train", "--nonsense")

    def test_help_lists_all_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("ingest", "synth", "train", "fit-gmm", "forecast",
                     "optimize", "evaluate", "compare"):
            assert name in out

    def test_env_var_supplies_config_path(self, run_dir, monkeypatch):
        run, cfg = run_dir
        monkeypatch.setenv("FLEETCAST_CONFIG", str(cfg))
        assert main(["synth"]) == 0
        assert (run / "trips.csv").exists()


class TestTripRoundTrip:
    @pytest.mark.parametrize("seed", [9, 4])
    def test_default_synth_then_ingest_reproduces_the_truth(self, tmp_path, seed):
        cfg = tmp_path / "default.cfg"
        cfg.write_text(f"data_dir = {tmp_path / 'run'}\nseed = {seed}\n")
        assert call(cfg, "synth") == 0
        assert call(cfg, "ingest") == 0
        run = tmp_path / "run"
        assert (run / "demand.csv").read_bytes() == (run / "truth_demand.csv").read_bytes()

    def test_inverted_zone_box_exits_2_naming_the_zone(self, tmp_path, capsys):
        good = tmp_path / "good.cfg"
        good.write_text(f"data_dir = {tmp_path / 'run'}\nsynth_days = 10\n")
        bad = tmp_path / "bad_zones.cfg"
        bad.write_text(f"data_dir = {tmp_path / 'run'}\n"
                       "synth_days = 10\nzones = A:40.75,40.70,-74.00,-73.95\n")
        assert call(good, "synth") == 0
        capsys.readouterr()
        for command in ("synth", "ingest"):
            assert call(bad, command) == 2
            assert "zone 'A'" in capsys.readouterr().err

    def test_synth_zones_that_ingest_would_not_aggregate_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "three.cfg"
        cfg.write_text(f"data_dir = {tmp_path / 'run'}\nsynth_days = 30\nsynth_zones = 3\n")
        assert call(cfg, "synth") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: synth_zones = 3 ")
        assert "zones = 'A:40.70,40.75" in err and "C:40.8,40.85" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run" / "trips.csv").exists()
        assert not (tmp_path / "run" / "truth_demand.csv").exists()

    def test_ten_synth_zones_with_matching_zones_round_trip_exactly(self, tmp_path):
        from fleetcast.synth import default_zone_map

        cfg = tmp_path / "ten.cfg"
        cfg.write_text(f"data_dir = {tmp_path / 'run'}\nsynth_days = 30\n"
                       f"synth_zones = 10\nzones = {default_zone_map(10).spec()}\n")
        assert call(cfg, "synth") == 0
        assert call(cfg, "ingest") == 0
        run = tmp_path / "run"
        header = (run / "demand.csv").read_text().splitlines()[0]
        assert header == "date," + ",".join("ABCDEFGHIJ")
        assert (run / "demand.csv").read_bytes() == (run / "truth_demand.csv").read_bytes()


class TestReproducibility:
    def test_rerun_is_byte_identical(self, tmp_path):
        reports = []
        for attempt in range(2):
            run = tmp_path / f"run{attempt}"
            cfg_path = tmp_path / f"exp{attempt}.cfg"
            cfg_path.write_text(SMALL_CFG.format(run=run))
            for argv in (("synth",), ("ingest",), ("train", "--model", "mdn"),
                         ("train", "--model", "lstm"),
                         ("evaluate", "--mode", "stochastic", "--forecaster", "mdn"),
                         ("evaluate", "--mode", "deterministic", "--forecaster",
                          "lstm")):
                assert call(cfg_path, *argv) == 0
            assert call(cfg_path, "compare",
                        str(run / "report_mdn_stochastic.json"),
                        str(run / "report_lstm_deterministic.json")) == 0
            reports.append({
                "stoch": file_hash(run / "report_mdn_stochastic.json"),
                "det": file_hash(run / "report_lstm_deterministic.json"),
                "cmp": file_hash(run / "comparison.json"),
                "demand": file_hash(run / "demand.csv"),
                "ckpt": file_hash(run / "checkpoints" / "mdn.bin"),
            })
        assert reports[0] == reports[1]


@pytest.fixture()
def plan_dir(tmp_path):
    """A run directory holding only demand.csv and forecasts.json, made
    without training, plus a config pointing at it."""
    import datetime as dt

    from fleetcast.data import DemandSeries
    from fleetcast.forecast import save_forecast_file
    from fleetcast.mdn import GmmParams

    run = tmp_path / "run"
    run.mkdir()
    start = dt.date(2018, 8, 1)
    days = [start + dt.timedelta(days=i) for i in range(40)]
    rng = np.random.default_rng(3)
    DemandSeries(days, ["A", "B"], rng.integers(5, 90, size=(2, 40))).to_csv(
        run / "demand.csv")
    dists = [[GmmParams(rng.dirichlet(np.ones(3)), rng.uniform(10, 80, 3),
                        rng.uniform(2, 15, 3)) for _ in range(2)] for _ in days[30:]]
    save_forecast_file(run / "forecasts.json", days[30:], ["A", "B"], dists)
    cfg = tmp_path / "plan.cfg"
    cfg.write_text(f"data_dir = {run}\nseed = 7\nn_scenarios = 25\n")
    return run, cfg


class TestOptimize:
    @pytest.mark.parametrize("day", ["2030-01-01", "2018-8-31", "2018-08-29"])
    def test_day_without_a_forecast_is_a_named_error(self, plan_dir, capsys, day):
        _, cfg = plan_dir
        assert call(cfg, "optimize", "--day", day) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: no forecast for day '{day}'")
        assert "2018-08-31 to 2018-09-09" in err
        assert "Traceback" not in err

    def test_forecasts_missing_a_demand_zone_is_a_named_error(self, plan_dir, capsys):
        run, cfg = plan_dir
        text = (run / "demand.csv").read_text().replace("date,A,B", "date,A,C", 1)
        (run / "demand.csv").write_text(text)
        assert call(cfg, "optimize") == 2
        assert "lack zones ['C']" in capsys.readouterr().err

    @pytest.mark.parametrize("body", ["", "\n", "day,A,B\n2018-08-01,1,2\n"])
    def test_empty_or_headless_demand_file_exits_2_naming_it(self, plan_dir, capsys,
                                                             body):
        run, cfg = plan_dir
        (run / "demand.csv").write_text(body)
        for argv in (("optimize",), ("train", "--model", "lstm", "--epochs", "0")):
            assert call(cfg, *argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: demand file {run / 'demand.csv'} ")
            assert "'date,<zone ids>'" in err

    def test_overrides_do_not_leak_into_the_next_call(self, plan_dir):
        from fleetcast.cli import build_parser

        run, cfg = plan_dir
        assert build_parser() is build_parser()
        day = "2018-09-02"
        assert call(cfg, "optimize", "--day", day, "--seed", "3",
                    "--n-scenarios", "10") == 0
        first = json.loads((run / f"plan_{day}.json").read_text())
        assert (first["seed"], first["n_scenarios"]) == (3, 10)
        assert call(cfg, "optimize", "--day", day) == 0
        second = json.loads((run / f"plan_{day}.json").read_text())
        assert (second["seed"], second["n_scenarios"]) == (7, 25)
        manifest = json.loads((run / "optimize.manifest.json").read_text())
        assert manifest["seed"] == 7
