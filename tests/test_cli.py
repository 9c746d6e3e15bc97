"""End-to-end command-line checks on a small synthetic experiment."""

import datetime as dt
import json
import hashlib
import os
import subprocess
import sys
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
        assert call(cfg, "optimize") == 0
        assert call(cfg, "evaluate", "--mode", "stochastic", "--forecaster",
                    "mdn") == 0
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
        manifest = json.loads((run / "ingest.manifest.json").read_text())
        assert manifest["command"] == "ingest"
        assert manifest["seed"] == 7
        assert len(manifest["config_hash"]) == 16
        # evaluation in posthoc mode also runs off the same artifacts
        assert call(cfg, "evaluate", "--mode", "stochastic", "--forecaster",
                    "posthoc") == 0

        def inputs(name):
            doc = json.loads((run / f"{name}.manifest.json").read_text())
            return [Path(p).relative_to(run).as_posix() for p in doc["inputs"]]

        mdn = ["checkpoints/mdn.json", "checkpoints/mdn.bin"]
        gru_point = ["checkpoints/gru_point.json", "checkpoints/gru_point.bin"]
        assert inputs("train_mdn") == ["demand.csv"]
        assert inputs("fit_gmm") == ["demand.csv"] + gru_point
        assert inputs("forecast") == ["demand.csv"] + mdn
        day = json.loads((run / "forecasts.json").read_text())["days"][0]
        assert inputs(f"optimize_{day}") == ["demand.csv", "forecasts.json",
                                             "forecasts.bin"]
        outputs = json.loads((run / "forecast.manifest.json").read_text())["outputs"]
        assert [Path(p).name for p in outputs] == ["forecasts.json", "forecasts.bin"]
        assert inputs("evaluate_mdn_stochastic") == ["demand.csv"] + mdn
        assert inputs("evaluate_lstm_deterministic") == \
            ["demand.csv", "checkpoints/lstm.json", "checkpoints/lstm.bin"]
        assert inputs("evaluate_posthoc_stochastic") == \
            ["demand.csv"] + gru_point + ["em_fit.json"]

    def test_optimize_writes_the_plan_evaluate_scored_for_each_day(self, run_dir):
        run, cfg = run_dir
        for argv in (("synth",), ("ingest",), ("train", "--model", "mdn", "--epochs", "2"),
                     ("forecast", "--model", "mdn"),
                     ("evaluate", "--mode", "stochastic", "--forecaster", "mdn")):
            assert call(cfg, *argv) == 0
        report = json.loads((run / "report_mdn_stochastic.json").read_text())
        days = json.loads((run / "forecasts.json").read_text())["days"]
        assert report["days"] == days and len(days) == 35
        for day, scored in zip(days, report["per_day"]):
            assert call(cfg, "optimize", "--day", day) == 0
            plan = json.loads((run / f"plan_{day}.json").read_text())
            assert plan["moving"] == scored["moving"], day
        assert len({scored["moving"] for scored in report["per_day"]}) > 1

    def test_test_end_alone_cuts_the_series_before_the_default_split(self, run_dir,
                                                                     capsys):
        run, cfg = run_dir
        cfg.write_text(SMALL_CFG.format(run=run).replace("synth_days = 140",
                                                         "synth_days = 200")
                       + "test_end = 2017-06-30\n")
        for argv in (("synth",), ("ingest",), ("train", "--model", "lstm", "--epochs", "0"),
                     ("evaluate", "--mode", "deterministic", "--forecaster", "lstm")):
            assert call(cfg, *argv) == 0
        # 181 days through test_end, of which the last quarter (45) are test days
        report = json.loads((run / "report_lstm_deterministic.json").read_text())
        assert (report["days"][0], report["days"][-1]) == ("2017-05-17", "2017-06-30")
        assert report["day_count"] == 45
        extra = json.loads((run / "checkpoints" / "lstm.json").read_text())["extra"]
        assert (extra["train_end"], extra["test_end"]) == ("2017-05-16", "2017-06-30")
        cfg.write_text(cfg.read_text().replace("2017-06-30", "2017-01-01"))
        assert call(cfg, "train", "--model", "lstm", "--epochs", "0") == 2
        assert capsys.readouterr().err == (
            f"error: demand file {run / 'demand.csv'} holds 1 days through test_end "
            f"2017-01-01; a train/test split needs at least 2\n")

    def test_evaluate_mode_defaults_to_stochastic(self, run_dir):
        run, cfg = run_dir
        for argv in (("synth",), ("ingest",), ("train", "--model", "mdn", "--epochs", "0")):
            assert call(cfg, *argv) == 0
        reports = []
        for argv in ((), ("--mode", "stochastic")):
            assert call(cfg, "evaluate", "--forecaster", "mdn", *argv) == 0
            reports.append((run / "report_mdn_stochastic.json").read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("tag", ["lstm", "gru-point"])
    def test_stochastic_evaluation_of_a_point_forecaster_exits_2(self, run_dir, capsys,
                                                                 tag):
        _, cfg = run_dir
        assert call(cfg, "evaluate", "--mode", "stochastic", "--forecaster", tag) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: forecaster {tag!r} gives point forecasts only")
        assert "mdn, posthoc" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("line", ["threads = 2", "aux_point_output = true",
                                      "optimizer = adam", "standardize = false",
                                      "count_field = passengers",
                                      "optimizer_mode = deterministic",
                                      "replan = false"])
    def test_removed_config_keys_are_unknown(self, run_dir, capsys, line):
        _, cfg = run_dir
        cfg.write_text(cfg.read_text() + line + "\n")
        assert call(cfg, "synth") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line ")
        assert f"unknown config key {line.split()[0]!r}" in err

    @pytest.mark.parametrize("argv", [("fit-gmm", "--threads", "2"),
                                      ("ingest", "--count-field", "trips"),
                                      ("evaluate", "--replan", "false"),
                                      ("evaluate", "--per-day-csv")])
    def test_removed_flags_are_gone(self, run_dir, capsys, argv):
        _, cfg = run_dir
        with pytest.raises(SystemExit) as exc:
            call(cfg, *argv)
        assert exc.value.code == 2
        flags = " ".join(argv[1:])
        assert f"unrecognized arguments: {flags}" in capsys.readouterr().err

    def test_v1_checkpoint_exits_2(self, run_dir, capsys):
        run, cfg = run_dir
        for argv in (("synth",), ("ingest",), ("train", "--model", "mdn", "--epochs", "0")):
            assert call(cfg, *argv) == 0
        path = run / "checkpoints" / "mdn.json"
        manifest = json.loads(path.read_text())
        manifest["format"] = "fleetcast-checkpoint-v1"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        for argv in (("forecast", "--model", "mdn"),
                     ("evaluate", "--mode", "stochastic", "--forecaster", "mdn")):
            assert call(cfg, *argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {run / 'checkpoints' / 'mdn'}.json is a v1 "
                                  "checkpoint")
            assert "retrain the model" in err and "Traceback" not in err

    def test_checkpoint_without_an_array_entry_exits_2_naming_it(self, run_dir, capsys):
        run, cfg = run_dir
        for argv in (("synth",), ("ingest",), ("train", "--model", "mdn", "--epochs", "0")):
            assert call(cfg, *argv) == 0
        path = run / "checkpoints" / "mdn.json"
        manifest = json.loads(path.read_text())
        manifest["arrays"] = [a for a in manifest["arrays"] if a["name"] != "cell.b"]
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert call(cfg, "forecast", "--model", "mdn") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint manifest {path} has no 'cell.b' entry")
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit, words", [
        (lambda m: m["arrays"].__setitem__(1, 3), "has an arrays entry of the wrong kind"),
        (lambda m: m.update(head=3), "has an entry of the wrong kind"),
        (lambda m: m["extra"].pop("scaler"), "has no usable extra 'scaler'"),
        (lambda m: m.update(window_size="x"),
         "has window_size 'x'; it must be null or a positive integer"),
        (lambda m: m.update(window_size=0),
         "has window_size 0; it must be null or a positive integer")],
        ids=["arrays-entry-a-number", "head-a-number", "extra-without-scaler",
             "window-size-a-string", "window-size-zero"])
    def test_checkpoint_manifest_of_the_wrong_kind_exits_2_naming_it(self, run_dir, capsys,
                                                                     edit, words):
        run, cfg = run_dir
        for argv in (("synth",), ("ingest",), ("train", "--model", "lstm", "--epochs", "0")):
            assert call(cfg, *argv) == 0
        path = run / "checkpoints" / "lstm.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert call(cfg, "evaluate", "--mode", "deterministic", "--forecaster", "lstm") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint manifest {path} {words}")
        assert "Traceback" not in err

    def test_em_fit_file_without_per_zone_exits_2_naming_it(self, run_dir, capsys):
        run, cfg = run_dir
        for argv in (("synth",), ("ingest",),
                     ("train", "--model", "gru-point", "--epochs", "0"), ("fit-gmm",)):
            assert call(cfg, *argv) == 0
        path = run / "em_fit.json"
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({"zones": doc.pop("per_zone")}))
        capsys.readouterr()
        assert call(cfg, "evaluate", "--mode", "stochastic", "--forecaster",
                    "posthoc") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: EM fit file {path} has no 'per_zone' entry")
        assert "fleetcast fit-gmm" in err and "Traceback" not in err

    def test_em_fit_record_of_the_wrong_kind_exits_2_naming_it(self, run_dir, capsys):
        run, cfg = run_dir
        for argv in (("synth",), ("ingest",),
                     ("train", "--model", "gru-point", "--epochs", "0"), ("fit-gmm",)):
            assert call(cfg, *argv) == 0
        path = run / "em_fit.json"
        path.write_text(json.dumps({"per_zone": [3]}))
        capsys.readouterr()
        assert call(cfg, "evaluate", "--mode", "stochastic", "--forecaster",
                    "posthoc") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: EM fit file {path} has an entry of the wrong kind")
        assert "fleetcast fit-gmm" in err and "Traceback" not in err

    # a truncated report is test_truncated_report_exits_2_naming_it
    @pytest.mark.parametrize("reader, damage", [
        ("checkpoint", "truncated"), ("em_fit", "truncated"), ("forecast", "truncated"),
        ("checkpoint", "list"), ("em_fit", "list"), ("forecast", "list"),
        ("report", "list")])
    def test_damaged_json_artifact_exits_2_naming_it(self, run_dir, capsys, reader,
                                                     damage):
        from fleetcast.evaluate import EvaluationReport

        run, cfg = run_dir
        argvs = {"checkpoint": [("train", "--model", "lstm", "--epochs", "0")],
                 "em_fit": [("train", "--model", "gru-point", "--epochs", "0"),
                            ("fit-gmm",)],
                 "forecast": [("train", "--model", "mdn", "--epochs", "0"),
                              ("forecast", "--model", "mdn")],
                 "report": []}[reader]
        for argv in [("synth",), ("ingest",)] + argvs:
            assert call(cfg, *argv) == 0
        path, what, reading = {
            "checkpoint": (run / "checkpoints" / "lstm.json", "checkpoint manifest",
                           ("evaluate", "--mode", "deterministic", "--forecaster", "lstm")),
            "em_fit": (run / "em_fit.json", "EM fit file",
                       ("evaluate", "--mode", "stochastic", "--forecaster", "posthoc")),
            "forecast": (run / "forecasts.json", "forecast file", ("optimize",)),
            "report": (run / "report.json", "report",
                       ("compare", str(run / "report.json"), str(run / "report.json"))),
        }[reader]
        if reader == "report":
            empty = {name: np.empty(0) for name in ("revenue", "cost", "moving",
                                                    "lost_sales")}
            EvaluationReport(method="a", days=[], outcomes=empty).save(path)
        text = path.read_text()
        path.write_text(text[:40] if damage == "truncated" else "[]\n")
        capsys.readouterr()
        assert call(cfg, *reading) == 2
        err = capsys.readouterr().err
        words = "is not JSON (" if damage == "truncated" else "is not a JSON object"
        assert err.startswith(f"error: {what} {path} {words}")
        assert "Traceback" not in err

    def test_reports_over_different_days_do_not_compare(self, run_dir, capsys):
        from fleetcast.evaluate import EvaluationReport

        run, cfg = run_dir
        run.mkdir()
        paths = [run / "report_a.json", run / "report_b.json"]
        days = [dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(3)]
        outcomes = {name: np.arange(3.0) for name in ("revenue", "cost", "moving",
                                                      "lost_sales")}
        EvaluationReport("a", days, outcomes).save(paths[0])
        for other in (days[:2], days[1:] + [dt.date(2020, 1, 9)]):
            n = len(other)
            EvaluationReport("b", other, {k: v[:n] for k, v in outcomes.items()}).save(
                paths[1])
            assert call(cfg, "compare", *map(str, paths)) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: reports {paths[0]} (3 days) and {paths[1]} "
                                  f"({n} days) do not cover the same days")
            assert "Traceback" not in err
            assert not (run / "comparison.json").exists()

    def test_report_without_skipped_days_exits_2_naming_it(self, run_dir, capsys):
        from fleetcast.evaluate import EvaluationReport

        run, cfg = run_dir
        run.mkdir()
        paths = [run / "report_a.json", run / "report_b.json"]
        empty = {name: np.empty(0) for name in ("revenue", "cost", "moving", "lost_sales")}
        for path in paths:
            EvaluationReport(method=path.stem, days=[], outcomes=empty).save(path)
        doc = json.loads(paths[1].read_text())
        del doc["skipped_days"]
        paths[1].write_text(json.dumps(doc))
        assert call(cfg, "compare", *map(str, paths)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: report {paths[1]} has no 'skipped_days' entry")
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["per_day"][0].pop("lost_sales"),
         "has no 'lost_sales' entry"),
        (lambda doc: doc["per_day"].__setitem__(0, [10.0, 4.0, 2.0, 1.0]),
         "has a bad entry in 'per_day'"),
        (lambda doc: doc.__setitem__("days", ["2020-13-01"]), "has a bad entry in 'days'"),
        (lambda doc: doc.__setitem__("skipped_days", ["2020-01-01", "June 2"]),
         "has a bad entry in 'skipped_days'"),
        (lambda doc: doc.__setitem__("days", ["20200102"]),
         "has a bad entry in 'days' ('20200102' is not a YYYY-MM-DD date)"),
        (lambda doc: doc["days"].append("2020-01-03"), "lists 2 days but 1 per_day records"),
        (lambda doc: doc["per_day"][0].__setitem__("cost", "four"),
         "has a bad entry in 'per_day'"),
    ], ids=["missing-field", "record-not-object", "bad-day", "bad-skipped-day",
            "basic-format-day", "days-and-per-day-lengths-differ", "value-not-a-number"])
    def test_malformed_report_exits_2_naming_it(self, run_dir, capsys, edit, message):
        from fleetcast.evaluate import EvaluationReport

        run, cfg = run_dir
        run.mkdir()
        paths = [run / "report_a.json", run / "report_b.json"]
        day = {"revenue": np.array([10.0]), "cost": np.array([4.0]),
               "moving": np.array([2.0]), "lost_sales": np.array([1.0])}
        for path in paths:
            EvaluationReport(method=path.stem, days=[dt.date(2020, 1, 2)], outcomes=day,
                             skipped_days=[dt.date(2020, 1, 1)]).save(path)
        assert call(cfg, "compare", *map(str, paths)) == 0
        doc = json.loads(paths[1].read_text())
        edit(doc)
        paths[1].write_text(json.dumps(doc))
        capsys.readouterr()
        assert call(cfg, "compare", *map(str, paths)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: report {paths[1]} {message}")
        assert "fleetcast evaluate" in err and "Traceback" not in err

    def test_truncated_report_exits_2_naming_it(self, run_dir, capsys):
        from fleetcast.evaluate import EvaluationReport

        run, cfg = run_dir
        run.mkdir()
        paths = [run / "report_a.json", run / "report_b.json"]
        empty = {name: np.empty(0) for name in ("revenue", "cost", "moving", "lost_sales")}
        for path in paths:
            EvaluationReport(method=path.stem, days=[], outcomes=empty).save(path)
        paths[1].write_text(paths[1].read_text()[:40])
        assert call(cfg, "compare", *map(str, paths)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: report {paths[1]} is not JSON (")
        assert "Traceback" not in err

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


class TestEntryPoint:
    """`python -m fleetcast.cli` run as its own process, as the installed
    `fleetcast` script runs it."""

    @staticmethod
    def run(*argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-m", "fleetcast.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    def test_help_lists_the_eight_commands(self):
        done = self.run("--help")
        assert done.returncode == 0, done.stderr
        assert ("{synth,ingest,train,fit-gmm,forecast,optimize,evaluate,compare}"
                in done.stdout)

    def test_optimize_has_no_export_lp_flag(self):
        done = self.run("optimize", "--export-lp")
        assert done.returncode == 2
        assert "unrecognized arguments: --export-lp" in done.stderr


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
                         ("train", "--model", "lstm"), ("forecast", "--model", "mdn"),
                         ("evaluate", "--mode", "stochastic", "--forecaster", "mdn"),
                         ("evaluate", "--mode", "deterministic", "--forecaster",
                          "lstm")):
                assert call(cfg_path, *argv) == 0
            day = json.loads((run / "forecasts.json").read_text())["days"][0]
            assert call(cfg_path, "optimize", "--day", day) == 0
            assert call(cfg_path, "compare",
                        str(run / "report_mdn_stochastic.json"),
                        str(run / "report_lstm_deterministic.json")) == 0
            reports.append({
                "stoch": file_hash(run / "report_mdn_stochastic.json"),
                "det": file_hash(run / "report_lstm_deterministic.json"),
                "cmp": file_hash(run / "comparison.json"),
                "demand": file_hash(run / "demand.csv"),
                "ckpt": file_hash(run / "checkpoints" / "mdn.bin"),
                **{name: file_hash(run / name) for name in
                   ("forecasts.json", "forecasts.bin", f"plan_{day}.json")},
            })
        assert reports[0] == reports[1]


@pytest.fixture()
def plan_dir(tmp_path):
    """A run directory holding only demand.csv and forecasts.json/.bin, made
    without training, plus a config pointing at it."""
    import datetime as dt

    from fleetcast.data import DemandSeries
    from fleetcast.forecast import save_forecast_file
    from fleetcast.mdn import MixtureBatch
    from oracles import stack_days

    run = tmp_path / "run"
    run.mkdir()
    start = dt.date(2018, 8, 1)
    days = [start + dt.timedelta(days=i) for i in range(40)]
    rng = np.random.default_rng(3)
    DemandSeries(start, ["A", "B"], rng.integers(5, 90, size=(2, 40))).to_csv(
        run / "demand.csv")
    dists = [[MixtureBatch(rng.dirichlet(np.ones(3)), rng.uniform(10, 80, 3),
                           rng.uniform(2, 15, 3)) for _ in range(2)] for _ in days[30:]]
    save_forecast_file(run / "forecasts.json", days[30:], ["A", "B"], stack_days(dists))
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

    def test_two_forecasts_for_one_day_and_zone_exit_2(self, plan_dir, capsys):
        run, cfg = plan_dir
        text = (run / "forecasts.json").read_text()
        for key, repeated in (("days", "day '2018-08-31'"), ("zones", "zone 'A'")):
            doc = json.loads(text)
            doc[key][1] = doc[key][0]
            (run / "forecasts.json").write_text(json.dumps(doc))
            assert call(cfg, "optimize") == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: forecast file {run / 'forecasts.json'} "
                                  f"lists {repeated} twice")
            assert "Traceback" not in err

    @pytest.mark.parametrize("edit, words", [
        (lambda doc, bin_: doc["arrays"][0].update(shape=[9, 2, 3]),
         "forecast file {json} needs weights, means and stds of one shape (10, 2, K) "
         "for its 10 days and 2 zones"),
        (lambda doc, bin_: bin_.write_bytes(bin_.read_bytes()[:-8]),
         "{bin} holds 1432 bytes, its manifest implies 1440"),
        (lambda doc, bin_: doc.update(days=[]), "forecast file {json} holds no forecasts"),
        (lambda doc, bin_: doc.clear() or doc.update(records=[]),
         "forecast file {json} holds its arrays inline, a layout fleetcast no longer "
         "reads; run `fleetcast forecast` again")],
        ids=["a-day-short", "truncated-sidecar", "no-days", "record-per-zone-layout"])
    def test_misshaped_or_empty_forecast_file_exits_2(self, plan_dir, capsys, edit,
                                                      words):
        run, cfg = plan_dir
        path, sidecar = run / "forecasts.json", run / "forecasts.bin"
        doc = json.loads(path.read_text())
        edit(doc, sidecar)
        path.write_text(json.dumps(doc))
        assert call(cfg, "optimize") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + words.format(json=path, bin=sidecar))
        assert "Traceback" not in err

    def test_missing_forecast_sidecar_names_the_forecast_command(self, plan_dir, capsys):
        run, cfg = plan_dir
        (run / "forecasts.bin").unlink()
        assert call(cfg, "optimize") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: forecasts artifact not found at "
                              f"{run / 'forecasts.bin'}; run `fleetcast forecast` first")
        assert "Traceback" not in err

    def test_saa_table_prints_one_row_per_scenario_count(self, plan_dir, capsys):
        run, cfg = plan_dir
        assert call(cfg, "optimize", "--day", "2018-09-02", "--saa-table") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["N", "in-sample", "out-of-sample"]
        rows = [line.split() for line in lines[1:7]]
        assert [int(r[0]) for r in rows] == [10, 25, 50, 100, 200, 400]
        assert all(np.isfinite(float(v)) for r in rows for v in r[1:])
        assert lines[7] == "" and lines[8].startswith("plan for 2018-09-02: ")
        assert (run / "plan_2018-09-02.json").exists()

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

    @pytest.mark.parametrize("body", ["date,A,B\n", "date,A,B\n2018-08-01,1,2\n"])
    @pytest.mark.parametrize("argv", [("train", "--model", "lstm", "--epochs", "0"),
                                      ("fit-gmm",), ("forecast",), ("evaluate",)])
    def test_demand_too_short_to_split_exits_2(self, plan_dir, capsys, body, argv):
        run, cfg = plan_dir
        (run / "demand.csv").write_text(body)
        assert call(cfg, *argv) == 2
        err = capsys.readouterr().err
        n_days = body.count("\n") - 1
        assert err.startswith(f"error: demand file {run / 'demand.csv'} holds "
                              f"{n_days} days; a train/test split needs at least 2")
        assert "Traceback" not in err

    def test_blank_lines_in_the_demand_file_are_skipped(self, plan_dir):
        run, cfg = plan_dir
        argv = [("train", "--model", "lstm", "--epochs", "0"),
                ("evaluate", "--mode", "deterministic", "--forecaster", "lstm")]
        reports = []
        for trailer in ("", "\n"):
            with open(run / "demand.csv", "a") as fh:
                fh.write(trailer)
            for args in argv:
                assert call(cfg, *args) == 0
            reports.append((run / "report_lstm_deterministic.json").read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("argv", [("train", "--model", "lstm", "--epochs", "0"),
                                      ("fit-gmm",), ("forecast",), ("evaluate",)])
    def test_a_demand_row_missing_a_cell_exits_2_naming_its_line(self, plan_dir,
                                                                 capsys, argv):
        run, cfg = plan_dir
        lines = (run / "demand.csv").read_text().splitlines(keepends=True)
        lines[5] = lines[5][: lines[5].rindex(",")] + "\n"
        (run / "demand.csv").write_text("".join(lines))
        assert call(cfg, *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: demand file {run / 'demand.csv'}, line 6: "
                              f"2 cells, but the header has 3")
        assert "Traceback" not in err

    def test_two_days_split_into_one_train_and_one_test_day(self, plan_dir):
        import datetime as dt

        from fleetcast.cli import _split_demand
        from fleetcast.config import load_config

        run, cfg = plan_dir
        (run / "demand.csv").write_text("date,A,B\n2018-08-01,1,2\n2018-08-02,3,4\n")
        split = _split_demand(load_config(cfg))
        assert split.n_train == 1
        assert split.series.days == [dt.date(2018, 8, 1), dt.date(2018, 8, 2)]
        np.testing.assert_array_equal(split.series.values[:, split.n_train :],
                                      [[3.0], [4.0]])

    def test_each_plan_has_its_own_manifest(self, plan_dir):
        run, cfg = plan_dir
        days = ["2018-08-31", "2018-09-01"]
        for day in days:
            assert call(cfg, "optimize", "--day", day) == 0
        for day in days:
            doc = json.loads((run / f"optimize_{day}.manifest.json").read_text())
            assert doc["command"] == "optimize"
            assert doc["outputs"] == [str(run / f"plan_{day}.json")]
        assert sorted(p.name for p in run.glob("*.manifest.json")) == [
            f"optimize_{day}.manifest.json" for day in days]

    def test_overrides_do_not_leak_into_the_next_call(self, plan_dir):
        from fleetcast.cli import build_parser

        run, cfg = plan_dir
        assert build_parser() is build_parser()
        day = "2018-09-02"
        assert call(cfg, "optimize", "--day", day, "--seed", "3",
                    "--n-scenarios", "10") == 0
        first = json.loads((run / f"plan_{day}.json").read_text())
        # the day is the third in the forecast file, so it draws with seed + 2
        assert (first["seed"], first["n_scenarios"]) == (3 + 2, 10)
        assert call(cfg, "optimize", "--day", day) == 0
        second = json.loads((run / f"plan_{day}.json").read_text())
        assert (second["seed"], second["n_scenarios"]) == (7 + 2, 25)
        manifest = json.loads((run / f"optimize_{day}.manifest.json").read_text())
        assert manifest["seed"] == 7
