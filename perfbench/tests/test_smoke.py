"""Smoke test of the benchmark harness on a tiny config; runs in seconds.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(REPO / "src")]

import bench  # noqa: E402
import tracing  # noqa: E402

TINY = {"synth_days": 60, "window_size": 5, "hidden_size": 4, "dense_sizes": "8",
        "epochs": 1, "n_scenarios": 5, "em_restarts": 1, "em_max_iter": 20}


def tiny(timed=None, **config):
    timed = timed or bench.TRAIN + [["fit-gmm"]] + bench.plan_tail("mdn")
    return bench.Workload("tiny", {**TINY, **config}, [["synth"]], timed,
                          test_days=10, plan_days=3)


def declared(kind):
    doc = json.loads((REPO / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def test_plain_run_reports_every_end_to_end_metric(tmp_path):
    doc = bench.run(tiny(), seed=3, seconds=0, trace=False, root=tmp_path)
    result = doc["result"]
    assert result["correct"], doc["detail"]["errors"]
    assert result["failed"] == 0 and result["attempted"] > 0
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert doc["detail"]["sequences"] >= bench.MIN_SEQUENCES


def test_traced_run_reports_every_layer_and_restores_the_program(tmp_path):
    import fleetcast.recurrent
    import fleetcast.simplex

    original = fleetcast.recurrent.forward_pass
    doc = bench.run(tiny(), seed=3, seconds=0, trace=True, root=tmp_path)
    result = doc["result"]
    assert result["correct"], doc["detail"]["errors"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("per_layer")
    assert metrics["recurrent.cell_calls"] > 0 and metrics["mdn.nll_grad_calls"] > 0
    assert metrics["simplex.calls"] > 0 and metrics["simplex.optimal_ratio"] == 1.0
    assert metrics["em.restarts"] == 2  # one restart per zone
    assert metrics["evaluate.days"] == 20  # stochastic and deterministic reports
    assert doc["detail"]["missing_targets"] == []
    shares = doc["detail"]["layer_share"]
    assert shares["cli.train"]["recurrent"] > 0 and shares["cli.optimize"]["simplex"] > 0
    assert sum(shares["sequence"].values()) == pytest.approx(1.0, abs=0.01)
    assert fleetcast.recurrent.forward_pass is original
    assert not hasattr(fleetcast.simplex.certify, "__wrapped__")


def test_a_plan_that_is_not_the_optimum_fails_the_check(tmp_path):
    wl = tiny()
    runner = bench.Runner(wl, seed=3, work=tmp_path / "run")
    runner.run_list(wl.setup + wl.timed)
    runner.check_outputs()
    assert runner.ops.failed == 0, runner.ops.errors
    path = runner.data / f"plan_{wl.plan_dates()[0].isoformat()}.json"
    doc = json.loads(path.read_text())
    doc["objective"] += 1.0
    path.write_text(json.dumps(doc))
    runner.check_outputs()
    assert runner.ops.failed == 1 and "plan value" in runner.ops.errors[0]


def test_only_a_clean_run_records_the_reference_digest(tmp_path):
    store, ops = tmp_path / "digests.json", bench.Ops()
    bench._digest_check(ops, store, "key", "bad", record=False)
    bench._digest_check(ops, store, "key", "good", record=True)
    bench._digest_check(ops, store, "key", "good", record=True)
    bench._digest_check(ops, store, "key", "other", record=True)
    assert (ops.attempted, ops.failed) == (4, 1)


def test_missing_target_reports_zero_calls():
    tracer = tracing.Tracer()
    tracer.install([("fleetcast.relocation", "solve_exact", "relocation.solve_exact", None),
                    ("fleetcast.forecast", "Gone.predict", "forecast.predict", None)])
    tracer.uninstall()
    assert tracer.missing == ["fleetcast.relocation.solve_exact",
                              "fleetcast.forecast.Gone.predict"]
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["simplex.calls"] == 0 and metrics["forecast.predict_calls"] == 0


@pytest.mark.parametrize("workload, error", [
    (tiny(learning_rate=1e300), "TrainingDivergedError"),
    (tiny([["evaluate", "--mode", "stochastic", "--forecaster", "posthoc"]]),
     "exit code 2"),  # no em_fit artifact
])
def test_failures_are_counted_and_the_run_carries_on(tmp_path, workload, error):
    doc = bench.run(workload, seed=3, seconds=0, trace=False, root=tmp_path)
    result = doc["result"]
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert any(error in e for e in doc["detail"]["errors"])
    assert doc["detail"]["sequences"] >= bench.MIN_SEQUENCES


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-z2",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
