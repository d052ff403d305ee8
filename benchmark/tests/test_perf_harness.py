"""Tests of the benchmark itself: miniature smoke runs, the output schema
and name grammar, and checks that must fail on perturbed input.

    python3 -m pytest benchmark/tests -q
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses
import io
import json
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402
from blockmm import SamplingPlan  # noqa: E402
from checks import mse_band, plan_matches  # noqa: E402
from tracing import NullTracer, Tracer, self_times_ns  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Fewer distinct replications than the 100 ONC samples a run needs (25
# replications on wide-normal), so the smoke runs also repeat replications.
MINIATURE = {
    "desk-heavy": dict(m=6, n=400, p=7, K=10, c=100, c0=20, setup_repeats=2, distinct_reps=40),
    "wide-normal": dict(m=16, n=400, p=16, K=10, c=100, c0=20, setup_repeats=2, distinct_reps=10),
    "tiny-many-blocks": dict(m=3, n=120, p=3, K=12, c=48, c0=24, setup_repeats=2, exact_batch=4,
                             distinct_reps=40),
}


def miniature(name: str) -> harness.Workload:
    return dataclasses.replace(harness.WORKLOADS[name], **MINIATURE[name])


def instance(name: str, seed: int = 3) -> harness.Instance:
    w = miniature(name)
    M, N = harness.make_instance(w, seed)
    x = harness.Instance(w, M, N, M @ N, harness.BlockPartition.equal(w.n, w.K))
    x.onc_plan = harness.allocate_by_score_sums(M, N, x.part, w.c)
    return x


def result_line(doc: dict) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        run.emit(doc)
    return json.loads(buf.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(MINIATURE))
def test_miniature_smoke_run(name, trace, tmp_path):
    doc = harness.run_benchmark(miniature(name), seed=5, seconds=0.01, trace=bool(trace), out_root=tmp_path)
    doc["manifest"] = harness.manifest(miniature(name), 5, ROOT)
    failed = {k: v for k, v in doc["info"]["checks"].items() if not v["ok"]}
    assert doc["correct"], failed
    # Failures are the library's (they are counted, not hidden); the
    # accounting must add up.
    assert doc["attempted"] > doc["failed"] == sum(doc["info"]["errors"].values())
    assert doc["info"]["samples"]["ONC"] >= harness.ONC_TAIL_SAMPLES

    line = result_line(doc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) and v["value"] != 0 for v in line["metrics"].values())
    if trace:
        spans = (tmp_path / doc["info"]["trace_file"]).read_text().splitlines()
        assert len(spans) > 0 and {"name", "parent_id", "op_id", "cpu_ns"} <= set(json.loads(spans[0]))


def test_accounting_does_not_depend_on_run_length(tmp_path):
    w = miniature("tiny-many-blocks")
    short = harness.run_benchmark(w, seed=5, seconds=0.01, trace=False, out_root=tmp_path)
    long = harness.run_benchmark(w, seed=5, seconds=3.0, trace=False, out_root=tmp_path)
    assert long["info"]["replications"] > short["info"]["replications"]
    assert (long["attempted"], long["failed"]) == (short["attempted"], short["failed"])
    assert long["info"]["checks"]["repeats_match_first_pass"]["ok"]


def test_a_repeat_that_differs_from_its_first_run_fails_the_check():
    ledger = harness.Ledger()
    ledger.attempt("ONC", lambda: 1, ("ONC", 0, 0))
    ledger.attempt("ONC", lambda: 1 / 0, ("ONC", 0, 0), repeat=True)
    assert (ledger.attempted, ledger.failed) == (1, 0)
    assert not ledger.correct

    ledger = harness.Ledger()
    ledger.remember(("ONC", 0, 0), np.zeros((2, 2)), repeat=False)
    ledger.remember(("ONC", 0, 0), np.zeros((2, 2)), repeat=True)
    assert ledger.correct
    ledger.remember(("ONC", 0, 0), np.full((2, 2), 1e-300), repeat=True)
    assert not ledger.correct


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"][:2] == ["python3", "benchmark/run.py"]
    assert SPEC["paths"] == ["benchmark"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    names = [w["name"] for w in SPEC["workloads"]] + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_runs_nowhere_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "desk-heavy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("method", harness.METHODS)
def test_replay_matches_and_fails_on_perturbation(method):
    x = instance("tiny-many-blocks")
    make_rng = lambda: harness.method_rng(7, 0, method)
    null = NullTracer()
    estimate, plan = harness.COMPOSITE[method](x, make_rng(), null)
    assert harness.replay(x, method, make_rng, estimate, plan, null)

    nudged = estimate.copy()
    nudged[0, 0] = np.nextafter(nudged[0, 0], np.inf)
    assert not harness.replay(x, method, make_rng, nudged, plan, null)

    if method == "SSM":
        q = plan.copy()
        q[0] = np.nextafter(q[0], 0.0)
        assert not harness.replay(x, method, make_rng, estimate, q, null)
    else:
        budgets = plan.budgets.copy()
        k = int(np.argmax(budgets))
        budgets[k] -= 1
        budgets[(k + 1) % budgets.size] += 1
        moved = SamplingPlan(plan.partition, plan.probs, budgets, plan.method, plan.notes, plan.pilot_norms)
        assert not harness.replay(x, method, make_rng, estimate, moved, null)


def test_plan_matches_is_bitwise():
    x = instance("desk-heavy")
    probs = [p.copy() for p in x.onc_plan.probs.per_block]
    assert plan_matches(x.onc_plan, probs, x.onc_plan.budgets)
    probs[3][5] = np.nextafter(probs[3][5], 1.0)
    assert not plan_matches(x.onc_plan, probs, x.onc_plan.budgets)


@pytest.mark.parametrize("method", harness.DETERMINISTIC_PLANS)
def test_mse_band_holds_and_rejects_a_biased_estimate(method):
    x = instance("desk-heavy")
    null = NullTracer()
    plan = harness.COMPOSITE[method](x, harness.method_rng(1, 0, method), null)[1]
    expected = harness.expected_sq_error(x.M, x.N, plan)
    estimates = [harness.COMPOSITE[method](x, harness.method_rng(1, r, method), null)[0] for r in range(200)]
    sq = [np.linalg.norm(e - x.exact) ** 2 for e in estimates]
    assert mse_band(sq, expected).ok
    # A bias whose squared norm is three times the expected squared error.
    bias = np.full(x.exact.shape, np.sqrt(3 * expected / x.exact.size))
    biased = [np.linalg.norm(e + bias - x.exact) ** 2 for e in estimates]
    assert not mse_band(biased, expected).ok
    assert not mse_band(sq, 2 * expected).ok


def test_self_time_subtracts_children():
    tr = Tracer()
    with tr.op("method"), tr.span("bench.outer"):
        with tr.span("plan.inner"):
            sum(range(1000))
        with tr.span("estimators.inner"):
            sum(range(1000))
    outer, a, b = tr.spans
    own = self_times_ns(tr.spans)
    assert own[0] == outer.wall_ns - a.wall_ns - b.wall_ns
    assert own[1] == a.wall_ns and a.parent_id == outer.span_id and a.op_id == outer.op_id
