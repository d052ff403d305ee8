"""Benchmark harness and CLI tests: config validation, sweep structure,
deterministic output, summary arithmetic, and exit codes."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blockmm import (
    METHOD_TAGS,
    BlockPartition,
    ExperimentConfig,
    ResourceCapError,
    allocate_by_score_sums,
    allocate_optimal,
    allocate_uniform,
    block_norm_probabilities,
    estimate_product,
    estimate_product_block_sampling,
    estimate_product_two_step,
    multiply_exact,
    relative_error,
    run,
)
from blockmm import bench, cli, plan as plan_module
from blockmm.bench import (
    METHODS,
    RawRecord,
    SummaryRecord,
    config_from_dict,
    estimate_bytes,
    make_instance,
    replication_rng,
    summarize,
    write_records,
    write_results,
)
from blockmm.cli import main


def small_config(**overrides):
    base = dict(
        case="II",
        m=4,
        n=24,
        p=3,
        K=3,
        c=(6, 12),
        c0=6,
        reps=4,
        seed=99,
        record_timing=False,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# configuration


def test_default_config_matches_reference_defaults():
    cfg = ExperimentConfig()
    assert cfg.case == "II" and cfg.m == 26 and cfg.n == 20000 and cfg.p == 28
    assert cfg.sweep_var == "c" and cfg.sweep_values == (2000, 4000, 8000)
    assert cfg.K == 10 and cfg.c0 == 200 and cfg.reps == 20
    assert cfg.resolved(4000) == (10, 4000, 200)


def test_config_requires_exactly_one_sweep():
    small_config()  # c swept
    with pytest.raises(ValueError):
        small_config(K=(3, 6))  # two sweeps
    with pytest.raises(ValueError):
        small_config(c=6)  # none
    swept_K = small_config(c=6, K=(3, 6), c0=6)
    assert swept_K.sweep_var == "K" and swept_K.sweep_values == (3, 6)


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        small_config(case="III")
    with pytest.raises(ValueError):
        small_config(methods=("OPL", "XXX"))
    with pytest.raises(ValueError):
        small_config(methods=("OPL", "OPL"))
    with pytest.raises(ValueError):
        small_config(methods=())
    for methods in (None, 5):
        with pytest.raises(ValueError, match=f"^methods must be a list of tags or one comma-separated string, got {methods}$"):
            small_config(methods=methods)
    with pytest.raises(ValueError):
        small_config(K=5)  # 24 % 5 != 0
    with pytest.raises(ValueError):
        small_config(c=(6, 25))  # beyond n
    with pytest.raises(ValueError):
        small_config(c=(0, 6))
    with pytest.raises(ValueError):
        small_config(c0=2)  # below K with two-step methods present
    with pytest.raises(ValueError):
        small_config(reps=0)
    with pytest.raises(ValueError, match="seed"):
        small_config(seed=-1)
    assert small_config(seed=0).seed == 0
    # without two-step methods a small pilot budget is irrelevant
    cfg = small_config(c0=2, methods=("OPL", "UU", "SSM"))
    assert cfg.c0 == 2
    # every column sampler needs a draw per block at every sweep point
    with pytest.raises(ValueError):
        small_config(K=12, c0=12)  # c=6 < K
    with pytest.raises(ValueError):
        small_config(K=(3, 12), c=6, c0=12)
    assert small_config(K=12, c0=12, methods=("SSM",)).K == 12
    # a number that is not an integer is rejected, not truncated
    for key, value in {"c": [2000.7, 4000.2], "reps": 2.9, "seed": 1.5, "m": "26"}.items():
        with pytest.raises(ValueError):
            config_from_dict({key: value})
    with pytest.raises(ValueError):
        small_config(reps=True)
    assert small_config(c=[np.int64(6), 12], seed=np.int64(7)).c == (6, 12)


def test_config_from_dict():
    doc = dict(case="I", m=4, n=24, p=3, K=3, c=[6, 12], c0=6, reps=2, seed=1,
               methods="OPL, SSM")
    cfg = config_from_dict(doc)
    assert cfg.methods == ("OPL", "SSM")
    # the config splits a comma string itself
    assert ExperimentConfig(methods="OPL, SSM") == config_from_dict({"methods": "OPL, SSM"})
    assert cfg.c == (6, 12)
    with pytest.raises(ValueError):
        config_from_dict({**doc, "budget": 7})
    # the config finds its sweep itself; a file cannot name it
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict({**doc, "sweep_var": "c"})


def test_estimate_bytes_counts_the_block_products_and_the_pilot_sketch():
    base = dict(m=5, n=24, p=3, K=(2, 3, 6), c=12, c0=6)
    alone = estimate_bytes(small_config(methods=("ONC",), **base))
    # OPL forms the (K, m, p) stack of block products, at the largest K
    assert estimate_bytes(small_config(methods=("ONC", "OPL"), **base)) - alone == 8 * 6 * 5 * 3
    # a two-step method holds its pilot sketch, c0 columns of M and rows of N
    assert estimate_bytes(small_config(methods=("ONC", "ONU"), **base)) - alone == 8 * 6 * (5 + 3)
    assert estimate_bytes(small_config(methods=("ONC", "ONU", "ONMCNR"), **base)) - alone == 8 * 6 * (5 + 3)
    # each term is read at the largest value of its knob
    opl = dict(methods=("OPL",), m=5, n=24, p=3, c=12, c0=6)
    assert estimate_bytes(small_config(K=(2, 3, 6), **opl)) == estimate_bytes(small_config(K=(6,), **opl))
    onu = dict(methods=("ONU",), m=5, n=24, p=3, K=3, c=12)
    assert estimate_bytes(small_config(c0=(6, 12, 24), **onu)) == estimate_bytes(small_config(c0=(24,), **onu))
    # 1,000 blocks of 256 x 256 products: the stack alone is 524 MB
    wide = ExperimentConfig(case="I", m=256, p=256, n=20000, K=1000, c=(2000,), methods=("OPL",))
    assert estimate_bytes(wide) > 8 * 1000 * 256 * 256


def test_resource_cap():
    cfg = small_config(max_bytes=10)
    assert estimate_bytes(cfg) > 10
    with pytest.raises(ResourceCapError):
        run(cfg)


# ---------------------------------------------------------------------------
# method table


def test_method_table_follows_method_tags():
    # replication streams are keyed on the METHOD_TAGS index
    assert tuple(METHODS) == METHOD_TAGS


def _public_estimate(tag, pilot, M, N, part, c, c0, rng):
    """One replication of ``tag`` through the public calls alone."""
    if pilot is not None:
        return estimate_product_two_step(M, N, part, c, c0, rng, pilot=pilot).product
    if tag == "SSM":
        draws = max(1, round(c * part.num_blocks / part.total))
        return estimate_product_block_sampling(M, N, part, draws, rng, probs=block_norm_probabilities(M, N, part))[1]
    allocate = {
        "OPL": lambda: allocate_optimal(M, N, part, c),
        "ONC": lambda: allocate_by_score_sums(M, N, part, c),
        "UU": lambda: allocate_uniform(part, c),
    }[tag]
    return estimate_product(M, N, allocate(), rng)[1]


@pytest.mark.parametrize(
    "tag, pilot",
    [("OPL", None), ("ONC", None), ("ONU", "uniform"), ("ONMCNR", "norm"), ("UU", None), ("SSM", None)],
)
def test_method_table_two_step_matches_library(tag, pilot):
    """Every method, not only the two-step ones: on a c, a K and a c0 sweep
    of all six methods, each of ``tag``'s rows has the relative error of the
    public chain on the same replication stream, bit for bit, though the
    sweep plans from passes shared by every row on a partition."""
    for knobs in (dict(c=(6, 12, 24)), dict(K=(2, 3, 6), c=12), dict(c=12, c0=(6, 12, 24))):
        cfg = small_config(reps=2, **knobs)
        M, N = make_instance(cfg)
        exact = multiply_exact(M, N)
        rows = [r for r in run(cfg)[0] if r.method == tag]
        assert len(rows) == 3 * 2
        for r in rows:
            K, c, c0 = cfg.resolved(r.sweep_value)
            rng = replication_rng(cfg.seed, cfg.sweep_values.index(r.sweep_value), tag, r.rep)
            estimate = _public_estimate(tag, pilot, M, N, BlockPartition.equal(cfg.n, K), c, c0, rng)
            assert r.rel_error == relative_error(estimate, exact), (knobs, r)


def test_plan_time_charges_the_shared_passes(monkeypatch):
    """A clock that moves only inside the shared passes: every row's plan
    time is the seconds of the passes its method reads, on every rep, though
    each pass is made once per partition."""
    clock = [0.0]
    monkeypatch.setattr(bench.time, "process_time", lambda: clock[0])

    def costs(module, name, seconds):
        original = getattr(module, name)

        def call(*args):
            clock[0] += seconds
            return original(*args)

        monkeypatch.setattr(module, name, call)

    costs(plan_module, "column_norms", 1.0)  # the scoring pass
    costs(plan_module, "_optimal_probabilities", 10.0)
    costs(plan_module, "_block_products", 100.0)  # OPL's block products
    costs(bench, "block_norm_probabilities", 1000.0)  # SSM's block norms
    costs(bench, "uniform_probabilities", 10000.0)  # the uniform vector of UU and ONU's pilot
    raw, summary = run(small_config(record_timing=True, reps=3))
    charge = {"OPL": 111.0, "ONC": 11.0, "ONU": 10011.0, "ONMCNR": 11.0, "UU": 10000.0, "SSM": 1000.0}
    assert len(raw) == 2 * 6 * 3
    assert [(r.method, r.plan_time_s, r.sample_time_s) for r in raw] == [(r.method, charge[r.method], 0.0) for r in raw]
    assert [s.plan_time_mean_s for s in summary] == [charge[s.method] for s in summary]
    assert clock[0] == 11111.0  # c is swept: one partition, each pass made once


def test_cli_method_help_lists_the_table(monkeypatch):
    monkeypatch.setattr(cli, "METHOD_TAGS", ("AAA", "BBB"))
    text = " ".join(cli.build_parser().format_help().split())
    assert "comma-separated): AAA, BBB" in text


# ---------------------------------------------------------------------------
# runs


def test_run_structure_and_row_counts():
    cfg = small_config()
    raw, summary = run(cfg)
    assert len(raw) == 2 * len(cfg.methods) * 4
    assert len(summary) == 2 * len(cfg.methods)
    for r in raw:
        assert r.case == "II" and r.sweep_var == "c"
        assert r.sweep_value in (6, 12)
        assert 0 <= r.rep < 4
        assert np.isfinite(r.rel_error) and r.rel_error >= 0
        assert r.plan_time_s == 0.0 and r.sample_time_s == 0.0
    reps_seen = {(s.sweep_value, s.method): s.reps for s in summary}
    assert set(reps_seen.values()) == {4}


def test_run_three_by_six_by_twenty_is_360_rows():
    cfg = small_config(c=(4, 6, 12), reps=20)
    raw, summary = run(cfg)
    assert len(raw) == 3 * 6 * 20 == 360
    assert len(summary) == 18


def test_degenerate_single_column_blocks_are_exact():
    # every block one column and budget n: the column samplers all reproduce
    # the exact product bit for bit.  The whole-block baseline still draws
    # blocks at random, so it stays out of this check.
    cfg = small_config(
        n=6, K=6, c=(6,), c0=6, reps=1,
        methods=("OPL", "ONC", "ONU", "ONMCNR", "UU"),
    )
    raw, _ = run(cfg)
    assert len(raw) == 5
    for r in raw:
        assert r.rel_error == 0.0


def test_method_subset_reproduces_full_run_errors():
    full = run(small_config())[0]
    subset = run(small_config(methods=("ONC", "SSM")))[0]
    key = lambda r: (r.sweep_value, r.method, r.rep)
    full_map = {key(r): r.rel_error for r in full}
    for r in subset:
        assert r.rel_error == full_map[key(r)]


def test_run_deterministic_bytes(tmp_path):
    cfg = small_config()
    raw1, _ = run(cfg)
    raw2, _ = run(cfg)
    assert raw1 == raw2
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_records(a, raw1)
    write_records(b, raw2)
    assert a.read_bytes() == b.read_bytes()


def test_make_instance_depends_on_case_and_seed():
    M1, N1 = make_instance(small_config())
    M2, N2 = make_instance(small_config())
    np.testing.assert_array_equal(M1, M2)
    np.testing.assert_array_equal(N1, N2)
    M3, _ = make_instance(small_config(case="I"))
    assert not np.array_equal(M1, M3)
    M4, _ = make_instance(small_config(seed=100))
    assert not np.array_equal(M1, M4)
    assert M1.shape == (4, 24) and N1.shape == (24, 3)


def test_summarize_recomputes_aggregates():
    cfg = small_config(methods=("OPL", "UU"))
    raw, summary = run(cfg)
    for s in summary:
        errs = [r.rel_error for r in raw if r.method == s.method and r.sweep_value == s.sweep_value]
        assert s.reps == len(errs) == 4
        assert s.rel_error_mean == pytest.approx(np.mean(errs), rel=1e-12)
        assert s.rel_error_median == pytest.approx(np.median(errs), rel=1e-12)
        assert s.rel_error_std == pytest.approx(np.std(errs, ddof=1), rel=1e-12)
    with pytest.raises(ValueError):
        summarize([])
    lone = RawRecord("II", "UU", "c", 6, 0, 0.5, 0.0, 0.0)
    assert summarize([lone])[0].rel_error_std == 0.0


def test_write_records_round_trips_floats(tmp_path):
    values = [1 / 3, 0.1 + 0.2, 5e-324, 1.7976931348623157e308]
    raw = [RawRecord("II", "ONC", "c", 6, i, x, x / 7, 0.0) for i, x in enumerate(values)]
    path = tmp_path / "raw.csv"
    write_records(path, raw)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [f.name for f in dataclasses.fields(RawRecord)]
    back = [RawRecord(r[0], r[1], r[2], int(r[3]), int(r[4]), *map(float, r[5:])) for r in rows[1:]]
    assert back == raw
    with pytest.raises(ValueError):
        write_records(path, [])


def test_write_results_files(tmp_path):
    raw, summary = run(small_config(reps=2))
    raw_path, summary_path = write_results(tmp_path / "out", raw, summary)
    with open(raw_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [f.name for f in dataclasses.fields(RawRecord)]
    assert len(rows) == 1 + len(raw)
    assert float(rows[1][5]) == raw[0].rel_error  # 17 significant digits survive
    with open(summary_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [f.name for f in dataclasses.fields(SummaryRecord)]
    assert len(rows) == 1 + len(summary)


# ---------------------------------------------------------------------------
# CLI


def cli_args(tmp_path, *extra):
    return [
        "--case", "II", "--m", "4", "--n", "24", "--p", "3",
        "--K", "3", "--c", "6,12", "--c0", "6", "--reps", "2",
        "--seed", "7", "--out", str(tmp_path / "out"), *extra,
    ]


def test_cli_happy_path(tmp_path, capsys):
    code = main(cli_args(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "raw.csv" in out and "summary.csv" in out
    with open(tmp_path / "out" / "raw.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 2 * 6 * 2


def test_cli_method_selection_and_single_point_sweep(tmp_path):
    code = main(
        ["--case", "I", "--m", "3", "--n", "12", "--p", "2", "--K", "3",
         "--c", "4,", "--c0", "3", "--reps", "2", "--seed", "3",
         "--method", "OPL,UU", "--method", "SSM", "--out", str(tmp_path / "out")]
    )
    assert code == 0
    with open(tmp_path / "out" / "raw.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 1 * 3 * 2
    assert {r[1] for r in rows[1:]} == {"OPL", "UU", "SSM"}


def test_cli_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(
        case="II", m=4, n=24, p=3, K=3, c=[6], c0=6, reps=5, seed=9,
        out=str(tmp_path / "from_file"), record_timing=False,
    )))
    code = main(["--config", str(cfg_path), "--reps", "2", "--out", str(tmp_path / "out")])
    assert code == 0
    assert not (tmp_path / "from_file").exists()
    with open(tmp_path / "out" / "raw.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 1 * 6 * 2  # flag reps=2 beat the file's 5


def test_cli_no_timing_zeroes_time_columns(tmp_path):
    code = main(cli_args(tmp_path, "--no-timing"))
    assert code == 0
    with open(tmp_path / "out" / "raw.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert all(row[6] == "0" and row[7] == "0" for row in rows[1:])


def test_cli_exit_codes(tmp_path, capsys):
    # two sweep lists: configuration error
    assert main(cli_args(tmp_path, "--K", "3,6")) == 1
    assert "config error" in capsys.readouterr().err
    # malformed config file
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err
    # a config file that is not a JSON object: a whole config as key-value pairs, or one key
    pairs = [["case", "II"], ["m", 6], ["n", 24], ["p", 3], ["K", 3], ["c", [6, 12]], ["reps", 2], ["out", str(tmp_path / "out")]]
    for doc in (pairs, ["case"]):
        bad.write_text(json.dumps(doc))
        assert main(["--config", str(bad)]) == 1
        assert "config error: the config file must hold a JSON object, not a list" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # unknown method tag
    assert main(cli_args(tmp_path, "--method", "XXX")) == 1
    capsys.readouterr()
    # resource cap
    assert main(cli_args(tmp_path, "--max-bytes", "16")) == 2
    assert "resource cap" in capsys.readouterr().err
    # a bad flag exits 1, not argparse's 2, which would read as the resource cap
    for flags in (("--case", "III"), ("--c", "abc"), ("--location", "zero")):
        assert main(cli_args(tmp_path, *flags)) == 1
        assert "usage: blockmm-bench" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert "usage: blockmm-bench" in capsys.readouterr().out


@pytest.mark.parametrize(
    "doc, flags",
    [
        ({"max_bytes": "100000000000"}, ()),  # a string, not a byte count
        ({"max_bytes": 0}, ()),
        ({"record_timing": "false"}, ()),  # a truthy string
        ({}, ("--K", "12", "--c0", "12")),  # c=6 leaves blocks without a draw
        ({"max_bytes": 1e11}, ()),  # JSON reads 1e11 as a float
        ({}, ("--seed", "-1")),  # SeedSequence would reject it mid-run, without naming the seed
        ({"out": 5}, ()),  # write_results would reject it after the whole sweep
        ({"out": None}, ()),
        ({"out": "cfg.json"}, ()),  # write_results' mkdir would fail after the whole sweep
        ({"out": "cfg.json/out"}, ()),
        ({"methods": None}, ()),  # tuple(None) raised a TypeError
        ({"methods": 5}, ()),
    ],
    ids=[
        "max_bytes-string", "max_bytes-zero", "record_timing-string", "c-below-K", "max_bytes-float", "seed-negative",
        "out-int", "out-null", "out-is-a-file", "out-under-a-file", "methods-null", "methods-int",
    ],
)
def test_cli_rejects_bad_config_values(tmp_path, capsys, monkeypatch, doc, flags):
    monkeypatch.chdir(tmp_path)  # a relative out names the config file itself
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    args = cli_args(tmp_path, *flags)
    if "out" in doc:  # the --out flag would override the file's value
        del args[args.index("--out") : args.index("--out") + 2]
    assert main(["--config", str(cfg_path), *args]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert all(f"config error: {key} " in err for key in doc)  # the message names the key
    assert not (tmp_path / "out").exists()


def test_cli_rejects_non_integer_config_file_value(tmp_path, capsys):
    # flags would override the file's value, so the file carries the whole config
    doc = dict(case="II", m=4, n=24, p=3, K=3, c=[6, 12], c0=6, reps=2.9, seed=7, out=str(tmp_path / "out"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["--config", str(cfg_path)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_importing_the_package_cli_and_bench_loads_no_scipy():
    """scipy is a test dependency only: importing it cost every CLI run about
    70 MB of peak RSS and half a second."""
    code = "import sys, blockmm, blockmm.cli, blockmm.bench; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_importing_the_cli_loads_no_numpy_random():
    """numpy.random loads only when a run makes its first generator: the
    two-step plans' stream helper imports its parts on first use."""
    code = "import sys, blockmm.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
