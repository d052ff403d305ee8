"""Benchmark harness: sweep one knob, run the methods, collect error/time.

A run fixes a synthetic instance (from the config seed), sweeps exactly one
of {c, K, c0} over a list while holding the others fixed, and executes every
requested method for ``reps`` independent replications per sweep point.
Each replication records the Frobenius-relative error and the process CPU
time split into a plan phase (probabilities + sizes; for OPL this includes
the exact block products, for ONC it does not — that asymmetry is the whole
cost argument) and a sample phase (drawing + combining).

The instance is fixed, so every replication on one partition shares the
passes in ``_PASSES``, each made and timed once.  A pass's time is added to
the plan time of every replication whose ``METHODS`` entry reads it, so a
plan time still says what that replication's plan costs from scratch.

Output is a raw CSV (one row per replication) and a summary CSV (per-method
aggregates, plot-ready).  With ``record_timing`` off the time columns are
written as 0.0, making the raw CSV byte-reproducible from (config, seed).
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field, fields
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .analysis import relative_error
from .datagen import gen_heavy_tail_instance, gen_normal_instance
from .estimators import _two_step_plan, estimate_product, estimate_product_block_sampling
from .matrix import BlockPartition, as_int, check_type, multiply_exact, write_csv
from .plan import _allocate, _guided, _profile, allocate_uniform, block_norm_probabilities, uniform_probabilities

SWEEPABLE = ("K", "c", "c0")

IntOrSweep = int | tuple


class ResourceCapError(RuntimeError):
    """Estimated memory footprint exceeds the configured cap."""


def _normalize_knob(name: str, value) -> IntOrSweep:
    if isinstance(value, (list, tuple, np.ndarray)):
        vals = tuple(as_int(name, v) for v in value)
        if len(vals) == 0:
            raise ValueError(f"{name}: sweep list is empty")
        return vals
    return as_int(name, value)


# The passes shared by every replication on one partition, in the order they
# are made; each METHODS entry names the ones its plan reads.
_PASSES = {
    "prof": lambda s: _profile(s.M, s.N, s.part),
    "probs": lambda s: _guided(s.prof.probs),
    "weights": lambda s: s.prof.optimal_weights,  # forms the stack of block products
    "q": lambda s: block_norm_probabilities(s.M, s.N, s.part),
    "uniform": lambda s: uniform_probabilities(s.part),
}


class Method(NamedTuple):
    """The ``_PASSES`` a method's plan reads; whether it draws in every block
    (c >= K) and pilots (c0 >= K, holding a c0-column sketch); and
    ``prepare(shared, c, c0, rng)``, which returns its sampling step."""

    passes: tuple[str, ...]
    per_block: bool
    pilots: bool
    prepare: Callable


def _share(M: np.ndarray, N: np.ndarray, part: BlockPartition, methods: Sequence[str]) -> SimpleNamespace:
    """What the METHODS entries read: the caller's M and N, which estimates
    sample, the partition, and each pass that ``methods`` read, made once
    and timed; ``charge[tag]`` is the seconds of the passes ``tag`` reads."""
    s = SimpleNamespace(M=M, N=N, part=part, charge=dict.fromkeys(methods, 0.0), **dict.fromkeys(_PASSES))
    for name, make in _PASSES.items():
        readers = [tag for tag in methods if name in METHODS[tag].passes]
        if readers:
            t0 = time.process_time()
            setattr(s, name, make(s))
            seconds = time.process_time() - t0
            for tag in readers:
                s.charge[tag] += seconds
    return s


def _sample(s, plan, rng) -> Callable:
    return lambda: estimate_product(s.M, s.N, plan, rng)[1]


def _allocated(label: str) -> Callable:
    return lambda s, c, c0, rng: _sample(s, _allocate(s.prof, c, label), rng)


def _piloted(pilot: str) -> Callable:
    return lambda s, c, c0, rng: _sample(s, *_two_step_plan(s.prof, c, c0 // s.part.num_blocks, rng, pilot))


def _whole_blocks(s, c, c0, rng):
    # Budget parity with the column samplers: b blocks of n/K columns
    # each cost about as much as c column draws.
    draws = max(1, round(c * s.part.num_blocks / s.part.total))
    return lambda: estimate_product_block_sampling(s.M, s.N, s.part, draws, rng, probs=s.q)[1]


# The method table.  Its order keys the replication streams, so a new method
# is appended.  The uniform pilot reads the vector the shared pass cached on
# the partition.  A column sampler splits the replication's rng, or a
# two-step plan's main stream, into its block streams.  The config has
# checked c and c0, so a two-step plan takes floor(c0/K) pilot draws per block.
METHODS: dict[str, Method] = {
    "OPL": Method(("prof", "probs", "weights"), True, False, _allocated("OPL")),
    "ONC": Method(("prof", "probs"), True, False, _allocated("ONC")),
    "ONU": Method(("prof", "probs", "uniform"), True, True, _piloted("uniform")),
    "ONMCNR": Method(("prof", "probs"), True, True, _piloted("norm")),
    "UU": Method(("uniform",), True, False, lambda s, c, c0, rng: _sample(s, allocate_uniform(s.part, c), rng)),
    "SSM": Method(("q",), False, False, _whole_blocks),
}
METHOD_TAGS = tuple(METHODS)


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark run.  Exactly one of K, c, c0 must be a sweep list;
    ``methods`` may also be one comma-separated string of tags."""

    case: str = "II"
    methods: tuple[str, ...] = METHOD_TAGS
    m: int = 26
    n: int = 20000
    p: int = 28
    K: IntOrSweep = 10
    c: IntOrSweep = (2000, 4000, 8000)
    c0: IntOrSweep = 200
    reps: int = 20
    seed: int = 12345
    out: str = "bench_results"
    record_timing: bool = True
    max_bytes: int = 2**31
    sweep_var: str = field(init=False)  # the one knob given as a sweep list

    def __post_init__(self):
        if self.case not in ("I", "II"):
            raise ValueError(f"case must be 'I' or 'II', got {self.case!r}")
        methods = self.methods
        if isinstance(methods, str):  # "A, B", as a config file or the CLI writes it
            methods = [t.strip() for t in methods.split(",") if t.strip()]
        if not isinstance(methods, (list, tuple)):
            raise ValueError(f"methods must be a list of tags or one comma-separated string, got {methods!r}")
        methods = tuple(methods)
        if not methods:
            raise ValueError("methods must be a nonempty subset of " + ", ".join(METHODS))
        for tag in methods:
            if tag not in METHODS:
                raise ValueError(f"unknown method {tag!r}; valid: {', '.join(METHODS)}")
        if len(set(methods)) != len(methods):
            raise ValueError("duplicate method names")
        object.__setattr__(self, "methods", methods)
        for name, low in (("m", 1), ("n", 1), ("p", 1), ("reps", 1), ("seed", 0), ("max_bytes", 1)):
            value = as_int(name, getattr(self, name))
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
            object.__setattr__(self, name, value)
        for name in SWEEPABLE:
            object.__setattr__(self, name, _normalize_knob(name, getattr(self, name)))
        swept = [name for name in SWEEPABLE if isinstance(getattr(self, name), tuple)]
        if len(swept) != 1:
            raise ValueError(f"exactly one of {SWEEPABLE} must be a sweep list, got {swept or 'none'}")
        object.__setattr__(self, "sweep_var", swept[0])
        if not isinstance(self.record_timing, bool):
            raise ValueError(f"record_timing must be true or false, got {self.record_timing!r}")
        if not isinstance(self.out, (str, os.PathLike)):
            raise ValueError(f"out must be a directory path, got {self.out!r}")
        # write_results makes it after the whole sweep, and a file in the way fails there.
        existing = next(d for d in (Path(self.out), *Path(self.out).parents) if d.exists())
        if not existing.is_dir():
            raise ValueError(f"out must be a directory path, but {existing} is a file")
        column_samplers = [tag for tag in methods if METHODS[tag].per_block]
        two_step = sorted(tag for tag in methods if METHODS[tag].pilots)
        for K, c, c0 in map(self.resolved, self.sweep_values):
            if K < 1 or self.n % K != 0:
                raise ValueError(f"n={self.n} must be divisible by K={K} (equal blocks)")
            if not 1 <= c <= self.n:
                raise ValueError(f"c={c} must lie in [1, n={self.n}]")
            if column_samplers and c < K:
                raise ValueError(f"c={c} below K={K}: {column_samplers} draw at least once per block")
            if two_step and c0 < K:
                raise ValueError(f"c0={c0} below K={K}: no pilot draws for {two_step}")

    @property
    def sweep_values(self) -> tuple[int, ...]:
        return getattr(self, self.sweep_var)

    def resolved(self, value: int) -> tuple[int, int, int]:
        """(K, c, c0) at one sweep point."""
        knobs = {name: getattr(self, name) for name in SWEEPABLE}
        knobs[self.sweep_var] = value
        return knobs["K"], knobs["c"], knobs["c0"]


def config_from_dict(doc: Mapping) -> ExperimentConfig:
    known = {f.name for f in fields(ExperimentConfig) if f.init}
    unknown = set(check_type("doc", doc, Mapping)) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**doc)


def estimate_bytes(config: ExperimentConfig) -> int:
    """Rough peak footprint: instance + exact product + largest sketch, plus
    the stack of block products and the pilot sketch, if a method holds them."""
    m, n, p = check_type("config", config, ExperimentConfig).m, config.n, config.p
    K, c, c0 = (max(v) for v in zip(*map(config.resolved, config.sweep_values)))
    floats = (
        m * n
        + n * p
        + 3 * m * p
        + c * (m + p)
        + 4 * n  # norms, probabilities, cumulative sums
    )
    if any("weights" in METHODS[tag].passes for tag in config.methods):
        floats += K * m * p
    if any(METHODS[tag].pilots for tag in config.methods):
        floats += c0 * (m + p)
    return 8 * floats


@dataclass(frozen=True)
class RawRecord:
    case: str
    method: str
    sweep_var: str
    sweep_value: int
    rep: int
    rel_error: float
    plan_time_s: float
    sample_time_s: float


@dataclass(frozen=True)
class SummaryRecord:
    case: str
    method: str
    sweep_var: str
    sweep_value: int
    reps: int
    rel_error_mean: float
    rel_error_median: float
    rel_error_std: float
    plan_time_mean_s: float
    sample_time_mean_s: float


def make_instance(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """The run's fixed instance; replications only re-randomize sampling."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0,)))
    if config.case == "I":
        return gen_normal_instance(config.m, config.n, config.p, rng)
    return gen_heavy_tail_instance(config.m, config.n, config.p, rng)


def replication_rng(seed: int, sweep_index: int, method: str, rep: int) -> np.random.Generator:
    """Independent stream per (sweep point, method, replication); indexing by
    the full method table keeps streams stable across method subsets."""
    key = (1, sweep_index, list(METHODS).index(method), rep)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def run(config: ExperimentConfig) -> tuple[list[RawRecord], list[SummaryRecord]]:
    """Execute the configured sweep; deterministic given (config, seed)."""
    need = estimate_bytes(config)
    if need > config.max_bytes:
        raise ResourceCapError(f"estimated {need} bytes exceeds the cap of {config.max_bytes}")
    M, N = make_instance(config)
    exact = multiply_exact(M, N)
    raw: list[RawRecord] = []
    shared = None
    for si, value in enumerate(config.sweep_values):
        K, c, c0 = config.resolved(value)
        if shared is None or shared.part.num_blocks != K:
            shared = _share(M, N, BlockPartition.equal(config.n, K), config.methods)
        for method in config.methods:
            for rep in range(config.reps):
                rng = replication_rng(config.seed, si, method, rep)
                t0 = time.process_time()
                sample = METHODS[method].prepare(shared, c, c0, rng)
                t1 = time.process_time()
                estimate = sample()
                plan_t, sample_t = t1 - t0 + shared.charge[method], time.process_time() - t1
                if not config.record_timing:
                    plan_t = sample_t = 0.0
                raw.append(RawRecord(
                    case=config.case, method=method, sweep_var=config.sweep_var, sweep_value=value, rep=rep,
                    rel_error=relative_error(estimate, exact), plan_time_s=plan_t, sample_time_s=sample_t,
                ))
    return raw, summarize(raw)


def summarize(raw: Sequence[RawRecord]) -> list[SummaryRecord]:
    """Per (sweep point, method) aggregates, in first-appearance order."""
    if not raw:
        raise ValueError("no results to summarize")
    groups: dict[tuple, list[RawRecord]] = {}
    for r in raw:
        groups.setdefault((r.sweep_value, r.method), []).append(r)
    out = []
    for (value, method), rows in groups.items():
        errs = np.array([r.rel_error for r in rows])
        out.append(
            SummaryRecord(
                case=rows[0].case,
                method=method,
                sweep_var=rows[0].sweep_var,
                sweep_value=value,
                reps=len(rows),
                rel_error_mean=float(errs.mean()),
                rel_error_median=float(np.median(errs)),
                rel_error_std=float(errs.std(ddof=1)) if len(rows) > 1 else 0.0,
                plan_time_mean_s=float(np.mean([r.plan_time_s for r in rows])),
                sample_time_mean_s=float(np.mean([r.sample_time_s for r in rows])),
            )
        )
    return out


def write_records(path, records: Sequence) -> None:
    """CSV of dataclass records: the field names, then one row per record."""
    if not records:
        raise ValueError("no records to write")
    names = [f.name for f in fields(records[0])]
    write_csv(path, names, ([getattr(r, name) for name in names] for r in records))


def write_results(out_dir, raw: Sequence[RawRecord], summary: Sequence[SummaryRecord]) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    raw_path = out / "raw.csv"
    summary_path = out / "summary.csv"
    write_records(raw_path, raw)
    write_records(summary_path, summary)
    return raw_path, summary_path
