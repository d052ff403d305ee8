"""Run one workload of the blockmm benchmark.

    python3 benchmark/run.py --workload desk-heavy --seed 1 --seconds 30 --trace 0

Imports the library from ``src/`` of the checkout this file sits in.  Prints
the manifest, the checks and every metric by name with its unit, and as the
last line one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The full result document, and with ``--trace 1`` the spans,
go to ``.bench_out/`` in the checkout.  Exits 1 when a correctness check
fails and 2 when the library is missing.
"""

import os

# BLAS is pinned to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "blockmm" / "__init__.py").is_file():
        print(f"error: no blockmm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness  # after the path and the BLAS pin are in place

    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    out_root = ROOT / ".bench_out"
    doc = {"manifest": harness.manifest(workload, args.seed, ROOT)}
    doc.update(harness.run_benchmark(workload, args.seed, args.seconds, bool(args.trace), out_root))
    out = out_root / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    emit(doc)
    return 0 if doc["correct"] else 1


def emit(doc: dict) -> None:
    """Human-readable lines, then the result object as the last line."""
    print("manifest " + json.dumps(doc["manifest"], sort_keys=True))
    for name, check in doc["info"]["checks"].items():
        print(f"check {name} {'PASS' if check['ok'] else 'FAIL'} {check['detail']}".rstrip())
    print(f"replications {doc['info']['replications']} samples {json.dumps(doc['info']['samples'])}")
    for name, m in doc["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    sys.exit(main())
