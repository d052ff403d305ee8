"""Run the benchmark on several seeds and report each metric's spread.

    python3 benchmark/spread.py --workloads desk-heavy,tiny-many-blocks --seeds 1-10
    python3 benchmark/spread.py --seeds 1-10 --baseline benchmark/baseline.json

Runs ``benchmark/run.py`` once per (workload, seed), one run at a time, and
prints per metric the median over seeds, the quartile spread (q3 - q1) /
median as Python's ``statistics.quantiles(values, n=4)`` gives the quartiles,
and the bound from ``BENCHMARK.json``.  ``--baseline`` writes the medians and
spreads as the committed baseline.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(t) for t in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-3000:]}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", type=Path, help="write medians and spreads here")
    args = parser.parse_args(argv)

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    report = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            t0 = time.perf_counter()
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            print(f"{workload} seed {seed} done in {time.perf_counter() - t0:.1f} s, "
                  f"{result['failed']} of {result['attempted']} operations failed", file=sys.stderr)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        report[workload] = {"attempted": attempted, "failed": failed}
        print(f"\n{workload} ({len(runs)} seeds, {failed} of {attempted} operations failed)")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            s = summarize(values)
            s["unit"] = runs[0]["metrics"][name]["unit"]
            report[workload][name] = s
            bound = bounds[name]
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, s["spread"] / bound)
                flag = "  OVER BOUND" if s["spread"] > bound else ("  over 1/3 bound" if s["spread"] > bound / 3 else "")
            print(f"  {name:48s} {s['median']:12.6g} {s['unit']:6s} spread {s['spread']:7.2%}"
                  f"  bound {'-' if bound is None else f'{bound:.0%}'}{flag}")
    print(f"\nworst spread / bound: {worst:.2f}")
    if args.baseline:
        args.baseline.write_text(json.dumps({
            "seeds": args.seeds, "seconds": args.seconds, "trace": args.trace, "workloads": report,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
