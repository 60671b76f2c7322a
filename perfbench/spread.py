"""Run a workload on several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload rare-mixture-export --seeds 1-10 --json a.json
    python3 perfbench/spread.py --compare a.json b.json

The spread of a metric is the distance between the first and third
quartiles of its values (statistics.quantiles, n=4) as a share of their
median. A set of runs is steady when every spread is within its bound
from BENCHMARK.json; the target is a third of the bound. --compare checks
that the medians of a second set of runs are not worse than the first
set's by more than the bound. Each run lasts BENCHMARK.json's
run_seconds. The command exits 1 when a spread or a median is outside
its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_seeds(workload: str, seeds: list[int]) -> dict:
    seconds = BENCHMARK["run_seconds"]
    runs = []
    for seed in seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit code {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append({"seed": seed, "wall_s": wall, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"], "metrics": values})
        print(f"seed {seed}: {wall:.1f} s wall, correct={result['correct']}, "
              + ", ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
    return {"workload": workload, "seconds": seconds, "runs": runs}


def summarize(data: dict) -> dict:
    out = {}
    for name, spec in METRICS.items():
        values = [r["metrics"][name] for r in data["runs"]]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "bound": spec["bound"]}
    return out


def print_summary(data: dict) -> bool:
    """Print each metric's spread; True when every spread is within its bound."""
    print(f"{data['workload']}: {len(data['runs'])} runs of {data['seconds']} s")
    ok = True
    for name, s in summarize(data).items():
        ok = ok and s["spread"] <= s["bound"]
        verdict = "steady" if s["spread"] < s["bound"] / 3 else ("within bound" if s["spread"] <= s["bound"] else "TOO WIDE")
        print(f"  {name:<22} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {s['spread']:.3f}  bound {s['bound']}  {verdict}")
    return ok


def compare(first: dict, second: dict) -> bool:
    """Print each median's change; True when none is worse than its bound."""
    a, b = summarize(first), summarize(second)
    print(f"{first['workload']}: second median against first")
    ok = True
    for name, spec in METRICS.items():
        change = (b[name]["median"] - a[name]["median"]) / a[name]["median"]
        worse = change if spec["better"] == "lower" else -change
        ok = ok and worse <= spec["bound"]
        verdict = "ok" if worse <= spec["bound"] else "WORSE THAN BOUND"
        print(f"  {name:<22} {a[name]['median']:.6g} -> {b[name]['median']:.6g}  ({change:+.3%})  {verdict}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--json", help="also write the runs to this file")
    parser.add_argument("--compare", nargs=2, metavar="JSON", help="compare two saved sets of runs")
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        steady = [print_summary(first), print_summary(second)]
        return 0 if compare(first, second) and all(steady) else 1
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    data = run_seeds(args.workload, seed_range(args.seeds))
    if args.json:
        Path(args.json).write_text(json.dumps(data, indent=1) + "\n")
    return 0 if print_summary(data) else 1


if __name__ == "__main__":
    sys.exit(main())
