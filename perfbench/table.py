"""Print every end-to-end and per-layer metric, one row per workload.

    python3 perfbench/table.py [--seed 1] [--json out.json]

Runs run.py on each workload with --trace 0 and then --trace 1, for
BENCHMARK.json's run_seconds at full sample counts, and prints
the machine it ran on (nproc, CPU model, Python, numpy and scipy
versions) and the metrics in tables whose rows are workloads. Column
headers give each metric's name, less the table's layer prefix, and its
unit.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
MAX_COLUMNS = 5


def run(workload: str, trace: int, seed: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{workload} --trace {trace}: exit code {proc.returncode}\n{proc.stderr}")
    *_, detail, result = proc.stdout.splitlines()
    return json.loads(detail)["detail"], json.loads(result)


def tables(specs: list[dict]) -> list[tuple[str, list[dict]]]:
    """Group metrics by layer prefix, at most MAX_COLUMNS to a table."""
    groups: dict[str, list[dict]] = {}
    for spec in specs:
        layer = spec["name"].split(".")[0] if "." in spec["name"] else "end-to-end"
        groups.setdefault(layer, []).append(spec)
    out = []
    for layer, members in groups.items():
        for i in range(0, len(members), MAX_COLUMNS):
            out.append((layer, members[i : i + MAX_COLUMNS]))
    return out


def print_table(layer: str, specs: list[dict], results: dict) -> None:
    prefix = "" if layer == "end-to-end" else layer + "."
    heads = [f"{s['name'][len(prefix):]} [{s['unit']}]" for s in specs]
    width0 = max(len(w) for w in results) + 2
    widths = [max(len(h), 12) + 2 for h in heads]
    print(f"\n{layer}")
    print("workload".ljust(width0) + "".join(h.rjust(w) for h, w in zip(heads, widths)))
    for workload, result in results.items():
        cells = [f"{result['metrics'][s['name']]['value']:.6g}" for s in specs]
        print(workload.ljust(width0) + "".join(c.rjust(w) for c, w in zip(cells, widths)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", help="also write every result to this file")
    args = parser.parse_args(argv)

    names = [w["name"] for w in BENCHMARK["workloads"]]
    end_to_end, per_layer, env = {}, {}, None
    for workload in names:
        env, end_to_end[workload] = run(workload, 0, args.seed)
        _, per_layer[workload] = run(workload, 1, args.seed)
    env = env["environment"]
    print("machine: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"seed {args.seed}, {BENCHMARK['run_seconds']} s per run")
    print("correct: " + ", ".join(
        f"{w} {end_to_end[w]['correct'] and per_layer[w]['correct']} "
        f"({end_to_end[w]['failed'] + per_layer[w]['failed']} of "
        f"{end_to_end[w]['attempted'] + per_layer[w]['attempted']} studies failed)" for w in names))
    for layer, specs in tables(BENCHMARK["end_to_end"]):
        print_table(layer, specs, end_to_end)
    for layer, specs in tables(BENCHMARK["per_layer"]):
        print_table(layer, specs, per_layer)
    if args.json:
        doc = {"environment": env, "seed": args.seed, "seconds": BENCHMARK["run_seconds"],
               "end_to_end": end_to_end, "per_layer": per_layer}
        Path(args.json).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
