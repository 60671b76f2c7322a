"""Smoke test of the benchmark at reduced sample counts.

    python3 perfbench/smoke.py

Runs run.py on every workload in both modes and checks that the last
line carries exactly the metrics BENCHMARK.json names, with their units,
and that every study passed. Then runs one study per workload in process
and checks that its correctness check accepts the real outputs and
rejects a doctored copy. Exits non-zero on the first failure.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# gaussian-20m keeps 8M samples: the scenario's own closed-form
# tolerances are about 5 standard errors there, 8 at full size
SCALES = {"gaussian-20m": 0.4, "rare-mixture-export": 0.05, "dense-calibrated": 0.05}


def fail(message: str) -> None:
    sys.exit(f"smoke: FAIL: {message}")


def check_emitted(workload: str, trace: int) -> None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--scale", str(SCALES[workload])]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        fail(f"{workload} trace {trace}: exit code {proc.returncode}\n{proc.stderr}")
    *_, detail_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    detail = json.loads(detail_line)["detail"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace {trace}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        fail(f"{workload} trace {trace}: {result_line}\n" + "\n".join(detail["problems"]))
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != expected:
        fail(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(expected) - set(emitted))}, extra {sorted(set(emitted) - set(expected))}, "
             f"units {[(k, emitted[k], expected[k]) for k in expected if k in emitted and emitted[k] != expected[k]]}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"{workload} trace {trace}: {name} = {m['value']!r}")
    kinds = {s["kind"] for s in detail["studies"]}
    wanted = {"entry-point", "traced"} if trace else {"entry-point", "fresh-process"}
    if not wanted <= kinds:
        fail(f"{workload} trace {trace}: studies of kinds {sorted(kinds)}, expected {sorted(wanted)}")
    if trace:
        check_spans(workload, sum(1 for s in detail["studies"] if s["kind"] == "traced"))
    print(f"smoke: {workload} trace {trace}: {len(emitted)} metrics, {result['attempted']} studies, all correct")


def check_spans(workload: str, traced: int) -> None:
    """One root span per traced study; every other span nests in its study's root."""
    path = HERE.parent / ".perfbench-out" / f"trace-{workload}-seed7.json"
    spans = json.loads(path.read_text())["spans"]
    roots = [s for s in spans if s["parent"] is None]
    if [s["name"] for s in roots] != ["study"] * traced:
        fail(f"{workload}: {len(roots)} root spans {sorted({s['name'] for s in roots})} for {traced} traced studies")
    for s in spans:
        if s["parent"] is not None and spans[s["parent"]]["study"] != s["study"]:
            fail(f"{workload}: span {s['id']} {s['name']} has a parent from another study")
        if not s["start"] <= s["end"] or s["self_s"] < 0.0:
            fail(f"{workload}: span {s['id']} {s['name']} has start {s['start']}, end {s['end']}, self {s['self_s']}")
    if "engine.simulate" not in {s["name"] for s in spans}:
        fail(f"{workload}: no engine.simulate span")


def rewrite_json(path: str, edit) -> None:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def check_rejects(workloads, workdir: str) -> None:
    seed = 11
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(str(Path(workdir) / name), SCALES[name])
        Path(wl.workdir).mkdir()
        wl.prepare()
        handle = wl.study(seed)
        if not wl.check(seed, handle).ok:
            fail(f"{name}: check rejected a correct study: {wl.check(seed, handle).problems}")
        if name == "gaussian-20m":
            code, text, (result,) = handle
            wrong = dataclasses.replace(result, report=dataclasses.replace(result.report, beta_s=result.report.beta_s + 0.5))
            doctored = (code, text, [wrong])
        elif name == "rare-mixture-export":
            def double_failures(doc):
                doc["summary"]["failureCount"] *= 2
                doc["metrics"]["pf"] = doc["summary"]["failureCount"] / doc["summary"]["n"]

            rewrite_json(wl.outputs["reportJson"], double_failures)
            doctored = handle
        else:
            rewrite_json(wl.report_path, lambda d: d["metrics"].update(betaS=d["metrics"]["betaS"] + 1e-9))
            doctored = handle
        problems = wl.check(seed, doctored).problems
        if not problems:
            fail(f"{name}: check accepted a doctored output")
        print(f"smoke: {name}: check rejects a doctored output: {problems[0][:100]}")


def main() -> int:
    for w in BENCHMARK["workloads"]:
        for trace in (0, 1):
            check_emitted(w["name"], trace)
    sys.path.insert(0, str(HERE))
    import run

    run.import_sevrel()
    import workloads

    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="smoke-", dir=run.OUT_DIR)
    try:
        check_rejects(workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
