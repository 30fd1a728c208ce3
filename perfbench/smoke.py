"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload for one cycle (``--seconds 1``) with tracing off and
on.  Each run must exit 0, pass its output checks and print every metric
``BENCHMARK.json`` names for its mode, with its unit; the traced runs of
``action`` and ``curve`` must count no ``adsgeom`` or ``forms`` call.
Last, the benchmark must fail, without printing a result, in a directory
that holds only ``BENCHMARK.json`` and ``perfbench/``.  Takes about a
minute; exits 1 on the first failed expectation.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def expect(cond, what):
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)


def check_run(workload, trace):
    proc = bench(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    expect(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys {sorted(result)}")
    expect(result["correct"] is True and result["failed"] == 0
           and result["attempted"] >= 1, f"{label}: checks {result}")
    specs = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    expect(set(metrics) == {s["name"] for s in specs},
           f"{label}: metric names differ from BENCHMARK.json")
    for s in specs:
        m = metrics[s["name"]]
        expect(m["unit"] == s["unit"] and math.isfinite(m["value"]),
               f"{label}: {s['name']} = {m}")
        if not trace:
            expect(m["value"] != 0, f"{label}: end-to-end {s['name']} is 0")
    if trace and workload in ("action", "curve"):
        stray = [n for n, m in metrics.items()
                 if n.startswith(("adsgeom.", "forms.")) and m["value"] != 0]
        expect(not stray, f"{label}: adsgeom/forms work on {workload}: {stray}")
    print(f"ok   {label}: attempted {result['attempted']}")


def check_bare_checkout():
    bare = ROOT / ".perfbench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench(bare, "lens", 0)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               f"bare checkout: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"ok   bare checkout: exit {proc.returncode}")


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_run(workload, trace)
    check_bare_checkout()
    return 0


if __name__ == "__main__":
    sys.exit(main())
