"""Smoke test of the benchmark harness: tiny sizes, every workload, both modes."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# End-to-end metrics printed beside the ones BENCHMARK.json gates on.
EXTRA = {"error_rate": "ratio"}
ONLY_ON = {"complex-float": {"witness_rate": "ratio", "converged_rate": "ratio"}}


def test_smoke_prints_every_metric_with_unit_and_no_errors():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    final = json.loads(lines[-1])
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0

    printed, workload = {}, None
    for line in lines[:-1]:
        if line.startswith("== "):
            workload = line.split()[1]
            printed[workload] = {}
        elif line.startswith("  ") and not line.startswith("  FAILED"):
            name, value, *unit = line.split()
            printed[workload][name] = (value, " ".join(unit))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert sorted(printed) == sorted(w["name"] for w in spec["workloads"])
    for workload, metrics in printed.items():
        want = {**declared, **EXTRA, **ONLY_ON.get(workload, {})}
        for name, unit in want.items():
            assert name in metrics, f"{workload}: {name} not printed"
            assert metrics[name][1] == unit, f"{workload}: {name} printed in {metrics[name][1]}"
        assert float(metrics["error_rate"][0]) == 0
