"""Self-test of the benchmark on tiny inputs.

    python3 -m pytest -q perfbench/test_smoke.py

Every metric BENCHMARK.json names must be emitted with its unit, on every
workload, untraced and traced; the same seed must give the same input
bytes; and without the program's sources the benchmark must fail without
printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, *args):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *map(str, args)],
                          capture_output=True, text=True, timeout=170, cwd=root)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", 3, "--seconds", 0.5,
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_same_seed_same_input_bytes():
    digests = []
    for _ in range(2):
        proc = bench(ROOT, "--workload", "plan-phantom", "--seed", 5, "--seconds", 0.1,
                     "--trace", 0, "--smoke")
        assert proc.returncode == 0, proc.stderr[-3000:]
        digests.append(json.loads(
            (ROOT / ".perfbench_out" / "plan-phantom-seed5-trace0-smoke.json").read_text()
        )["input_digests"])
    assert digests[0] == digests[1]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "plan-phantom", "--seed", 1, "--seconds", 1,
                 "--trace", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
