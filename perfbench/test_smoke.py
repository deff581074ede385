"""Smoke test of the benchmark itself, at tiny sizes (n <= 4).

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--size", "tiny", "--seconds", "0.3", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout.splitlines()


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_prints_every_metric(workload, trace):
    code, lines = bench("--workload", workload, "--seed", "3", "--trace", trace)
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    text = "\n".join(lines[:-1])
    assert all(m["name"] in text for m in expected)


def test_corrupted_golden_counts_as_failure():
    goldens = json.loads((HERE / "goldens.json").read_text())
    goldens["verify --max-n 4"]["sha256"] = "0" * 64
    corrupted = HERE / "out" / "corrupted-goldens.json"
    corrupted.parent.mkdir(exist_ok=True)
    corrupted.write_text(json.dumps(goldens))
    code, lines = bench("--workload", "verify", "--seed", "1", "--goldens", str(corrupted))
    result = json.loads(lines[-1])
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_cold_cache_guard_names_an_unregistered_cache():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import worker

    worker.import_nckit()
    probe = types.ModuleType("nckit.probe")
    exec("import functools\n"
         "@functools.lru_cache(maxsize=None)\n"
         "def table(n):\n"
         "    return n\n", vars(probe))
    probe.table(1)
    sys.modules[probe.__name__] = probe
    try:
        caches = worker.package_caches()
        assert "nckit.probe.table" in [name for name, _ in caches]
        with pytest.raises(SystemExit, match="nckit.probe.table"):
            worker.clear_cold(caches)
    finally:
        del sys.modules[probe.__name__]
