"""Self-tests of the benchmark at toy size.

    python3 -m pytest perfbench

Each workload runs with --toy, where the traced pass also compares every
factorization against tests/oracle.py, so a check that is too weak cannot
hide a wrong parse.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(cwd: Path, workload: str, trace: int = 1, toy: bool = True) -> subprocess.CompletedProcess:
    args = ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run([sys.executable, "perfbench/run.py", *args] + (["--toy"] if toy else []),
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_workload_passes_checks_and_oracle(workload):
    proc = run(ROOT, workload)
    res = result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2, proc.stderr
    assert set(res["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    # only a tail latency may lack samples at toy size; no layer may be missing
    missing = [ln for ln in proc.stdout.splitlines() if " missing " in ln]
    assert all("_tail_ms missing" in ln for ln in missing), missing
    assert f"{workload} error_rate 0 " in proc.stdout


def test_untraced_run_reports_end_to_end_metrics():
    res = result(run(ROOT, "pair-binary", trace=0))
    assert set(res["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "pair-binary")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_oracle_catches_a_wrong_parse(tmp_path):
    """References cut one byte short still decode and leave the NSD matrix
    and trees plausible, so only the oracle comparison can tell."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for d in ("perfbench", "src"):
        shutil.copytree(ROOT / d, tmp_path / d, ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "tests").mkdir()
    shutil.copy(ROOT / "tests" / "oracle.py", tmp_path / "tests")
    lz = tmp_path / "src" / "salza" / "lz.py"
    cond = "if best_len >= MIN_MATCH:"
    assert cond in lz.read_text()
    lz.write_text(lz.read_text().replace(cond, "best_len -= best_len > MIN_MATCH\n        " + cond))
    proc = run(tmp_path, "nsd-markov64")
    res = result(proc)
    assert not res["correct"] and res["failed"] > 0
    assert "differ from the oracle" in proc.stderr
