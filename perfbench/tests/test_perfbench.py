"""Self-test of the benchmark, on tiny versions of every workload.

    python3 -m pytest perfbench/tests -q

Not part of the repository's tier-1 suite (pytest's testpaths is tests/).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _bench(cwd, *argv):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *argv],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_pass_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)
    assert "failed_frac 0.000000" in proc.stdout


def test_wrong_pinned_equilibrium_makes_failed_frac_nonzero(monkeypatch, capsys):
    for key, value in run.THREAD_ENV.items():
        monkeypatch.setenv(key, value)
    monkeypatch.setitem(workloads.EQUILIBRIA, "case2", (1.0, 0.8))
    assert run.main(["--workload", "settle-case2", "--seed", "3", "--seconds", "0.5",
                     "--size", "tiny"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert "failed_frac 0.000000" not in out


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench(tmp_path, "--workload", "sweep-case1", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_children_on_the_same_thread():
    recorded = [
        spans.Span(1, 0, "outer", 7, 0.0, 10.0, 0.0, 9.0),
        spans.Span(2, 1, "inner", 7, 1.0, 4.0, 1.0, 3.0),
        spans.Span(3, 1, "inner", 7, 5.0, 6.0, 4.0, 5.0),
        spans.Span(4, 0, "inner", 8, 2.0, 9.0, 2.0, 8.0),
    ]
    table = spans.layer_table(recorded)
    assert table["outer"]["self_s"] == pytest.approx(6.0)
    assert table["outer"]["self_cpu_s"] == pytest.approx(6.0)
    assert table["inner"]["calls"] == 3
    assert table["inner"]["self_s"] == pytest.approx(11.0)
    by_thread = {row["thread"]: row for row in spans.thread_accounting(recorded)}
    assert by_thread[7]["root_s"] == pytest.approx(by_thread[7]["self_sum_s"]) == pytest.approx(10.0)
    assert by_thread[8]["root_s"] == pytest.approx(7.0)
