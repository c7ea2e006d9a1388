"""Tests of the benchmark itself, on the tiny size of every workload."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(run.WORKLOADS)
COUNT_UNITS = {"count", "calls/point", "B"}


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=root, timeout=170,
    )


def result(root: Path, workload: str, trace: int) -> dict:
    proc = bench(root, workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced_twice():
    return {w: (result(ROOT, w, 1), result(ROOT, w, 1)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted(workload):
    res = result(ROOT, workload, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {n: u for n, u, _, _ in run.END_TO_END}
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_is_emitted_and_counts_repeat(workload, traced_twice):
    first, second = traced_twice[workload]
    for res in (first, second):
        assert res["correct"]
        assert {k: v["unit"] for k, v in res["metrics"].items()} == {n: u for n, u, _ in run.PER_LAYER}
    counts = [n for n, unit, _ in run.PER_LAYER if unit in COUNT_UNITS]
    assert [first["metrics"][n]["value"] for n in counts] == [second["metrics"][n]["value"] for n in counts]


def test_recorded_digests_cover_the_tiny_runs():
    table = json.loads(workloads.DIGESTS.read_text())
    assert len(table["closed_form"][workloads.digest_key(True)]) >= workloads.WORKLOADS["closed_form"].sweep
    assert len(table["cli_cold"][workloads.digest_key(True)]) == 1


def test_closed_form_pass_holds_the_same_points_for_every_seed():
    def key(p):
        return p.n, p.alpha, p.sigma

    for k in range(3):
        first, second = (workloads.closed_form_pass(seed, False, k) for seed in (0, 1))
        assert first != second and sorted(first, key=key) == sorted(second, key=key)


def test_wrong_recorded_digest_makes_ops_fail(tmp_path):
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    wrong = {"closed_form": {"tiny": ["0" * 64] * 4}, "cli_cold": {"tiny": ["0" * 64]}}
    (tmp_path / "perfbench" / "digests.json").write_text(json.dumps(wrong))
    for workload in ("closed_form", "cli_cold"):
        res = result(tmp_path, workload, 0)
        assert not res["correct"] and res["failed"] > 0


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "verify_grid", 0)
    assert proc.returncode != 0 and proc.stdout == ""


def test_op_times_are_scaled_by_the_gauge_and_take_the_median_round():
    rounds = [
        {"latencies": [0.010, None], "gauges": [1.0, 1.0]},
        {"latencies": [0.030, None], "gauges": [2.0, 1.0]},  # a host half as fast
        {"latencies": [0.040, 0.020], "gauges": [1.0, 1.0]},
    ]
    assert run.op_latencies(rounds) == pytest.approx([0.015, 0.020])
    assert run.op_latencies(rounds, scaled=False) == pytest.approx([0.030, 0.020])


def test_memory_guard_refuses_an_oversized_window():
    with pytest.raises(workloads.Refused):
        workloads.oracle_op(workloads.point(9, 0, -6))


def test_manifest_matches_the_committed_benchmark_json():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == run.manifest()
