"""Checks of the benchmark harness itself, on the quick (smallest) sizes.

    python3 -m pytest -q gmbench

Each workload runs once untraced and the elementary one twice traced, as child
processes of the test, with every oracle active.
"""

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oracles as o  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "gmbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_run_is_correct_and_reports_every_metric(workload):
    result = result_of(bench("--workload", workload, "--seed", "5", "--seconds", "0", "--quick"))
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # the two known cli faults fail in every round, nothing else fails
    ops = workloads.build(workload, 5, True, workloads.CliRunner(ROOT, ROOT))
    assert sum(op.fault is not None for op in ops) == (2 if workload == "cli" else 0)
    assert result["failed"] * len(ops) == sum(op.fault is not None for op in ops) * result["attempted"]


def test_traced_counts_repeat_exactly():
    args = ("--workload", "elementary", "--seed", "3", "--seconds", "0", "--quick", "--trace", "1")
    first, second = result_of(bench(*args)), result_of(bench(*args))
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [name for name, m in first["metrics"].items() if m["unit"] == "count"]
    assert counts and all(first["metrics"][n] == second["metrics"][n] for n in counts)
    assert first["metrics"]["cyclotomic.is_zero_calls"]["value"] > 0


def test_speed_scale_uses_and_removes_the_samples_of_a_span():
    with run.SpeedScale(0.05) as clock:
        mark = clock.start()
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        scaled = clock.seconds(mark)
    samples = clock.samples[mark[0]:]  # one before, those during, one after
    assert len(samples) >= 5
    expected = (0.3 - sum(samples[1:-1])) * run.REFERENCE_S / statistics.fmean(samples)
    assert scaled == pytest.approx(expected, rel=0.05)


def test_same_seed_same_inputs():
    def names_and_tags(seed):
        return [(op.name, op.tag) for op in workloads.build("group-scale", seed, False, None)]
    assert names_and_tags(4) == names_and_tags(4)
    first = workloads.build("elementary", 4, True, None)
    assert [op.name for op in first] == [op.name for op in workloads.build("elementary", 9, True, None)]


def test_checks_reject_wrong_answers():
    factors = (6,)
    tau, tau_p = ((0,), (1,), (1,)), ((3,), (4,), (4,))
    op = workloads.decide_op("d", factors, tau, tau_p)
    op.check(op.run({}), {})
    with pytest.raises(o.CheckFailed):
        op.check(None, {})  # "inequivalent" is wrong here
    assert not o.witness_ok(tau, tau_p, (3,), (1, 0, 2), factors)
    with pytest.raises(o.CheckFailed):
        workloads.regularize_op("r", 1).check((type("R", (), {"passed": True})(), None), {})
    assert o.block_violation([(0,), (1,), (0,), (0,)], 2, 2, (2,)) == 0
    assert o.steinitz_support([(0,)], [(2,)], (6,)) == {(0,), (2,), (4,)}


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "gmbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "gmbench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "elementary", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
