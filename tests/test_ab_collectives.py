"""Smoke test of the per-collective A/B harness in ``tools/``."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_ab_harness_runs_both_sides_and_reports_every_collective():
    src = os.path.join(ROOT, "src")
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ab_collectives.py"),
         "--parent", src, "--change", src, "--n", "3", "--pairs", "1"],
        capture_output=True, text=True, timeout=120, check=True)
    rows = [line.split() for line in done.stdout.splitlines()[2:]]
    assert [r[0] for r in rows] == [
        "ps", "ps_efficient", "direct", "compressed1bit",
        "allreduce_mean_f32", "allgather_f64", "momentum_divergence"]
    for row in rows:
        assert row[1] == "3" and row[-1] in ("0/1", "1/1")
        assert float(row[2]) > 0 and float(row[4]) > 0


def test_ab_harness_times_the_wire_shape():
    # P=2 sign votes: the 2- and 4-bit lanes of the benchmark's wire shape.
    src = os.path.join(ROOT, "src")
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ab_collectives.py"),
         "--parent", src, "--change", src, "--n", "9", "--pairs", "1",
         "--world", "2", "--bits", "1"],
        capture_output=True, text=True, timeout=120, check=True)
    lines = done.stdout.splitlines()
    assert lines[0].startswith("P=2, 1-bit values")
    rows = [line.split() for line in lines[2:]]
    assert len(rows) == 7 and {r[1] for r in rows} == {"9"}
    assert all(float(r[2]) > 0 and float(r[4]) > 0 for r in rows)


def test_ab_harness_times_whole_steps():
    # --step: one distributed_lion_step per vote, scored by thread CPU time.
    src = os.path.join(ROOT, "src")
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ab_collectives.py"),
         "--parent", src, "--change", src, "--n", "5", "--pairs", "1",
         "--step"],
        capture_output=True, text=True, timeout=120, check=True)
    lines = done.stdout.splitlines()
    assert "distributed_lion_step" in lines[0]
    assert lines[1].split()[:3] == ["algo", "N", "parent_cpu_us"]
    rows = [line.split() for line in lines[2:]]
    assert [r[0] for r in rows] == ["ps", "ps_efficient", "direct",
                                    "compressed1bit"]
    for row in rows:
        assert row[1] == "5" and row[6] in ("0/1", "1/1")
        assert all(float(row[i]) > 0 for i in (2, 4, 7, 8))
    # Minor page faults per step, summed over ranks, for each side.
    assert lines[1].split()[-2:] == ["parent_faults", "change_faults"]
    for row in rows:
        assert len(row) == 11 and all(float(row[i]) >= 0 for i in (9, 10))


def test_ab_harness_times_toy_trainings_in_one_interpreter():
    # --toy: both trees under two package names, whole toy trainings,
    # scored by process CPU time per step.
    src = os.path.join(ROOT, "src")
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ab_collectives.py"),
         "--parent", src, "--change", src, "--pairs", "1", "--world", "2",
         "--toy"],
        capture_output=True, text=True, timeout=120, check=True)
    lines = done.stdout.splitlines()
    assert lines[0].startswith("P=2, toy training")
    assert lines[1].split() == ["algo", "parent_cpu_us", "parent_q1-q3",
                                "change_cpu_us", "ratio", "wins",
                                "parent_wall_us", "change_wall_us"]
    rows = [line.split() for line in lines[2:-1]]
    assert [r[0] for r in rows] == ["ps", "ps_efficient", "direct",
                                    "compressed1bit"]
    for row in rows:
        assert len(row) == 8 and row[5] in ("0/1", "1/1")
        assert all(float(row[i]) > 0 for i in (1, 3, 4, 6, 7))
    # One tree against itself ends every block with the same parameters.
    assert lines[-1] == "same final parameters in every block: yes"
