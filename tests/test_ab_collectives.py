"""Smoke tests of the A/B harness in ``tools/``, the isolation of the two
trees it loads, and the arithmetic of its table."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "ab_collectives.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("ab_collectives", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
        assert row[1] == "3" and row[6] in ("0/1", "1/1")
        assert float(row[2]) > 0 and float(row[4]) > 0
        assert len(row) == 11 and all(float(row[i]) >= 0 for i in (9, 10))


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


ISOLATION = """
import json, sys
sys.path.insert(0, sys.argv[1])
import ab_collectives as ab
trees = {"ab_parent": ab.load_tree(sys.argv[2], "ab_parent"),
         "ab_change": ab.load_tree(sys.argv[3], "ab_change")}
print(json.dumps({
    "files": {name: module.__file__ for name, module in sys.modules.items()
              if name.split(".")[0] in trees},
    "distinct": trees["ab_parent"].collectives
                is not trees["ab_change"].collectives,
    "lioncomm": [name for name in sys.modules
                 if name.split(".")[0] == "lioncomm"]}))
"""


def test_each_tree_runs_only_its_own_modules(tmp_path):
    # An absolute ``lioncomm`` import inside src/ would resolve through
    # PYTHONPATH and time the same code on both sides; this catches it.
    src = os.path.join(ROOT, "src")
    copy = tmp_path / "src"
    shutil.copytree(os.path.join(src, "lioncomm"), copy / "lioncomm",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "-c", ISOLATION, os.path.dirname(TOOL), src,
         str(copy)], capture_output=True, text=True, timeout=60, check=True,
        env={**os.environ, "PYTHONPATH": src})
    seen = json.loads(done.stdout)
    assert seen["distinct"] and seen["lioncomm"] == []
    trees = {"ab_parent": os.path.realpath(src),
             "ab_change": os.path.realpath(copy)}
    names = {side: {name.partition(".")[2] for name in seen["files"]
                    if name.split(".")[0] == side} for side in trees}
    assert names["ab_parent"] == names["ab_change"]
    assert {"", "collectives", "optimizer", "runner"} <= names["ab_parent"]
    for name, path in seen["files"].items():
        tree = trees[name.split(".")[0]]
        assert os.path.commonpath([os.path.realpath(path), tree]) == tree


def test_compare_and_the_table_read_synthetic_runs(capsys):
    # Figures per pair: (cpu, wall, faults).  Parent CPU 40, 10, 30, 20;
    # change CPU 20, 10, 40, 10: a tie (10 against 10) is no win.
    ab = load_tool()
    row = ("ps", 5)
    runs = {"parent": {row: [(40.0, 41.0, 3.0), (10.0, 11.0, 1.0),
                             (30.0, 31.0, 1.0), (20.0, 21.0, 2.0)]},
            "change": {row: [(20.0, 21.0, 0.0), (10.0, 11.0, 0.0),
                             (40.0, 41.0, 0.0), (10.0, 11.0, 0.0)]}}
    assert ab.compare(runs, row, 0) == (17.5, 25.0, 32.5, 15.0, 2)
    assert ab.compare(runs, row, 2) == (1.0, 1.5, 2.25, 0.0, 4)
    ab.print_table("title", "algo", runs, toy=False)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "title" and lines[1].split()[:2] == ["algo", "N"]
    assert lines[2].split() == ["ps", "5", "25.0", "17.5-32.5", "15.0",
                                "0.600", "2/4", "26.0", "16.0", "1.5", "0.0"]
