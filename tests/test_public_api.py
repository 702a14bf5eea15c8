"""The lioncomm names that the demos, the benchmark and the README use exist,
and the fast demos run.

``bench/`` drives lioncomm only through its public names, so trimming a
re-export or renaming a module would otherwise show only when the
benchmark runs.  The names are read from the sources with ``ast``: every
``from lioncomm[.mod] import name``, ``import lioncomm[.mod]`` and
``<alias>.<name>...`` chain on an ``import lioncomm as <alias>``.
"""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def quick_start() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def sources():
    for folder in ("demos", "bench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            yield f"{folder}/{path.name}", path.read_text()
    yield "README.md", quick_start()


def attribute_chain(node):
    """(base name, [attr, ...]) of ``a.b.c``, or None if not a plain chain."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.insert(0, node.attr)
        node = node.value
    return (node.id, parts) if isinstance(node, ast.Name) else None


def lioncomm_names(source: str) -> set[str]:
    """Every dotted path under ``lioncomm`` that ``source`` imports or uses."""
    tree = ast.parse(source)
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module.split(".")[0] == "lioncomm"):
            names.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "lioncomm":
                    names.add(a.name)
                    if a.asname:
                        aliases.add(a.asname)
    for node in ast.walk(tree):
        chain = attribute_chain(node)
        if chain and chain[0] in aliases:
            names.add(".".join(["lioncomm", *chain[1]]))
    return names


def resolve(dotted: str):
    """The object at ``dotted``, importing submodules along the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part):
            importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, part)
    return obj


USES = sorted({(where, name) for where, text in sources()
               for name in lioncomm_names(text)})


def test_every_source_uses_lioncomm():
    assert {where for where, _ in USES} >= {
        "README.md", "bench/loads.py", "bench/reference.py",
        "bench/setup_probe.py", "demos/demo_collectives.py"}


@pytest.mark.parametrize("where,name", USES)
def test_used_name_exists(where, name):
    resolve(name)


@pytest.mark.parametrize("demo", ["demo_collectives.py", "demo_costmodel.py",
                                  "demo_quantization.py"])
def test_fast_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
