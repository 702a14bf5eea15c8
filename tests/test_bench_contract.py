"""The traced benchmark's tables name functions and algorithms that exist.

``bench/tracing.py`` wraps lioncomm functions by name and maps each vote
algorithm to its collective and cost-model name.  A renamed function or
algorithm would otherwise show only when the traced benchmark runs.
"""

import importlib
import importlib.util
import pathlib

import pytest

from lioncomm import costmodel
from lioncomm.optimizer import VOTE_ALGOS

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module,name", [
    (module, name) for module, names in tracing.WRAPPED.items()
    for name in names])
def test_wrapped_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"lioncomm.{module}"),
                            name, None))


def test_vote_tables_cover_vote_algos():
    assert set(tracing.VOTE_COLLECTIVE) == set(VOTE_ALGOS)
    assert set(tracing.PAPER_NAME) == set(VOTE_ALGOS)
    assert set(tracing.VOTE_COLLECTIVE.values()) <= set(
        tracing.WRAPPED["collectives"])


def test_paper_names_are_cost_model_algorithms():
    assert set(tracing.PAPER_NAME.values()) <= set(costmodel.ALGOS)
