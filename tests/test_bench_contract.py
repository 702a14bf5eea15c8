"""The traced benchmark's tables name functions and algorithms that exist.

``bench/tracing.py`` wraps lioncomm functions by name and maps each vote
algorithm to its collective and cost-model name.  A renamed function or
algorithm, or a call the wrappers cannot see, would otherwise show only
when the traced benchmark runs.
"""

import importlib
import importlib.util
import pathlib

import numpy as np
import pytest

from lioncomm import collectives, costmodel
from lioncomm.optimizer import VOTE_ALGOS
from lioncomm.quant import SignPolicy

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


def test_one_bit_vote_records_pack_and_unpack_spans():
    """The span guard expects ``quant.pack``/``quant.unpack`` on the 1-bit
    path; both must go through the wrappers ``tracing.patched`` installs."""
    tracer = tracing.Tracer(2)
    xs = [np.random.default_rng(r).normal(size=37) for r in range(2)]

    def rank(topo):
        tracer.bind(topo.rank)
        return collectives.compressed_allreduce_1bit(
            xs[topo.rank], topo, SignPolicy("alternating", 1))

    with tracing.patched(tracer):
        collectives.run_ranks(2, rank, timeout=5)
    for totals in tracer.totals:
        for name in ("quant.pack", "quant.unpack"):
            assert totals[name][tracing.CALLS] > 0, name
