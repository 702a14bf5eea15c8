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
from lioncomm.optimizer import (VOTE_ALGOS, LionHyper, WorkerState,
                                distributed_lion_step)
from lioncomm.quant import INF, QuantSpec, SignPolicy

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


def traced_step_calls(spec, algo):
    """Span call counts, per rank, of one traced two-rank step on one layer."""
    tracer = tracing.Tracer(2)
    start = WorkerState.initial({"w": np.zeros(37)})
    h = LionHyper(lr=0.01)

    def rank(topo):
        tracer.bind(topo.rank)
        grad = {"w": np.random.default_rng(topo.rank).normal(size=37)}
        distributed_lion_step(start, grad, h, spec, topo, algo,
                              rng=np.random.default_rng(topo.rank))

    with tracing.patched(tracer):
        collectives.run_ranks(2, rank, timeout=5)
    return [{name: rec[tracing.CALLS] for name, rec in totals.items()}
            for totals in tracer.totals]


def test_quantized_step_records_quantize_and_sround_spans():
    """The ``bulk`` workload's guard expects both spans on an 8-bit L-inf
    stochastic vote: the optimizer's quantize and quantize's own sround."""
    spec = QuantSpec(bits=8, norm_p=INF, rounding="stochastic")
    for calls in traced_step_calls(spec, "direct"):
        assert calls.get("quant.quantize") == 1
        assert calls.get("quant.sround") == 1


def test_sign_step_records_both_apply_sign_spans():
    """A sign vote takes apply_sign twice per rank: once for the rank's own
    signs and once for the majority, both through the wrappers."""
    for calls in traced_step_calls(QuantSpec(bits=1), "ps"):
        assert calls.get("quant.apply_sign") == 2
