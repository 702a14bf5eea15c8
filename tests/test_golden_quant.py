"""Golden quantizer digests: every spec of ``tools/golden.py``'s grid gives
the ``quantize`` outputs and rounding-generator states recorded in
``tests/golden_quant_digests.json``, bit for bit."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))

import golden  # noqa: E402


def test_every_quantizer_spec_matches_its_digest():
    problem = golden.quant_mismatches()
    assert problem is None, problem
