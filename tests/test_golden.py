"""Golden digests: every cell of ``tools/golden.py``'s grid of short
``lioncomm train`` runs gives the ``metrics.csv`` and final parameters
recorded in ``tests/golden_digests.json``, bit for bit."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))

import golden  # noqa: E402


def test_every_golden_cell_matches_its_digest():
    problem = golden.mismatches()
    assert problem is None, problem
