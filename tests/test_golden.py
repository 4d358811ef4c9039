"""The engine's outputs against the golden digests of tests/golden.py."""

from __future__ import annotations

from .golden import first_difference


def test_outputs_match_the_golden_digests():
    assert first_difference() is None
