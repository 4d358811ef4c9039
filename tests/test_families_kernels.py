"""The E_p sweep kernels against the naive walks of tests/oracles.py."""

from __future__ import annotations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from twodescent.families import (
    _SPLIT,
    _orbit_square_x,
    _pair_mul,
    _prime_root,
    _product_table,
    _split_smooth,
)

from .oracles import orbit_square_x_oracle, primitive_products_oracle

components = st.integers(-10**6, 10**6)


@settings(max_examples=400, deadline=None)
@given(st.tuples(components, components), st.integers(1, 10**4), st.integers(1, 64))
def test_orbit_walk_matches_the_per_step_isqrt_walk(z0, m, step_cap):
    assert _orbit_square_x(z0, m, step_cap) == orbit_square_x_oracle(z0, m, step_cap)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 1000), components, st.booleans(), st.integers(0, 63),
       st.booleans(), st.integers(1, 10**4), st.integers(1, 64))
def test_orbit_walk_matches_the_per_step_isqrt_walk_on_planted_squares(
        n, s, negative, j, second, m, step_cap):
    # z0 puts x = +-n^2 at step j of the first walk, z0 (3 + 2 sqrt 2)^j,
    # or of the second, z0 (3 - 2 sqrt 2)^(j+1); gcd(m, n) and step_cap
    # decide whether that step, a later one or none is the first hit
    z0 = (-n * n if negative else n * n, s)
    for _ in range(j + second):
        z0 = _pair_mul(z0, (3, 2) if second else (3, -2), -2)
    assert _orbit_square_x(z0, m, step_cap) == orbit_square_x_oracle(z0, m, step_cap)


@pytest.mark.parametrize("c", [1, 2, -2])
def test_split_smooth_numbers_and_their_products_match_the_uncached_products(c):
    modulus, residues = _SPLIT[c]
    smooth = _split_smooth(2000, modulus, residues)
    want = []
    for k in range(1, 2001, 2):
        fac = tuple(sorted(sympy.factorint(k).items()))
        if all(q % modulus in residues for q, _ in fac):
            want.append((k, fac))
    assert smooth == want
    ks, xs, ys = _product_table(2000, c)
    assert list(ks) == [k for k, fac in smooth for _ in range(2 ** len(fac))]
    rows = {}
    for k, X, Y in zip(ks, xs, ys):
        rows.setdefault(k, []).append((X, Y))
    # split and inert p, and p dividing some k: pi_p times the rows of k
    for p in (3, 5, 7, 11, 17, 23, 41, 73, 257, 1009, 7681):
        pi = _prime_root(p, c)
        for k, fac in smooth:
            got = [_pair_mul(pi, z, c) for z in rows[k]] if pi else []
            assert got == primitive_products_oracle(p, fac, c), (p, k)
