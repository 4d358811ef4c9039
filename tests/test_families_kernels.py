"""The E_p sweep kernels against the naive walks of tests/oracles.py."""

from __future__ import annotations

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from array import array
from bisect import bisect_right
from itertools import islice
from math import gcd, isqrt

from twodescent.arith import quartic_residue_exp, sieve_primes
from twodescent.families import (
    _CHUNK,
    _CODE_PRIMES,
    _FILTER_ROWS,
    _ORBIT_MODULI,
    _ROOTS,
    _SPLIT,
    _ProductTable,
    _chunk_codes,
    _fill_roots,
    _orbit_masks,
    _orbit_square_x,
    _pair_mul,
    _prime_root,
    _product_table,
    _split_smooth,
    _survivors,
)

from .oracles import (
    orbit_masks_oracle,
    orbit_square_x_oracle,
    prime_root_scan_oracle,
    primitive_products_oracle,
    product_table_oracle,
    split_smooth_oracle,
    two_adic_oracle,
)

components = st.integers(-10**6, 10**6)


@settings(max_examples=400, deadline=None)
@given(st.tuples(components, components), st.integers(1, 10**4))
def test_orbit_walk_matches_the_per_step_isqrt_walk(z0, m):
    assert _orbit_square_x(z0, m) == orbit_square_x_oracle(z0, m)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 1000), components, st.booleans(), st.integers(0, 63),
       st.booleans(), st.integers(1, 10**4))
def test_orbit_walk_matches_the_per_step_isqrt_walk_on_planted_squares(
        n, s, negative, j, second, m):
    # z0 puts x = +-n^2 at step j of the first walk, z0 (3 + 2 sqrt 2)^j,
    # or of the second, z0 (3 - 2 sqrt 2)^(j+1); gcd(m, n) decides whether
    # that step, another one or none is the first hit
    z0 = (-n * n if negative else n * n, s)
    for _ in range(j + second):
        z0 = _pair_mul(z0, (3, 2) if second else (3, -2), -2)
    assert _orbit_square_x(z0, m) == orbit_square_x_oracle(z0, m)


@pytest.mark.parametrize("c", [1, 2, -2])
def test_split_smooth_numbers_and_their_products_match_the_uncached_products(c):
    modulus, residues = _SPLIT[c]
    smooth = split_smooth_oracle(2000, modulus, residues)
    want = []
    for k in range(1, 2001, 2):
        fac = tuple(sorted(sympy.factorint(k).items()))
        if all(q % modulus in residues for q, _ in fac):
            want.append((k, fac))
    assert smooth == want
    # the heap walk: each k > 1 with its largest prime q and the part prime to q
    assert list(_split_smooth(2000, c)) == [
        (k, fac[-1][0], k // fac[-1][0] ** fac[-1][1]) for k, fac in smooth[1:]]
    table = _product_table(2000, c)
    ks, xs, ys = table.ks, table.xs, table.ys
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


PRIMES_2E5 = sieve_primes(2 * 10**5)
EMPTY_ROOTS = (0, array("q"), array("q"), array("q"))


def _root_dict(columns) -> dict:
    """{q: (u, v)} from the sorted root columns q, u, v."""
    qs, us, vs = columns
    return dict(zip(qs, zip(us, vs)))


@pytest.mark.parametrize("c", [1, 2, -2])
def test_cornacchia_roots_are_the_scan_roots_below_2e5(c, monkeypatch):
    # with no root table filled, every prime takes Cornacchia's descent;
    # for c = -2 the least b, as the scan finds it, fixes the orbit window
    monkeypatch.setitem(_ROOTS, c, EMPTY_ROOTS)
    modulus, residues = _SPLIT[c]
    for q in PRIMES_2E5:
        if q % modulus in residues:
            assert _prime_root(q, c) == prime_root_scan_oracle(q, c), q


@pytest.mark.parametrize("c", [1, 2, -2])
def test_root_tables_are_the_cornacchia_roots_below_2e5(c, monkeypatch):
    # one pass over the form gives every split prime below the bound, in
    # increasing order, with the root that Cornacchia's descent gives;
    # _prime_root then reads it, and None for every other prime
    monkeypatch.setitem(_ROOTS, c, EMPTY_ROOTS)
    descent = {q: root for q in PRIMES_2E5 for root in [_prime_root(q, c)] if root}
    table = _root_dict(_fill_roots(2 * 10**5, c))
    assert list(table) == sorted(descent) and table == descent
    assert all(root == prime_root_scan_oracle(q, c) for q, root in table.items())
    assert [_prime_root(q, c) for q in PRIMES_2E5] == [descent.get(q) for q in PRIMES_2E5]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2, -2]), st.integers(0, 2 * 10**5), st.integers(0, 2 * 10**5))
@example(-2, 7, 8)  # 7 = 2*2^2 - 1^2 is the first split prime of the real form
def test_root_tables_filled_to_growing_bounds_are_the_scan_roots(c, b1, b2):
    # a fill to b1 and then to b2 > b1 holds the scan roots of every split
    # prime up to its bound, and a smaller bound keeps the larger table
    assume(b1 < b2)
    modulus, residues = _SPLIT[c]
    saved = _ROOTS[c]
    try:
        _ROOTS[c] = EMPTY_ROOTS
        for b in (b1, b2):
            qs, us, vs = _fill_roots(b, c)
            table = _root_dict((qs, us, vs))
            assert list(qs) == sorted(table) and table == {
                q: prime_root_scan_oracle(q, c)
                for q in PRIMES_2E5[:bisect_right(PRIMES_2E5, b)] if q % modulus in residues}
        assert _fill_roots(b1, c) == _ROOTS[c][1:] and _ROOTS[c][0] == b2
    finally:
        _ROOTS[c] = saved


def _is_square_mod(n, m):
    return any(w * w % m == n % m for w in range(m))


SPLIT_PRIMES = [p for p in sieve_primes(20000) if p % 8 in (1, 3, 5)]
# (num, den) of the candidate square |x| num/den per ring: C_{-1} squares
# twice the even component, C_{-2} and C_2 the first
SCALES = {1: (2, 1), 2: (1, 1), -2: (1, 1)}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SPLIT_PRIMES), st.sampled_from([1, 2]), st.integers(1, 3000))
@example(29, 1, 2000)  # 29 = 5^2 + 2^2: l = 5 divides a
@example(41, 2, 2000)  # l = 41 divides the norm of every candidate
def test_residue_filters_keep_every_row_the_exact_test_accepts(p, c, H):
    # every row of the plain walk whose candidate square passes the exact
    # test, or is a square mod every filter modulus, survives; in a table
    # of _FILTER_ROWS rows or more every survivor is a square mod each l of
    # _CODE_PRIMES, and a smaller table passes every row
    num, den = SCALES[c]
    pi = _prime_root(p, c)
    assume(pi is not None)
    a, b = pi
    table = _product_table(H, c)
    filtered = len(table.ks) >= _FILTER_ROWS
    survivors = list(_survivors(table, c, a, b))
    ks, xs, ys = table.ks, table.xs, table.ys
    assert survivors == (sorted(set(survivors)) if filtered else list(range(len(ks))))
    for j, (k, X, Y) in enumerate(zip(ks, xs, ys)):
        x, y = a * X - c * b * Y, a * Y + b * X
        if c == 1 and x & 1:
            x = y
        f2 = abs(x) * num // den
        f = isqrt(f2)
        accepted = f and f * f == f2 and gcd(k, f) == 1
        odd_tests = all(_is_square_mod(f2, l) for l in _CODE_PRIMES)
        if accepted or (odd_tests and _is_square_mod(f2, 16 * num // den)):
            assert j in survivors, (j, k)
        if filtered and j in survivors:
            assert odd_tests, (j, k)


@pytest.mark.parametrize("c", [1, 2, -2])
@pytest.mark.parametrize("cap", [1, 4, 5, 1023, 1024, 1025, 3000, 20000, 10**5])
def test_split_smooth_walk_matches_the_sorted_one_shot_list(c, cap):
    modulus, residues = _SPLIT[c]
    assert list(_split_smooth(cap, c)) == [
        (k, fac[-1][0], k // fac[-1][0] ** fac[-1][1])
        for k, fac in split_smooth_oracle(cap, modulus, residues)[1:]]


@pytest.mark.parametrize("c", [1, 2])
def test_no_row_fails_mod_16_for_a_prime_with_2_a_fourth_power(c):
    # so the scans need no 2-adic filter: for every p < 10^5 with 2 a fourth
    # power mod p, the only p that ep_rank scans, every row residue
    # (X mod 16, Y mod 16) of the table can give a square candidate, while
    # for every other p = 1 (mod 8) none can
    num, den = SCALES[c]
    component = 1 if c == 1 else 0  # y for c = 1, x otherwise
    table = _product_table(10**5, c)
    cells = {X % 16 * 16 + Y % 16 for X, Y in zip(table.xs, table.ys)}
    assert len(cells) == (2 if c == 1 else 4)
    residues = {True: set(), False: set()}  # pi_p mod 16, by whether 2 is a fourth power mod p
    for p in sieve_primes(10**5):
        if p % 8 == 1:
            a, b = _prime_root(p, c)
            residues[quartic_residue_exp(2, p)].add((a % 16, b % 16))
    for quartic, pis in residues.items():
        ok = [two_adic_oracle(a, b, c, num, den)[component][i] for a, b in pis for i in cells]
        assert all(ok) if quartic else not any(ok), quartic


@pytest.mark.parametrize("H", [1, 5, 2000, 20000])
def test_gaussian_rows_have_x_odd_and_y_divisible_by_8(H):
    # so x = a X - b Y is odd for pi_p = a + b i, a odd and b even, and only
    # twice y can be a square: the one candidate of every C_{-1} scan
    table = _product_table(H, 1)
    assert all(X & 1 and Y % 8 == 0 for X, Y in zip(table.xs, table.ys))
    assert all(a & 1 and b % 2 == 0 for q in PRIMES_2E5 if q % 4 == 1 for a, b in [_prime_root(q, 1)])


@pytest.mark.parametrize("q", _ORBIT_MODULI)
def test_orbit_masks_match_the_per_step_oracle(q):
    assert _orbit_masks.__wrapped__(q) == orbit_masks_oracle(q)


SCAN_PRIMES = {c: [p for p in sieve_primes(3000) if _prime_root(p, c)] for c in (1, 2)}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, -2]), st.integers(1, 20000), st.lists(st.integers(0, 400), max_size=4))
@example(1, 20000, [40, 3000])
@example(2, 20000, [1, 100, 0])
@example(-2, 20000, [0])
def test_tables_grown_by_scans_that_stop_early_are_the_one_shot_tables(c, H, scans):
    # each scan reads survivors of a filtered scan (for some p) and stops;
    # each chunk a scan has reached holds the codes of the one-shot rows,
    # and the table is the one-shot table
    _product_table.cache_clear()
    want = product_table_oracle(H, c)
    table = _product_table(H, c)
    for survivors in scans:
        if c != -2:
            a, b = _prime_root(SCAN_PRIMES[c][survivors % len(SCAN_PRIMES[c])], c)
            list(islice(_survivors(table, c, a, b), survivors))
        for start, codes in table.codes.items():
            assert codes == _chunk_codes(want[1][start:start + _CHUNK], want[2][start:start + _CHUNK])
    assert [list(col) for col in (table.ks, table.xs, table.ys)] == list(want)


@pytest.mark.parametrize("c", [1, 2, -2])
def test_a_complete_table_keeps_only_its_columns(c):
    table = _ProductTable(2000, c)
    assert vars(table).keys() == {"ks", "xs", "ys", "codes"}
    assert [list(col) for col in (table.ks, table.xs, table.ys)] == list(product_table_oracle(2000, c))
