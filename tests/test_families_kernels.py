"""The E_p sweep kernels against the naive walks of tests/oracles.py."""

from __future__ import annotations

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from array import array
from bisect import bisect_right
from itertools import groupby, islice
from math import gcd, isqrt

from twodescent.arith import quartic_residue_exp, sieve_primes
from twodescent.families import (
    _CHUNK,
    _CODE_PRIMES,
    _FILTER_ROWS,
    _ORBIT_MODULI,
    _PASSES,
    _ROOTS,
    _SPLIT,
    _ProductTable,
    _chunk_codes,
    _fill_roots,
    _orbit_square_x,
    _packed_orbit_masks,
    _pass_table,
    _passes,
    _prime_root,
    _product_table,
    _residue_tables,
    _survivors,
)

from .oracles import (
    _ep_mul,
    orbit_masks_oracle,
    orbit_square_x_oracle,
    prime_root_scan_oracle,
    primitive_products_oracle,
    product_table_oracle,
    split_smooth_oracle,
    two_adic_oracle,
)

components = st.integers(-10**6, 10**6)


def _blocks(ks):
    """(k, lo, hi) per run of equal k in the column ks."""
    starts = [i for i in range(len(ks)) if i == 0 or ks[i] != ks[i - 1]] + [len(ks)]
    return [(ks[lo], lo, hi) for lo, hi in zip(starts, starts[1:])]


def mirror_expanded(table) -> list[list[int]]:
    """Columns k, X, Y of a half table with each k > 1 followed by the
    conjugates (X, -Y) of its stored rows, backward: the rows a scan walks."""
    out = [[], [], []]
    for k, lo, hi in _blocks(table.ks):
        block = list(zip(table.xs[lo:hi], table.ys[lo:hi]))
        if k > 1:
            block += [(X, -Y) for X, Y in reversed(block)]
        for col, values in zip(out, ([k] * len(block), *zip(*block))):
            col += values
    return out


def oracle_half(want) -> list[list[int]]:
    """Columns k, X, Y of the first half of each k's rows of an oracle table,
    after checking that the second half mirrors it: row m-1-t is the
    conjugate of row t of the m rows of k, and k = 1 has its one row."""
    ks, xs, ys = want
    out = [[], [], []]
    for k, lo, hi in _blocks(ks):
        m = hi - lo
        assert k == 1 and m == 1 or m % 2 == 0, k
        assert all((xs[lo + t], -ys[lo + t]) == (xs[hi - 1 - t], ys[hi - 1 - t]) for t in range(m // 2)), k
        for col, full in zip(out, want):
            col += full[lo:lo + (m + 1) // 2]
    return out


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
        z0 = _ep_mul(z0, (3, 2) if second else (3, -2), -2)
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
    # the table's distinct k, in order: each split-smooth k once, 1 first
    table = _product_table(2000, c)
    assert [k for k, _ in groupby(table.ks)] == [k for k, fac in smooth]
    assert list(table.ks) == [k for k, fac in smooth for _ in range(max(1, 2 ** len(fac) // 2))]
    ks, xs, ys = mirror_expanded(table)
    assert ks == [k for k, fac in smooth for _ in range(2 ** len(fac))]
    rows = {}
    for k, X, Y in zip(ks, xs, ys):
        rows.setdefault(k, []).append((X, Y))
    # split and inert p, and p dividing some k: pi_p times the rows of k
    for p in (3, 5, 7, 11, 17, 23, 41, 73, 257, 1009, 7681):
        pi = _prime_root(p, c)
        for k, fac in smooth:
            got = [_ep_mul(pi, z, c) for z in rows[k]] if pi else []
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
    # every row of the plain walk, the table expanded by its mirror, whose
    # candidate square passes the exact test, or is a square mod every
    # filter modulus, survives; in a table of _FILTER_ROWS stored rows or
    # more every survivor is a square mod each l of _CODE_PRIMES, and a
    # smaller table passes every row
    num, den = SCALES[c]
    pi = _prime_root(p, c)
    assume(pi is not None)
    a, b = pi
    table = _product_table(H, c)
    filtered = len(table.ks) >= _FILTER_ROWS
    rows = list(zip(*mirror_expanded(table)))
    position = {row: j for j, row in enumerate(rows)}
    assert len(position) == len(rows)
    survivors = [position[row] for row in _survivors(table, c, a, b)]
    assert survivors == (sorted(set(survivors)) if filtered else list(range(len(rows))))
    for j, (k, X, Y) in enumerate(rows):
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
    # the k of the table, built prime by prime and laid out by k, are the
    # split-smooth k <= cap in increasing order, each once
    modulus, residues = _SPLIT[c]
    assert [k for k, _ in groupby(_product_table(cap, c).ks)] == [
        k for k, fac in split_smooth_oracle(cap, modulus, residues)]


@pytest.mark.parametrize("c", [1, 2])
def test_no_row_fails_mod_16_for_a_prime_with_2_a_fourth_power(c):
    # so the scans need no 2-adic filter: for every p < 10^5 with 2 a fourth
    # power mod p, the only p that ep_rank scans, every row residue
    # (X mod 16, Y mod 16) of the table, expanded by its mirror, can give a
    # square candidate, while for every other p = 1 (mod 8) none can
    num, den = SCALES[c]
    component = 1 if c == 1 else 0  # y for c = 1, x otherwise
    _, xs, ys = mirror_expanded(_product_table(10**5, c))
    cells = {X % 16 * 16 + Y % 16 for X, Y in zip(xs, ys)}
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
    # twice y can be a square: the one candidate of every C_{-1} scan; the
    # mirror, (X, -Y), keeps both
    _, xs, ys = mirror_expanded(_product_table(H, 1))
    assert all(X & 1 and Y % 8 == 0 for X, Y in zip(xs, ys))
    assert all(a & 1 and b % 2 == 0 for q in PRIMES_2E5 if q % 4 == 1 for a, b in [_prime_root(q, 1)])


@pytest.mark.parametrize("q", _ORBIT_MODULI)
def test_orbit_masks_match_the_per_step_oracle(q):
    # the packed mask of each (x0, s) holds the steps where x is a square
    # mod q in its low 24 bits and those where -x is in the next 24
    packed = dict(_packed_orbit_masks.__wrapped__())
    assert list(packed) == list(_ORBIT_MODULI)
    assert [(m & 0xFFFFFF, m >> 24) for m in packed[q]] == orbit_masks_oracle(q)


SCAN_PRIMES = {c: [p for p in sieve_primes(3000) if _prime_root(p, c)] for c in (1, 2)}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, -2]), st.integers(1, 20000), st.lists(st.integers(0, 400), max_size=4))
@example(1, 20000, [40, 3000])
@example(2, 20000, [1, 100, 0])
@example(-2, 20000, [0])
def test_tables_grown_by_scans_that_stop_early_are_the_one_shot_tables(c, H, scans):
    # each scan reads survivors of a filtered scan (for some p) and stops;
    # the chunks scans have reached are the first ones, each running from
    # its start to the end of the k of its _CHUNK-th row or to the table's
    # end, and each holds the codes of the one-shot table's stored half;
    # the table is that half, and expanded by its mirror the one-shot table
    _product_table.cache_clear()
    want = product_table_oracle(H, c)
    ks, xs, ys = half = oracle_half(want)
    table = _product_table(H, c)
    for survivors in scans:
        if c != -2:
            a, b = _prime_root(SCAN_PRIMES[c][survivors % len(SCAN_PRIMES[c])], c)
            list(islice(_survivors(table, c, a, b), survivors))
        ends = {0}
        for start, codes in sorted(table.codes.items()):
            end, last = start + len(codes[0]), min(start + _CHUNK, len(ks)) - 1
            assert start in ends and start <= last < end <= len(ks)
            assert ks[end - 1] == ks[last] and (end == len(ks) or ks[end] != ks[last])
            assert codes == _chunk_codes(xs[start:end], ys[start:end])
            ends.add(end)
    assert [list(col) for col in (table.ks, table.xs, table.ys)] == half
    assert mirror_expanded(table) == [list(col) for col in want]


@pytest.mark.parametrize("c", [1, 2, -2])
def test_a_complete_table_keeps_only_its_columns(c):
    table = _ProductTable(2000, c)
    assert vars(table).keys() == {"ks", "xs", "ys", "codes"}
    want = product_table_oracle(2000, c)
    assert [list(col) for col in (table.ks, table.xs, table.ys)] == oracle_half(want)
    assert mirror_expanded(table) == [list(col) for col in want]


@pytest.mark.parametrize("c, rows", [(1, 3187), (2, 4500)])
def test_the_sweeps_deep_tables_store_half_their_rows(c, rows):
    # 6373 and 8999 rows: k = 1 and half of each other k
    assert len(_product_table(20000, c).xs) == rows


@pytest.mark.parametrize("l", _CODE_PRIMES)
def test_mirrored_rows_pass_by_the_table_of_the_negated_shift(l):
    # the mirror (X, -Y) of a row has the candidate alpha X - beta Y: on
    # every residue pair, the pass table of (alpha, -beta) read at the code
    # of (X, Y) is that of (alpha, beta) read at the code of (X, -Y)
    index = _residue_tables(l)[2]
    conjugate = bytes(index[X * l + -Y % l] for X in range(l) for Y in range(l))
    for alpha in range(l):
        for beta in range(l):
            for scale in (1, 2):
                got = index.translate(_pass_table(l, alpha, -beta, scale))
                assert got == conjugate.translate(_pass_table(l, alpha, beta, scale)), (alpha, beta, scale)


@pytest.mark.parametrize("l", _CODE_PRIMES)
def test_cached_pass_tables_are_the_or_of_a_row_and_its_mirror(l):
    # one cached table per key: 2l shifts and signs where l does not divide
    # alpha, and 3 characters of beta * scale where it does
    for alpha in range(l):
        for beta in range(l):
            for scale in (1, 2):
                want = bytes(x | y << 1 for x, y in zip(_pass_table(l, alpha, beta, scale),
                                                        _pass_table(l, alpha, -beta, scale)))
                assert _passes(l, alpha, beta, scale) == want, (alpha, beta, scale)
    assert sum(key[0] == l for key in _PASSES) <= 2 * l + 3


# caps whose half tables end at 255, 256, 257, 1023, 1024 or 1025 stored
# rows, about the chunk edges, with those counts; c = -2 is walked whole
EDGE_ROWS = {(1, 1597): 255, (1, 1601): 256, (1, 1609): 257, (1, 6409): 1024, (1, 6421): 1025,
             (2, 1129): 255, (2, 1137): 257, (2, 4521): 1023, (2, 4523): 1024,
             (-2, 2009): 255, (-2, 2017): 256, (-2, 8089): 1023, (-2, 8111): 1024}
ODD_PRIMES_2E4 = sieve_primes(20000)[1:]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ODD_PRIMES_2E4),
       st.sampled_from(sorted(EDGE_ROWS)) | st.tuples(st.sampled_from([1, 2, -2]), st.integers(1, 3000)))
@example(17, (1, 6409))
@example(41, (1, 6421))
@example(1049, (2, 4521))  # survivors on both sides of a k split by a chunk cut at 256 rows
@example(89, (2, 4523))
@example(113, (2, 1137))
@example(7, (-2, 8111))
def test_scans_walk_the_oracle_rows_that_pass_the_residue_test_in_order(p, key):
    # a scan yields (k, X, Y) of the one-shot table in its order: every row
    # of the real form and of a table under _FILTER_ROWS stored rows, else
    # the rows whose candidate square is a square mod each l of _CODE_PRIMES
    c, cap = key
    pi = _prime_root(p, c)
    assume(pi is not None)
    a, b = pi
    table = _product_table(cap, c)
    assert len(table.xs) == EDGE_ROWS.get(key, len(table.xs))
    rows = list(zip(*product_table_oracle(cap, c)))
    if c != -2 and len(table.xs) >= _FILTER_ROWS:
        num, den = SCALES[c]

        def passes(X, Y):
            x = a * Y + b * X if c == 1 else a * X - c * b * Y  # y for C_{-1}, else x
            return all(_is_square_mod(abs(x) * num // den, l) for l in _CODE_PRIMES)

        rows = [(k, X, Y) for k, X, Y in rows if passes(X, Y)]
    assert list(_survivors(table, c, a, b)) == rows
