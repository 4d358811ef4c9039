from __future__ import annotations

import json
import os
import subprocess
import sys
from array import array
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twodescent import families
from twodescent.arith import ArithError, _cube_root_exact, factorize, quartic_residue_gauss, sieve_primes, squarefree_part
from twodescent.curve import INFINITY, Curve, from_cubic_const, pt, torsion_subgroup
from twodescent.descent import _first_square, _space, selmer
from twodescent.localsolve import QuarticForm
from twodescent.families import (
    FamilyError,
    _DEEP_FACTOR,
    _FILTER_ROWS,
    _ep_space_point,
    _product_table,
    RankResult,
    edconst_torsion,
    edx_rank_upper,
    edx_torsion,
    ep_rank,
    ep_rank_sha_dim,
    ep_selmer,
    ep_table,
)

from .oracles import (
    deep_space_point_oracle,
    ep_certified_dim_oracle,
    ep_space_point_oracle,
    ep_space_point_walk_oracle,
    quartic_set,
    space_oracle,
)


def classes(*reps):
    return {squarefree_part(r) for r in reps}


def test_rank_result_validation():
    RankResult("exact", 2, 2)
    RankResult("interval", 0, 2)
    with pytest.raises(FamilyError):
        RankResult("exact", 0, 2)
    with pytest.raises(FamilyError):
        RankResult("interval", 2, 2)
    with pytest.raises(FamilyError):
        RankResult("definitely", 1, 1)


def test_ep_selmer_by_residue_class():
    phi7, hat7 = ep_selmer(7)
    assert set(phi7) == classes(1, -7)
    assert set(hat7) == classes(1, 7)
    phi17, hat17 = ep_selmer(17)
    assert phi17.size == 8
    assert set(phi17) == classes(1, -1, 2, -2, 17, -17, 34, -34)
    assert set(hat17) == classes(1, 17)
    phi13, _ = ep_selmer(13)
    assert set(phi13) == classes(1, -1, 13, -13)
    phi3, _ = ep_selmer(3)
    assert set(phi3) == classes(1, -3, -2, 6)
    phi31, _ = ep_selmer(31)
    assert set(phi31) == classes(1, -31, 2, -62)
    phi5, _ = ep_selmer(5)
    assert set(phi5) == classes(1, -1, 5, -5)


def test_ep_selmer_rejects_bad_input():
    with pytest.raises(FamilyError):
        ep_selmer(2)
    with pytest.raises(FamilyError):
        ep_selmer(15)


def test_ep_selmer_equals_engine_below_300():
    for p in sieve_primes(300):
        if p == 2:
            continue
        phi, phi_hat = ep_selmer(p)
        assert set(phi) == set(selmer(Curve(0, p, 0)))
        assert set(phi_hat) == set(selmer(Curve(0, -4 * p, 0)))


def test_ep_rank_sha_dim_cases():
    assert ep_rank_sha_dim(7) == 0
    assert ep_rank_sha_dim(11) == 0
    assert ep_rank_sha_dim(5) == 1
    assert ep_rank_sha_dim(3) == 1
    assert ep_rank_sha_dim(13) == 1
    assert ep_rank_sha_dim(31) == 1
    assert ep_rank_sha_dim(17) == 2
    assert ep_rank_sha_dim(73) == 2


def test_ep_rank_sha_dim_matches_selmer_dimension():
    for p in sieve_primes(500):
        if p > 2:
            assert ep_rank_sha_dim(p) == ep_selmer(p)[0].dim2 - 1


def test_ep_rank_unconditional_zero():
    r = ep_rank(7)
    assert r.kind == "exact" and (r.lo, r.hi) == (0, 0)
    r17 = ep_rank(17)
    assert r17.kind == "exact" and r17.hi == 0


def test_ep_rank_conditional_one():
    r = ep_rank(5)
    assert r.kind == "exact_conditional_on_finite_sha"
    assert (r.lo, r.hi) == (1, 1)


def test_ep_rank_certified_two():
    r = ep_rank(73, 20)
    assert r.kind == "exact" and (r.lo, r.hi) == (2, 2)


def test_ep_rank_honest_interval():
    r = ep_rank(257, 20)
    assert r.kind == "interval" and (r.lo, r.hi) == (0, 2)
    assert "conjecturally 0" in r.note


RANK_0_OR_2_PRIMES = [p for p in sieve_primes(2000) if p % 8 == 1 and 2 in quartic_set(p)]


@pytest.mark.parametrize("H", [1, 3, 20])
def test_ep_rank_certifies_cosets_like_the_closure_of_integer_classes(monkeypatch, H):
    # the searches ep_rank makes, deep rescan included (C_{-1} before
    # C_{-2}, skipping the coset already certified), are the walk's
    # numerator-bounded searches, and its result equals that of the walk,
    # which closes classes by products and also tries the
    # denominator-bounded space of each coset it misses
    search = families._ep_space_point
    calls = []
    monkeypatch.setattr(families, "_ep_space_point",
                        lambda p, d, H: calls.append((d, H)) or search(p, d, H))
    for p in RANK_0_OR_2_PRIMES:
        calls.clear()
        r = ep_rank(p, H)
        engine_calls = calls[:]
        calls.clear()
        g = ep_certified_dim_oracle(p, H, families._ep_space_point, _DEEP_FACTOR)
        assert engine_calls == calls
        assert {d for d, _ in engine_calls} <= {-1, -2, 2}
        assert (r.kind, r.lo, r.hi) == (("exact", 2, 2) if g == 3 else ("interval", 0, 2))
        assert ("one space certified" in r.note) == (g == 2)


def count_is_prime(monkeypatch) -> list:
    """The arguments of every is_prime call from here on."""
    import twodescent.arith as arith

    proved = []
    is_prime = arith.is_prime
    counting = lambda n: proved.append(n) or is_prime(n)
    monkeypatch.setattr(arith, "is_prime", counting)
    monkeypatch.setattr(families, "is_prime", counting)
    clear_root_tables(monkeypatch)
    return proved


def clear_root_tables(monkeypatch) -> None:
    """Empty the norm-form root tables and the product tables built from them."""
    for c in families._SPLIT:
        monkeypatch.setitem(families._ROOTS, c, (0, array("q"), array("q"), array("q")))
    _product_table.cache_clear()


def test_ep_table_proves_each_prime_once(monkeypatch):
    # the sieve is the proof of every row's prime: no row proves it again,
    # and the root tables and the quartic test reuse it unchecked
    proved = count_is_prime(monkeypatch)
    rows = ep_table(2000)
    assert [r.p for r in rows] == ODD_PRIMES[:len(rows)] and rows[-1].p == 1999
    assert proved == []


def test_quartic_filter_proves_each_row_prime_once(monkeypatch):
    # the filter takes one power of 2 modulo each of the sieve's primes,
    # which the sieve has proved
    proved = count_is_prime(monkeypatch)
    rows = ep_table(5000, quartic_only=True)
    assert rows and proved == []
    assert [r.p for r in rows] == [p for p in ODD_PRIMES if p % 8 == 1 and 2 in quartic_set(p)]


def test_ep_table_takes_no_modular_square_root(monkeypatch):
    # a cold sweep reads every prime element off the root tables, which
    # the sieve fills, and decides quartic residues by one power of 2
    import twodescent.arith as arith

    want = ep_table(3000)
    clear_root_tables(monkeypatch)

    def refuse(a, p):
        raise AssertionError(f"square root of {a} mod {p}")

    monkeypatch.setattr(arith, "_sqrt_mod", refuse)
    monkeypatch.setattr(families, "_sqrt_mod", refuse)
    assert ep_table(3000) == want


def test_two_is_a_fourth_power_by_euler_exactly_when_by_gauss_below_1e6():
    ps = [p for p in sieve_primes(10**6) if p % 8 == 1]
    assert [families._two_is_quartic(p) for p in ps] == [quartic_residue_gauss(p) for p in ps]


def test_ep_rank_and_ep_selmer_prove_their_callers_prime_once(monkeypatch):
    proved = count_is_prime(monkeypatch)
    assert ep_rank(73).hi == 2 and proved == [73]
    ep_selmer(89)
    assert proved == [73, 89]
    for n in (1, 2, 9, 561):
        with pytest.raises(FamilyError, match="odd prime"):
            ep_rank(n)
        with pytest.raises(FamilyError, match="odd prime"):
            ep_selmer(n)


def test_ep_table_to_30000_is_the_benchmark_reference():
    # perfbench/data/ep_reference.json holds the seed's rows at height 20
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "data", "ep_reference.json")
    with open(path) as fh:
        ref = json.load(fh)
    assert (ref["p_max"], ref["height"]) == (30000, 20)
    rows = ep_table(30000, height=20)
    assert {str(r.p): [r.p, r.selmer_dim_phi, r.selmer_dim_phi_hat, r.rank_sha_dim,
                       r.rank.kind, r.rank.lo, r.rank.hi] for r in rows} == ref["rows"]


def test_no_rational_points_when_two_is_not_a_quartic_residue():
    # p = 1 mod 8 with the biquadratic test failing: the three nontrivial
    # coset spaces carry no rational points, so no height can certify them
    for p in (17, 41, 97, 137, 193):
        for d in (-1, 2, -2):
            assert _first_square(*_space(0, -4 * p, d)[::2], 30) is None


def test_edx_torsion_table():
    assert edx_torsion(4).structure == "Z4"
    assert edx_torsion(-1).structure == "Z2xZ2"
    assert edx_torsion(-4).structure == "Z2xZ2"
    assert edx_torsion(17).structure == "Z2"
    assert edx_torsion(-30).structure == "Z2"


def test_edx_torsion_rejects_unreduced_d():
    with pytest.raises(FamilyError):
        edx_torsion(0)
    with pytest.raises(FamilyError):
        edx_torsion(32)
    with pytest.raises(FamilyError):
        edx_torsion(-16)


def test_edx_rank_upper_values():
    assert edx_rank_upper(17) == 3
    assert edx_rank_upper(1) == 1
    assert edx_rank_upper(30) == 5
    assert edx_rank_upper(-2) == 1
    with pytest.raises(FamilyError):
        edx_rank_upper(0)


@pytest.mark.parametrize("f", [edx_torsion, edconst_torsion, edx_rank_upper])
def test_a_bool_d_is_refused_where_it_is_factored(f):
    # each once answered as for D = 1: Z2, Z6 and rank at most 1
    with pytest.raises(ArithError, match="need an integer, not True"):
        f(True)


def test_ep_table_refuses_a_bool_p_max():
    with pytest.raises(FamilyError, match="need an integer p_max, not True"):
        ep_table(True)  # once []


def test_edconst_torsion_table():
    assert edconst_torsion(1).structure == "Z6"
    assert edconst_torsion(-432).structure == "Z3"
    assert edconst_torsion(8).structure == "Z2"
    assert edconst_torsion(4).structure == "Z3"
    assert edconst_torsion(9).structure == "Z3"
    assert edconst_torsion(-27).structure == "Z2"
    assert edconst_torsion(5).structure == "trivial"
    assert edconst_torsion(-2).structure == "trivial"


def test_cube_root_exact_is_exact_for_large_integers():
    cs = [1, 2, 3, 10**5 + 3, 10**15, 10**15 + 7, 2 * 10**15 - 1, 10**40 - 1, 10**40]
    cs += [10**15 + 5 * 10**12 * i + 7 for i in range(200)]
    for c in cs:
        assert _cube_root_exact(c**3) == c
        assert _cube_root_exact(-(c**3)) == -c
        assert _cube_root_exact(c**3 + 1) is None
        if c > 1:
            assert _cube_root_exact(c**3 - 1) is None
    assert _cube_root_exact(0) == 0
    big = 10**103 + 1
    assert big**3 > 10**308
    assert _cube_root_exact(big**3) == big
    assert _cube_root_exact(big**3 + 2) is None


def test_edconst_torsion_rejects_unreduced_d():
    with pytest.raises(FamilyError):
        edconst_torsion(0)
    with pytest.raises(FamilyError):
        edconst_torsion(64)
    with pytest.raises(FamilyError):
        edconst_torsion(-128)


def test_torsion_closed_forms_are_the_generic_groups():
    # the whole group: structure, generators and every point in order
    def free(D, e):
        return all(m < e for _, m in factorize(D).factors)

    Ds = [D for D in range(-3000, 3001) if D] + [216, 10**6 + 3]
    for D in (D for D in Ds if free(D, 4)):
        assert edx_torsion(D) == torsion_subgroup(Curve(0, D, 0)), D
    for D in (D for D in Ds if free(D, 6)):
        assert edconst_torsion(D) == torsion_subgroup(Curve(0, 0, D)), D


def test_family_torsion_runs_no_generic_torsion():
    # the closed forms build their groups: families has no torsion_subgroup
    assert not hasattr(families, "torsion_subgroup")
    assert edx_torsion(-9).generators == (pt(0, 0), pt(-3, 0))
    assert edconst_torsion(-8).points == (INFINITY, pt(2, 0))


def test_edconst_matches_shifted_models():
    for c in (-5, -4, -3, -2, 2, 3, 4, 5):
        D = c**3
        if D % 64 == 0:
            continue
        assert edconst_torsion(D).structure == torsion_subgroup(from_cubic_const(c)).structure


def test_ep_table_smallest_rows():
    rows = ep_table(10)
    assert [r.p for r in rows] == [3, 5, 7]
    assert [r.rank_sha_dim for r in rows] == [1, 1, 0]
    assert [(r.selmer_dim_phi, r.selmer_dim_phi_hat) for r in rows] == [(2, 1), (2, 1), (1, 1)]


def test_ep_table_filters():
    rows = ep_table(100, mod8=1)
    assert [r.p for r in rows] == [17, 41, 73, 89, 97]
    quartic = ep_table(100, mod8=1, quartic_only=True)
    assert [r.p for r in quartic] == [73, 89]


@pytest.mark.parametrize("mod8", [9, -7, 0, 2, 8])
def test_ep_table_refuses_a_residue_mod_8_outside_1_3_5_7(mod8):
    with pytest.raises(FamilyError, match=f"mod8 must be 1, 3, 5 or 7, not {mod8}"):
        ep_table(100, mod8=mod8)


@pytest.mark.parametrize("mod8", [True, 1.0, "1"])
def test_ep_table_refuses_a_residue_mod_8_that_is_not_an_int(mod8):
    # mod8=True once kept the rows of p = 1 (mod 8)
    with pytest.raises(FamilyError, match=f"mod8 must be 1, 3, 5 or 7, not {mod8!r}"):
        ep_table(100, mod8=mod8)


@pytest.mark.parametrize("quartic_only", ["no", 1, 0, None])
def test_ep_table_refuses_a_quartic_only_that_is_not_a_bool(quartic_only):
    # quartic_only="no" once filtered as True
    with pytest.raises(FamilyError, match=f"quartic_only must be a bool, not {quartic_only!r}"):
        ep_table(100, quartic_only=quartic_only)


def test_ep_table_budget():
    with pytest.raises(FamilyError):
        ep_table(10**6 + 1)


def test_ep_table_starts_at_most_cpu_count_workers(monkeypatch):
    # the sweep runs in this process: no pool or worker is started, whatever
    # the CPU count reads, and the rows do not depend on it
    import concurrent.futures
    import multiprocessing.process

    started = []

    def record(kind):
        def start(*args, **kwargs):
            started.append(kind)
            raise AssertionError(f"ep_table started a {kind}")

        return start

    serial = ep_table(200)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", record("process pool"))
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", record("thread pool"))
    monkeypatch.setattr(multiprocessing, "Pool", record("multiprocessing pool"))
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", record("process"))
    for cpus in (3, 1, None):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        assert ep_table(200) == serial
    assert started == []


def test_heights_above_the_limit_are_refused_before_any_sieve(monkeypatch):
    # the deep rescans would sieve to 1000 * H
    def no_sieve(n):
        raise AssertionError(f"sieve_primes({n}) called")

    monkeypatch.setattr(families, "sieve_primes", no_sieve)
    for call in (lambda: ep_rank(73, 1001), lambda: ep_table(100, height=1001)):
        with pytest.raises(FamilyError, match="H <= 1000"):
            call()


def test_non_integer_heights_are_refused(monkeypatch):
    # a float height once gave rows whose notes read "height <= 2.5"
    monkeypatch.setattr(families, "sieve_primes", lambda n: pytest.fail("sieved before the check"))
    for call in (lambda: ep_rank(3217, 2.5), lambda: ep_table(100, height=2.5)):
        with pytest.raises(FamilyError, match="need an integer 1 <= H <= 1000"):
            call()


@pytest.mark.parametrize("H", [True, False])
def test_bool_heights_are_refused(monkeypatch, H):
    # a bool is an int to isinstance, but ep_rank(17, True) once answered
    monkeypatch.setattr(families, "sieve_primes", lambda n: pytest.fail("sieved before the check"))
    for call in (lambda: ep_rank(17, H), lambda: ep_table(100, height=H)):
        with pytest.raises(FamilyError, match="need an integer 1 <= H <= 1000"):
            call()


def test_import_and_a_search_free_rank_build_no_product_table():
    # the norm-form product tables, which hold their row codes, and the
    # orbit masks are built on the first search that needs them, not at
    # import; the process pool and the dataclass machinery are not
    # imported at all
    src = os.path.dirname(os.path.dirname(families.__file__))
    code = (
        "import sys\n"
        "import twodescent\n"
        "unused = ('concurrent.futures', 'multiprocessing', 'dataclasses', 'inspect')\n"
        "assert not [m for m in unused if m in sys.modules], sys.modules.keys() & set(unused)\n"
        "from twodescent.families import _PASSES, _packed_orbit_masks, _product_table, _residue_tables, ep_rank\n"
        "caches = (_product_table, _residue_tables, _packed_orbit_masks)\n"
        "assert all(f.cache_info().currsize == 0 for f in caches) and not _PASSES\n"
        "assert ep_rank(23).hi == 0 and ep_rank(17).hi == 0\n"
        "assert all(f.cache_info().currsize == 0 for f in caches) and not _PASSES\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_ep_small_prime_partition_matches_rank_table():
    # p <= 600, p = 1 mod 8, 2 a quartic residue: certified twos vs intervals
    rows = ep_table(600, mod8=1, quartic_only=True, height=20)
    twos = {r.p for r in rows if r.rank.kind == "exact" and r.rank.hi == 2}
    open_rows = {r.p for r in rows if r.rank.kind == "interval"}
    assert twos == {73, 89, 113, 233, 281, 337, 353, 593}
    assert open_rows == {257, 577}


ODD_PRIMES = [p for p in sieve_primes(5000) if p > 2]


EP_SPACE_CLASSES = (-1, -2, 2)  # the searched space of each coset of {1, -p}


def assert_on_space(p, d, point):
    """(d*w)^2 equals the cleared model of C_d at z."""
    z, w = point
    assert (d * w) ** 2 == QuarticForm(space_oracle(0, p, d))(z)


def check_against_full_enumeration(p, d, H):
    got = _ep_space_point(p, d, H)
    want = ep_space_point_oracle(p, d, H)
    assert (got is None) == (want is None), (p, d, H)
    if d == 2:
        # no set in the way: the real-form search keeps the first hit
        assert got == want, (p, d, H)
    for point in (got, want):
        if point is not None:
            assert_on_space(p, d, point)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ODD_PRIMES), st.integers(0, 2), st.integers(1, 12))
def test_ep_space_point_matches_full_enumeration(p, i, H):
    check_against_full_enumeration(p, EP_SPACE_CLASSES[i], H)


def test_ep_space_point_matches_full_enumeration_one_mod_eight():
    # the residue class ep_rank searches, where most spaces have points
    for p in ODD_PRIMES:
        if p % 8 == 1 and p < 1500:
            for d in EP_SPACE_CLASSES:
                check_against_full_enumeration(p, d, 12)


def on_space(p, d, z) -> bool:
    """Whether C_d of y^2 = x^3 + px has a rational point at z."""
    value = QuarticForm(space_oracle(0, p, d))(z)
    return value >= 0 and all(isqrt(n) ** 2 == n for n in (value.numerator, value.denominator))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ODD_PRIMES), st.sampled_from(EP_SPACE_CLASSES), st.integers(1, 12))
def test_the_other_space_of_each_coset_has_a_point_exactly_when_the_searched_one_has(p, d, H):
    # translation by (0, 0) on E' maps C_d onto C_{-pd} by z -> d/(2z)
    # and makes the numerator the denominator, so the full enumeration of
    # C_{-pd} up to denominator H finds a point exactly when C_d has one
    # up to numerator H, and each first hit maps to a point of the other
    # space with the same bounded side (not always to the other's first
    # hit: C_{-2} of p = 1753 has two points of numerator 9)
    dual = ep_space_point_oracle(p, -p * d, H)
    for got in (_ep_space_point(p, d, H), ep_space_point_oracle(p, d, H)):
        assert (got is None) == (dual is None), (p, d, H)
        if got is not None:
            z, z_dual = got[0], dual[0]
            assert on_space(p, -p * d, d / (2 * z)) and on_space(p, d, d / (2 * z_dual))
            assert abs((d / (2 * z)).denominator) == z.numerator
            assert abs((d / (2 * z_dual)).numerator) == z_dual.denominator
            assert z.numerator == z_dual.denominator  # the least bounded side


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ODD_PRIMES), st.sampled_from((-1, -2)), st.integers(1, 2000))
def test_deep_space_point_matches_full_enumeration(p, d, cap):
    got = _ep_space_point(p, d, cap)
    want = deep_space_point_oracle(p, d, cap)
    assert (got is None) == (want is None)
    for point in (got, want):
        if point is not None:
            assert_on_space(p, d, point)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ODD_PRIMES), st.integers(0, 2), st.integers(1, 12))
def test_ep_space_point_is_the_first_hit_of_the_per_k_walk(p, i, H):
    d = EP_SPACE_CLASSES[i]
    assert _ep_space_point(p, d, H) == ep_space_point_walk_oracle(p, d, H)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ODD_PRIMES), st.sampled_from((-1, -2)), st.integers(1, 2000))
def test_deep_space_point_is_the_first_hit_of_the_per_k_walk(p, d, cap):
    assert _ep_space_point(p, d, cap) == ep_space_point_walk_oracle(p, d, cap)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ODD_PRIMES), st.integers(0, 2), st.integers(320, 3000))
def test_filtered_scans_are_the_first_hit_of_the_per_k_walk(p, i, cap):
    # caps whose tables for c = 1, 2 are long enough for the residue filters
    assert all(len(_product_table(cap, c).ks) >= _FILTER_ROWS for c in (1, 2))
    d = EP_SPACE_CLASSES[i]
    assert _ep_space_point(p, d, cap) == ep_space_point_walk_oracle(p, d, cap)


def test_deep_space_point_finds_large_certificates():
    # 2 a quartic residue mod p and one coset certified at height 20;
    # the rescan over split numerators finds a second one above 20
    deep = set()
    for p in (617, 1777, 1801, 2969):
        for d in (-1, -2):
            got = _ep_space_point(p, d, _DEEP_FACTOR * 2)
            assert (got is None) == (deep_space_point_oracle(p, d, _DEEP_FACTOR * 2) is None)
            if got is not None:
                assert_on_space(p, d, got)
                if got[0].numerator > 20:
                    deep.add(p)
    assert deep == {617, 1777, 1801, 2969}
