from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twodescent.arith import _cube_root_exact, sieve_primes, squarefree_part
from twodescent.curve import Curve, from_cubic_const, torsion_subgroup
from twodescent.descent import hom_space, search_point, selmer
from twodescent.families import (
    FamilyError,
    _DEEP_FACTOR,
    _ep_space_point,
    RankResult,
    edconst_torsion,
    edx_rank_upper,
    edx_torsion,
    ep_rank,
    ep_rank_sha_dim,
    ep_selmer,
    ep_table,
)

from .oracles import deep_space_point_oracle, ep_space_point_oracle


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


def test_no_rational_points_when_two_is_not_a_quartic_residue():
    # p = 1 mod 8 with the biquadratic test failing: the three nontrivial
    # coset spaces carry no rational points, so no height can certify them
    for p in (17, 41, 97, 137, 193):
        E = Curve(0, p, 0)
        for d in (-1, 2, -2):
            assert search_point(E, d, 30) is None


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


def test_ep_table_budget():
    with pytest.raises(FamilyError):
        ep_table(10**6 + 1)


def test_ep_table_deterministic_across_jobs():
    one = ep_table(200, jobs=1)
    two = ep_table(200, jobs=2)
    assert one == two


def test_ep_small_prime_partition_matches_rank_table():
    # p <= 600, p = 1 mod 8, 2 a quartic residue: certified twos vs intervals
    rows = ep_table(600, mod8=1, quartic_only=True, height=20)
    twos = {r.p for r in rows if r.rank.kind == "exact" and r.rank.hi == 2}
    open_rows = {r.p for r in rows if r.rank.kind == "interval"}
    assert twos == {73, 89, 113, 233, 281, 337, 353, 593}
    assert open_rows == {257, 577}


ODD_PRIMES = [p for p in sieve_primes(5000) if p > 2]


def ep_space_classes(p):
    return (-1, -2, 2, p, 2 * p, -2 * p)


def assert_on_space(p, d, point):
    """(d*w)^2 equals the cleared model of C_d at z."""
    z, w = point
    assert (d * w) ** 2 == hom_space(Curve(0, p, 0), d)(z)


def check_against_full_enumeration(p, d, H):
    got = _ep_space_point(p, d, H)
    want = ep_space_point_oracle(p, d, H)
    assert (got is None) == (want is None), (p, d, H)
    if d in (2, -2 * p):
        # no set in the way: the real-form search keeps the first hit
        assert got == want, (p, d, H)
    for point in (got, want):
        if point is not None:
            assert_on_space(p, d, point)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ODD_PRIMES), st.integers(0, 5), st.integers(1, 12))
def test_ep_space_point_matches_full_enumeration(p, i, H):
    check_against_full_enumeration(p, ep_space_classes(p)[i], H)


def test_ep_space_point_matches_full_enumeration_one_mod_eight():
    # the residue class ep_rank searches, where most spaces have points
    for p in ODD_PRIMES:
        if p % 8 == 1 and p < 1500:
            for d in ep_space_classes(p):
                check_against_full_enumeration(p, d, 12)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ODD_PRIMES), st.sampled_from((-1, -2)), st.integers(1, 2000))
def test_deep_space_point_matches_full_enumeration(p, d, cap):
    got = _ep_space_point(p, d, cap)
    want = deep_space_point_oracle(p, d, cap)
    assert (got is None) == (want is None)
    for point in (got, want):
        if point is not None:
            assert_on_space(p, d, point)


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
