"""Descent by 2-isogeny for rational elliptic curves y^2 = x^3 + a*x^2 + b*x.

Computes Selmer groups in both isogeny directions, certified rank
intervals, torsion subgroups and bounds on the 2-part of the
Tate-Shafarevich obstruction, all in exact arithmetic.
"""

from .arith import (
    Factorization,
    SquareClass,
    factorize,
    is_padic_square,
    legendre,
    quartic_residue_exp,
    quartic_residue_gauss,
    squarefree_part,
    two_squares,
    val,
)
from .curve import (
    Curve,
    INFINITY,
    Pt,
    TorsionGroup,
    add,
    count_points_mod,
    discriminant,
    from_cubic_const,
    j_invariant,
    neg,
    on_curve,
    pt,
    torsion_subgroup,
)
from .localsolve import (
    LocalVerdict,
    QuarticForm,
    Witness,
    qp_soluble,
    r_soluble,
    zp_soluble,
)
from .descent import (
    BadSet,
    DescentReport,
    IsogenyPair,
    SelmerSet,
    bad_set,
    descent_report,
    isogenous_curve,
    qs2,
    selmer,
)
from .families import (
    EpRow,
    RankResult,
    edconst_torsion,
    edx_rank_upper,
    edx_torsion,
    ep_rank,
    ep_rank_sha_dim,
    ep_selmer,
    ep_table,
)

__version__ = "0.1.0"
