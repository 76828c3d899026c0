"""Probability calculus of propositions tested in a state.

For a fixed state x, the similarities p(x, ·) behave like a probability
measure on propositions — exactly so on families of *commuting*
propositions: additivity over orthogonal disjunctions, the complement
law, inclusion–exclusion, a conditional chain rule, and the total
probability decomposition.  Without commutation the decomposition
fails, and this module also carries the quantitative interference
inequality together with a search for the counterexample showing its
square cannot be dropped.

Checkers return residuals (absolute deviation from the identity) so
the law harness can aggregate worst cases; they raise only when a
stated precondition is violated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    NotCommutingError,
    NotOrthogonalError,
    PreconditionUnmetError,
)
from .linalg import EPS_ABS
from .rays import (
    Ray,
    Subspace,
    commutation_defects,
    commutes,
    complements,
    equal_subspaces,
    is_member,
    is_orthogonal,
    joins,
    meets,
    orthogonality_defects,
    project_rays,
    project_rows,
    ray_from,
    require_dims,
)
from .geometry import equal_projections, p_props
from .sampling import is_integer, keyed_generators


def ortho_additivity_residuals(qa, qb, x) -> np.ndarray:
    """|p(x, a∨b) − p(x, a) − p(x, b)| over stacked propositions
    (..., d, k) and states (..., d), for orthogonal a, b."""
    return np.abs(p_props(joins(qa, qb), x) - p_props(qa, x) - p_props(qb, x))


def check_ortho_additivity(x: Ray, a: Subspace, b: Subspace) -> float:
    """The single form of :func:`ortho_additivity_residuals`; raises
    :class:`NotOrthogonalError` unless a ⊥ b."""
    require_dims(x, a, b)
    if not is_orthogonal(a, b):
        raise NotOrthogonalError("additivity requires orthogonal propositions")
    return float(ortho_additivity_residuals(a.basis.T, b.basis.T, x.rep))


def complement_residuals(q, x) -> np.ndarray:
    """|p(x, a) + p(x, ¬a) − 1| over stacked propositions and states."""
    return np.abs(p_props(q, x) + p_props(complements(q), x) - 1.0)


def check_complement(x: Ray, a: Subspace) -> float:
    """|p(x, a) + p(x, ¬a) − 1|: the single form of :func:`complement_residuals`."""
    require_dims(x, a)
    return float(complement_residuals(a.basis.T, x.rep))


def inclusion_exclusion_residuals(qa, qb, x) -> np.ndarray:
    """|p(x, a∨b) − p(x, a) − p(x, b) + p(x, a∧b)| over stacked
    propositions and states, for commuting a, b."""
    return np.abs(
        p_props(joins(qa, qb), x) - p_props(qa, x) - p_props(qb, x) + p_props(meets(qa, qb), x)
    )


def check_inclusion_exclusion(x: Ray, a: Subspace, b: Subspace) -> float:
    """The single form of :func:`inclusion_exclusion_residuals`."""
    require_dims(x, a, b)
    if not commutes(a, b):
        raise NotCommutingError("inclusion-exclusion requires commuting propositions")
    return float(inclusion_exclusion_residuals(a.basis.T, b.basis.T, x.rep))


def measurement_chain(x, *qs) -> tuple[np.ndarray, ...]:
    """The similarities p(x, q₁), p(q₁(x), q₂), … of successive
    measurement (Lüders' rule) on stacked instances, shape (...) each.

    Each of ``qs`` has shape (..., d, k) and orthonormal columns (zero
    columns span nothing, so stacks of mixed rank pad with zeros); ``x``
    holds unit vectors, shape (..., d).  Each similarity is the squared
    norm of the projection of the state before it, which is then
    normalized.  After a similarity of zero the state stays
    unnormalized, and the later values of that row are meaningless.
    """
    ps = []
    u = x
    for q in qs:
        if ps:
            u = u / np.sqrt(np.where(ps[-1] > 0.0, ps[-1], 1.0))[..., np.newaxis]
        u = project_rows(q, u)
        ps.append(np.vecdot(u, u).real)
    return tuple(ps)


def chain_rule_residuals(qa, qb, x) -> np.ndarray:
    """|p(x, a∧b) − p(x, a)·p(a(x), b)| over stacked propositions and
    states, for commuting a, b, read from :func:`measurement_chain`.
    When p(x, a) is at most ``EPS_ABS`` the conditional is on a null
    event, and the residual is p(x, a∧b) itself, which must vanish.
    """
    p_meet = p_props(meets(qa, qb), x)
    p_xa, p_axb = measurement_chain(x, qa, qb)
    return np.where(p_xa <= EPS_ABS, p_meet, np.abs(p_meet - p_xa * p_axb))


def check_chain_rule(x: Ray, a: Subspace, b: Subspace) -> float:
    """The single form of :func:`chain_rule_residuals`."""
    require_dims(x, a, b)
    if not commutes(a, b):
        raise NotCommutingError("the chain rule requires commuting propositions")
    return float(chain_rule_residuals(a.basis.T, b.basis.T, x.rep))


def total_probability_defined(qa, qb, x) -> np.ndarray:
    """Whether the total probability decomposition applies to stacked
    instances: a and b commute, or the composite projections a(b(x))
    and b(a(x)) agree (:func:`~raygeo.geometry.equal_projections`)."""
    bx, zero_b = project_rays(qb, x)
    ab, zero_ab = project_rays(qa, bx)
    ax, zero_a = project_rays(qa, x)
    ba, zero_ba = project_rays(qb, ax)
    zero_ab, zero_ba = zero_ab | zero_b, zero_ba | zero_a
    return (commutation_defects(qa, qb) <= EPS_ABS) | equal_projections(ab, zero_ab, ba, zero_ba)


def check_total_probability(x: Ray, a: Subspace, b: Subspace) -> float:
    """Residual of p(x,b) = p(x,a)·p(a(x),b) + p(x,¬a)·p(¬a(x),b).

    Requires commuting propositions, or the weaker local condition of
    :func:`total_probability_defined`.  The single form of
    :func:`total_probability_residuals`: a term conditioned on a null
    event (p(x,a) or p(x,¬a) at most ``EPS_ABS``) contributes zero.

    Raises
    ------
    PreconditionUnmetError
        When the propositions neither commute nor locally commute at x.
    """
    require_dims(x, a, b)
    if not total_probability_defined(a.basis.T, b.basis.T, x.rep):
        raise PreconditionUnmetError(
            "commuting or locally-commuting-at-x",
            "propositions neither commute nor locally commute at the given state",
        )
    qa = a.basis.T
    return float(total_probability_residuals(qa, complements(qa), b.basis.T, x.rep))


def total_probability_residuals(qa, qna, qb, x) -> np.ndarray:
    """Stacked residuals of the total probability decomposition
    p(x,b) = p(x,a)·p(a(x),b) + p(x,¬a)·p(¬a(x),b).

    ``qa``, ``qna`` and ``qb`` have shape (..., d, k) and orthonormal
    columns spanning a, ¬a and b (zero columns span nothing); ``x``
    holds unit vectors, shape (..., d).  A term conditioned on a null
    event (weight at most ``EPS_ABS``) contributes zero.  On
    non-commuting propositions the residual measures how far the law
    fails.
    """
    total = 0.0
    for q in (qa, qna):
        weight, p_b = measurement_chain(x, q, qb)
        total = total + np.where(weight > EPS_ABS, weight * p_b, 0.0)
    return np.abs(measurement_chain(x, qb)[0] - total)


def check_interference_inequality(x: Ray, a: Subspace, b: Subspace) -> float:
    """Margin of the quantitative interference inequality.

    With x in a, returns RHS − LHS of

        p(x,b)·(1 − p(b(x),a))²  ≤  p(b(x),a)·(1 − p(a(b(x)),b))

    which must be ≥ 0 up to rounding: one row of
    :func:`interference_margins`.

    Raises
    ------
    PreconditionUnmetError
        If x is not in a, or where :func:`interference_margins` marks
        the row undefined: p(x,b) or p(b(x),a) at most
        :data:`MIN_CONDITIONING_P`.
    """
    require_dims(x, a, b)
    if not is_member(x, a):
        raise PreconditionUnmetError("x in alpha")
    margin, undefined = interference_margins(a.basis.T, b.basis.T, x.rep)
    if undefined:
        raise PreconditionUnmetError("p(x,beta) and p(beta(x),alpha) above MIN_CONDITIONING_P")
    return float(margin)


def _squared_margin(p_xb, p_bxa, p_abxb):
    """RHS − LHS of the interference inequality, from its chain."""
    return p_bxa * (1.0 - p_abxb) - p_xb * (1.0 - p_bxa) ** 2


#: Rows of :func:`interference_margins` with p(x, b) or p(b(x), a) at
#: or below this have no meaningful conditional projection.
MIN_CONDITIONING_P = 1e-12


def interference_margins(qa, qb, x) -> tuple[np.ndarray, np.ndarray]:
    """Batched margin of the interference inequality, the stacked form
    of :func:`check_interference_inequality`.

    ``qa`` and ``qb`` span alpha and beta, as for
    :func:`measurement_chain`, with each ``x`` in alpha; the chain is
    p(x,b) → p(b(x),a) → p(a(b(x)),b).  Returns ``(margin, undefined)``:
    RHS − LHS per row, and a mask of the rows where p(x, b) or
    p(b(x), a) is at most :data:`MIN_CONDITIONING_P`, whose margins are
    meaningless.
    """
    p_xb, p_bxa, p_abxb = measurement_chain(x, qb, qa, qb)
    undefined = (p_xb <= MIN_CONDITIONING_P) | (p_bxa <= MIN_CONDITIONING_P)
    return _squared_margin(p_xb, p_bxa, p_abxb), undefined


@dataclass(frozen=True)
class InterferenceWitness:
    """A real 3-dimensional instance violating the NON-squared variant.

    The members record the state, the two propositions, the similarity
    values entering both sides, the positive margin by which the
    non-squared inequality fails, and the (non-negative) margin by
    which the squared inequality still holds.
    """

    x: Ray
    alpha: Subspace
    beta: Subspace
    p_x_beta: float
    p_bx_alpha: float
    p_abx_beta: float
    nonsquared_excess: float
    squared_margin: float
    trial_index: int


#: Candidates the witness search scores per stacked pass, in order; every
#: later pass takes the last size.  Most searches end early (a quarter at
#: candidate 0, two thirds within four), so the first passes are small.
SEARCH_CHUNKS = (4, 8, 16, 32, 64)

#: Where a candidate's ``4·ra + 3·rb`` normal draws land in its row of
#: 14, by ranks ``(ra, rb)``: frame a (3, ra) in the (3, 2) cells 0–5,
#: frame b (3, rb) in cells 6–11, then the ``ra`` coefficients of x in
#: a.  A rank-1 frame's column 1 and an unused coefficient stay zero.
_DRAW_SLOTS = {(ra, rb): np.r_[0:6:3 - ra, 6:12:3 - rb, 12 : 12 + ra] for ra in (1, 2) for rb in (1, 2)}


def search_nonsquared_counterexample(seed: int, budget: int) -> InterferenceWitness | None:
    """Random search over real 3-dimensional instances for a violation of

        p(x,b)·(1 − p(b(x),a))  ≤  p(b(x),a)·(1 − p(a(b(x)),b)).

    Candidate ``trial`` is drawn from its own counter-based stream keyed
    by ``[seed, trial]`` (:func:`~raygeo.sampling.keyed_generators`): two
    ranks of 1 or 2, Gaussian frames for alpha and beta, and the
    coefficients of a state in alpha.  The witness is the first
    candidate by trial index that passes, so it does not depend on how
    the candidates are grouped.  They are scored in chunks of
    :data:`SEARCH_CHUNKS` (4, 8, 16, 32, then 64 each), never beyond
    ``budget``, on frames padded to two columns: one stacked QR for the
    frames of both propositions, then one :func:`measurement_chain`
    call.  A candidate is skipped
    when p(x,b) or p(b(x),a) is at most 1e-6, and accepted when the
    non-squared excess is above ``EPS_ABS``; ``Ray`` and ``Subspace``
    objects are built only for the witness.  Returns ``None`` when the
    budget is exhausted.  Any witness returned also satisfies the
    squared inequality, which is a theorem.

    Padding changes rounding only on rows with a rank-1 frame, and no
    such row is a witness: with alpha of rank 1, x spans alpha and the
    excess is exactly 0; with beta of rank 1 it is
    (p(x,b) − p(b(x),a))·(1 − p(b(x),a)) ≤ 0 by Cauchy–Schwarz.

    Raises
    ------
    ValueError
        If ``budget`` is not an ``int`` or ``np.integer`` (a ``bool``, a
        fraction or a string would be coerced to another count), or if
        ``seed`` is not an integer in [0, 2**64) and ``budget`` is positive.
    """
    if not is_integer(budget):
        raise ValueError(f"the budget must be an integer, got {budget!r}")
    budget = int(budget)
    rngs = keyed_generators(seed, range(budget))
    sizes = itertools.chain(SEARCH_CHUNKS, itertools.repeat(SEARCH_CHUNKS[-1]))
    start = 0
    while start < budget:
        stop = min(start + next(sizes), budget)
        witness = _first_witness(start, stop - start, rngs)
        if witness is not None:
            return witness
        start = stop
    return None


def _first_witness(start: int, count: int, rngs) -> InterferenceWitness | None:
    """The first witness among the next ``count`` candidates of ``rngs``,
    whose trial indices begin at ``start``, or ``None``."""
    draws = np.zeros((count, 14))
    ranks = []
    for row, rng in zip(draws, itertools.islice(rngs, count)):
        # two scalar draws take the two halves of one 64-bit word, as
        # integers(1, 3, size=2) does, and leave the generator in the same state
        ra, rb = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        row[_DRAW_SLOTS[ra, rb]] = rng.standard_normal(4 * ra + 3 * rb)
        ranks.append((ra, rb))
    ranks = np.array(ranks)
    frames = draws[:, :12].reshape(count, 2, 3, 2).swapaxes(0, 1)  # alpha, beta
    coeffs = draws[:, 12:]
    # column 0 of a zero-padded QR is the one-column QR; the padding's own
    # Q column is no part of the proposition
    qa, qb = np.where(ranks.T[..., np.newaxis, np.newaxis] > np.arange(2), np.linalg.qr(frames)[0], 0.0)
    vec = (qa @ coeffs[..., np.newaxis])[..., 0]
    nrm = np.sqrt(np.vecdot(vec, vec))
    live = nrm > EPS_ABS
    # in complex128, the field of p_prop and project_ray: the reported
    # p values stay those of the public chain on the witness's objects
    qa, qb, vec = (t.astype(np.complex128) for t in (qa, qb, vec))
    p_xb, p_bx_a, p_abx_b = measurement_chain(vec / np.where(live, nrm, 1.0)[:, np.newaxis], qb, qa, qb)
    excess = p_xb * (1.0 - p_bx_a) - p_bx_a * (1.0 - p_abx_b)
    hit = live & (p_xb > 1e-6) & (p_bx_a > 1e-6) & (excess > EPS_ABS)
    if not hit.any():
        return None
    i = int(np.argmax(hit))
    p_xb, p_bx_a, p_abx_b = float(p_xb[i]), float(p_bx_a[i]), float(p_abx_b[i])
    return InterferenceWitness(
        x=ray_from(vec[i]),
        alpha=Subspace.from_columns(qa[i]),
        beta=Subspace.from_columns(qb[i]),
        p_x_beta=p_xb,
        p_bx_alpha=p_bx_a,
        p_abx_beta=p_abx_b,
        nonsquared_excess=float(excess[i]),
        squared_margin=_squared_margin(p_xb, p_bx_a, p_abx_b),
        trial_index=start + i,
    )


@dataclass(frozen=True)
class CommutingDecomposition:
    """Three pairwise-orthogonal parts generating a commuting pair:
    the generating pair is (gamma1 ∨ gamma2, gamma1 ∨ gamma3)."""

    gamma1: Subspace
    gamma2: Subspace
    gamma3: Subspace


#: Why a row of :func:`commuting_decompositions` failed, by defect code.
_DECOMPOSITION_DEFECTS = (
    None,
    "decomposition exists only for commuting propositions",
    "decomposition parts are not orthogonal",
    "decomposition does not regenerate the pair",
)


def commuting_decompositions(qa, qb) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Constructive decompositions of stacked commuting pairs: gamma1 =
    a∧b, gamma2 = a∧¬b, gamma3 = ¬a∧b, and a defect code per row, 0 when
    the pair commutes, the parts are pairwise orthogonal and the joins
    reproduce a and b, else the index in :data:`_DECOMPOSITION_DEFECTS`
    of the first check the row fails."""
    g1, g2, g3 = meets(qa, qb), meets(qa, complements(qb)), meets(complements(qa), qb)
    pairs = itertools.combinations((g1, g2, g3), 2)
    overlap = np.maximum.reduce([orthogonality_defects(p, q) for p, q in pairs])
    regenerates = equal_subspaces(joins(g1, g2), qa) & equal_subspaces(joins(g1, g3), qb)
    defects = [commutation_defects(qa, qb) > EPS_ABS, overlap > EPS_ABS, ~regenerates]
    return g1, g2, g3, np.select(defects, [1, 2, 3], 0)


def decompose_commuting(a: Subspace, b: Subspace) -> CommutingDecomposition:
    """The single form of :func:`commuting_decompositions`; raises
    :class:`NotCommutingError` on a nonzero defect."""
    require_dims(a, b)
    *parts, defect = commuting_decompositions(a.basis.T, b.basis.T)
    if defect:
        raise NotCommutingError(_DECOMPOSITION_DEFECTS[int(defect)])
    return CommutingDecomposition(*(Subspace.from_columns(g) for g in parts))
