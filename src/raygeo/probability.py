"""Probability calculus of propositions tested in a state.

For a fixed state x, the similarities p(x, ·) behave like a probability
measure on propositions — exactly so on families of *commuting*
propositions: additivity over orthogonal disjunctions, the complement
law, inclusion–exclusion, a conditional chain rule, and the total
probability decomposition.  Without commutation the decomposition
fails, and this module also carries the quantitative interference
inequality together with a search for the counterexample showing its
square cannot be dropped.

Each identity has one stacked kernel, which returns residuals
(absolute deviation from the identity) for the law harness to judge,
and marks with a mask the rows outside its domain:
``total_probability_residuals`` and ``interference_margins`` return an
``undefined`` mask beside their values.  The single forms ``check_*``
read one row and raise only when a stated precondition is violated.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    NotCommutingError,
    NotOrthogonalError,
    PreconditionUnmetError,
)
from .linalg import EPS_ABS, is_integer
from .rays import (
    Ray,
    Subspace,
    commutes,
    commuting_subspaces,
    complements,
    equal_subspaces,
    is_member,
    is_orthogonal,
    joins,
    meets,
    orthogonal_subspaces,
    project_rays,
    project_rows,
    ray_from,
    require_dims,
)
from .geometry import equal_projections, p_props
from .sampling import keyed_generators


def ortho_additivity_residuals(x, *qs) -> np.ndarray:
    """|p(x, q₁∨…∨qₙ) − p(x, q₁) − … − p(x, qₙ)| over stacked states
    (..., d) and one or more stacked propositions (..., d, k), for a
    pairwise-orthogonal family."""
    return np.abs(p_props(functools.reduce(joins, qs), x) - sum(p_props(q, x) for q in qs))


def check_ortho_additivity(x: Ray, a: Subspace, b: Subspace) -> float:
    """The single form of :func:`ortho_additivity_residuals`; raises
    :class:`NotOrthogonalError` unless a ⊥ b."""
    require_dims(x, a, b)
    if not is_orthogonal(a, b):
        raise NotOrthogonalError("additivity requires orthogonal propositions")
    return float(ortho_additivity_residuals(x.rep, a.basis.T, b.basis.T))


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


def check_total_probability(x: Ray, a: Subspace, b: Subspace) -> float:
    """Residual of p(x,b) = p(x,a)·p(a(x),b) + p(x,¬a)·p(¬a(x),b): the
    single form of :func:`total_probability_residuals`.

    Raises
    ------
    PreconditionUnmetError
        Where :func:`total_probability_residuals` marks the row
        undefined: the propositions neither commute nor locally commute
        at x.
    """
    require_dims(x, a, b)
    residual, undefined = total_probability_residuals(a.basis.T, b.basis.T, x.rep)
    if undefined:
        raise PreconditionUnmetError(
            "commuting or locally-commuting-at-x",
            "propositions neither commute nor locally commute at the given state",
        )
    return float(residual)


def total_probability_residuals(qa, qb, x) -> tuple[np.ndarray, np.ndarray]:
    """Stacked residuals of the total probability decomposition
    p(x,b) = p(x,a)·p(a(x),b) + p(x,¬a)·p(¬a(x),b).

    ``qa`` and ``qb`` span a and b, as for :func:`measurement_chain`,
    and ¬a is ``complements(qa)``.  A term conditioned on a null event
    (weight at most ``EPS_ABS``) contributes zero.  Returns
    ``(residual, undefined)``: the residual per row, and a mask of the
    rows where a and b neither commute nor locally commute at x, that
    is, where the composite projections a(b(x)) and b(a(x)) differ
    (:func:`~raygeo.geometry.equal_projections`).  On those rows the
    identity need not hold, and the residual measures how far it fails.
    """
    bx, zero_b = project_rays(qb, x)
    ab, zero_ab = project_rays(qa, bx)
    ax, zero_a = project_rays(qa, x)
    ba, zero_ba = project_rays(qb, ax)
    # the commutation defects only where a and b do not commute locally at
    # x; np.array makes the mask writable for a single row too
    undefined = np.array(~equal_projections(ab, zero_ab | zero_b, ba, zero_ba | zero_a))
    undefined[undefined] = ~commuting_subspaces(qa[undefined], qb[undefined])
    total = 0.0
    for q in (qa, complements(qa)):
        weight, p_b = measurement_chain(x, q, qb)
        total = total + np.where(weight > EPS_ABS, weight * p_b, 0.0)
    return np.abs(measurement_chain(x, qb)[0] - total), undefined


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


#: The bits of a search candidate's first raw word that make both its ranks 2.
_RANKS_2_2 = 1 << 63 | 1 << 31


def search_nonsquared_counterexample(seed: int, budget: int) -> InterferenceWitness | None:
    """Random search over real 3-dimensional instances for a violation of

        p(x,b)·(1 − p(b(x),a))  ≤  p(b(x),a)·(1 − p(a(b(x)),b)).

    Candidate ``trial`` is drawn from its own counter-based stream keyed
    by ``[seed, trial]`` (:func:`~raygeo.sampling.keyed_generators`): two
    ranks of 1 or 2 and, only when both are 2, fourteen normals: the
    Gaussian 3×2 frames of alpha and beta, then the two coefficients of
    a state in alpha.  The ranks are read from the stream's first 64-bit
    raw word: alpha's is 2 when bit 31 is set and beta's when bit 63 is.
    These are the ranks, and the generator state, that two draws of
    ``integers(1, 3)`` would give: numpy draws each by Lemire's method
    from 32 bits, the word's low half and then its high half, and keeps
    their top bit; only the spent half that numpy stores stays unset.
    Candidates are scored one at a time, in trial order, and the first
    that passes is the witness.  A candidate is skipped when p(x,b) or
    p(b(x),a) is at most 1e-6, and accepted when the non-squared excess
    is above ``EPS_ABS``.  Each scored candidate builds its two
    ``Subspace`` objects once from its Q factors, and the chain reads
    their bases; the ``Ray`` is built only for the witness, which is the
    first scored candidate in 3999 of the 4000 benchmark searches.
    Returns ``None`` when the budget is exhausted.  Any witness returned
    also satisfies the squared inequality, which is a theorem.

    A candidate with a rank-1 frame draws nothing more and is not
    scored, which moves no witness.  No such candidate is a witness:
    with alpha of rank 1, x spans alpha and the excess is exactly 0;
    with beta of rank 1 it is (p(x,b) − p(b(x),a))·(1 − p(b(x),a)) ≤ 0
    by Cauchy–Schwarz.  Computed over the 44 843 rank-1 candidates of
    seeds 0–299, trials 0–199, the excess is at most 3.0e-15, five
    decades below ``EPS_ABS``.  Since every candidate has its own key,
    drawing less for one changes no other's draws.  In 3999 of the 4000
    searches of the ``search`` benchmark (seeds of ``SeedSequence(21)``,
    and again of ``SeedSequence(7)``) the witness is the first candidate
    with ranks (2, 2), so a search mostly scores one candidate.

    Raises
    ------
    ValueError
        If ``budget`` is not an ``int`` or ``np.integer`` (a ``bool``, a
        fraction or a string would be coerced to another count), or if
        ``seed`` is not an integer in [0, 2**64), whatever the budget.
    """
    if not is_integer(budget):
        raise ValueError(f"the budget must be an integer, got {budget!r}")
    for trial, rng in enumerate(keyed_generators(seed, range(int(budget)))):
        if (rng.bit_generator.random_raw() & _RANKS_2_2) != _RANKS_2_2:
            continue
        draws = rng.standard_normal(14)
        qa, qb = np.linalg.qr(draws[:12].reshape(2, 3, 2))[0]
        vec = qa @ draws[12:]
        nrm = np.sqrt(np.vecdot(vec, vec))
        if nrm <= EPS_ABS:
            continue
        alpha, beta = Subspace.from_orthonormal(qa.T, 3), Subspace.from_orthonormal(qb.T, 3)
        a, b = alpha.basis.T, beta.basis.T
        p_xb, p_bx_a, p_abx_b = (
            float(p) for p in measurement_chain(vec.astype(np.complex128) / nrm, b, a, b)
        )
        excess = p_xb * (1.0 - p_bx_a) - p_bx_a * (1.0 - p_abx_b)
        if p_xb > 1e-6 and p_bx_a > 1e-6 and excess > EPS_ABS:
            return InterferenceWitness(
                x=ray_from(vec),
                alpha=alpha,
                beta=beta,
                p_x_beta=p_xb,
                p_bx_alpha=p_bx_a,
                p_abx_beta=p_abx_b,
                nonsquared_excess=excess,
                squared_margin=_squared_margin(p_xb, p_bx_a, p_abx_b),
                trial_index=trial,
            )
    return None


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
    orthogonal = np.logical_and.reduce([orthogonal_subspaces(p, q) for p, q in pairs])
    regenerates = equal_subspaces(joins(g1, g2), qa) & equal_subspaces(joins(g1, g3), qb)
    defects = [~commuting_subspaces(qa, qb), ~orthogonal, ~regenerates]
    return g1, g2, g3, np.select(defects, [1, 2, 3], 0)


def decompose_commuting(a: Subspace, b: Subspace) -> CommutingDecomposition:
    """The single form of :func:`commuting_decompositions`; raises
    :class:`NotCommutingError` on a nonzero defect."""
    require_dims(a, b)
    *parts, defect = commuting_decompositions(a.basis.T, b.basis.T)
    if defect:
        raise NotCommutingError(_DECOMPOSITION_DEFECTS[int(defect)])
    return CommutingDecomposition(*(Subspace.from_columns(g) for g in parts))
