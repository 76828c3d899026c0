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

from dataclasses import dataclass

import numpy as np

from .errors import (
    NotCommutingError,
    NotOrthogonalError,
    PreconditionUnmetError,
)
from .linalg import EPS_ABS
from .rays import (
    ZERO,
    Ray,
    Subspace,
    commutes,
    is_member,
    is_orthogonal,
    join,
    meet,
    ortho_complement,
    project_ray,
    project_rows,
    ray_from,
    rays_equal,
    require_dims,
    subspaces_equal,
)
from .geometry import p_prop
from .sampling import keyed_generator


def check_ortho_additivity(x: Ray, a: Subspace, b: Subspace) -> float:
    """|p(x, a∨b) − p(x, a) − p(x, b)| for orthogonal a, b.

    Raises
    ------
    NotOrthogonalError
        If the subspaces are not orthogonal.
    """
    if not is_orthogonal(a, b):
        raise NotOrthogonalError("additivity requires orthogonal propositions")
    return abs(p_prop(x, join(a, b)) - p_prop(x, a) - p_prop(x, b))


def check_complement(x: Ray, a: Subspace) -> float:
    """|p(x, a) + p(x, ¬a) − 1|."""
    return abs(p_prop(x, a) + p_prop(x, ortho_complement(a)) - 1.0)


def check_inclusion_exclusion(x: Ray, a: Subspace, b: Subspace) -> float:
    """|p(x, a∨b) − p(x, a) − p(x, b) + p(x, a∧b)| for commuting a, b."""
    if not commutes(a, b):
        raise NotCommutingError("inclusion-exclusion requires commuting propositions")
    return abs(
        p_prop(x, join(a, b))
        - p_prop(x, a)
        - p_prop(x, b)
        + p_prop(x, meet(a, b))
    )


def check_chain_rule(x: Ray, a: Subspace, b: Subspace) -> float:
    """|p(x, a∧b) − p(x, a)·p(a(x), b)| for commuting a, b.

    When x ⊥ a the conditional is on a null event; the term is
    0-weighted and the residual degenerates to p(x, a∧b) itself, which
    must vanish.
    """
    if not commutes(a, b):
        raise NotCommutingError("the chain rule requires commuting propositions")
    p_xa = p_prop(x, a)
    p_meet = p_prop(x, meet(a, b))
    ax = project_ray(a, x)
    if ax is ZERO or p_xa <= EPS_ABS:
        return p_meet
    return abs(p_meet - p_xa * p_prop(ax, b))


def _locally_commute(x: Ray, a: Subspace, b: Subspace) -> bool:
    ab = project_ray(a, project_ray(b, x))
    ba = project_ray(b, project_ray(a, x))
    if ab is ZERO or ba is ZERO:
        return ab is ZERO and ba is ZERO
    return rays_equal(ab, ba)


def check_total_probability(x: Ray, a: Subspace, b: Subspace) -> float:
    """Residual of p(x,b) = p(x,a)·p(a(x),b) + p(x,¬a)·p(¬a(x),b).

    Requires either globally commuting propositions or the weaker local
    condition that the two composite projections agree *at x*.  Terms
    conditioned on a null event (p(x,a) = 0 or p(x,¬a) = 0) contribute
    zero with the undefined conditional skipped.

    Raises
    ------
    PreconditionUnmetError
        When the propositions neither commute nor locally commute at x.
    """
    if not commutes(a, b) and not _locally_commute(x, a, b):
        raise PreconditionUnmetError(
            "commuting or locally-commuting-at-x",
            "propositions neither commute nor locally commute at the given state",
        )
    return total_probability_residual(x, a, b)


def total_probability_residuals(qa, qna, qb, x) -> np.ndarray:
    """Stacked residuals of the total probability decomposition
    p(x,b) = p(x,a)·p(a(x),b) + p(x,¬a)·p(¬a(x),b).

    ``qa``, ``qna`` and ``qb`` have shape (..., d, k) and orthonormal
    columns spanning a, ¬a and b (zero columns span nothing); ``x``
    holds unit vectors, shape (..., d).  A term conditioned on a null
    event (weight at most ``EPS_ABS``) contributes zero.
    """
    total = 0.0
    for q in (qa, qna):
        px = project_rows(q, x)
        weight = np.vecdot(px, px).real
        kept = weight > EPS_ABS
        bpx = project_rows(qb, px / np.sqrt(np.where(kept, weight, 1.0))[..., np.newaxis])
        total = total + np.where(kept, weight * np.vecdot(bpx, bpx).real, 0.0)
    bx = project_rows(qb, x)
    return np.abs(np.vecdot(bx, bx).real - total)


def total_probability_residual(x: Ray, a: Subspace, b: Subspace) -> float:
    """The residual of :func:`check_total_probability` without its
    precondition check; on non-commuting propositions it measures how
    far the law of total probability fails.  The single form of
    :func:`total_probability_residuals`."""
    columns = (a.basis.T, ortho_complement(a).basis.T, b.basis.T)
    return float(total_probability_residuals(*columns, x.rep))


def check_interference_inequality(x: Ray, a: Subspace, b: Subspace) -> float:
    """Margin of the quantitative interference inequality.

    With x in a, returns RHS − LHS of

        p(x,b)·(1 − p(b(x),a))²  ≤  p(b(x),a)·(1 − p(a(b(x)),b))

    which must be ≥ 0 up to rounding: the single-instance form of
    :func:`interference_margins`, read from :func:`interference_chain`.

    Raises
    ------
    PreconditionUnmetError
        If x is not in a, x ⊥ b, or b(x) ⊥ a (a similarity at most
        ``EPS_ABS``², where the projected state has norm at most
        ``EPS_ABS``).
    """
    require_dims(x, a, b)
    if not is_member(x, a):
        raise PreconditionUnmetError("x in alpha")
    p_xb, p_bxa, p_abxb = interference_chain(a.basis.T, b.basis.T, x.rep)
    if p_xb <= EPS_ABS**2:
        raise PreconditionUnmetError("x not orthogonal to beta")
    if p_bxa <= EPS_ABS**2:
        raise PreconditionUnmetError("beta(x) not orthogonal to alpha")
    return float(_squared_margin(p_xb, p_bxa, p_abxb))


def interference_chain(qa, qb, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The similarities ``(p(x,b), p(b(x),a), p(a(b(x)),b))`` of stacked
    instances, shape (...) each.

    ``qa`` and ``qb`` have shape (..., d, k) and orthonormal columns
    spanning alpha and beta (zero columns span nothing, so stacks of
    mixed rank pad with zeros); ``x`` holds unit vectors, shape
    (..., d).  Each similarity is the squared norm of the projection of
    the state before it, which is then normalized.  After a similarity
    of zero the state stays unnormalized, and the later values of that
    row are meaningless.
    """
    ps = []
    u = x
    for q in (qb, qa, qb):
        if ps:
            u = u / np.sqrt(np.where(ps[-1] > 0.0, ps[-1], 1.0))[..., np.newaxis]
        u = project_rows(q, u)
        ps.append(np.vecdot(u, u).real)
    return tuple(ps)


def _squared_margin(p_xb, p_bxa, p_abxb):
    """RHS − LHS of the interference inequality, from its chain."""
    return p_bxa * (1.0 - p_abxb) - p_xb * (1.0 - p_bxa) ** 2


#: Rows of :func:`interference_margins` with p(x, b) or p(b(x), a) at
#: or below this have no meaningful conditional projection.
MIN_CONDITIONING_P = 1e-12


def interference_margins(qa, qb, x) -> tuple[np.ndarray, np.ndarray]:
    """Batched margin of the interference inequality, the stacked form
    of :func:`check_interference_inequality`.

    Arguments as for :func:`interference_chain`, with each ``x`` in
    alpha.  Returns ``(margin, undefined)``: RHS − LHS per row, and a
    mask of the rows where p(x, b) or p(b(x), a) is at most
    :data:`MIN_CONDITIONING_P`, whose margins are meaningless.
    """
    p_xb, p_bxa, p_abxb = interference_chain(qa, qb, x)
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


def search_nonsquared_counterexample(seed: int, budget: int) -> InterferenceWitness | None:
    """Random search over real 3-dimensional instances for a violation of

        p(x,b)·(1 − p(b(x),a))  ≤  p(b(x),a)·(1 − p(a(b(x)),b)).

    Every candidate is drawn from its own counter-based substream keyed
    by (seed, trial), so the search may be split across workers and
    merged deterministically (first witness by trial index wins); this
    implementation scans sequentially.  Each candidate (real QR frames
    of ranks 1 or 2 and a state in alpha) is scored by
    :func:`interference_chain` on its arrays, skipped when p(x,b) or
    p(b(x),a) is at most 1e-6, and accepted when the non-squared excess
    is above ``EPS_ABS``; ``Ray`` and ``Subspace`` objects are built
    only for the witness.  Returns ``None`` when the budget is
    exhausted.  Any witness returned also satisfies the squared
    inequality, which is a theorem.

    Raises
    ------
    ValueError
        If ``seed`` lies outside [0, 2**64) and ``budget`` is positive.
    """
    dim = 3
    for trial in range(int(budget)):
        rng = keyed_generator(seed, trial)
        ranks = rng.integers(1, dim, size=2)  # 1 or 2
        qa = np.linalg.qr(rng.standard_normal((dim, int(ranks[0]))))[0]
        qb = np.linalg.qr(rng.standard_normal((dim, int(ranks[1]))))[0]
        vec = qa @ rng.standard_normal(int(ranks[0]))
        nrm = float(np.linalg.norm(vec))
        if nrm <= EPS_ABS:
            continue
        # in complex128, the field of p_prop and project_ray: the reported
        # p values stay those of the public chain on the witness's objects
        qa, qb, vec = (t.astype(np.complex128) for t in (qa, qb, vec))
        p_xb, p_bx_a, p_abx_b = (float(p) for p in interference_chain(qa, qb, vec / nrm))
        if p_xb <= 1e-6 or p_bx_a <= 1e-6:
            continue
        excess = p_xb * (1.0 - p_bx_a) - p_bx_a * (1.0 - p_abx_b)
        if excess > EPS_ABS:
            return InterferenceWitness(
                x=ray_from(vec),
                alpha=Subspace.from_orthonormal(qa.T, dim),
                beta=Subspace.from_orthonormal(qb.T, dim),
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


def decompose_commuting(a: Subspace, b: Subspace) -> CommutingDecomposition:
    """Constructive decomposition of a commuting pair.

    gamma1 = a∧b, gamma2 = a∧¬b, gamma3 = ¬a∧b.  The complements are
    formed once and each part is one meet, which complements nothing
    itself.  Verifies pairwise orthogonality and that the two joins
    reproduce a and b.

    Raises
    ------
    NotCommutingError
        If the propositions do not commute.
    """
    if not commutes(a, b):
        raise NotCommutingError("decomposition exists only for commuting propositions")
    nb = ortho_complement(b)
    na = ortho_complement(a)
    g1 = meet(a, b)
    g2 = meet(a, nb)
    g3 = meet(na, b)
    for p, q in ((g1, g2), (g1, g3), (g2, g3)):
        if not is_orthogonal(p, q):
            raise NotCommutingError("decomposition parts are not orthogonal")
    if not subspaces_equal(join(g1, g2), a) or not subspaces_equal(join(g1, g3), b):
        raise NotCommutingError("decomposition does not regenerate the pair")
    return CommutingDecomposition(gamma1=g1, gamma2=g2, gamma3=g3)
