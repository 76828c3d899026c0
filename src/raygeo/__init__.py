"""Projective geometry of finite-dimensional complex Hilbert spaces.

States are rays (one-dimensional subspaces), propositions are closed
subspaces, similarity p is the transition probability between states,
and the triple phase theta governs interference.  The superposition of
two non-orthogonal states, the probability calculus over commuting
propositions, superposition-preserving maps, and tensor-product
formulas complete the library; :mod:`raygeo.lawcheck` verifies every
law over seeded random instances.
"""

from .errors import (
    DegenerateTripleError,
    DimensionMismatchError,
    InvalidWeightError,
    NotCommutingError,
    NotIsometryError,
    NotOrthogonalError,
    OrthogonalComponentsError,
    OrthogonalPairError,
    PreconditionUnmetError,
    RayGeoError,
    UnknownLawError,
    ZeroVectorError,
)
from .linalg import (
    inner,
    orthonormalize,
)
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
    ray_from,
    rays_equal,
    subspaces_equal,
)
from .geometry import (
    Triple,
    a_sim,
    coplanar,
    p_prop,
    p_sim,
    prime_triple,
    reciprocity_holds,
    theta,
    triple_phase,
)
from .superposition import (
    SuperpositionSpec,
    cos_theta_prime,
    omega,
    p_component_closed_form,
    p_of_superposition_closed_form,
    superpose,
)
from .probability import (
    CommutingDecomposition,
    InterferenceWitness,
    check_chain_rule,
    check_complement,
    check_inclusion_exclusion,
    check_interference_inequality,
    check_ortho_additivity,
    check_total_probability,
    decompose_commuting,
    search_nonsquared_counterexample,
)
from .morphisms import (
    PreservationReport,
    QuantityResiduals,
    RegularMap,
    apply_ray,
    check_char_morph,
    check_preserves_p_theta,
    isometry_scale,
    preserves_superpositions,
)
from .tensor import check_p_product, check_theta_product, tensor_ray
from .lawcheck import (
    GeneratorSpec,
    Law,
    LawReport,
    all_passed,
    law_ids,
    registry,
    run_all,
    run_law,
)

__version__ = "0.1.0"
