"""cd-index of Eulerian and Gorenstein* posets.

Three independent routes to the cd-index (flag counts, the Stanley
recursion, and the C/D operator calculus), exact rational homology of order
complexes, Gorenstein*/quasi-convex certification, and shelling-based
decompositions.  All arithmetic is exact; no floats anywhere.
"""

from .cdpoly import (
    CdPolynomial,
    NotACdPolynomial,
    SubsetPolynomial,
    enumerate_cd_words,
    parse_cd,
    phi_expand,
    to_cd,
    word_degree,
)
from .flags import cd_index_flag, flag_f, flag_h, skeleton_poincare, verify_duality
from .homology import (
    GorensteinCertificate,
    HomologyProfile,
    SimplicialComplex,
    boundary_of,
    is_gorenstein_star,
    is_quasi_convex,
    link,
    order_complex,
    reduced_homology,
)
from .operators import (
    SkeletonFunction,
    cd_index_operator,
    check_E_commutes_with_pullback,
    constant_function,
    eval_cd_monomial,
    op_C,
    op_D,
    op_E,
    pullback,
)
from .poset import (
    BarycentricResult,
    ElementSubposet,
    GradedPoset,
    InvalidPoset,
    barycentric,
    build_family,
    build_pyramid,
    chain,
    crosspoly_fan,
    cube_fan,
    ideal,
    induced_subposet,
    is_eulerian,
    mobius,
    polygon,
    simplex_fan,
    skeleton,
    star,
    strict_ideal,
)
from .recursion import NonIntegralResult, cd_index_stanley
from .shelling import (
    PiNotComplete,
    QuasiConvexIndex,
    ShellingInvalid,
    cd_index_quasiconvex,
    pi_decomposition,
    semisuspend,
    shelling_steps,
    shelling_sum,
)

__version__ = "0.1.0"
