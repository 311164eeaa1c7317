"""Exact-rational tools for the Kronecker hull of doubly stochastic matrices.

The package constructs a linearly constrained relaxation (Phi) of the convex
hull of Kronecker products of doubly stochastic matrices (Psi), builds an
explicit family of matrices that are vertices of the relaxation yet lie
outside the hull, and machine-checks every step of that claim with exact
rational arithmetic: membership, vertexhood, a support certificate, and an
independent LP oracle with verifiable Farkas certificates.
"""

from .exactmath import (
    Feasibility,
    RatMatrix,
    SparseMatrix,
    check_farkas,
    format_matrix,
    lp_feasible,
    parse_matrix,
    rat_rank,
)
from .permutations import (
    Permutation,
    all_permutations,
    compose,
    conjugate,
    cyclic,
    enumerate_counterexample_sigmas,
    euler_phi,
    identity,
    inverse,
    is_counterexample_sigma,
    parse_permutation,
)
from .circulants import VarMatrix, apply_PQ, build_A, build_B, exists_PQ
from .polytopes import (
    ConstraintSystem,
    MembershipResult,
    TensorIndex,
    admissible_pairs,
    build_phi_constraints,
    induced_marginals,
    kron,
    phi_contains,
    phi_support_rank,
    psi_contains,
)
from .counterexample import (
    VerificationReport,
    block_structure_report,
    build_T,
    certify_not_in_psi,
    full_verification,
    verify_transfer_identity,
)

__version__ = "0.1.0"
