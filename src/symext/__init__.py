"""Symmetric-extendibility tests for quantum channels and bipartite states.

Decides whether a channel provably has zero one-way quantum capacity by
searching for a symmetric extension of its Choi state, and estimates a
normalized relative-entropy distance from any bipartite state to the
symmetrically extendible set.
"""

from .constructions import (
    boundary_isotropic_extension,
    example_extension,
    example_state,
    filtered_state,
    isotropic,
    isotropic_boundary_fidelity,
    twirl_isotropic,
)
from .extend import (
    FEASIBLE,
    INCONCLUSIVE,
    INFEASIBLE_NUMERICAL,
    CertificateResiduals,
    ExtensionCertificate,
    ExtensionProblem,
    SweepResult,
    SweepRow,
    run_isotropic_sweep,
    solve_extension,
    verify_certificate,
)
from .linalg import InputError
from .param import (
    BoundReport,
    ParamResult,
    bound_report,
    distance_to_extendible,
    hashing_lower_bound,
    normalization_factor,
    two_copy_estimate,
)
from .quantum import (
    ChoiState,
    DensityMatrix,
    KrausChannel,
    apply_channel,
    choi_from_kraus,
    coherent_information,
    depolarizing_channel,
    fidelity_maxent,
    kraus_from_choi,
    max_entangled_projector,
    negativity,
    relative_entropy,
    von_neumann_entropy,
)

__version__ = "0.1.0"
