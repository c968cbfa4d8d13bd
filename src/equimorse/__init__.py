"""Numerical Hodge theory and Witten deformation for the S^1-equivariant
de Rham complex on a catalog of circle-symmetric model manifolds."""

from .backend import (
    BackendMatrices,
    InvariantMorseFunction,
    RevolutionProfile,
    build_backend,
    catalog,
    flat_orbit_profile,
    flat_point_profile,
    validate_backend,
)
from .cartan import (
    EqDegreeSpace,
    EqOperator,
    build_deformed,
    build_delta_eq,
    build_deq,
    build_deq_star,
    build_equivariant_de_rham,
    degree_space,
    expansion_residual,
    mass_vector,
)
from .local_models import (
    BranchSpectrum,
    LocalOrbitModel,
    LocalPointModel,
    ab_branch_spectra,
    asymptotic_counts,
    block_matrix_eigen,
    ho_ground,
    ho_spectrum,
    orbit_contribution,
    point_contribution,
)
from .pipeline import (
    CriticalLevel,
    MorseCounts,
    euler_characteristic_check,
    find_critical_levels,
    morse_counts,
    run_case,
    verify_counting_inequalities,
    verify_trace_inequalities,
)
from .spectral import (
    SpectrumReport,
    TraceSpec,
    betti_numbers,
    de_rham_index,
    delta_spectrum,
    eigensolve,
    sweep_s,
    trace_phi,
)

__version__ = "0.1.0"
