"""Work extraction from coupled bipartite quantum systems.

Computes the ergotropy of finite-dimensional states, its restriction to
unitaries acting on one subsystem while the coupling stays on, the
switch-off protocol value, closed qubit formulas, classical assignment
analogues, and upper/lower bounds (polar and unital-channel relaxation),
plus builders for two worked models: an atom-cavity pair and an anisotropic
spin ring.
"""

from .ergotropy import (
    ErgotropyReport,
    classical_ergotropy,
    classical_local_ergotropy,
    delta_off,
    effective_local_ergotropy_product,
    global_ergotropy,
    hs_gap_bounds,
    solve_assignment,
    switch_off_ergotropy,
    two_level_exact,
    two_level_lower_bound,
)
from .gpo import (
    BlochDecomposition,
    GpoBasis,
    bloch_vector,
    decompose,
    gpo_basis,
    orthogonal_image,
)
from .local import (
    MMatrix,
    OptimizerConfig,
    build_m_matrix,
    local_objective,
    optimize_local_unitary,
    polar_upper_bound,
    qubit_local_ergotropy,
)
from .models import (
    AnalyticTriple,
    HamiltonianParts,
    JcParams,
    RegimeError,
    XxzParams,
    jc_analytic,
    jc_bipartite,
    jc_dressed_state,
    jc_mixing_angle,
    jc_phase_family_state,
    jc_system,
    xxz_analytic,
    xxz_bethe_energy,
    xxz_bethe_state,
    xxz_bipartite,
    xxz_system,
)
from .qmat import (
    BipartiteSystem,
    haar_unitary,
    hermitian_eig,
    hermitize,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    random_density,
    random_hermitian,
    save_matrix,
    tensor_product,
)
from .sdp import (
    ChoiCost,
    NonConvergenceError,
    SdpSolution,
    choi_cost,
    export_instance,
    import_instance,
    sdp_upper_bound,
)

__version__ = "0.1.0"


def backend_name() -> str:
    """Name of the numerical backend; numpy is the only one."""
    return "numpy"
