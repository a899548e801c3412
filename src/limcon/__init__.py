"""limcon: verify, synthesize, and simulate matrix-weighted consensus
networks where each agent only sees a linear function of its neighbors'
states."""

from .graphs import (
    Arc,
    DirectedGraph,
    Ear,
    EarDecomposition,
    backlinked_cycle_graph,
    broadcast_pair_graph,
    chi,
    complete_symmetric,
    directed_cycle,
    directed_path,
    ear_decomposition,
    incidence_matrix,
    is_2_connected,
    is_directed_cycle,
    is_strongly_connected,
    is_symmetric,
    is_weakly_connected,
    symmetric_closure,
    symmetric_cycle,
    symmetric_ear_decomposition,
    symmetric_path,
    symmetric_star,
    validate_ear_decomposition,
)
from .linalg import (
    RANK_RTOL,
    kernel_basis,
    mixed_norm_2_inf,
)
from .simulate import (
    ALGORITHMS,
    Schedule,
    SpectralReport,
    StepsizeSchedule,
    Trajectory,
    build_update_matrix,
    consensus_error,
    local_agreement_residual,
    reported_matrix,
    run_cycle_projection,
    run_fixed_step,
    run_general_projection,
    run_gradient,
    run_metropolis_tv,
    spectral_counts,
    spectral_report,
    stacked_laplacian,
)
from .wellconfig import (
    InfeasibleSynthesisError,
    RankGap,
    WeightedNeighborGraph,
    WellConfigReport,
    agreement_map,
    backlinked_cycle_criterion,
    broadcast_pair_criterion,
    cycle_criterion,
    disagreement_overlap_dim,
    identity_weights,
    is_well_configured,
    is_well_configured_via_overlap,
    synthesize_symmetric_weights,
    synthesize_weights,
    weights_from_json,
    weights_to_json,
)

__version__ = "0.1.0"
