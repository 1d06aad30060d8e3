"""Holder-capped p-energy distances between metrics on simplicial meshes."""

from .errors import (
    DegenerateCellError,
    DisconnectedMeshError,
    DpmodError,
    MeshError,
    MeshMismatchError,
    MetricError,
    NonConvergedError,
    NotSPDError,
    OracleError,
    ParseError,
    SameVertexError,
    SolverError,
    ZeroDistancePairError,
)
from .config import ExperimentConfig, parse_config
from .experiments import (
    RunResult,
    run_class_check,
    run_compute,
    run_gen,
    run_p_sweep,
    run_scaling_check,
    run_sequence_study,
)
from .families import (
    FamilySpec,
    make_conformal_constant,
    make_flat,
    make_oscillation_sequence,
    make_spike_sequence,
    spike_schedule,
)
from .geodesic import DistanceMatrix, all_pairs_distances, diameter, edge_lengths
from .mesh import (
    Mesh,
    build_mesh,
    find_node,
    read_mesh,
    uniform_subdivide,
    write_mesh,
)
from .metric import (
    ClassParams,
    ClassReport,
    EigenPencil,
    HypothesisReport,
    MetricField,
    TensorField,
    check_class_membership,
    det_wrt_g0,
    generalized_eigenvalues,
    hypothesis_functionals,
    inverse_difference_norm,
    lq_norm,
    norm_g_wrt_g0,
    norm_ginv_wrt_g0,
    read_metric,
    scale_metric,
    tensor_norm_wrt,
    write_metric,
)
from .oracle import analytic_1d_dp, brute_force_dp
from .solver import (
    DistanceResult,
    GaugeParams,
    PairOutcome,
    distance_matrix,
    energy_p,
    holder_seminorm,
    solve_dp,
    solve_dp_unmodified,
)

__version__ = "0.1.0"
