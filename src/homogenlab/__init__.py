"""homogenlab: scale-invariant (bias-free) ReLU networks for linear inverse problems."""

from .numerics import rank_truncate, spectral_norm
from .network import (
    ActivationSpec,
    HomogeneityReport,
    LayerSpec,
    NetworkSpec,
    ProbeConfig,
    check_positive_homogeneity,
    convert_relu_to_activation,
    deserialize,
    evaluate,
    pad_identity_layers,
    serialize,
    sigma_gamma_probe,
)
from .homogenize import (
    FitConfig,
    build_inverse_recovery_net,
    homogenize_one_layer,
    mcshane_extend,
    radial_extend_l2,
)
from .bounds import (
    ConditioningReport,
    DirectionSet,
    RipReport,
    eckart_young_gap,
    empirical_conditioning,
    lowrank_forward,
    lowrank_rip_sample,
    one_layer_lower_bound,
    phase_retrieval_forward,
    rip_exhaustive,
    uat_negative_bound,
    uat_negative_matrix,
)
from .solvers import (
    Lista,
    ProblemSpec,
    SolveConfig,
    SolveReport,
    brute_force_sparse_fit,
    ista_run,
    lista_eval,
    lista_from_ista,
    robustness_scan,
    selection_discontinuity_demo,
    solve,
    verify_optimality,
)

__version__ = "0.1.0"
