"""Wavelet expansions of phi-sub-Gaussian random processes.

Lp([0,T]) reconstruction-error tail bounds, truncation planning for a target
accuracy/confidence, and Monte Carlo validation of the bounds.
"""

from .errors import (
    DivergenceError,
    InfeasiblePlanError,
    NumericError,
    ResourceLimitError,
    SubwaveError,
    SupportCoverageError,
    ValidationError,
)
from .orlicz import (
    NFunction,
    conjugate,
    density,
    make_custom,
    make_gaussian,
    make_power_family,
    parse_nfunction_spec,
)
from .wavelets import (
    Envelope,
    WaveletPair,
    box_envelope,
    dilated_support,
    envelope_constant,
    eval_dilated,
    lattice_constant,
    lattice_tail_constant,
    lipschitz_fit,
    make_basis,
    rational_envelope,
    tail_constant,
)
from .processes import (
    Gaussian,
    Kernel,
    ProcessModel,
    RankOne,
    SampleBatch,
    SamplePath,
    Stationary,
    SubGaussian,
    dump_paths,
    make_gauss_bump,
    make_ou,
    make_separable,
    minkowski_gap,
    parse_model_spec,
    simulate_paths,
)
from .expansion import (
    CoefficientSet,
    TruncationScheme,
    compute_coefficients,
    lp_error,
    parse_scheme_spec,
    reconstruct,
    second_moment_eta,
    second_moment_eta_parseval,
    second_moment_eta_spectral_bound,
    second_moment_xi_bound,
)
from .bounds import (
    TailBoundReport,
    c_n_infty_integral,
    c_n_infty_uniform,
    epsilon_threshold,
    plan_truncation,
    tail_probability_bound,
)
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    config_from_dict,
    load_config,
    run_experiment,
    tightness_report,
    write_outputs,
)

__version__ = "0.1.0"
