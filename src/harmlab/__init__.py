"""harmlab: closed-form harmonic extensions of ReLU^alpha boundary data on the
upper half-plane, neuron-ensemble constructions, and quantitative
approximation-rate experiments.
"""

from .errors import (
    HarmlabError,
    MaxSubdivisionsExceeded,
    NonFiniteSample,
    NumericalError,
    ValidationError,
)
from .halfplane import HalfPlanePoint
from .solutions import (
    eval_heaviside,
    eval_u_fractional,
    eval_u_half,
    eval_u_integer,
    eval_u_reg,
    eval_u_three_half,
)
from .numerics import (
    GridSpec,
    QuadratureRule,
    RateFit,
    fit_linear,
    fit_loglog,
    gauss_legendre_rule,
    integrate_adaptive,
    norm_lp_halfdisk,
)
from .poisson import BoundaryFunction, solve_at, solve_grid
from .ensembles import (
    NeuronEnsemble,
    barron_cost,
    cauchy_midpoint_rule,
    cauchy_tangent_rule,
    ensemble_eval,
    ensemble_eval_many,
    homogeneous_extend,
    lift_ensemble,
    load_ensemble,
    sample_subnetwork,
    save_ensemble,
    slice_ensemble,
)
from .line_barron import (
    DifferentiableFunction1D,
    barron_norm_upper,
    ensemble_from_derivative,
    log_divergence_diagnostic,
)
from .diagnostics import (
    SliceCriterionReport,
    SliceLogFit,
    dk1_angle_factor,
    slice_log_fit,
    ur_slice_barron_check,
)
from .experiments import (
    ErrorReport,
    make_random_target,
    mc_rate_experiment,
    reg_error_experiment,
    sobolev_lognorm_experiment,
)

__version__ = "0.1.0"
