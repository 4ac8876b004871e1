"""harmlab: closed-form harmonic extensions of ReLU^alpha boundary data on the
upper half-plane, neuron-ensemble constructions, and quantitative
approximation-rate experiments.

`import harmlab` loads no submodule: each public name below, and each of its
modules as an attribute (`harmlab.poisson`), is imported when it is first
used (PEP 562), so a process loads only the modules it uses.
"""

import importlib

# module -> the public names the package re-exports from it
_EXPORTS = {
    "errors": ("HarmlabError", "MaxSubdivisionsExceeded", "NonFiniteSample", "NumericalError", "ValidationError"),
    "halfplane": ("HalfPlanePoint",),
    "solutions": ("eval_heaviside", "eval_u_fractional", "eval_u_half", "eval_u_integer", "eval_u_reg",
                  "eval_u_three_half"),
    "numerics": ("GridSpec", "QuadratureRule", "RateFit", "fit_linear", "fit_loglog", "gauss_legendre_rule",
                 "integrate_adaptive", "norm_lp_halfdisk"),
    "poisson": ("BoundaryFunction", "solve_at", "solve_grid"),
    "ensembles": ("NeuronEnsemble", "barron_cost", "cauchy_midpoint_rule", "cauchy_tangent_rule", "ensemble_eval",
                  "ensemble_eval_many", "homogeneous_extend", "lift_ensemble", "load_ensemble",
                  "sample_subnetwork", "save_ensemble", "slice_ensemble"),
    "line_barron": ("DifferentiableFunction1D", "barron_norm_upper", "ensemble_from_derivative",
                    "log_divergence_diagnostic"),
    "diagnostics": ("SliceCriterionReport", "SliceLogFit", "dk1_angle_factor", "slice_log_fit",
                    "ur_slice_barron_check"),
    "experiments": ("ErrorReport", "make_random_target", "mc_rate_experiment", "reg_error_experiment",
                    "sobolev_lognorm_experiment"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    # not cached here: a name always reads its module's current binding
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
