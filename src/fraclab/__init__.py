"""fraclab: numerics for the fractional semilinear heat equation
u_t = -(-Delta)^{alpha/2} u + |u|^{p-1} u on a periodic box, with the
singular steady state, Hardy-potential semigroups, Morrey norms, and
blowup/decay experiment harnesses."""

import importlib
import types

__version__ = "0.1.0"


def _numpy_attribute(name):
    """Import numpy (the import system makes concurrent first reads wait
    for one load) and keep its attribute name on the handle np."""
    import numpy

    value = getattr(numpy, name)
    setattr(np, name, value)
    return value


# Every module reads numpy as `from . import np`: a plain module whose
# __getattr__ (PEP 562) fetches each name from numpy at its first read and
# keeps it, so later reads cost a module read, and commands that hold no
# array (constants, sigma, --version, --help, a refused document) never
# load numpy.  np stays the same object, so no module's namespace changes
# at the load (perfbench's tracer test compares them by identity); np holds numpy's objects but is not numpy, so a
# numpy function patched after fraclab has read it does not reach fraclab.
# importlib.util.LazyLoader would not do: it switches the module's class
# before numpy has loaded, so a concurrent first read from another thread
# finds names missing, and an `import numpy` statement loads it at once.
np = types.ModuleType("numpy")
np.__getattr__ = _numpy_attribute

# Each public name, declared once beside its module; the modules are
# imported eagerly, in this order, and __all__ follows the table.
_PUBLIC = {
    "constants": """
        ModelParams RegimeReport critical_exponents frac_lap_constant hardy_constant
        jl_condition kappa_from_delta kappa_from_params log_gamma power_map_coeff
        power_map_coeff_max regime_report singular_amplitude singular_morrey_norm
        solve_sigma
    """.split(),
    "field": """
        Field Grid SnapshotFormatError SnapshotMeta WeightSpec dyadic_schedule
        heat_propagate image_safe_horizon open_snapshot read_snapshot steady_state thread_count
        weight_values weighted_norm write_snapshot
    """.split(),
    "radial_operator": "RadialProfile frac_lap_radial steady_residual".split(),
    "linear_propagators": """
        HardyOperatorSpec HypercontractivityResult NormSeries RatioProbeResult hardy_evolve
        hardy_step hypercontractivity_measure kernel_ratio_probe
    """.split(),
    "morrey": "MorreyEstimate MorreyQuery morrey_estimate morrey_norm morrey_smoothing_probe".split(),
    "nonlinear_solver": """
        BarrierMonitor Blowup CertificateResult Global NumericalFailure RunRecord
        SandwichMonitor blowup_certificate evolve
    """.split(),
    "config": """
        ConfigError ExperimentConfig GridSettings InitialSpec PotentialSpec TimeSettings
        config_from_dict parse_config
    """.split(),
    "analysis": """
        ConvergenceRates DeficitEvolution EnvelopeMax FitResult MonotonicityError
        ThresholdBracket classify_threshold default_fit_window deficit_evolution
        envelope_max fit_power_law l2_stability_check run_sweep singular_convergence_rates
        weighted_decay_check
    """.split(),
}

__all__ = ["__version__"]
for _module, _names in _PUBLIC.items():
    _source = importlib.import_module(f".{_module}", __name__)
    globals().update((name, getattr(_source, name)) for name in _names)
    __all__ += _names
del importlib, types, _module, _names, _source
