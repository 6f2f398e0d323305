"""Data-dependent generalization bounds for stationary mixing processes.

The pieces, in dependency order: geometry (points, gauges, covers, the
exact minimum kernels), estimators (prefix gap profiles and missing-mass
estimates on the fast kernels, the naive scan on request), bounds
(closed-form reports, reset-chain descriptions and their mixing
coefficients; pure math, no numpy), processes (seeded chain simulators and
embeddings), verify (Monte Carlo validation), cli (the command-line
surface).  nnindex only re-exports the backend names of estimators for the
benchmark's tracer.

Every public name below is served from its defining module on first
access (PEP 562), so importing the package loads no submodule and no numpy;
`gaugebounds.risk_bound` loads bounds alone.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the public names the package serves from it
_EXPORTS = {
    "bounds": (
        "BoundReport",
        "ClassBounds",
        "MixingProfile",
        "ProcessSpec",
        "ZETA_GOLDEN",
        "ZETA_SILVER",
        "covering_tail_bound",
        "entropy_penalty",
        "excess_loss_probability_bound",
        "martingale_tail_threshold",
        "mixing_bounds",
        "mixing_time",
        "risk_bound",
        "risk_bound_with_exceptions",
    ),
    "estimators": (
        "EmptyPrefixError",
        "ExceptionSet",
        "FiniteSupport",
        "InfiniteGaugeError",
        "MissingMassEstimate",
        "PrefixGaugeProfile",
        "PrefixNNBackend",
        "SamplerOracle",
        "good_turing",
        "leave_one_out_min",
        "missing_mass_G",
        "missing_mass_Gt",
        "prefix_min_indexed",
        "prefix_min_profile",
        "true_missing_mass",
    ),
    "geometry": (
        "FunctionSample",
        "GaugeSpec",
        "GreedyCover",
        "Point",
        "SamplePath",
        "eval_gauge",
        "eval_phi",
        "gauge_diameter",
        "greedy_cover",
        "pairwise_gauge",
    ),
    "pathio": ("read_path", "write_path"),
    "processes": (
        "EmbeddingSpec",
        "embed",
        "empirical_lipschitz",
        "fourier_lipschitz_bracket",
        "phase_distance",
        "simulate",
        "simulate_with_details",
        "stationary_oracle",
    ),
    "verify": (
        "DecayRow",
        "GoodTuringReport",
        "IidBernoulli",
        "MarkovModulatedBernoulli",
        "TrialReport",
        "decay_study",
        "validate_excess_loss_coverage",
        "validate_good_turing",
        "validate_martingale_tail",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
