"""Data-dependent generalization bounds for stationary mixing processes.

The pieces, in dependency order: geometry (points, gauges, covers, the
exact minimum kernels), estimators (prefix gap profiles and missing-mass
estimates on the naive or indexed backend), bounds (closed-form reports),
processes (seeded chain simulators and embeddings), verify (Monte Carlo
validation), cli (the command-line surface).  nnindex only re-exports the
backend names of estimators for the benchmark's tracer.
"""

from .bounds import (
    BoundReport,
    ClassBounds,
    MixingProfile,
    covering_tail_bound,
    entropy_penalty,
    excess_loss_probability_bound,
    martingale_tail_threshold,
    risk_bound,
    risk_bound_with_exceptions,
)
from .estimators import (
    EmptyPrefixError,
    ExceptionSet,
    FiniteSupport,
    InfiniteGaugeError,
    MissingMassEstimate,
    PrefixGaugeProfile,
    PrefixNNBackend,
    SamplerOracle,
    good_turing,
    leave_one_out_min,
    missing_mass_G,
    missing_mass_Gt,
    prefix_min_indexed,
    prefix_min_profile,
    true_missing_mass,
)
from .geometry import (
    FunctionSample,
    GaugeSpec,
    GreedyCover,
    Point,
    SamplePath,
    eval_gauge,
    eval_phi,
    gauge_diameter,
    greedy_cover,
    pairwise_gauge,
)
from . import nnindex  # noqa: F401  the tracer's lookup module, see its docstring
from .pathio import read_path, write_path
from .processes import (
    ZETA_GOLDEN,
    ZETA_SILVER,
    EmbeddingSpec,
    ProcessSpec,
    embed,
    empirical_lipschitz,
    fourier_lipschitz_bracket,
    mixing_bounds,
    mixing_time,
    phase_distance,
    simulate,
    simulate_with_details,
    stationary_oracle,
)
from .verify import (
    DecayRow,
    GoodTuringReport,
    IidBernoulli,
    MarkovModulatedBernoulli,
    TrialReport,
    decay_study,
    validate_excess_loss_coverage,
    validate_good_turing,
    validate_martingale_tail,
)

__version__ = "0.1.0"
