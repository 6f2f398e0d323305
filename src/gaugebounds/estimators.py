"""Prefix missing-mass estimators computed from a sample path alone.

For a path X_0 .. X_{n-1} (0-based), a gauge g, a gap tau and an exception
set B of positions below n - tau, the profile entry j (j = 0 .. n-tau-1) is

    mins[j] = min{ g(X_{tau+j}, X_i) : 0 <= i <= j, i not in B }.

Candidates therefore lag the query by at least tau steps, and the profile is
computable online.  Two summaries matter:

    G   = mean of mins              (average gap to the admissible prefix)
    G_t = fraction of mins > t      (threshold exceedance rate)

G integrates G_t over t, so G = sum over the step levels of G_t, exactly.
For metric gauges G_t upper-estimates the missing mass at level t: the
probability that a fresh stationary draw lands farther than t from every
sample point.  The leave-one-out variant of that estimate is the generalized
Good-Turing estimator, also provided here, together with ground-truth
missing mass for validation against a known sampling distribution.

Each of these minima is stated once as the admissible-minimum problem
(queries, limits, keep, skip_self) of geometry.  Profile entry j queries row
tau + j with limit j + 1 and keeps the rows outside B; leave-one-out queries
every row with limit n under skip_self; the ground truth appends the fresh
draws to the path and queries them with limit n.  geometry.admissible_mins
answers every problem and picks its kernel, on the fast kernels of the
indexed kind unless prefix_min_profile (the oracle) or a
PrefixNNBackend("naive") asks for the definitional scan; every kernel
returns the oracle's floats.  A passed backend receives the pair counts of
its last run.  G_t, Good-Turing and the Monte Carlo truth all count the
minima above a threshold, in _exceedance_share.

Summation order is fixed (ascending position, plain left-to-right), so
results are bit-reproducible.  Apart from the counts a passed backend
receives, all functions are pure; profiles are immutable and safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import _exception_count, _n_eff
from .geometry import GaugeSpec, SamplePath, _check_parameters, admissible_mins, check_gauge_path

__all__ = [
    "ExceptionSet",
    "PrefixGaugeProfile",
    "EmptyPrefixError",
    "InfiniteGaugeError",
    "FiniteSupport",
    "SamplerOracle",
    "MissingMassEstimate",
    "PrefixNNBackend",
    "prefix_min_profile",
    "prefix_min_indexed",
    "missing_mass_G",
    "missing_mass_Gt",
    "leave_one_out_min",
    "good_turing",
    "true_missing_mass",
]


class EmptyPrefixError(ValueError):
    """No admissible candidate index exists for some profile position."""


class InfiniteGaugeError(ValueError):
    """The profile contains +inf entries, so its mean is undefined."""


@dataclass(frozen=True)
class ExceptionSet:
    """Positions excluded from the prefix minima (and from the penalty max).

    indices are 0-based path positions, all below n_eff = n - tau.  The
    fraction alpha = |B| / n_eff is what the entropy penalty of the
    exception-tolerant bound is charged for.
    """

    indices: tuple[int, ...]
    n_eff: int

    def __post_init__(self):
        if self.n_eff < 1:
            raise ValueError("n_eff must be positive")
        idx = tuple(sorted(int(i) for i in self.indices))
        if len(set(idx)) != len(idx):
            raise ValueError("exception indices must be distinct")
        if idx and (idx[0] < 0 or idx[-1] >= self.n_eff):
            raise ValueError(f"exception indices must lie in [0, {self.n_eff})")
        object.__setattr__(self, "indices", idx)

    @property
    def alpha(self) -> float:
        return len(self.indices) / self.n_eff

    @classmethod
    def worst_phi(cls, phi_values, alpha: float) -> "ExceptionSet":
        """Exclude the alpha * n_eff positions with the largest penalty
        values.  alpha * n_eff must scale to an integer count; ties break
        toward the earlier position, so the selection is deterministic."""
        phi = np.asarray(phi_values, dtype=np.float64)
        if phi.ndim != 1 or phi.size == 0:
            raise ValueError("phi_values must be a nonempty 1-d array")
        n_eff = phi.size
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
        count = _exception_count(alpha, n_eff)
        if not 0 <= count < n_eff:
            raise ValueError("alpha must lie in [0, 1) after scaling by n_eff")
        order = np.argsort(-phi, kind="stable")
        return cls(indices=tuple(int(i) for i in order[:count]), n_eff=n_eff)


@dataclass(frozen=True)
class PrefixGaugeProfile:
    """The raw material of G and G_t: per-position admissible prefix minima."""

    n: int
    tau: int
    exceptions: tuple[int, ...]
    mins: np.ndarray  # (n - tau,) float64, possibly +inf

    def __post_init__(self):
        mins = np.ascontiguousarray(np.asarray(self.mins, dtype=np.float64))
        if mins.shape != (self.n - self.tau,):
            raise ValueError("mins must have length n - tau")
        if np.isnan(mins).any() or (mins < 0).any():
            raise ValueError("mins entries must be nonnegative (possibly +inf)")
        mins.setflags(write=False)
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "exceptions", tuple(int(i) for i in self.exceptions))

    @property
    def n_eff(self) -> int:
        return self.n - self.tau


def _prefix_problem(
    path: SamplePath, gauge: GaugeSpec, tau: int, exceptions: ExceptionSet | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Checks a prefix-minimum request and states it as the admissible-minimum
    (queries, limits, keep) of geometry: entry j queries row tau + j and sees
    the rows i <= j outside the exception set.  Every backend validates
    through here."""
    n_eff = _n_eff(len(path), tau)
    check_gauge_path(gauge, path)
    keep = None
    if exceptions is not None:
        if exceptions.n_eff != n_eff:
            raise ValueError(
                f"exception set sized for n_eff={exceptions.n_eff}, path gives {n_eff}")
        if exceptions.indices[:1] == (0,):
            raise EmptyPrefixError(
                f"no admissible prefix index for path position {tau} "
                "(position 0 is excluded); the estimator is undefined there"
            )
        if exceptions.indices:
            keep = np.ones(n_eff, dtype=bool)
            keep[np.asarray(exceptions.indices, dtype=np.intp)] = False
    return tau + np.arange(n_eff), np.arange(1, n_eff + 1), keep


@dataclass
class PrefixNNBackend:
    """Backend kind, "indexed" (the fast kernels, the default) or "naive"
    (the definitional scan, on request), plus the telemetry of the last
    run: pair evaluations of any kind, and the screened share of them.  Not
    thread-shareable while a computation is in flight."""

    kind: str
    distance_evaluations: int = 0
    screened_pairs: int = 0

    def __post_init__(self):
        if self.kind not in ("naive", "indexed"):
            raise ValueError(f"backend kind must be 'naive' or 'indexed', got {self.kind!r}")


def _mins(
    path: SamplePath,
    gauge: GaugeSpec,
    backend: PrefixNNBackend | None,
    queries: np.ndarray,
    limits: np.ndarray,
    keep: np.ndarray | None,
    skip_self: bool = False,
) -> np.ndarray:
    """Minima of one problem on the backend's kind, on the fast kernels
    without one; a passed backend receives the run's counts."""
    mins, evaluations, screened = admissible_mins(
        gauge, path, "indexed" if backend is None else backend.kind,
        queries, limits, keep, skip_self)
    if backend is not None:
        backend.distance_evaluations, backend.screened_pairs = evaluations, screened
    return mins


# The public functions below are one line over a private body and never call
# each other: a benchmark tracer that wraps them by name would otherwise time
# one inside the other.

def _profile(
    path: SamplePath,
    gauge: GaugeSpec,
    tau: int,
    exceptions: ExceptionSet | None,
    backend: PrefixNNBackend | None,
) -> PrefixGaugeProfile:
    mins = _mins(path, gauge, backend, *_prefix_problem(path, gauge, tau, exceptions))
    exc = () if exceptions is None else exceptions.indices
    return PrefixGaugeProfile(n=len(path), tau=tau, exceptions=exc, mins=mins)


def prefix_min_profile(
    path: SamplePath,
    gauge: GaugeSpec,
    tau: int,
    exceptions: ExceptionSet | None = None,
) -> PrefixGaugeProfile:
    """Exact admissible-prefix minima, straight from the definition: the
    oracle every backend must match."""
    return _profile(path, gauge, tau, exceptions, PrefixNNBackend("naive"))


def prefix_min_indexed(
    path: SamplePath,
    gauge: GaugeSpec,
    tau: int,
    exceptions: ExceptionSet | None = None,
    backend: PrefixNNBackend | None = None,
) -> PrefixGaugeProfile:
    """Prefix minima on the fast kernels or the passed backend; identical either way."""
    return _profile(path, gauge, tau, exceptions, backend)


def _ordered_mean(values: np.ndarray) -> float:
    # plain left-to-right accumulation; the documented reference summation
    return sum(values.tolist()) / values.size


def missing_mass_G(profile: PrefixGaugeProfile) -> float:
    """Mean of the prefix minima, in ascending position order."""
    if np.isinf(profile.mins).any():
        raise InfiniteGaugeError(
            "profile contains infinite entries; the mean estimator is undefined, "
            "use missing_mass_Gt at a finite threshold instead"
        )
    return _ordered_mean(profile.mins)


def _exceedance_share(values: np.ndarray, t: float) -> float:
    """Fraction of values strictly above t, +inf counted: G_t, Good-Turing, Monte Carlo truth."""
    return float(np.count_nonzero(values > t)) / values.size


def missing_mass_Gt(profile: PrefixGaugeProfile, t: float) -> float:
    """Fraction of prefix minima strictly above t (+inf entries count)."""
    _check_parameters(t=t)
    return _exceedance_share(profile.mins, t)


def _loo_problem(path: SamplePath, gauge: GaugeSpec) -> tuple[np.ndarray, np.ndarray, None]:
    """Checks a leave-one-out request and states it as (queries, limits, keep),
    to be taken with skip_self: every row against all the others."""
    n = len(path)
    if n < 2:
        raise ValueError("need at least two points")
    check_gauge_path(gauge, path)
    return np.arange(n), np.full(n, n), None


def _loo_mins(path: SamplePath, gauge: GaugeSpec, backend: PrefixNNBackend | None) -> np.ndarray:
    return _mins(path, gauge, backend, *_loo_problem(path, gauge), skip_self=True)


def leave_one_out_min(
    path: SamplePath,
    gauge: GaugeSpec,
    backend: PrefixNNBackend | None = None,
) -> np.ndarray:
    """min over i != k of g(X_k, X_i) for every k, on the fast kernels or a passed backend."""
    return _loo_mins(path, gauge, backend)


def good_turing(path: SamplePath, gauge: GaugeSpec, threshold: float) -> float:
    """Leave-one-out isolation fraction at the given gauge threshold.

    With the Lipschitz gauge the usual convention measures isolation at a
    loss level t; pass threshold = t / L (equivalently use L = 1).
    """
    _check_parameters(threshold=threshold)
    if gauge.kind != "lipschitz":
        raise ValueError("good_turing needs a metric gauge: lipschitz, on either base metric")
    return _exceedance_share(_loo_mins(path, gauge, None), threshold)


@dataclass(frozen=True)
class FiniteSupport:
    """Sampling distribution with finite support: exact missing mass."""

    support: SamplePath
    probs: np.ndarray

    def __post_init__(self):
        probs = np.ascontiguousarray(np.asarray(self.probs, dtype=np.float64))
        if probs.shape != (len(self.support),):
            raise ValueError("one probability per support point required")
        # written so that a NaN entry fails: every comparison with NaN is False
        if not ((probs >= 0).all() and abs(probs.sum() - 1.0) <= 1e-9):
            raise ValueError("probs must be nonnegative and sum to 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True)
class SamplerOracle:
    """Draws fresh points from the sampling distribution for Monte Carlo."""

    draw: Callable[[np.random.Generator, int], SamplePath]


@dataclass(frozen=True)
class MissingMassEstimate:
    """A missing mass and its standard error, which is 0 when exact."""

    value: float
    std_error: float
    exact: bool
    n_draws: int


def _joined(a: SamplePath, b: SamplePath) -> SamplePath:
    """a's points followed by b's, for paths of one variant."""
    def cat(x, y):
        return None if x is None else np.concatenate((x, y))

    return SamplePath(kind=a.kind, coords=cat(a.coords, b.coords),
                      symbols=cat(a.symbols, b.symbols), labels=cat(a.labels, b.labels),
                      targets=cat(a.targets, b.targets))


def _min_gauge_to_path(gauge: GaugeSpec, path: SamplePath, fresh: SamplePath) -> np.ndarray:
    """min over sample points of g(fresh_point, X_i), per fresh point."""
    if fresh.kind != path.kind or fresh.dim != path.dim:
        raise ValueError("fresh draws must live in the sample path's space")
    check_gauge_path(gauge, path)
    # the fresh draws query the whole path, which comes first in the join
    n, m = len(path), len(fresh)
    return _mins(_joined(path, fresh), gauge, None, n + np.arange(m), np.full(m, n), None)


def true_missing_mass(
    path: SamplePath,
    gauge: GaugeSpec,
    t: float,
    oracle: FiniteSupport | SamplerOracle,
    n_mc: int = 0,
    rng: np.random.Generator | None = None,
) -> MissingMassEstimate:
    """Probability that a fresh draw is farther than t (in gauge) from every
    point of the given path.

    Exact by enumeration for finite support; Monte Carlo with a binomial
    standard error otherwise.
    """
    _check_parameters(t=t)
    if isinstance(oracle, FiniteSupport):
        gaps = _min_gauge_to_path(gauge, path, oracle.support)
        value = float(oracle.probs[gaps > t].sum())
        return MissingMassEstimate(value=value, std_error=0.0, exact=True,
                                   n_draws=len(oracle.support))
    if n_mc < 1:
        raise ValueError("n_mc must be at least 1 for Monte Carlo estimation")
    if rng is None:
        raise ValueError("Monte Carlo estimation needs an explicit rng")
    fresh = oracle.draw(rng, n_mc)
    p_hat = _exceedance_share(_min_gauge_to_path(gauge, path, fresh), t)
    se = math.sqrt(p_hat * (1.0 - p_hat) / n_mc)
    return MissingMassEstimate(value=p_hat, std_error=se, exact=False, n_draws=n_mc)
