"""Backends for the admissible minima: naive scan and metric index.

Prefix and leave-one-out minima are each stated once, by the estimators, as
the admissible-minimum problem (queries, limits, keep, skip_self) of
geometry; one dispatcher hands it to the chosen backend's kernel:

  * naive: geometry._naive_mins, the definitional gauge_block scan.  Its
    count is the number of admissible pairs.
  * metric-indexed, Euclidean base metric (any dimension): the
    cluster-pruned certified Gram screen of geometry._euclid_min_screened.
    Hinge labels mask pairs.  Its count covers every pair valued in any
    form: Gram values of the centre traversal and the tiles (screened_pairs
    counts these alone), and exact kernel evaluations of cluster radii and
    survivors.
  * metric-indexed, discrete base metric: geometry._discrete_min, from the
    first two admissible occurrences of each point; one evaluation per
    query.

Every supported gauge is a nondecreasing transform of its base metric, so
the metric index minimizes the base distance and applies the transform once,
to the minimum.  The screen's minima are the naive kernel's own floats, so
the indexed minima equal the naive ones value for value, not merely
closely; only minimum values are consumed, so ties need no rule.  The
regression gauge is a product metric and runs on the naive backend only.

A backend instance carries the telemetry of its last run and is
single-owner while a computation runs; results are plain immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import (
    ExceptionSet,
    PrefixGaugeProfile,
    _loo_problem,
    _prefix_problem,
)
from .geometry import (
    GaugeSpec,
    SamplePath,
    _discrete_min,
    _euclid_min_screened,
    _naive_mins,
    base_metric_kind,
    distance_transform,
)

__all__ = [
    "PrefixNNBackend",
    "BackendMismatchError",
    "prefix_min_indexed",
    "leave_one_out_min",
]


class BackendMismatchError(ValueError):
    """The requested backend cannot serve the given gauge."""


@dataclass
class PrefixNNBackend:
    """Backend selector plus the telemetry of the last run: pair
    evaluations of any kind, and the screened share of them.  Not
    thread-shareable while a computation is in flight."""

    kind: str
    distance_evaluations: int = 0
    screened_pairs: int = 0

    @classmethod
    def naive(cls) -> "PrefixNNBackend":
        return cls(kind="naive")

    @classmethod
    def metric_indexed(cls) -> "PrefixNNBackend":
        return cls(kind="metric-indexed")

    def __post_init__(self):
        if self.kind not in ("naive", "metric-indexed"):
            raise ValueError("backend kind must be 'naive' or 'metric-indexed'")


def _admissible_mins(
    path: SamplePath,
    gauge: GaugeSpec,
    backend: PrefixNNBackend | None,
    queries: np.ndarray,
    limits: np.ndarray,
    keep: np.ndarray | None,
    skip_self: bool = False,
) -> np.ndarray:
    """Gauge minima of one admissible-minimum problem on the chosen backend,
    which receives the run's telemetry."""
    if backend is None:
        backend = PrefixNNBackend.naive()
    if backend.kind == "naive":
        mins, evaluations = _naive_mins(gauge, path, queries, limits, keep, skip_self)
        backend.distance_evaluations, backend.screened_pairs = evaluations, 0
        return mins
    if gauge.kind == "regression":
        raise BackendMismatchError(
            "the regression gauge runs on the naive backend only; its product "
            "metric is not served by the metric index"
        )
    screened = 0
    if base_metric_kind(gauge) == "discrete":
        dmins, evaluations = _discrete_min(path, queries, limits, keep, skip_self)
    else:
        labels = path.labels if gauge.kind == "hinge" else None
        dmins, screened, exact = _euclid_min_screened(
            path.coords, queries, limits, keep=keep, labels=labels, skip_self=skip_self)
        evaluations = screened + exact
    backend.distance_evaluations, backend.screened_pairs = evaluations, screened
    return np.asarray(distance_transform(gauge)(dmins), dtype=np.float64)


def prefix_min_indexed(
    path: SamplePath,
    gauge: GaugeSpec,
    tau: int,
    exceptions: ExceptionSet | None = None,
    backend: PrefixNNBackend | None = None,
) -> PrefixGaugeProfile:
    """Prefix minima through the chosen backend; identical output either way."""
    mins = _admissible_mins(path, gauge, backend, *_prefix_problem(path, gauge, tau, exceptions))
    exc = () if exceptions is None else exceptions.indices
    return PrefixGaugeProfile(n=len(path), tau=tau, exceptions=exc, mins=mins)


def leave_one_out_min(
    path: SamplePath,
    gauge: GaugeSpec,
    backend: PrefixNNBackend | None = None,
) -> np.ndarray:
    """min over i != k of g(X_k, X_i) for every k, backend-agnostic values."""
    return _admissible_mins(path, gauge, backend, *_loo_problem(path, gauge), skip_self=True)
