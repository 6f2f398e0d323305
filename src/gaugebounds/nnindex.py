"""Backends for the prefix-minimum kernel: naive scan and metric index.

The metric index exploits that every supported gauge is a nondecreasing
transform of a true metric (Euclidean or discrete).  It therefore minimizes
the base-metric distance and applies the transform once, to the minimum.
Because the transform is a monotone float map and every backend takes its
pair distances from the same kernel, the indexed profile is identical to the
naive one, value for value, not merely close.  Only minimum values are
consumed, so distance ties need no tie-breaking rule.

Structures:

  * Euclidean base metric, any dimension: the cluster-pruned certified Gram
    screen of geometry._euclid_min_screened.  About sqrt(n) farthest-point
    centres split the candidates into clusters.  A certified triangle bound
    (each cluster's exact radius and the screen's Gram bound from the query
    to its centre) skips every cluster that cannot hold a row's minimum;
    each surviving block of (query, cluster) pairs takes one BLAS product.
    Inside it, a proven floating-point bound prunes pairs, and the kernel is
    evaluated exactly at each row's best surviving pair and at every pair
    whose bound does not exceed the row's attained minimum (the derivations
    are beside the function).  Hinge labels mask pairs, exception sets
    leave candidates out of the clusters, and the leave-one-out minimum
    screens every row against all rows but itself.  Paths of two or three
    points get one cluster, which is the plain screen.
  * Discrete base metric: a hash set of seen keys (distance is 0 or 1) for
    prefix minima, and key multiplicities for leave-one-out minima.

The regression gauge is a product metric; indexing it would need a third
structure for little gain at this scale, so it runs on the naive backend
only (extension point).

Every backend instance exposes the telemetry of its last run:
distance_evaluations counts every pair evaluation of any form, so it never
undercounts: pairs valued through the Gram form (centre traversal, query to
centre bounds and tiles), exact kernel evaluations (cluster radii and
survivors), or hash visits.  screened_pairs counts the Gram-form share
alone.  The naive count is exactly the sum over queries of the
admissible-candidate counts.  A backend instance is single-owner while a
computation runs; results are plain immutable values.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .estimators import (
    ExceptionSet,
    PrefixGaugeProfile,
    _admissible_prefix,
    naive_prefix_mins,
)
from .geometry import (
    GaugeSpec,
    SamplePath,
    _euclid_min_screened,
    base_metric_kind,
    check_gauge_path,
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


def _discrete_keys(path: SamplePath) -> list:
    if path.kind == "symbol":
        return path.symbols.tolist()
    # +0.0 folds -0.0 onto +0.0 so byte keys agree with value equality
    return [row.tobytes() for row in path.coords + 0.0]


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


def _check_indexable(gauge: GaugeSpec) -> None:
    if gauge.kind == "regression":
        raise BackendMismatchError(
            "the regression gauge runs on the naive backend only; its product "
            "metric is not served by the metric index"
        )


def _screened_mins(
    gauge: GaugeSpec,
    path: SamplePath,
    backend: PrefixNNBackend,
    queries: np.ndarray,
    limits: np.ndarray,
    keep: np.ndarray | None = None,
    skip_self: bool = False,
) -> np.ndarray:
    """Gauge minima through the certified screen, with its telemetry."""
    labels = path.labels if gauge.kind == "hinge" else None
    dmins, screened, exact = _euclid_min_screened(
        path.coords, queries, limits, keep=keep, labels=labels, skip_self=skip_self)
    backend.screened_pairs = screened
    backend.distance_evaluations = screened + exact
    return np.asarray(distance_transform(gauge)(dmins), dtype=np.float64)


def prefix_min_indexed(
    path: SamplePath,
    gauge: GaugeSpec,
    tau: int,
    exceptions: ExceptionSet | None = None,
    backend: PrefixNNBackend | None = None,
) -> PrefixGaugeProfile:
    """Prefix minima through the chosen backend; identical output either way."""
    if backend is None:
        backend = PrefixNNBackend.naive()
    backend.distance_evaluations = 0
    backend.screened_pairs = 0
    exc = () if exceptions is None else exceptions.indices
    if backend.kind == "naive":
        sink: list = []
        mins = naive_prefix_mins(path, gauge, tau, exceptions, count_sink=sink)
        backend.distance_evaluations = sink[0]
        return PrefixGaugeProfile(n=len(path), tau=tau, exceptions=exc, mins=mins)

    _check_indexable(gauge)
    keep = _admissible_prefix(path, gauge, tau, exceptions)
    n = len(path)
    n_eff = n - tau
    if base_metric_kind(gauge) == "discrete":
        # candidates enter a seen-key set the moment they become admissible
        keys = _discrete_keys(path)
        admissible = np.zeros(n_eff, dtype=bool)
        admissible[keep] = True
        seen = set()
        dmins = np.empty(n_eff, dtype=np.float64)
        for j in range(n_eff):
            if admissible[j]:
                seen.add(keys[j])
            dmins[j] = 0.0 if keys[tau + j] in seen else 1.0
        backend.distance_evaluations = n_eff
        mins = np.asarray(distance_transform(gauge)(dmins), dtype=np.float64)
        return PrefixGaugeProfile(n=n, tau=tau, exceptions=exc, mins=mins)
    keep_mask = None
    if keep.size < n_eff:
        keep_mask = np.zeros(n_eff, dtype=bool)
        keep_mask[keep] = True
    mins = _screened_mins(gauge, path, backend, tau + np.arange(n_eff),
                          np.arange(1, n_eff + 1), keep=keep_mask)
    return PrefixGaugeProfile(n=n, tau=tau, exceptions=exc, mins=mins)


def leave_one_out_min(
    path: SamplePath,
    gauge: GaugeSpec,
    backend: PrefixNNBackend | None = None,
) -> np.ndarray:
    """min over i != k of g(X_k, X_i) for every k, backend-agnostic values.

    The indexed route screens every row against all rows but itself, or,
    for the discrete metric, reads distance 0 where a row's key occurs
    again and 1 where it is unique; monotonicity of the distance transform
    makes either equal to the direct leave-one-out scan.
    """
    n = len(path)
    if n < 2:
        raise ValueError("need at least two points")
    if backend is None:
        backend = PrefixNNBackend.naive()
    backend.screened_pairs = 0
    if backend.kind == "naive":
        from .estimators import leave_one_out_mins

        out = leave_one_out_mins(path, gauge)
        backend.distance_evaluations = n * (n - 1)
        return out

    _check_indexable(gauge)
    check_gauge_path(gauge, path)
    if base_metric_kind(gauge) == "discrete":
        keys = _discrete_keys(path)
        counts = Counter(keys)
        dmins = np.array([0.0 if counts[key] > 1 else 1.0 for key in keys])
        backend.distance_evaluations = n
        return np.asarray(distance_transform(gauge)(dmins), dtype=np.float64)
    return _screened_mins(gauge, path, backend, np.arange(n), np.full(n, n),
                          skip_self=True)
