"""Backends for the admissible minima: naive scan and metric index.

Prefix and leave-one-out minima are each stated once, by the estimators, as
the admissible-minimum problem (queries, limits, keep, skip_self) of
geometry, and geometry.admissible_mins answers it for the backend's kind:

  =======  ===================================  ============================
  kind     gauge and problem                    kernel: its count
  =======  ===================================  ============================
  naive    every gauge                          _naive_mins, the definitional
                                                gauge_block scan: the
                                                admissible pairs
  indexed  regression                           _naive_mins, as naive
  indexed  discrete base metric                 _discrete_min: one per query
  indexed  Euclidean base metric at D = 1,      _sorted_min, the sorted
           every query seeing the same rows     neighbours: two per query
           (no exception set, skip_self or
           labels; of the prefix problems only
           a one-entry profile)
  indexed  any other Euclidean base metric      _euclid_min_screened, the
                                                cluster-pruned certified
                                                Gram screen; hinge labels
                                                mask pairs
  =======  ===================================  ============================

The screen counts every pair valued in any form: Gram values of the centre
traversal and the tiles (screened_pairs counts these alone), and exact
kernel evaluations of cluster radii and survivors.

Every gauge but regression is a nondecreasing transform of its base metric,
so the metric index minimizes the base distance and applies the transform
once, to the minimum.  Every kernel returns the naive kernel's own floats,
so the indexed minima equal the naive ones value for value, not merely
closely; only minimum values are consumed, so ties need no rule.

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
from .geometry import GaugeSpec, SamplePath, admissible_mins

__all__ = [
    "PrefixNNBackend",
    "prefix_min_indexed",
    "leave_one_out_min",
]


@dataclass
class PrefixNNBackend:
    """Backend kind, "naive" or "indexed", plus the telemetry of the last
    run: pair evaluations of any kind, and the screened share of them.  Not
    thread-shareable while a computation is in flight."""

    kind: str
    distance_evaluations: int = 0
    screened_pairs: int = 0

    @classmethod
    def naive(cls) -> "PrefixNNBackend":
        return cls(kind="naive")

    @classmethod
    def metric_indexed(cls) -> "PrefixNNBackend":
        return cls(kind="indexed")

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
    """Minima of one problem on the chosen backend, which receives the
    run's counts."""
    if backend is None:
        backend = PrefixNNBackend.naive()
    mins, backend.distance_evaluations, backend.screened_pairs = admissible_mins(
        gauge, path, backend.kind, queries, limits, keep, skip_self)
    return mins


def prefix_min_indexed(
    path: SamplePath,
    gauge: GaugeSpec,
    tau: int,
    exceptions: ExceptionSet | None = None,
    backend: PrefixNNBackend | None = None,
) -> PrefixGaugeProfile:
    """Prefix minima through the chosen backend; identical output either way."""
    mins = _mins(path, gauge, backend, *_prefix_problem(path, gauge, tau, exceptions))
    exc = () if exceptions is None else exceptions.indices
    return PrefixGaugeProfile(n=len(path), tau=tau, exceptions=exc, mins=mins)


def leave_one_out_min(
    path: SamplePath,
    gauge: GaugeSpec,
    backend: PrefixNNBackend | None = None,
) -> np.ndarray:
    """min over i != k of g(X_k, X_i) for every k, backend-agnostic values."""
    return _mins(path, gauge, backend, *_loo_problem(path, gauge), skip_self=True)
