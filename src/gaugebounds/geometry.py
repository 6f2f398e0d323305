"""Point spaces, gauge functions, paired penalty rules and greedy covers.

A gauge g maps an ordered pair of points to [0, +inf] with g(y, x) = 0
exactly when y = x.  Each gauge variant carries a penalty rule phi so that
every function f of the matching loss class satisfies

    f(y) <= g(y, x) + phi(f, x)        for all points x, y.

The built-in variants:

==========================  =============================================
variant                     g(y, x)
==========================  =============================================
lipschitz (euclidean)       L * ||y - x||
lipschitz (discrete)        L * 1{y != x}   (discrete(): L = 1)
smooth(gamma, lam)          (1 + lam) * (gamma / 2) * ||y - x||^2
regression(L)               L * ||y - x|| + |y' - x'|   (paired points)
hinge_classification(L)     L * ||y - x|| if labels match, else +inf
local_lipschitz(r0)         ||y - x|| if ||y - x|| <= r0, else +inf
local_smooth(c)             (1/2) * (c * (1 + d^2))^2 * d^2,  d = ||y - x||
==========================  =============================================

The local_smooth form follows the construction g = (1/q) * (rho(d) * d)^q
with rho(r) = c * (1 + r^2) and q = 2.  An alternative reading with a
(c * (1 + d))^2 factor circulates; we implement the rho-consistent form
because it is the one the gauge-pair construction actually yields.

All gauge evaluations are pure functions of immutable inputs and safe for
concurrent use.  +inf is IEEE infinity, never a sentinel.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Point",
    "SamplePath",
    "GaugeSpec",
    "FunctionSample",
    "GreedyCover",
    "eval_gauge",
    "eval_phi",
    "gauge_block",
    "greedy_cover",
    "pairwise_gauge",
    "gauge_diameter",
]

_KINDS = ("coords", "symbol", "labeled", "paired")


def _as_float_vector(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"expected a flat coordinate vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coordinates must be finite (no NaN/inf)")
    return arr


@dataclass(frozen=True)
class Point:
    """One observation: dense coordinates, a discrete symbol, or a product
    point carrying a classification label or a regression target."""

    kind: str
    coords: tuple[float, ...] | None = None
    symbol: int | None = None
    label: int | None = None
    target: float | None = None

    @classmethod
    def dense(cls, coords) -> "Point":
        return cls(kind="coords", coords=tuple(_as_float_vector(coords)))

    @classmethod
    def discrete(cls, symbol: int) -> "Point":
        if symbol < 0:
            raise ValueError("symbols are nonnegative integers")
        return cls(kind="symbol", symbol=int(symbol))

    @classmethod
    def with_label(cls, coords, label: int) -> "Point":
        if label not in (-1, 1):
            raise ValueError("label must be -1 or +1")
        return cls(kind="labeled", coords=tuple(_as_float_vector(coords)), label=int(label))

    @classmethod
    def with_target(cls, coords, target: float) -> "Point":
        if not math.isfinite(target):
            raise ValueError("target must be finite")
        return cls(kind="paired", coords=tuple(_as_float_vector(coords)), target=float(target))

    @property
    def dim(self) -> int:
        return 0 if self.kind == "symbol" else len(self.coords)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SamplePath:
    """Immutable ordered sequence of points sharing one variant and dimension."""

    kind: str
    coords: np.ndarray | None = None    # (n, D) float64
    symbols: np.ndarray | None = None   # (n,) int64
    labels: np.ndarray | None = None    # (n,) int64 in {-1, +1}
    targets: np.ndarray | None = None   # (n,) float64

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown path kind {self.kind!r}")
        if self.kind == "symbol":
            sym = np.ascontiguousarray(np.asarray(self.symbols, dtype=np.int64))
            if sym.ndim != 1 or sym.size == 0:
                raise ValueError("symbol path needs a nonempty 1-d integer array")
            if (sym < 0).any():
                raise ValueError("symbols are nonnegative integers")
            object.__setattr__(self, "symbols", _freeze(sym))
            return
        coords = np.ascontiguousarray(np.asarray(self.coords, dtype=np.float64))
        if coords.ndim == 1:
            coords = coords.reshape(-1, 1)
        if coords.ndim != 2 or coords.shape[0] == 0 or coords.shape[1] == 0:
            raise ValueError("coordinate path needs a nonempty (n, D) array")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coordinates must be finite (no NaN/inf)")
        object.__setattr__(self, "coords", _freeze(coords))
        n = coords.shape[0]
        if self.kind == "labeled":
            lab = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
            if lab.shape != (n,):
                raise ValueError("labels must be one integer per point")
            if not np.isin(lab, (-1, 1)).all():
                raise ValueError("labels must be -1 or +1")
            object.__setattr__(self, "labels", _freeze(lab))
        elif self.kind == "paired":
            tgt = np.ascontiguousarray(np.asarray(self.targets, dtype=np.float64))
            if tgt.shape != (n,):
                raise ValueError("targets must be one real per point")
            if not np.all(np.isfinite(tgt)):
                raise ValueError("targets must be finite")
            object.__setattr__(self, "targets", _freeze(tgt))

    @classmethod
    def from_coords(cls, coords) -> "SamplePath":
        return cls(kind="coords", coords=np.asarray(coords, dtype=np.float64))

    @classmethod
    def from_symbols(cls, symbols) -> "SamplePath":
        return cls(kind="symbol", symbols=np.asarray(symbols, dtype=np.int64))

    @classmethod
    def from_labeled(cls, coords, labels) -> "SamplePath":
        return cls(kind="labeled", coords=np.asarray(coords, dtype=np.float64),
                   labels=np.asarray(labels, dtype=np.int64))

    @classmethod
    def from_paired(cls, coords, targets) -> "SamplePath":
        return cls(kind="paired", coords=np.asarray(coords, dtype=np.float64),
                   targets=np.asarray(targets, dtype=np.float64))

    @classmethod
    def from_points(cls, points: Sequence[Point]) -> "SamplePath":
        if not points:
            raise ValueError("empty point list")
        kind = points[0].kind
        if any(p.kind != kind for p in points):
            raise ValueError("all points in a path must share one variant")
        if kind == "symbol":
            return cls.from_symbols([p.symbol for p in points])
        coords = [p.coords for p in points]
        if kind == "labeled":
            return cls.from_labeled(coords, [p.label for p in points])
        if kind == "paired":
            return cls.from_paired(coords, [p.target for p in points])
        return cls.from_coords(coords)

    def __len__(self) -> int:
        return self.symbols.size if self.kind == "symbol" else self.coords.shape[0]

    @property
    def dim(self) -> int:
        return 0 if self.kind == "symbol" else self.coords.shape[1]

    def point(self, i: int) -> Point:
        if self.kind == "symbol":
            return Point.discrete(int(self.symbols[i]))
        coords = tuple(self.coords[i])
        if self.kind == "labeled":
            return Point(kind="labeled", coords=coords, label=int(self.labels[i]))
        if self.kind == "paired":
            return Point(kind="paired", coords=coords, target=float(self.targets[i]))
        return Point(kind="coords", coords=coords)

    def head(self, n: int) -> "SamplePath":
        """First n points, as a path."""
        if not 1 <= n <= len(self):
            raise ValueError(f"head length {n} out of range for path of length {len(self)}")
        return self._take(slice(0, n))

    def _take(self, rows) -> "SamplePath":
        """The points at rows (an index array or a slice), in that order, as a path."""
        def pick(a):
            return None if a is None else a[rows]

        return SamplePath(kind=self.kind, coords=pick(self.coords), symbols=pick(self.symbols),
                          labels=pick(self.labels), targets=pick(self.targets))


def _check_parameters(**values: float | None) -> None:
    for name, value in values.items():
        if value is None or not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")


# the parameters each gauge kind reads, all finite and positive
_PARAMETERS = {
    "lipschitz": ("L",),
    "regression": ("L",),
    "hinge": ("L",),
    "smooth": ("gamma", "lam"),
    "local_lipschitz": ("r0",),
    "local_smooth": ("c",),
}


@dataclass(frozen=True)
class GaugeSpec:
    """Tagged description of one gauge variant and its parameters."""

    kind: str
    L: float | None = None
    metric: str = "euclidean"     # base metric: "euclidean" | "discrete" (lipschitz only)
    gamma: float | None = None
    lam: float | None = None
    r0: float | None = None
    c: float | None = None

    def __post_init__(self):
        if self.kind not in _PARAMETERS:
            raise ValueError(f"unknown gauge kind {self.kind!r}")
        if self.metric not in ("euclidean", "discrete"):
            raise ValueError("base metric must be 'euclidean' or 'discrete'")
        if self.metric == "discrete" and self.kind != "lipschitz":
            raise ValueError(f"only the lipschitz gauge takes the discrete base metric, "
                             f"not {self.kind!r}")
        _check_parameters(**{name: getattr(self, name) for name in _PARAMETERS[self.kind]})

    @classmethod
    def lipschitz(cls, L: float, metric: str = "euclidean") -> "GaugeSpec":
        return cls(kind="lipschitz", L=float(L), metric=metric)

    @classmethod
    def regression(cls, L: float) -> "GaugeSpec":
        return cls(kind="regression", L=float(L))

    @classmethod
    def hinge_classification(cls, L: float) -> "GaugeSpec":
        return cls(kind="hinge", L=float(L))

    @classmethod
    def smooth(cls, gamma: float, lam: float) -> "GaugeSpec":
        return cls(kind="smooth", gamma=float(gamma), lam=float(lam))

    @classmethod
    def local_lipschitz_truncated(cls, r0: float) -> "GaugeSpec":
        return cls(kind="local_lipschitz", r0=float(r0))

    @classmethod
    def local_smooth(cls, c: float) -> "GaugeSpec":
        return cls(kind="local_smooth", c=float(c))

    @classmethod
    def discrete(cls) -> "GaugeSpec":
        """The discrete metric 1{y != x}: the Lipschitz gauge with L = 1 on it."""
        return cls.lipschitz(1.0, metric="discrete")

    @property
    def takes_infinite_values(self) -> bool:
        """True for variants whose gauge can be +inf on finite-distance pairs.

        Such variants support only the excess-loss-probability route; the
        mean-risk route needs a finite sup of g.
        """
        return self.kind in ("hinge", "local_lipschitz")

    def sup_gauge(self, diameter: float) -> float:
        """Largest gauge value over pairs at base distance <= diameter: the
        kernels' own distance_transform at the diameter (at 1 under the
        discrete metric), so it equals eval_gauge on a pair that far apart.
        Like a kernel distance, it is +inf where the diameter squared overflows."""
        if not diameter >= 0:   # NaN fails too
            raise ValueError(f"diameter must be nonnegative, got {diameter}")
        if self.takes_infinite_values:
            return math.inf
        if self.kind == "regression":
            raise ValueError("regression sup depends on the target range, not only the diameter")
        if self.metric == "discrete":
            diameter = 1.0
        elif math.isinf(float(diameter) * float(diameter)):
            return math.inf
        return float(distance_transform(self)(np.array([diameter], dtype=np.float64))[0])


@dataclass(frozen=True)
class FunctionSample:
    """Caller-supplied local data of one loss function at the sample points.

    values[i] is f(X_i) >= 0.  The optional arrays supply the local gradient
    norms, local smoothness moduli and truncated local Lipschitz values that
    the local_smooth and local_lipschitz penalty rules consume.  Nothing here
    is estimated; it is observed data about f.
    """

    values: np.ndarray
    grad_norms: np.ndarray | None = None
    local_smoothness: np.ndarray | None = None
    local_lipschitz: np.ndarray | None = None

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("values must be a nonempty 1-d array")
        n = vals.size
        object.__setattr__(self, "values", _freeze(vals))
        for name in ("grad_norms", "local_smoothness", "local_lipschitz"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
            if arr.shape != (n,):
                raise ValueError(f"{name} must have the same length as values")
            if not np.all(np.isfinite(arr)) or (arr < 0).any():
                raise ValueError(f"{name} entries must be finite and nonnegative")
            object.__setattr__(self, name, _freeze(arr))
        if not np.all(np.isfinite(vals)) or (vals < 0).any():
            raise ValueError("values entries must be finite and nonnegative")


# ---------------------------------------------------------------------------
# distance kernels
#
# Every Euclidean distance in the package is _euclid_row's value, so the
# naive scan and the metric index produce bit-identical floats.  The per-row
# reduction over D components is numpy's fixed-length pairwise sum, which is
# deterministic for a given D and dtype.
#
# _euclid_block is the same kernel for a block of queries: per pair it does
# the same element operations (candidate minus query, square, a sum over the
# contiguous last axis of length D, square root), so each of its values is
# _euclid_row's bit for bit, whatever the tile shape.  At D >= 2, tiles hold
# at most _TILE coordinates and reuse one buffer through out= arguments.  At
# D = 1 there is no reduction axis and no tile buffer: a sum of one term is
# that term, so the differences are squared and rooted in the output itself.
# Overflow to +inf is by design: each kernel and transform call enters a new
# np.errstate(over="ignore") (a shared one is not thread-safe on numpy 1.x).
#
# Allocation rule of the naive scan.  gauge_block makes one block-sized
# float64 array per call, and everything after it writes into that array in
# place: the distance_transform (through its out= argument), the hinge mask
# and the regression |dy|.  Beside the block live at most the D >= 2 tile
# buffer, bool masks (an eighth of the block's bytes) and scratch slices of
# at most _SCRATCH values (_scratch_slices) for the two steps that need a
# second value per pair.  Every operation and its order are unchanged, so
# the values are too.  Why: glibc serves an array at or above its mmap
# threshold (128 KiB by default, raised as large blocks are freed) with
# fresh pages that fault in one by one, and gives large freed blocks back to
# the system.  An n = 256, D = 1 prefix profile used to hold three 520 KB
# arrays at once (kernel output, tile buffer, transform result).  Counted
# with getrusage over repeated calls in one process, that took 222 minor
# faults a call (0.4 in a process with another allocation history, 384
# with the thresholds pinned at 128 KiB).  It now takes none in all three:
# one 64-row block (_BAND_ROWS) of that profile is 127.5 KiB, below the
# default threshold.  No buffer is kept between calls,
# module-level or cached: concurrent callers, such as validate's trial
# threads, would share it.
#
# At D = 1 the minimum over a point set needs only the two sorted neighbours
# of the query: for a fixed q, fl(x - q) is nondecreasing in x (rounding is
# monotone), so |fl(x - q)| falls up to q and rises after it, and the
# square, the square root and every distance_transform are nondecreasing.
# The kernel's minimum over a sorted set therefore sits at the largest
# element below q or the smallest at or above it, ties included (+-0.0
# differences square to the same +0.0).  Under the discrete metric any
# order with equal keys adjacent will do: when the set holds a point equal
# to q, the query's nearest element on one side lies in that point's run.
#
# _order_min takes each query's nearest admissible row on either side in
# that order.  Where some candidate lies at or past some limit, _first_below
# lifts over a sparse table of window minima (Bender & Farach-Colton 2000):
# level k holds the least row index of the 2^k sorted positions from each
# one on, so a window whose least row is at or past the query's limit holds
# no admissible row, and jumping over such windows, largest first, lands on
# the first admissible position.  Where every candidate lies below every
# limit (the truth and leave-one-out), nothing is lifted.
# ---------------------------------------------------------------------------

_TILE = 1 << 18          # float64 entries per kernel or screen buffer (2 MB)
_SCRATCH = 1 << 13       # float64 entries per scratch slice beside a block (64 KB)


def _euclid_row(block: np.ndarray, q: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        diff = block - q
        return np.sqrt((diff * diff).sum(axis=1))


def _tile_shape(m: int, c: int, dim: int) -> tuple[int, int]:
    """Rows and columns of an (m, c) pair tile of at most _TILE coordinates
    (one pair, when a single pair has more)."""
    cols = max(1, min(c, _TILE // dim))
    return max(1, min(m, _TILE // (cols * dim))), cols


def _tiles(m: int, c: int, rows: int, cols: int):
    for r0 in range(0, m, rows):
        for c0 in range(0, c, cols):
            yield slice(r0, min(m, r0 + rows)), slice(c0, min(c, c0 + cols))


def _scratch_slices(a: np.ndarray):
    """(rows, scratch) pairs covering a's leading axis: a[rows] and the
    scratch array of the same shape hold at most _SCRATCH values (one row,
    when a row has more), and every pair shares one buffer."""
    width = math.prod(a.shape[1:])
    step = max(1, _SCRATCH // max(1, width))
    buf = np.empty(min(len(a), step) * width)
    for r0 in range(0, len(a), step):
        rows = slice(r0, min(len(a), r0 + step))
        shape = (rows.stop - r0,) + a.shape[1:]
        yield rows, buf[: math.prod(shape)].reshape(shape)


def _euclid_block(block: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """out[r, i] = _euclid_row(block, queries[r])[i], bit for bit, as a new
    (len(queries), len(block)) array."""
    with np.errstate(over="ignore"):
        m, dim = queries.shape
        c = block.shape[0]
        out = np.empty((m, c))
        if dim == 1:
            np.subtract(block[:, 0], queries, out=out)
            np.multiply(out, out, out=out)
            return np.sqrt(out, out=out)
        rows, cols = _tile_shape(m, c, dim)
        buf = np.empty(rows * cols * dim)
        for rs, cs in _tiles(m, c, rows, cols):
            shape = (rs.stop - rs.start, cs.stop - cs.start, dim)
            diff = buf[: math.prod(shape)].reshape(shape)
            np.subtract(block[None, cs], queries[rs, None], out=diff)
            np.multiply(diff, diff, out=diff)
            np.add.reduce(diff, axis=2, out=out[rs, cs])
        return np.sqrt(out, out=out)


def _neq_block(block: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """out[r, i] = 1.0 where block[i] differs from queries[r], else 0.0, as a
    new (len(queries), len(block)) array."""
    m, c = len(queries), len(block)
    out = np.empty((m, c))
    if block.ndim == 1:
        return np.not_equal(block, queries[:, None], out=out, casting="unsafe")
    for rs, cs in _tiles(m, c, *_tile_shape(m, c, queries.shape[1])):
        np.any(block[None, cs] != queries[rs, None], axis=2, out=out[rs, cs])
    return out


# ---------------------------------------------------------------------------
# certified Gram screen
#
# _euclid_min_screened finds, for many queries at once, the exact minimum of
# _euclid_row over each query's candidate set.  One BLAS product per tile
# gives every pair's squared distance up to a proven error; a pair whose
# lower bound exceeds a kernel value already attained in its row cannot be
# the row minimum, and every other pair is re-evaluated through _euclid_row.
# The minimum is therefore the kernel's own value, bit for bit, whatever
# summation order or thread count the BLAS uses.  A cluster layer in front
# (step (6)) skips whole groups of candidates by the same kind of bound.
#
# For c candidates, about sqrt(c) farthest-point centres are picked from an
# evenly strided sample of at most _SAMPLE of them.  Every row joins its
# nearest centre, and the candidates are ordered by (cluster, position), so
# the members a query admits are a prefix of each cluster's slice.  Pass 1
# screens every query against its own cluster, which gives a tight upper
# bound; one query-major pass then lists, for each other cluster, the
# queries step (6) cannot prune for it; pass 2 visits each such cluster
# once, with those queries, and evaluates only after all of them, at each
# row's best screened pair and at the pairs the final bound cannot prune.
# With one centre this is the plain screen.
#
# No scaled copy of the path is stored: step (2) scales rows where a product
# needs them (the sample, the front end's row blocks, a cluster's members
# once per visit, each tile's queries), and a scaled value depends on its
# row alone, so each Gram input is the one a stored copy would hold, or
# that row times a power of two that leaves each of its products unchanged
# (step (3)).  The BLAS result of a pair may depend on the shape of its
# product (OpenBLAS 0.3.31 gives a row other last bits in blocks of other
# heights), so the front end and the query-major pass take every row's
# norm and S_hat from one generator, _front_s_hat, in the same row blocks,
# and every count is what a stored copy gave.  The call holds O(n) values
# besides a few tiles, one cluster's scaled members and the (query,
# cluster) pairs that pass 2 screens.
#
# Derivation.  u = 2^-53, eta = 2^-1074 (an underflowing product or scaling
# errs by at most eta/2; additions never do), gamma_k = k u / (1 - k u)
# (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3).  Pairs
# are q, x in R^D, S = ||x - q||^2 in real arithmetic, and
# K = fl(sqrt(sum_k fl(fl(x_k - q_k)^2))) is the kernel value.  Steps (2)
# to (6) stand beside the one function that computes each: _centre_and_shift
# and _scale, _s_hat, _lower_bound, _prune_threshold and _reach.
#
#  (1) Kernel.  fl(x_k - q_k) = (x_k - q_k)(1 + d), |d| <= u; a square
#      loses a factor (1 - u) and at most eta/2; a sum of D nonnegative
#      terms in any order loses at most a factor (1 - gamma_{D-1}); the
#      square root a factor (1 - u).  So
#          K^2 >= (1-u)^2 (1-gamma_{D-1}) ((1-u)^3 S - D eta/2),
#      and K <= UB implies S <= UB^2 (1 + gamma_{D+5}) + D eta.  An
#      overflowing kernel returns +inf, which satisfies every lower bound.
#
# Ranges.  Coordinates are finite and c lies between each coordinate's
# extremes, so |x - c| <= (hi - lo) / 2 cannot overflow; after scaling,
# max|z| < 1 makes every screen value finite, so no NaN or overflow reaches
# the comparison, and norms near 1e154 or above need no fallback.  An
# overflowing upper bound clamps T to the largest float: every admissible
# pair of that row is then evaluated exactly.  A row whose upper bound is 0
# has found its minimum (kernel values are never negative), which keeps
# exact duplicates from turning a whole row into survivors.
# ---------------------------------------------------------------------------

_U = 2.0 ** -53
_EXACT_BATCH = 1 << 15   # coordinates gathered per exact re-evaluation batch


def _gamma(k: int) -> float:
    return k * _U / (1.0 - k * _U)


#  (2) Centring and scaling.  z = fl(x - c) * 2^s with c the float midrange
#      of each coordinate and 2^s the power of two that puts max|z| below 1;
#      the scaling is exact except for underflow.  With t = 2^s (x - q),
#      a = z_x - z_q and P = ||z_x|| + ||z_q|| <= 2 sqrt(D):
#          ||t - a|| <= (u / (1-u)) P + 2 sqrt(D) eta,
#          ||t||^2 >= ||a||^2 - (2u / (1-u)) P^2 - 8 D eta.
#      fl(x - c) is monotone in x, so each column's extremes give max|z|.
def _centre_and_shift(coords: np.ndarray) -> tuple[np.ndarray, int]:
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    mid = 0.5 * lo + 0.5 * hi
    amax = max(float((hi - mid).max()), float((mid - lo).max()))
    return mid, (-int(np.frexp(amax)[1]) if amax > 0.0 else 0)


def _scale(x: np.ndarray, mid: np.ndarray, s: int, out: np.ndarray) -> np.ndarray:
    np.subtract(x, mid, out=out)
    return np.ldexp(out, s, out=out) if s else out


#  (3) Gram form.  Norms n = fl(z.z) and the BLAS products
#      G = fl(z_q . z_x) each carry at most gamma_D |z_q|.|z_x| + D eta
#      (any summation order, with or without FMA; classical products only,
#      no Strassen-type algorithm), and S_hat = fl(n_q + n_x - 2 G) in any
#      order adds gamma_2 (n_q + n_x + 2|G|).  Since
#      ||a||^2 = ||z_q||^2 + ||z_x||^2 - 2 z_q.z_x,
#          ||a||^2 >= S_hat - gamma_{D+2} P^2 - 5 D eta.
#      _gram is the screen's one Gram product and _norms its one row norm.
def _gram(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.matmul(a, b, out=out)


def _norms(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.einsum("ij,ij->i", z, z, out=out)


#      S_hat = fl(fl(-2 G + n_a) + n_b): one of a, b carries the factor -2.
def _s_hat(a: np.ndarray, b: np.ndarray, na, nb, out: np.ndarray | None = None) -> np.ndarray:
    s_hat = _gram(a, b, out)
    s_hat += na
    s_hat += nb
    return s_hat


#      A pass tile splits the powers of two of -2 z_q . z_x between the
#      sides of its product: the query rows are fl(x - c) 2^t, with t = 0
#      where 0 <= s <= 511 and t = s elsewhere, and the members are
#      -2^(1+s-t) z_x, computed as fl(x - c) 2^t times -2^(1+2(s-t)).
#      Where t = 0 these scalings are exact (scaling up never rounds, and
#      the factors are finite floats), so each elementary product is the
#      real number (-2 z_q,k) z_x,k and rounds as that product does: G is
#      bit for bit that of -2 z_q against z_x, and a query row costs one
#      subtraction (_scale skips a shift of 0).
#      _tile_shift takes t.
def _tile_shift(s: int) -> int:
    return 0 if 0 <= s <= 511 else s


#  (4) ||z||^2 <= (n + D eta) / (1 - gamma_D) and (a + b)^2 <= 2a^2 + 2b^2
#      give P^2 <= 2 (sqrt(n_q) + sqrt(n_x))^2 / (1 - gamma_D) + 16 D eta.
#      With r = fl(sqrt(fl(kappa n))), R = fl(r_q + r_x) and
#      kappa = 4 gamma_{D+4}, fl(R R) >= gamma_{D+4} P^2 - D 2^-501: the
#      factor 2 left over covers the roundings of kappa, r, R and R R.  A
#      tile may put its largest r_x in R for every x: rounding is monotone,
#      so that only raises fl(R R) and lowers L.
#      As gamma_{D+2} + 2u / (1-u) <= gamma_{D+4}, (2) and (3) give
#          ||t||^2 >= L / (1+u) - D 2^-500,  L = fl(S_hat - fl(R R)),
#      for L >= 0; D 2^-500 bounds every eta term, those of the
#      underflowed norms included.
#      fl(kappa n) and the square root are monotone, so the largest r_x
#      is the r of the largest n_x.
def _lower_bound(s_hat: np.ndarray, na, nb, dim: int) -> np.ndarray:
    kappa = 4.0 * _gamma(dim + 4)
    rr = np.sqrt(kappa * na) + np.sqrt(kappa * nb)
    rr *= rr
    s_hat -= rr
    return s_hat


#  (5) Prune rule.  With U = UB 2^s, (1) and (4) give: a pair with L > T,
#          T = fl(U U) (1 + gamma_{2D+16}) + 2 D 2^(2s-1074) + D 2^-499,
#      has K > UB.  The factor and the doubled terms absorb (1+u), the
#      underflow of U and the rounding of T itself.  2^(2s-1074) is the
#      kernel's own underflow in the scaled units: for coordinates near
#      1e-160 it is large and few pairs are pruned; for subnormal-only data
#      it overflows and none are.  Where UB is 0, T is -inf.
def _prune_threshold(ub: np.ndarray, s: int, dim: int) -> np.ndarray:
    uu = np.ldexp(ub, s)
    t_abs = float(np.ldexp(2.0 * dim, 2 * s - 1074)) + math.ldexp(dim, -499)
    thr = np.minimum(uu * uu * (1.0 + _gamma(2 * dim + 16)) + t_abs, np.finfo(np.float64).max)
    thr[ub == 0.0] = -np.inf
    return thr


#  (6) Cluster rule.  Each candidate belongs to one centre c (a path row),
#      and r = max K(x, c) over the cluster's members x is exact.  By (1),
#      2^s ||x - c|| <= 2^s r (1 + gamma_{D+5}) + sqrt(D) 2^(s-537).  For a
#      query q, (4) with sqrt(a - b) >= sqrt(a) - sqrt(b) and
#      1/sqrt(1+u) >= 1 - u/2 gives, for the pair (q, c) and any sign of L,
#          2^s ||q - c|| >= fl(sqrt(max(L, 0))) (1 - 2u) - sqrt(D) 2^-250.
#      By the triangle inequality ||q - x|| >= ||q - c|| - ||x - c||, and by
#      (1) a pair with 2^s ||q - x|| > U (1 + gamma_{D+5}) + sqrt(D) 2^(s-537)
#      has K > UB.  So every member is pruned when
#          fl(sqrt(max(L, 0))) > fl(fl(fl(r 2^s + U) F) + A),
#          F = 1 + gamma_{D+16},  A = sqrt(D) (2^(s-535) + 2^-249).
#      F covers gamma_{D+5}, the (1 - 2u) and the roundings of the sum, the
#      product and F itself; A doubles sqrt(D) (2^(s-536) + 2^-250), which
#      covers the underflow of r 2^s and U (eta/2 each) and the roundings of
#      A and the last sum.  The rule is valid for any centres; the uncertified
#      Gram values only choose them.  An overflowing r 2^s or U makes the
#      right side +inf, and for data whose kernel underflows (s near 1074)
#      A exceeds every left side, so neither prunes anything.
#      _reach takes U and fl(r 2^s).
def _reach(uu: np.ndarray, rr, s: int, dim: int) -> np.ndarray:
    a_abs = math.ldexp(math.sqrt(dim), s - 535) + math.ldexp(math.sqrt(dim), -249)
    return (uu + rr) * (1.0 + _gamma(dim + 16)) + a_abs


def _n_clusters(n: int) -> int:
    """Farthest-point centres for n candidate rows: about sqrt(n)."""
    return max(1, math.isqrt(n))


# Rows the centre traversal visits at most: an evenly strided sample of the
# candidates.  The traversal is one matrix-vector product per centre, in
# sequence, over the rows it visits; every row's S_hat against the centres
# then comes from one matrix-matrix product, which needs no second BLAS
# thread to run fast.
_SAMPLE = 1024


def _centres(coords: np.ndarray, mid: np.ndarray, s: int, n_cand: int):
    """Up to _n_clusters(n_cand) centres by farthest-point traversal, from row
    0, of an evenly strided sample of the first n_cand rows, compared by the
    uncorrected S_hat (step (6) holds for any centres): their path rows,
    -2 z_c^T, their norms and the pairs the traversal valued (the sample's
    rows per traversal step)."""
    stride = -(-n_cand // _SAMPLE)
    sample = coords[:n_cand:stride]
    zs = _scale(sample, mid, s, np.empty(sample.shape))
    ns = _norms(zs)
    far, row = np.full(len(zs), np.inf), np.empty(len(zs))
    at, pairs = [0], 0
    while len(at) < min(_n_clusters(n_cand), len(zs)):
        _s_hat(zs, -2.0 * zs[at[-1]], ns, ns[at[-1]], row)
        pairs += len(zs)
        np.minimum(far, row, out=far)
        c = int(far.argmax())          # the lowest index among ties
        if not far[c] > 0.0:
            break                      # every row sits on a centre
        at.append(c)
    at = np.asarray(at, dtype=np.intp)
    return at * stride, -2.0 * zs[at].T, ns[at], pairs


def _centre_bounds(s_hat: np.ndarray, na, nb, dim: int) -> np.ndarray:
    """Step (6)'s left side fl(sqrt(max(L, 0))) of (row, centre) pairs from
    their S_hat and norms, in place."""
    _lower_bound(s_hat, na, nb, dim)
    np.maximum(s_hat, 0.0, out=s_hat)
    return np.sqrt(s_hat, out=s_hat)


def _front_s_hat(coords: np.ndarray, mid: np.ndarray, s: int, zc2: np.ndarray,
                 n_c: np.ndarray, norms: np.ndarray, first: int = 0):
    """(rows, S_hat) of the path rows against the centres (zc2 = -2 z_c^T,
    norms n_c), block by block from the one that holds row first.  A block
    of rows (about _TILE / 16 values) is scaled into one reused buffer,
    writes its rows' norms into norms and is one product, into a second
    reused buffer.  The blocks do not depend on first, so each row's norm
    and S_hat are the same bits from any first."""
    (n, dim), k = coords.shape, n_c.size
    step = max(1, (_TILE >> 4) // k)
    zb, sh = np.empty(min(n, step) * dim), np.empty(min(n, step) * k)
    for r0 in range(first - first % step, n, step):
        rows = slice(r0, min(n, r0 + step))
        h = rows.stop - r0
        z = _scale(coords[rows], mid, s, zb[: h * dim].reshape(h, dim))
        _norms(z, norms[rows])
        yield rows, _s_hat(z, zc2, norms[rows, None], n_c, sh[: h * k].reshape(h, k))


# One screen call: the path rows coords with step (2)'s mid and s, the
# queries (path rows) with their limits, and the candidates in cluster
# order: path rows perm with their norms, cluster b at bounds[b]:bounds[b + 1],
# and each query's place qpos in that order.
_Screen = namedtuple("_Screen", "coords mid s queries limits skip_self perm norms bounds qpos")


def _rows(scr: _Screen, rows, s: int) -> np.ndarray:
    """fl(x - c) 2^s of the path rows rows, as a new array."""
    z = scr.coords[rows]
    return _scale(z, scr.mid, s, z)


def _kernel(coords: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_euclid_row of the path rows a against the rows b, pair by pair."""
    out = np.empty(a.size)
    batch = max(1, _EXACT_BATCH // coords.shape[1])
    for e0 in range(0, a.size, batch):
        out[e0: e0 + batch] = _euclid_row(coords[a[e0: e0 + batch]], coords[b[e0: e0 + batch]])
    return out


def _evaluate(scr: _Screen, mins: np.ndarray, rq: np.ndarray, cand: np.ndarray) -> int:
    """Lower mins[rq] to the exact kernel against path rows cand; count the pairs."""
    np.minimum.at(mins, rq, _kernel(scr.coords, cand, scr.queries[rq]))
    return rq.size


def _cluster_tiles(scr: _Screen, b: int, rows: np.ndarray, buf: np.ndarray):
    """(query numbers, L, path rows of the columns) per tile of the queries
    rows against the members of cluster b that each admits, a prefix of the
    cluster's slice; L is step (4)'s, with the largest r_x for every x."""
    c0, c1 = int(scr.bounds[b]), int(scr.bounds[b + 1])
    cnt = np.searchsorted(scr.perm[c0:c1], scr.limits[rows])
    rows, cnt = rows[cnt > 0], cnt[cnt > 0]
    if not rows.size:
        return
    # the members some query admits, scaled once for every tile and carrying
    # the tile's factor (step (3))
    t = _tile_shift(scr.s)
    zx = _rows(scr, scr.perm[c0: c0 + int(cnt.max())], t)
    zx *= -2.0 ** (1 + 2 * (scr.s - t))
    per = max(1, (_TILE >> 4) // int(cnt.max()))
    for b0 in range(0, rows.size, per):
        br, bc = rows[b0: b0 + per], cnt[b0: b0 + per]
        qp, w, end = scr.qpos[br], int(bc.max()), c0 + int(bc.max())
        zq = _rows(scr, scr.queries[br], t)
        lt = _s_hat(zq, zx[:w].T, scr.norms[qp, None], scr.norms[c0:end],
                    buf[: br.size * w].reshape(br.size, w))
        _lower_bound(lt, scr.norms[qp, None], scr.norms[c0:end].max(), zx.shape[1])
        # inadmissible pairs get +inf, which the clamped T always prunes
        if w > bc.min():
            lt[np.arange(w)[None, :] >= bc[:, None]] = np.inf
        if scr.skip_self:
            mine = (qp >= c0) & (qp < end)
            lt[np.flatnonzero(mine), qp[mine] - c0] = np.inf
        yield br, lt, scr.perm[c0:end]


def _screen_own(scr: _Screen, b: int, rows: np.ndarray, mins: np.ndarray,
                buf: np.ndarray) -> tuple[int, int]:
    """Pass 1 over cluster b for the queries rows; lowers mins and returns
    the screened and the evaluated pair counts."""
    screened = exact = 0
    dim = scr.coords.shape[1]
    for br, lt, cand in _cluster_tiles(scr, b, rows, buf):
        screened += lt.size
        # upper bound: the exact kernel at the row's best pair, where that pair
        # survives the bound attained so far; then every pair step (5) cannot
        # prune under it
        ar = np.arange(br.size)
        best = lt.argmin(axis=1)
        hit = ar[lt[ar, best] <= _prune_threshold(mins[br], scr.s, dim)]
        exact += _evaluate(scr, mins, br[hit], cand[best[hit]])
        lt[hit, best[hit]] = np.inf
        sr, sc = np.nonzero(lt <= _prune_threshold(mins[br], scr.s, dim)[:, None])
        exact += _evaluate(scr, mins, br[sr], cand[sc])
    return screened, exact


def _screen_kept(scr: _Screen, b: int, rows: np.ndarray, thr: np.ndarray,
                 buf: np.ndarray) -> tuple[int, list]:
    """Pass 2 over cluster b for the queries rows: the screened pair count and
    the pairs thr cannot prune, as (query numbers, path rows, L) per tile."""
    screened, kept = 0, []
    for br, lt, cand in _cluster_tiles(scr, b, rows, buf):
        screened += lt.size
        sr, sc = np.nonzero(lt <= thr[br, None])
        kept.append((br[sr], cand[sc], lt[sr, sc]))
    return screened, kept


def _live_pairs(scr: _Screen, norms: np.ndarray, zc2: np.ndarray, n_c: np.ndarray,
                own: np.ndarray, reach_q: np.ndarray, reach_c: np.ndarray):
    """The (query, cluster) pairs that step (6) cannot prune, own clusters and
    empty ones left out: query numbers grouped by cluster in query order,
    and each cluster's start in them.  S_hat and the norms (in path order)
    come from _front_s_hat, from the block of the first query row on, as
    the front end took them.  Each pair is held as one key
    b * len(queries) + q."""
    k, dim, s, m = n_c.size, scr.coords.shape[1], scr.s, scr.queries.size
    empty = scr.bounds[:-1] == scr.bounds[1:]
    by_row = np.argsort(scr.queries, kind="stable")
    rows_of = scr.queries[by_row]
    keys = []
    for rows, sh in _front_s_hat(scr.coords, scr.mid, s, zc2, n_c, norms, int(rows_of[0])):
        lo, hi = np.searchsorted(rows_of, (rows.start, rows.stop))
        q, qrow = by_row[lo:hi], rows_of[lo:hi]
        lam = _centre_bounds(sh[qrow - rows.start], norms[qrow, None], n_c, dim)
        live = lam <= _reach(reach_q[q, None], reach_c, s, dim)
        live[:, empty] = False
        live[np.arange(q.size), own[q]] = False
        # keys of the live entries alone: a key for every entry, then a mask,
        # took about a tenth of this pass at Fourier-8 n = 2^17
        r, b = np.divmod(np.flatnonzero(live), k)
        keys.append(b * m + q[r])
    key = np.concatenate(keys)
    del keys
    key.sort()
    at = np.searchsorted(key, np.arange(k + 1) * m)
    key %= m
    return key, at


def _euclid_min_screened(
    coords: np.ndarray,
    queries: np.ndarray,
    limits: np.ndarray,
    skip_self: bool = False,
) -> tuple[np.ndarray, int, int]:
    """Exact min over candidates of _euclid_row(coords[cand], coords[query]).

    Query r's candidates are the rows i < limits[r] and, with skip_self,
    not i == queries[r].  Returns the minima (+inf where no candidate
    is admissible), the number of pairs valued through the Gram form (the
    sample's rows per traversal step, n per centre, then every screened
    tile; the query-major pass values queries against centres again and is
    not counted) and the number of exact kernel evaluations (one radius per
    candidate, then the survivors).  Pure; the buffers live for one call.
    """
    with np.errstate(over="ignore"):
        n, dim = coords.shape
        mins = np.full(queries.size, np.inf)
        n_cand = int(limits.max())
        if n_cand == 0:
            return mins, 0, 0
        mid, s = _centre_and_shift(coords)

        centres, zc2, n_c, screened = _centres(coords, mid, s, n_cand)
        k = centres.size

        # every row's norm and nearest centre by S_hat (ties to the earlier one)
        norms = np.empty(n)
        nearest = np.empty(n, dtype=np.intp)
        for rows, sh in _front_s_hat(coords, mid, s, zc2, n_c, norms):
            nearest[rows] = sh.argmin(axis=1)
        screened += n * k

        # rows ordered by (cluster, position); non-candidates go last
        key = np.where(np.arange(n) < n_cand, nearest, k)
        perm = np.argsort(key, kind="stable")
        bounds = np.searchsorted(key[perm], np.arange(k + 1))
        scr = _Screen(coords, mid, s, queries, limits, skip_self, perm, norms[perm], bounds,
                      np.argsort(perm)[queries])
        # a tile is a block of query rows against one whole cluster slice
        buf = np.empty(max(_TILE >> 4, int(np.diff(bounds).max())))

        # pass 1: every query against the admitted members of its own cluster
        own = nearest[queries]
        filled = np.flatnonzero(bounds[:-1] < bounds[1:])
        counts = [_screen_own(scr, b, np.flatnonzero(own == b), mins, buf) for b in filled]
        screened, exact = screened + sum(c for c, _ in counts), sum(e for _, e in counts)
        if k == 1:
            return mins, screened, exact

        # cluster radii: the exact kernel of every member against its centre
        rad = _kernel(coords, perm[:n_cand], centres[key[perm[:n_cand]]])
        exact += n_cand
        radius = np.zeros(k)
        radius[filled] = np.maximum.reduceat(rad, bounds[filled])

        # pass 2: each other cluster with the queries step (6) cannot prune for
        # it under the bounds of pass 1, evaluated after all of them: each
        # row's best kept pair first, then what its bound leaves
        live, at = _live_pairs(scr, norms, zc2, n_c, own, np.ldexp(mins, s), np.ldexp(radius, s))
        thr, found = _prune_threshold(mins, s, dim), []
        for b in np.flatnonzero(at[:-1] < at[1:]):
            count, kept = _screen_kept(scr, b, live[at[b]: at[b + 1]], thr, buf)
            screened += count
            found += kept
        if found:
            rq, cand, low = (np.concatenate(part) for part in zip(*found))
            order = np.lexsort((low, rq))
            first = order[np.diff(rq[order], prepend=-1) != 0]
            exact += _evaluate(scr, mins, rq[first], cand[first])
            left = low <= _prune_threshold(mins, s, dim)[rq]
            left[first] = False
            exact += _evaluate(scr, mins, rq[left], cand[left])
        return mins, screened, exact


def distance_transform(gauge: GaugeSpec) -> Callable[..., np.ndarray]:
    """Nondecreasing map from base-metric distance to gauge value.

    The same callable is applied elementwise by the naive scan and once, after
    the metric minimum, by the metric index; monotonicity makes the two
    orderings agree exactly, including in floating point.  Like a ufunc it
    takes an optional out= array of d's shape, d itself included, which the
    naive scan uses to transform its block in place.
    """
    kind = gauge.kind
    if kind in ("lipschitz", "hinge", "regression"):
        L = gauge.L

        def lipschitz(d, out=None):
            with np.errstate(over="ignore"):
                return np.multiply(L, d, out=out)

        return lipschitz
    if kind == "smooth":
        scale = (1.0 + gauge.lam) * (gauge.gamma / 2.0)

        def smooth(d, out=None):
            with np.errstate(over="ignore"):
                dd = np.multiply(d, d, out=out)
                return np.multiply(scale, dd, out=dd)

        return smooth
    if kind == "local_lipschitz":
        r0 = gauge.r0

        def local_lipschitz(d, out=None):
            outside = ~(d <= r0)
            out = np.positive(d, out=out)
            np.copyto(out, np.inf, where=outside)
            return out

        return local_lipschitz
    if kind == "local_smooth":
        c = gauge.c

        def local_smooth(d, out=None):
            # explicit multiplies: numpy's ** takes a different code path for
            # scalars than for arrays and can differ in the last ulp
            with np.errstate(over="ignore"):
                dd = np.multiply(d, d, out=out)
                for rows, rho in _scratch_slices(dd):
                    np.multiply(c, np.add(1.0, dd[rows], out=rho), out=rho)
                    np.multiply(rho, rho, out=rho)
                    np.multiply(0.5, rho, out=rho)
                    np.multiply(rho, dd[rows], out=dd[rows])
                return dd

        return local_smooth
    raise ValueError(f"unknown gauge kind {kind!r}")


def _required_path_kind(gauge: GaugeSpec) -> tuple[str, ...]:
    if gauge.kind == "hinge":
        return ("labeled",)
    if gauge.kind == "regression":
        return ("paired",)
    if gauge.metric == "discrete":
        return ("symbol", "coords")
    return ("coords",)


def check_gauge_path(gauge: GaugeSpec, path: SamplePath) -> None:
    allowed = _required_path_kind(gauge)
    if path.kind not in allowed:
        raise ValueError(
            f"gauge {gauge.kind!r} expects point variant {' or '.join(allowed)}, "
            f"got {path.kind!r}"
        )


def _as_index(idx):
    return idx if isinstance(idx, slice) else np.asarray(idx, dtype=np.intp)


def gauge_block(gauge: GaugeSpec, path: SamplePath, queries, cand) -> np.ndarray:
    """Gauge values g(X[q], X[i]) for q in queries (rows) and i in cand
    (columns), as a new (len(queries), len(cand)) float64 array.

    queries and cand are index arrays or slices; slices index by view, which
    matters for the quadratic scans.  Every value equals the one-query
    kernel's bit for bit, so blocking changes only how rows are grouped.
    This is the one place that gates hinge pairs by label and adds
    regression targets, both in place (the allocation rule above
    _euclid_row).
    """
    check_gauge_path(gauge, path)
    queries, cand = _as_index(queries), _as_index(cand)
    with np.errstate(over="ignore"):
        if path.kind == "symbol":
            vals = _neq_block(path.symbols[cand], path.symbols[queries])
        elif gauge.metric == "discrete":
            vals = _neq_block(path.coords[cand], path.coords[queries])
        else:
            vals = _euclid_block(path.coords[cand], path.coords[queries])
        distance_transform(gauge)(vals, out=vals)
        if gauge.kind == "hinge":
            np.copyto(vals, np.inf, where=path.labels[queries][:, None] != path.labels[cand])
        elif gauge.kind == "regression":
            targets, own = path.targets[cand], path.targets[queries]
            for rows, dy in _scratch_slices(vals):
                np.subtract(targets, own[rows, None], out=dy)
                vals[rows] += np.abs(dy, out=dy)
        return vals


# ---------------------------------------------------------------------------
# admissible minima
#
# Every estimator is a minimum from a query point to a set of admissible path
# rows, stated as (queries, limits, keep, skip_self): query r sees the rows
# i < limits[r] with keep[i] (a bool mask over path rows, or None for all)
# and, under skip_self, i != queries[r].  A query without candidates gets
# +inf.  admissible_mins is the one place that reads keep and the hinge
# labels, and the one place that picks a kernel.  It restates the problem as
# row-prefix problems, in which query r sees the rows i < limits[r] (less
# itself under skip_self), and answers them with one of three kernels, each
# with its evaluation count.  _naive_mins, the gauge_block oracle, serves the
# naive kind (on request only) and regression (no fast kernel); it gates
# hinge pairs by label.  The indexed kind, the default, takes _order_min
# (sorted neighbours) under the discrete metric and at D = 1, and
# _euclid_min_screened (the certified screen) at D >= 2; both minimise the
# base metric, on each hinge label class separately, and the nondecreasing
# distance_transform is applied once, to the minima.  Every kernel returns
# the oracle's floats, so both kinds give the same minima bit for bit.
#
# An exception set becomes the same problem on the path with its rows
# reordered: the kept rows first, in order, then the queries' rows that keep
# leaves out, ascending.  Query r's candidates are then the first
# searchsorted(kept, limits[r]) rows, and a query that keep leaves out sits
# past every limit, so skip_self never drops a candidate for it.  A hinge
# label class is the Lipschitz problem, with the same L, for the class's
# queries with the class as keep, so the same rule restates it on the
# class's rows, in order.  Each kernel evaluates the same pairs with the
# same arithmetic as before the reordering, so the minima are the oracle's
# floats.
# ---------------------------------------------------------------------------

# Rows per _naive_mins block where the limits differ.  Ascending limits (the
# prefix profile) leave a block of r rows a band of about r columns for the
# limit mask, so a block costs a fixed overhead, its pairs and about r^2
# masked entries: the best r balances overhead against band, whatever n is.
# Prefix profiles at D = 1, n = 64 .. 4096, on a 2-vCPU VM: 64 rows was
# the fastest of 16, 32, 64, 128 and full-size blocks, or within 9% of it;
# at n = 256 a call took 130 us, against 174 us with full-size blocks.
# Equal limits (leave-one-out, the truth) have no band and keep full-size
# blocks.
_BAND_ROWS = 64


def _naive_mins(
    gauge: GaugeSpec,
    path: SamplePath,
    queries: np.ndarray,
    limits: np.ndarray,
    skip_self: bool = False,
) -> tuple[np.ndarray, int]:
    """Gauge minima of a row-prefix problem straight from gauge_block, the
    oracle every kernel must match, and the definitional pair count.  Rows
    are blocked to about _TILE candidate values at a time, and to _BAND_ROWS
    where the limits differ."""
    own = (queries < limits) & skip_self
    m = queries.size
    mins = np.empty(m)
    rows = max(1, _TILE // max(1, int(limits.max())))
    if limits.min() < limits.max():
        rows = min(rows, _BAND_ROWS)
    for r0 in range(0, m, rows):
        r = slice(r0, min(m, r0 + rows))
        lo, hi = int(limits[r].min()), int(limits[r].max())
        vals = gauge_block(gauge, path, queries[r], slice(0, hi))
        # the first lo candidates are admissible for every row of the block,
        # the rest only for the rows whose limit lies past them
        np.copyto(vals[:, lo:], np.inf, where=np.arange(lo, hi) >= limits[r, None])
        if skip_self:
            hit = np.flatnonzero(own[r])
            vals[hit, queries[r][hit]] = np.inf
        mins[r] = vals.min(axis=1, initial=np.inf)
    return mins, int(limits.sum()) - int(np.count_nonzero(own))


def _first_below(rows: np.ndarray, start: np.ndarray, limits: np.ndarray) -> np.ndarray:
    """Per query, the first position p >= start[r] with rows[p] < limits[r],
    len(rows) where none: binary lifting over window minima of rows."""
    m = rows.size
    table = [np.append(rows, limits.max())]     # the end lies past every limit
    while 1 << len(table) <= m:
        mins, step = table[-1], 1 << (len(table) - 1)
        table.append(np.minimum(mins, mins[np.minimum(np.arange(m + 1) + step, m)]))
    for k in range(len(table) - 1, -1, -1):
        start = np.where(table[k][start] >= limits, np.minimum(start + (1 << k), m), start)
    return start


def _order_min(path: SamplePath, discrete: bool, queries: np.ndarray, limits: np.ndarray,
               skip_self: bool = False) -> tuple[np.ndarray, int]:
    """D = 1 or discrete-metric minima of a row-prefix problem from each query's nearest
    admissible rows on either side in key order (the argument above _euclid_row); two
    evaluations per query."""
    top = int(limits.max())
    if top == 0:
        return np.full(queries.size, np.inf), 0
    key = path.symbols if path.kind == "symbol" else path.coords[:, 0]
    if path.dim > 1:
        # the discrete metric; with -0.0 folded onto +0.0, equal bytes are equal points
        pts = np.ascontiguousarray(path.coords + 0.0)
        key = pts.view(np.dtype((np.void, pts.itemsize * path.dim))).ravel()
    rows = np.argsort(key[:top])
    keys, q, end = key[rows], key[queries], rows.size
    # each query's insertion point (searched in key order: faster), or its own row under skip_self
    by_key = np.argsort(q)
    start = np.empty_like(by_key)
    start[by_key] = np.searchsorted(keys, q[by_key])
    pos = np.full(len(path), -1)
    pos[rows] = np.arange(end)
    mine = (pos[queries] >= 0) & skip_self
    start[mine] = pos[queries[mine]]
    mins = np.full(queries.size, np.inf)
    # the left side is the right side of the reversed order (lifting: above _euclid_row)
    for order, ks, p in ((rows[::-1], keys[::-1], end - start), (rows, keys, start + mine)):
        if top > limits.min():
            p = _first_below(order, p, limits)
        at = ks[np.minimum(p, end - 1)]
        d = (at != q) * 1.0 if discrete else _euclid_row(at[:, None], path.coords[queries])
        np.minimum(mins, np.where(p == end, np.inf, d), out=mins)
    return mins, 2 * queries.size


def admissible_mins(
    gauge: GaugeSpec,
    path: SamplePath,
    kind: str,
    queries: np.ndarray,
    limits: np.ndarray,
    keep: np.ndarray | None = None,
    skip_self: bool = False,
) -> tuple[np.ndarray, int, int]:
    """Gauge minima of one admissible-minimum problem on a backend kind,
    "naive" or "indexed", with the pairs valued in any form and the
    Gram-screened share of them.  The one place that picks a kernel (the
    block above _BAND_ROWS)."""
    if keep is not None:
        kept = np.flatnonzero(keep[: int(limits.max())])
        left = np.zeros(len(path), dtype=bool)
        left[queries] = True
        left[kept] = False
        rows = np.concatenate((kept, np.flatnonzero(left)))
        pos = np.empty(len(path), dtype=np.intp)
        pos[rows] = np.arange(rows.size)
        path, queries, limits = path._take(rows), pos[queries], np.searchsorted(kept, limits)
    if kind == "naive" or gauge.kind == "regression":
        mins, evaluations = _naive_mins(gauge, path, queries, limits, skip_self)
        return mins, evaluations, 0
    if gauge.kind == "hinge":
        mins, evaluations, screened = np.full(queries.size, np.inf), 0, 0
        for label in (-1, 1):
            mine = np.flatnonzero(path.labels[queries] == label)
            if mine.size:
                mins[mine], count, share = admissible_mins(
                    GaugeSpec.lipschitz(gauge.L), path, kind, queries[mine], limits[mine],
                    path.labels == label, skip_self)
                evaluations, screened = evaluations + count, screened + share
        return mins, evaluations, screened
    discrete, screened = gauge.metric == "discrete", 0
    if discrete or path.dim == 1:
        dmins, evaluations = _order_min(path, discrete, queries, limits, skip_self)
    else:
        dmins, screened, exact = _euclid_min_screened(path.coords, queries, limits, skip_self)
        evaluations = screened + exact
    return distance_transform(gauge)(dmins), evaluations, screened


def eval_gauge(gauge: GaugeSpec, y: Point, x: Point) -> float:
    """g(y, x) for a single ordered pair; 0 exactly when y equals x."""
    if y.kind != x.kind:
        raise ValueError(f"point variant mismatch: {y.kind!r} vs {x.kind!r}")
    if y.kind != "symbol" and y.dim != x.dim:
        raise ValueError(f"dimension mismatch: {y.dim} vs {x.dim}")
    path = SamplePath.from_points([x, y])
    return float(gauge_block(gauge, path, [1], [0])[0, 0])


def eval_phi(gauge: GaugeSpec, fs: FunctionSample, i: int) -> float:
    """Penalty phi(f, X_i) of the gauge's companion rule.

    lipschitz / regression / hinge evaluate f; smooth scales the
    evaluation by (1 + 1/lam); the local variants add second-order terms
    built from the supplied local data:

        local_lipschitz:  f(x) + local_lipschitz^2 / 2
        local_smooth:     f(x) + (grad_norm + local_smoothness / 4)^2 / (2c)
    """
    if not 0 <= i < fs.values.size:
        raise IndexError(f"index {i} out of range")
    v = float(fs.values[i])
    kind = gauge.kind
    if kind in ("lipschitz", "regression", "hinge"):
        return v
    if kind == "smooth":
        return (1.0 + 1.0 / gauge.lam) * v
    if kind == "local_lipschitz":
        if fs.local_lipschitz is None:
            raise ValueError("local_lipschitz gauge needs FunctionSample.local_lipschitz")
        return v + float(fs.local_lipschitz[i]) ** 2 / 2.0
    if kind == "local_smooth":
        if fs.grad_norms is None or fs.local_smoothness is None:
            raise ValueError("local_smooth gauge needs grad_norms and local_smoothness")
        g = float(fs.grad_norms[i])
        if v == 0.0 and g != 0.0:
            raise ValueError(
                "inconsistent sample: a nonnegative smooth function with value 0 "
                "has gradient 0 there"
            )
        return v + (g + float(fs.local_smoothness[i]) / 4.0) ** 2 / (2.0 * gauge.c)
    raise ValueError(f"unknown gauge kind {kind!r}")


def pairwise_gauge(gauge: GaugeSpec, path: SamplePath) -> np.ndarray:
    """Full (n, n) matrix of g(X_a, X_b).  All built-in variants are
    symmetric; the matrix is computed from the definition anyway."""
    n = len(path)
    return gauge_block(gauge, path, slice(0, n), slice(0, n))


def gauge_diameter(gauge: GaugeSpec, path: SamplePath) -> float:
    """Largest pairwise gauge value over the path: the max of pairwise_gauge,
    taken over row blocks of at most _TILE values, so no n x n array is held."""
    n = len(path)
    rows = max(1, _TILE // n)
    return max(float(gauge_block(gauge, path, slice(r0, r0 + rows), slice(0, n)).max())
               for r0 in range(0, n, rows))


@dataclass(frozen=True)
class GreedyCover:
    n_parts: int
    assignment: np.ndarray  # (n,) part id per point

    def __post_init__(self):
        object.__setattr__(self, "assignment", _freeze(np.asarray(self.assignment, dtype=np.int64)))


def greedy_cover(points: SamplePath | Sequence[Point], gauge: GaugeSpec, eps: float) -> GreedyCover:
    """Partition the points into parts of gauge-diameter <= eps.

    Greedy rule, deterministic in input order: seed a new part with the first
    unassigned point, then absorb every later unassigned point whose gauge
    to all current members stays <= eps.  The part count upper-estimates the
    minimal cover number of the point set at scale eps.  Each member's gauge
    column comes from gauge_block when it joins, so no n x n matrix is held.
    """
    if not eps > 0:   # NaN fails too; eps = +inf is one part
        raise ValueError(f"eps must be positive, got {eps}")
    path = points if isinstance(points, SamplePath) else SamplePath.from_points(list(points))
    n = len(path)
    assignment = np.full(n, -1, dtype=np.int64)
    part = 0
    for seed in range(n):
        if assignment[seed] >= 0:
            continue
        j, cand_max = seed, None
        while True:
            assignment[j] = part
            # running max gauge to the members absorbed so far
            col = gauge_block(gauge, path, slice(0, n), [j])[:, 0]
            cand_max = col if cand_max is None else np.maximum(cand_max, col, out=cand_max)
            # cand_max only grows, so the next member is the first later row
            # that is free and within eps
            later = np.flatnonzero((assignment[j + 1:] < 0) & (cand_max[j + 1:] <= eps))
            if not later.size:
                break
            j += 1 + int(later[0])
        part += 1
    return GreedyCover(n_parts=part, assignment=assignment)
