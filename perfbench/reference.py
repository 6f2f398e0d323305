"""Plain-numpy reference for every output the benchmark checks.

It imports nothing from gaugebounds.  It rebuilds the inputs from the
documented seeding (SeedSequence spawning into Philox streams), the reset-chain
and raster definitions, and the estimator definitions, with the same
floating-point operations in the same order as the package.  Every workload
uses the Lipschitz gauge with L = 1, the risk bound with sup |f| = sup |g| = 1
and the mixing-time threshold 0.1, so those are fixed here.  So a correct
program matches it bit for bit, and the checks in run.py compare with ==.

Distances use the package kernel's formula, sqrt((diff * diff).sum(axis=1))
over rows of candidates minus the query.  To find each minimum without the
full quadratic scan (about 10 s per raster path at n = 4096), nearest() first
screens candidates with Gram-matrix squared distances and then evaluates the
survivors exactly with that formula.  The screening margin is far wider than
the rounding error of either computation, so the true minimum always survives.
"""

import math
import runpy
from fractions import Fraction
from pathlib import Path

import numpy as np

ZETA_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
ZETA_SILVER = math.sqrt(2.0) - 1.0

# Margin on squared distances, relative to |q|^2 + max |x|^2.  Both the Gram
# value and the exact row sum are within about 4 (D + 2) 2^-53 of the true
# squared distance in those units, so 1e-9 is safe for any D below 10^5.
_SCREEN = 1e-9
_BLOCK = 256                  # query rows screened at a time


def template(root: Path) -> np.ndarray:
    """The raster template: literal data in the package's _template.py."""
    return runpy.run_path(str(root / "src" / "gaugebounds" / "_template.py"))["TEMPLATE_16"]


def philox(ss) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(ss))


def trial_seeds(seed: int, count: int) -> np.ndarray:
    """Per-trial seeds of verify: SeedSequence(seed).generate_state(count, uint64)."""
    return np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)


def torus_chain(seed: int, n: int, p: float) -> np.ndarray:
    """Reset chain on the torus with the default increments, shape (n, 2)."""
    start_gen, reset_gen, redraw_gen = (philox(s) for s in np.random.SeedSequence(seed).spawn(3))
    start = start_gen.random((1, 2))[0]
    reset_pos = np.flatnonzero(reset_gen.random(n - 1) < p) + 1
    redraws = redraw_gen.random((reset_pos.size, 2))
    marker = np.zeros(n, dtype=np.int64)
    marker[reset_pos] = reset_pos
    anchor = np.maximum.accumulate(marker)
    steps = np.arange(n, dtype=np.int64) - anchor
    base = np.zeros((n, 2), dtype=np.float64)
    base[0] = start
    base[reset_pos] = redraws
    zeta = np.array([ZETA_GOLDEN, ZETA_SILVER])
    return (base[anchor] + steps[:, None] * zeta) % 1.0


def iid_circle(seed: int, n: int) -> np.ndarray:
    """iid uniform draws on the circle [0, 1), shape (n, 1)."""
    redraw = philox(np.random.SeedSequence(seed).spawn(3)[2])
    return redraw.random(n).reshape(n, 1)


def raster(tpl: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """16x16 template rotated by phase[:, 0] and scaled by phase[:, 1],
    bilinear-sampled, mean-centred and scaled to norm 1/2; shape (n, 256)."""
    size = 16
    center = (size - 1) / 2.0
    grid = np.arange(size, dtype=np.float64) - center
    px, py = np.tile(grid, size), np.repeat(grid, size)
    angles = 2.0 * math.pi * phase[:, 0]
    scales = 0.75 + np.cos(2.0 * math.pi * phase[:, 1]) / 4.0
    cos, sin = np.cos(angles)[:, None], np.sin(angles)[:, None]
    inv_s = (1.0 / scales)[:, None]
    sx = (cos * px + sin * py) * inv_s + center
    sy = (-sin * px + cos * py) * inv_s + center
    x0, y0 = np.floor(sx), np.floor(sy)
    fx, fy = sx - x0, sy - y0
    img = np.zeros_like(sx)
    for dx, dy, w in ((0, 0, (1 - fx) * (1 - fy)), (1, 0, fx * (1 - fy)),
                      (0, 1, (1 - fx) * fy), (1, 1, fx * fy)):
        xi = (x0 + dx).astype(np.int64)
        yi = (y0 + dy).astype(np.int64)
        inside = (xi >= 0) & (xi < size) & (yi >= 0) & (yi < size)
        img += w * np.where(inside, tpl[np.clip(yi, 0, size - 1), np.clip(xi, 0, size - 1)], 0.0)
    img = img - img.mean(axis=1, keepdims=True)
    img *= (0.5 / np.sqrt((img * img).sum(axis=1)))[:, None]
    return img


def nearest(queries, cands, limit=None, skip=None) -> np.ndarray:
    """Exact min over allowed candidates of ||cand - query||, per query row.

    limit[r]: only cands[:limit[r]] are allowed for row r.  skip[r]: that
    candidate index is not allowed for row r.
    """
    out = np.empty(len(queries))
    cand_sq = (cands * cands).sum(axis=1)
    cols = np.arange(len(cands))
    for lo in range(0, len(queries), _BLOCK):
        q = queries[lo:lo + _BLOCK]
        rows_here = np.arange(len(q))
        q_sq = (q * q).sum(axis=1)
        approx = q_sq[:, None] + cand_sq[None, :] - 2.0 * (q @ cands.T)
        if limit is not None:
            approx[cols[None, :] >= limit[lo:lo + _BLOCK, None]] = np.inf
        if skip is not None:
            approx[rows_here, skip[lo:lo + _BLOCK]] = np.inf
        margin = 2.0 * _SCREEN * (q_sq + cand_sq.max())
        rows, idx = np.nonzero(approx <= (approx.min(axis=1) + margin)[:, None])
        diff = cands[idx] - q[rows]
        best = np.full(len(q), np.inf)
        np.minimum.at(best, rows, np.sqrt((diff * diff).sum(axis=1)))
        out[lo:lo + _BLOCK] = best
    return out


def prefix_mins(x: np.ndarray, tau: int) -> np.ndarray:
    """mins[j] = min over i <= j of ||x[tau + j] - x[i]||, j < n - tau."""
    n_eff = len(x) - tau
    return nearest(x[tau:], x[:n_eff], limit=np.arange(1, n_eff + 1))


def loo_mins(x: np.ndarray) -> np.ndarray:
    """min over i != k of ||x[k] - x[i]||, per k."""
    return nearest(x, x, skip=np.arange(len(x)))


def mean_in_order(values: np.ndarray) -> float:
    """Plain left-to-right sum divided by the count (the documented G)."""
    return sum(values.tolist()) / values.size


def exceed_frac(values: np.ndarray, t: float) -> float:
    return float(np.count_nonzero(values > t)) / values.size


def confidence(n_eff: int, delta: float) -> float:
    return math.e * math.log(1.0 / delta) / n_eff


def excess_loss_total(gt: float, phi: float, n_eff: int, delta: float) -> float:
    return 2.0 * gt + phi + confidence(n_eff, delta)


def risk_total(g: float, phi: float, n_eff: int, delta: float) -> float:
    return 2.0 * g + phi + confidence(n_eff, delta)


def mixing_time(p: float) -> int:
    """Smallest tau >= 1 with (1 - p)^tau <= 0.1 (1 when p = 1)."""
    tau = 1
    while (1.0 - p) ** tau > 0.1:
        tau += 1
    return tau


def binom_sf(k: int, n: int, p: float) -> float:
    """P[Binomial(n, p) >= k]: an exact rational sum, rounded once."""
    if k <= 0:
        return 1.0
    q = Fraction(p)
    a, b = q.numerator, q.denominator
    upper = n - k < k
    terms = range(k, n + 1) if upper else range(k)
    mass = Fraction(sum(math.comb(n, i) * a ** i * (b - a) ** (n - i) for i in terms), b ** n)
    return float(mass if upper else 1 - mass)
