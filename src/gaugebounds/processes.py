"""Seeded simulators for stationary reset chains, plus ambient embeddings.

Chains.  Each process follows a deterministic map on its phase space (unit
step on the N-cycle, rotation by a fixed increment on the circle or torus)
and, independently at every step with probability p, forgets its state and
redraws it from the uniform invariant distribution.  The start is drawn from
the same distribution, so every marginal is exactly stationary.  p = 1 is
iid sampling; p = 0 is the bare deterministic motion.

Because one reset anywhere inside a gap of tau steps makes the conditional
law exactly stationary, the dependence coefficients obey

    phi(tau) <= (1 - p)^tau        (and likewise alpha(tau)),

which mixing_bounds reports as a chain-derived profile.  ProcessSpec, the
default increments and the mixing functions need no numpy; they live in
bounds, which evaluates a bound without loading numpy, and are re-exported
here.

Randomness.  All draws come from numpy's Philox counter-based generator.
A simulator derives three sub-streams from its seed by SeedSequence spawning
(children 0, 1, 2 of SeedSequence(seed)): starts, reset coin flips, and
redraw values.  Identical seeds with different forced starts therefore
coincide from the first reset onward, exactly.

Embeddings map phase paths into ambient space: identity, truncated Fourier
features on the circle, and a 16x16 raster image rotated (and optionally
scaled) by the phase, mean-centered and normalized to Euclidean norm 1/2.

The default rotation increments are the golden irrational 1/phi^2 and
sqrt(2) - 1, chosen for their slow rational approximation (well-spread
orbits); recurrence behavior is measured, not assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._template import TEMPLATE_16
from .bounds import ZETA_GOLDEN, ZETA_SILVER, ProcessSpec, mixing_bounds, mixing_time
from .estimators import FiniteSupport, SamplerOracle
from .geometry import SamplePath

__all__ = [
    "ProcessSpec",
    "EmbeddingSpec",
    "ZETA_GOLDEN",
    "ZETA_SILVER",
    "simulate",
    "simulate_with_details",
    "embed",
    "mixing_bounds",
    "mixing_time",
    "stationary_oracle",
    "phase_distance",
    "fourier_lipschitz_bracket",
    "empirical_lipschitz",
]

def _philox(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """Philox generator of SeedSequence(seed), or of seed if it is one."""
    return np.random.Generator(np.random.Philox(seed))


def _draw_uniform(spec: ProcessSpec, gen: np.random.Generator, m: int):
    if spec.space == "cycle":
        return gen.integers(0, spec.n_states, size=m, dtype=np.int64)
    if spec.space == "circle":
        return gen.random(m)
    return gen.random((m, 2))


def simulate_with_details(
    spec: ProcessSpec, n: int, start=None
) -> tuple[SamplePath, np.ndarray]:
    """Simulate and also return the reset positions (for coupling tests)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    # the start, reset and redraw streams; a generator is built only for a
    # stream the path draws from (iid paths use the redraw stream alone)
    start_ss, reset_ss, redraw_ss = np.random.SeedSequence(spec.seed).spawn(3)

    if spec.kind == "iid":
        draws = _draw_uniform(spec, _philox(redraw_ss), n)
        if spec.space == "cycle":
            path = SamplePath.from_symbols(draws)
        else:
            path = SamplePath.from_coords(draws.reshape(n, -1))
        return path, np.arange(1, n, dtype=np.int64)

    if start is None:
        start_val = _draw_uniform(spec, _philox(start_ss), 1)[0]
    else:
        start_val = np.asarray(start)
    p = spec.reset_p
    resets = _philox(reset_ss).random(n - 1) < p if n > 1 else np.zeros(0, dtype=bool)
    reset_pos = np.flatnonzero(resets) + 1
    m = reset_pos.size
    redraws = _draw_uniform(spec, _philox(redraw_ss), m)

    marker = np.zeros(n, dtype=np.int64)
    marker[reset_pos] = reset_pos
    anchor = np.maximum.accumulate(marker)
    steps = np.arange(n, dtype=np.int64) - anchor

    # one reset chain: each step adds inc to the last (re)drawn value, mod period
    if spec.kind == "cycle":
        inc, period = np.array([1]), spec.n_states
    elif spec.kind == "circle":
        inc, period = np.array([spec.zeta]), 1.0
    else:
        inc, period = np.array([spec.zeta1, spec.zeta2]), 1.0
    base = np.zeros((n, inc.size), dtype=inc.dtype)
    base[0] = np.asarray(start_val).reshape(inc.size)
    base[reset_pos] = redraws.reshape(m, inc.size)
    values = (base[anchor] + steps[:, None] * inc) % period
    if spec.kind == "cycle":
        return SamplePath.from_symbols(values[:, 0]), reset_pos
    return SamplePath.from_coords(values), reset_pos


def simulate(spec: ProcessSpec, n: int, start=None) -> SamplePath:
    """Stationary path of length n: uniform start, then n - 1 transitions.

    start overrides the drawn initial state (test hook; the path is no longer
    stationary at position 0 when forced)."""
    return simulate_with_details(spec, n, start=start)[0]


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmbeddingSpec:
    """Map from phase space into ambient coordinates."""

    kind: str                      # "identity" | "fourier" | "raster"
    dim: int | None = None         # fourier output dimension (even)
    with_scaling: bool = False     # raster: modulate size from the 2nd phase
    template: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "fourier", "raster"):
            raise ValueError(f"unknown embedding kind {self.kind!r}")
        if self.kind == "fourier":
            if self.dim is None or self.dim < 2 or self.dim % 2:
                raise ValueError("fourier embedding needs an even dimension >= 2")
        if self.kind == "raster":
            tpl = TEMPLATE_16 if self.template is None else np.asarray(self.template, dtype=np.float64)
            if tpl.shape != (16, 16):
                raise ValueError("raster template must be a 16x16 grid")
            if not np.isfinite(tpl).all():
                raise ValueError("raster template must be finite (no NaN/inf)")
            tpl = tpl.copy()
            tpl.setflags(write=False)
            object.__setattr__(self, "template", tpl)

    @classmethod
    def identity(cls) -> "EmbeddingSpec":
        return cls(kind="identity")

    @classmethod
    def fourier(cls, dim: int) -> "EmbeddingSpec":
        return cls(kind="fourier", dim=int(dim))

    @classmethod
    def raster_rotation(cls, with_scaling: bool = False, template=None) -> "EmbeddingSpec":
        return cls(kind="raster", with_scaling=with_scaling, template=template)

    @property
    def phase_dim(self) -> int | None:
        if self.kind == "identity":
            return None
        if self.kind == "fourier":
            return 1
        return 2 if self.with_scaling else 1


# Rows per block of the raster kernel, chosen by measurement: at n = 4096 on
# a 2-vCPU Xeon, 64 to 256 rows ran equally fast (about 13 ms), 16 rows 17 ms
# and 8 rows 25 ms; 64 keeps each (rows, 256) temporary at 128 KB.
_RASTER_ROWS = 64


def _raster_render(template: np.ndarray, angles: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Rotated, scaled and bilinearly sampled template images, one per row,
    each centered and normalized to Euclidean norm 1/2; (n, 256) float64.

    Rows are rendered in blocks of _RASTER_ROWS straight into the output, so
    no other (n, 256) array exists.  Every coordinate is bit-identical to a
    whole-array render that masks out-of-grid corners with
    np.where(valid, template[clip], 0.0) and sums them into zeros, because:
    - sx, sy, fx, fy, the four weight products, the corner order and the
      accumulation from 0.0 are the same floating-point operations, and
      cos, sin and 1/scale are still taken once over all n;
    - a corner outside the 16x16 grid reads +0.0 from a 2-pixel zero border.
      floor(sx) and floor(sy) are clipped to [-2, 16] only to index it: a
      clipped floor lies on the same side of the grid as the true one, so
      both of its corners stay in the border;
    - the weights are finite and >= 0, since fx = sx - floor(sx) is exact
      and lies in [0, 1), so weight * 0.0 is +0.0 in both forms;
    - the per-row mean and sum of squares reduce each C-contiguous row on
      its own, so they do not depend on how many rows a block holds.
    """
    size, pad = 16, 2
    width = size + 2 * pad
    center = (size - 1) / 2.0
    grid = np.arange(size, dtype=np.float64) - center
    px = np.tile(grid, size)            # column offsets, row-major pixels
    py = np.repeat(grid, size)          # row offsets
    padded = np.zeros((width, width), dtype=np.float64)
    padded[pad:pad + size, pad:pad + size] = template
    padded = padded.ravel()
    cos_all = np.cos(angles)
    sin_all = np.sin(angles)
    inv_all = 1.0 / scales
    out = np.empty((angles.shape[0], size * size), dtype=np.float64)
    for start in range(0, out.shape[0], _RASTER_ROWS):
        rows = slice(start, start + _RASTER_ROWS)
        cos = cos_all[rows, None]
        sin = sin_all[rows, None]
        inv_s = inv_all[rows, None]
        # inverse map: rotate by -angle, undo the scale, then bilinear-sample
        sx = (cos * px + sin * py) * inv_s + center
        sy = (-sin * px + cos * py) * inv_s + center
        x0 = np.floor(sx)
        y0 = np.floor(sy)
        fx = sx - x0
        fy = sy - y0
        corner = (np.clip(y0, -pad, size).astype(np.intp) + pad) * width
        corner += np.clip(x0, -pad, size).astype(np.intp) + pad
        gx = 1 - fx
        gy = 1 - fy
        block = out[rows]
        block[...] = 0.0
        for offset, w in ((0, gx * gy), (1, fx * gy), (width, gx * fy), (width + 1, fx * fy)):
            block += w * padded[corner + offset]
        block -= block.mean(axis=1, keepdims=True)
        with np.errstate(over="ignore"):
            norms = np.sqrt((block * block).sum(axis=1))
        if not np.isfinite(norms).all():
            raise ValueError("raster image norm overflows: template values are too large")
        if (norms < 1e-12).any():
            raise ValueError("degenerate raster image with zero contrast")
        block *= (0.5 / norms)[:, None]
    return out


def embed(emb: EmbeddingSpec, path: SamplePath) -> SamplePath:
    """Pointwise embedding of a phase path into ambient coordinates."""
    if emb.kind == "identity":
        return path
    if path.kind != "coords":
        raise ValueError(f"{emb.kind} embedding needs coordinate phase points, got {path.kind!r}")
    if path.dim != emb.phase_dim:
        raise ValueError(
            f"{emb.kind} embedding expects phase dimension {emb.phase_dim}, got {path.dim}"
        )
    if emb.kind == "fourier":
        x = path.coords[:, 0]
        half = emb.dim // 2
        scale = math.sqrt(2.0 / emb.dim)
        out = np.empty((len(path), emb.dim), dtype=np.float64)
        for k in range(1, half + 1):
            arg = 2.0 * math.pi * k * x
            out[:, 2 * (k - 1)] = np.cos(arg) * scale
            out[:, 2 * k - 1] = np.sin(arg) * scale
        return SamplePath.from_coords(out)

    angles = 2.0 * math.pi * path.coords[:, 0]
    if emb.with_scaling:
        scales = 0.75 + np.cos(2.0 * math.pi * path.coords[:, 1]) / 4.0
    else:
        scales = np.ones(len(path), dtype=np.float64)
    return SamplePath.from_coords(_raster_render(emb.template, angles, scales))


def stationary_oracle(spec: ProcessSpec, emb: EmbeddingSpec | None = None):
    """Sampling handle for the invariant distribution, embedded if asked.

    Finite support (exact enumeration) for cycle state spaces, a fresh-draw
    sampler otherwise.
    """
    emb = emb or EmbeddingSpec.identity()
    if spec.space == "cycle":
        support = SamplePath.from_symbols(np.arange(spec.n_states, dtype=np.int64))
        support = embed(emb, support)
        probs = np.full(spec.n_states, 1.0 / spec.n_states)
        return FiniteSupport(support=support, probs=probs)

    def draw(rng: np.random.Generator, m: int) -> SamplePath:
        phase = SamplePath.from_coords(rng.random((m, spec.phase_dim)))
        return embed(emb, phase)

    return SamplerOracle(draw=draw)


# ---------------------------------------------------------------------------
# phase metrics and embedding regularity
# ---------------------------------------------------------------------------

def phase_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Wraparound metric on the circle/torus: per-coordinate arc distance,
    Euclidean across coordinates."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    d = np.abs(a - b) % 1.0
    d = np.minimum(d, 1.0 - d)
    return np.sqrt((d * d).sum(axis=1))


def fourier_lipschitz_bracket(dim: int) -> tuple[float, float, float]:
    """(lower_slope, upper_slope, max_arc): on phase arcs up to max_arc the
    embedded distance divided by the arc lies inside the bracket; the upper
    slope is a global Lipschitz constant."""
    if dim < 2 or dim % 2:
        raise ValueError("dim must be an even integer >= 2")
    half = dim // 2
    s = math.sqrt(2.0 / dim)
    root_sum_sq = math.sqrt(sum(k * k for k in range(1, half + 1)))
    return 4.0 * s * root_sum_sq, 2.0 * math.pi * s * root_sum_sq, 1.0 / dim


def empirical_lipschitz(
    emb: EmbeddingSpec,
    n_pairs: int = 1000,
    seed: int = 0,
) -> float:
    """Largest observed ratio of embedded distance to phase distance over
    seeded random pairs (half of them near pairs, within 5e-4 per
    coordinate, probing the local slope)."""
    if emb.phase_dim is None:
        raise ValueError("identity embedding has no fixed phase space to sample")
    rng = _philox(seed)
    d = emb.phase_dim
    a = rng.random((n_pairs, d))
    b = rng.random((n_pairs, d))
    half = n_pairs // 2
    b[:half] = (a[:half] + 1e-3 * (rng.random((half, d)) - 0.5)) % 1.0
    ea = embed(emb, SamplePath.from_coords(a)).coords
    eb = embed(emb, SamplePath.from_coords(b)).coords
    diff = ea - eb
    emb_dist = np.sqrt((diff * diff).sum(axis=1))
    ph_dist = phase_distance(a, b)
    mask = ph_dist > 1e-12
    return float((emb_dist[mask] / ph_dist[mask]).max())
