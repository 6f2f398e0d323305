"""The certified screen against the worst products its error model allows.

Step (3) of the screen's derivation (geometry.py) lets every Gram product
and every row norm fl(a . b) err by up to gamma_D |a|.|b| + D eta, in either
direction, whatever order or kernel computes it.  The host BLAS and the two
sequential sums of test_screen.py stay well inside that allowance, so here
the screen's two float inputs, geometry._gram and geometry._norms, are
replaced by an adversary.  It computes each product exactly, in integers
times a power of two (every float is one), moves it by a drawn share in
[0.9, 1] of the allowance, raising or lowering it by a direction drawn per
call or per entry, or every value the same way, and rounds the result
toward the exact value, so that it stays within the allowance.  The minima
must still be _naive_mins's floats, bit for bit; the pair counts may move.

The allowance is taken with gamma_D >= D u + (D u)^2, a dyadic lower bound
that falls short of gamma_D by less than (D u)^3 of it.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gaugebounds import GaugeSpec, SamplePath
from gaugebounds import geometry
from test_screen import _bits, _patched, adversarial_coords, clusters, samples, tiles

# the example count comes from the loaded profile (conftest.py)
SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])

DIRECTIONS = ("up", "down", "call", "entry")


def _integers(m):
    """m as an object array of Python integers and one exponent e, with
    m = integers * 2^e exactly."""
    mant, ex = np.frexp(np.asarray(m, dtype=np.float64))
    ints = (mant * 2.0 ** 53).astype(np.int64)          # exact: 53-bit mantissas
    nonzero = ints != 0
    e = int(ex[nonzero].min()) - 53 if nonzero.any() else 0
    shift = np.where(nonzero, ex - 53 - e, 0)
    return np.left_shift(ints.astype(object), shift.astype(object)), e


def _round_toward(num, exp, down):
    """num 2^exp (exp < 0) as a float, rounded down or up."""
    den = 1 << -exp
    f = num / den                                       # correctly rounded
    fn, fd = f.as_integer_ratio()
    if (fn * den > num * fd) if down else (fn * den < num * fd):
        f = math.nextafter(f, -math.inf if down else math.inf)
    return f


_rounded = np.frompyfunc(_round_toward, 3, 1)


class Adversary:
    """Drop-in _gram and _norms whose every value errs by share of step (3)'s
    allowance, in the drawn direction."""

    def __init__(self, share, direction, seed):
        self.num, den = float(share).as_integer_ratio()
        self.shift = den.bit_length() - 1               # share = num 2^-shift
        self.direction = direction
        self.rng = np.random.default_rng(seed)

    def _signs(self, shape):
        if self.direction == "entry":
            return self.rng.choice([-1, 1], shape).astype(object)
        if self.direction == "call":
            return int(self.rng.choice([-1, 1]))
        return 1 if self.direction == "up" else -1

    def moved(self, exact, absolute, e, dim):
        """exact 2^e moved by share (gamma_D absolute 2^e + D eta), each entry
        rounded toward exact 2^e."""
        sign = self._signs(np.shape(exact))
        # in units of 2^low, every term is an integer
        low = min(e - 106, -1074) - self.shift
        gamma = (dim << 53) + dim * dim                 # gamma_D >= gamma 2^-106
        move = (gamma * absolute) << (e - 106 - self.shift - low)
        move = move + (dim << (-1074 - self.shift - low))
        target = (exact << (e - low)) + sign * self.num * move
        return _rounded(target, low, np.greater(sign, 0)).astype(np.float64)

    def gram(self, a, b, out=None):
        (ai, ea), (bi, eb) = _integers(a), _integers(b)
        g = self.moved(ai @ bi, abs(ai) @ abs(bi), ea + eb, a.shape[-1])
        if out is None:
            return g
        out[...] = g
        return out

    def norms(self, z, out=None):
        zi, e = _integers(z)
        squares = (zi * zi).sum(axis=1)
        # a float row's dot product with itself is never negative
        n = np.maximum(self.moved(squares, squares, 2 * e, z.shape[1]), 0.0)
        if out is None:
            return n
        out[...] = n
        return out


def _problem(n, shape, rng):
    """(queries, limits, skip_self) of prefix minima, leave-one-out or the
    truth, whose queries are the rows past the sample they look at."""
    if shape == "prefix":
        tau = int(rng.integers(1, n))
        return tau + np.arange(n - tau), np.arange(1, n - tau + 1), False
    if shape == "leave-one-out":
        return np.arange(n), np.full(n, n), True
    m = int(rng.integers(1, n))
    return np.arange(n - m, n), np.full(m, n - m), False


def _check(coords, shape, seed, adversary, patch=(None, None, None)):
    n = len(coords)
    path, gauge = SamplePath.from_coords(coords), GaugeSpec.lipschitz(1.0)
    queries, limits, skip_self = _problem(n, shape, np.random.default_rng(seed))
    oracle, _count = geometry._naive_mins(gauge, path, queries, limits, skip_self)
    with _patched(*patch), mock.patch.multiple(geometry, _gram=adversary.gram,
                                               _norms=adversary.norms):
        mins, _evaluations, _screened = geometry.admissible_mins(
            gauge, path, "indexed", queries, limits, None, skip_self)
    assert np.array_equal(_bits(mins), _bits(oracle))


shares = st.floats(0.9, 1.0)
shapes = st.sampled_from(["prefix", "leave-one-out", "truth"])


@SETTINGS
@given(coords=adversarial_coords(dims=(2, 3, 8, 16)), shape=shapes, share=shares,
       direction=st.sampled_from(DIRECTIONS), seed=st.integers(0, 2 ** 16), tile=tiles,
       n_clusters=clusters, sample=samples)
def test_screen_matches_oracle_under_an_adversarial_gram(coords, shape, share, direction, seed,
                                                         tile, n_clusters, sample):
    _check(coords, shape, seed, Adversary(share, direction, seed), (tile, n_clusters, sample))


@pytest.mark.parametrize("direction", DIRECTIONS)
def test_adversarial_gram_at_d_256(direction):
    # two clusters 1e8 apart: the allowance is as large as the squared
    # distances inside each cluster
    rng = np.random.default_rng(11)
    coords = rng.standard_normal((24, 256))
    coords[::2, 0] += 1e8
    for k, shape in enumerate(("prefix", "leave-one-out", "truth")):
        _check(coords, shape, k, Adversary(1.0, direction, k), (None, 3, None))


def _allowance(a, b, dim):
    """gamma_D |a|.|b| + D eta per product of a row of a and a column of b, exactly."""
    gamma = Fraction(dim, 2 ** 53 - dim)
    return [[gamma * sum(abs(Fraction(float(x)) * Fraction(float(y))) for x, y in zip(row, col))
             + Fraction(dim, 2 ** 1074) for col in b.T] for row in a]


@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e-310, 1e150])
def test_adversary_errs_by_its_share_of_the_allowance(direction, scale):
    # every value is a float within the allowance of the exact product, and,
    # where the float grid allows it, at least 0.9 of it away
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal((5, 7)) * scale, rng.standard_normal((7, 4))
    adversary = Adversary(0.95, direction, 3)
    g = adversary.gram(a, b)
    allowed = _allowance(a, b, 7)
    for i in range(5):
        for j in range(4):
            exact = sum(Fraction(float(x)) * Fraction(float(y)) for x, y in zip(a[i], b[:, j]))
            error = abs(Fraction(float(g[i, j])) - exact)
            assert error <= Fraction(95, 100) * allowed[i][j]
            ulp = Fraction(math.ulp(float(g[i, j])))
            assert error >= Fraction(90, 100) * allowed[i][j] - ulp
    n = adversary.norms(a)
    for i in range(5):
        exact = sum(Fraction(float(x)) ** 2 for x in a[i])
        error = abs(Fraction(float(n[i])) - exact)
        assert n[i] >= 0.0 and error <= Fraction(95, 100) * _allowance(a[i:i + 1], a[i:i + 1].T, 7)[0][0]
