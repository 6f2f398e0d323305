"""The certified screen's error terms, one certificate step at a time, in
exact arithmetic.

geometry._euclid_min_screened returns the naive scan's minima bit for bit
because of the inequalities (1)-(6) written beside its helpers.  A too-small
error term only shows in an end-to-end test when real rounding reaches it,
and other terms' slack often hides it there.  So each property here runs one
step's function on float inputs, recomputes the real quantity that step
bounds with exact rationals (every float is one), and asserts that the float
certificate lies on the safe side.  hypothesis.target steers each search
toward the largest share of the step's allowance that the observed error
uses.

Exact values: a float is m 2^e with e >= -1074, so a row of coordinates is
held as Python integers in units of 2^-1074, and squared distances as
Fractions with the denominator 2^2148.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, example, given, settings, target
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gaugebounds import geometry

# the example count comes from the loaded profile (conftest.py); no example
# database, whose Pareto front of target scores costs more than the checks
SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow], database=None)

U = Fraction(1, 2 ** 53)
ETA = Fraction(1, 2 ** 1074)


def gamma(k):
    return k * U / (1 - k * U)


def exact(x):
    return Fraction(float(x))


def units(row):
    """A float row as integers in units of 2^-1074."""
    out = []
    for v in map(float, row):
        num, den = v.as_integer_ratio()
        out.append(num * (2 ** 1074 // den))
    return out


def sq(a, b=None, shift=0):
    """||2^shift (a - b)||^2 (||2^shift a||^2 without b) for rows held by units()."""
    b = b or [0] * len(a)
    return Fraction(sum((x - y) ** 2 for x, y in zip(a, b)), 2 ** 2148) * Fraction(2) ** (2 * shift)


def below_roots(v, a, b, c):
    """v <= c (sqrt(a) + sqrt(b))^2 for rationals a, b, c >= 0, exactly."""
    d = v - c * (a + b)                      # may be at most 2 c sqrt(a b)
    return d <= 0 or d * d <= 4 * c * c * a * b


def above_roots(v, a, b, c):
    """v >= c (sqrt(a) + sqrt(b))^2 for rationals a, b, c >= 0, exactly."""
    d = v - c * (a + b)                      # must be at least 2 c sqrt(a b)
    return d >= 0 and d * d >= 4 * c * c * a * b


def root_scale(a, b):
    """(sqrt(a) + sqrt(b))^2 as a float, for the targets only."""
    return (math.sqrt(float(a)) + math.sqrt(float(b))) ** 2


def share(used, allowance):
    """The share of an allowance that an error uses, as a finite float."""
    return float(Fraction(used) / Fraction(allowance)) if allowance > 0 else 0.0


dims = st.one_of(st.integers(1, 16), st.integers(17, 256))
# the screen's shift: 2^s puts the largest centred coordinate in [1/2, 1), so
# s runs from -1024 (coordinates near the float maximum) to 1073 (the
# smallest subnormal)
shifts = st.one_of(st.integers(-1024, 1073), st.sampled_from([-1024, 0, 500, 1000, 1073]))
# nonnegative floats of every binade, subnormals and zero included
magnitudes = st.floats(0.0, float(np.finfo(np.float64).max), width=64)


@st.composite
def rows(draw, n_rows=(2, 4)):
    """Rows aimed at the screen's error terms: scales of 1e+-150, 1e-160 and
    subnormals, large offsets (cancellation), exact duplicates, one-ulp
    near ties, signed zeros and a row at the centre."""
    dim, n = draw(dims), draw(st.integers(*n_rows))
    # hypothesis draws up to 8 columns and steers them; it favours short
    # floats, whose arithmetic is often exact, so full-precision noise, which
    # makes every operation round, fills the rest or all of the row
    head = draw(hnp.arrays(np.float64, (n, min(dim, 8)), elements=st.floats(-1.0, 1.0, width=64)))
    noise = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).uniform(-1.0, 1.0, (n, dim))
    mix = draw(st.sampled_from(["drawn", "noise", "both"]))
    unit = np.zeros((n, dim)) if mix == "drawn" else noise
    if mix != "noise":
        unit[:, :head.shape[1]] = 0.5 * head + 0.5 * unit[:, :head.shape[1]]
    scale = draw(st.sampled_from([1.0, 1e-150, 1e150, 3e-162, 1e-310]))
    offset = draw(st.sampled_from([0.0, 0.5, -3.0, 1e6, 1e16]))
    x = unit * scale + offset * scale
    if draw(st.booleans()):
        x[draw(st.integers(0, n - 1))] = x[0]                       # exact duplicate
    if draw(st.booleans()):
        i, k = draw(st.integers(0, n - 1)), draw(st.integers(0, dim - 1))
        x[i, k] = np.nextafter(x[0, k], np.inf)                    # one-ulp near tie
    if n > 2 and draw(st.booleans()):
        # a row at the others' midrange, which step (2) centres on: its z is 0,
        # so its pairs' error lies all in the other row's norm and r
        x[-1] = 0.5 * x[:-1].min(axis=0) + 0.5 * x[:-1].max(axis=0)
    return x


def scaled(x):
    """Step (2) and the norms, as _euclid_min_screened computes them."""
    mid, s = geometry._centre_and_shift(x)
    z = geometry._scale(x, mid, s, np.empty_like(x))
    return z, np.einsum("ij,ij->i", z, z), s


@SETTINGS
@given(x=rows(n_rows=(2, 2)))
def test_step_1_kernel_bounds_the_squared_distance(x):
    # K <= UB implies S <= UB^2 (1 + gamma_{D+5}) + D eta; UB = K is the tightest
    dim = x.shape[1]
    with np.errstate(over="ignore"):
        k = geometry._euclid_row(x[:1], x[1])[0]
    if np.isfinite(k):
        s, k2 = sq(units(x[0]), units(x[1])), exact(k) ** 2
        target(share(s - k2, k2 * gamma(dim + 5) + dim * ETA), label="step 1")
        assert s <= k2 * (1 + gamma(dim + 5)) + dim * ETA


@SETTINGS
@given(x=rows())
def test_step_2_scaling_errs_within_its_allowance(x):
    # per coordinate |t_k - a_k| <= (u / (1-u)) (|z_xk| + |z_qk|) + 2 eta, with
    # t = 2^s (x - q) and a = z_x - z_q; step (2)'s norm bounds sum these.
    # Times (1-u) 2^(53+1074+m), m = max(0, -s), every term is an integer
    z, _norms, s = scaled(x)
    assert np.abs(z).max() < 1.0
    ux, uz = [units(r) for r in x], [units(r) for r in z]
    m = max(0, -s)
    worst = 0.0
    for i in range(1, len(x)):
        for xi, x0, zi, z0 in zip(ux[i], ux[0], uz[i], uz[0]):
            error = abs(((xi - x0) << (s + m)) - ((zi - z0) << m)) * (2 ** 53 - 1)
            allowance = (abs(zi) + abs(z0) + 2 * (2 ** 53 - 1)) << m
            assert error <= allowance
            worst = max(worst, error / allowance)
    target(worst, label="step 2")


def one_cluster(x):
    """x screened as one cluster of candidates: every row a query that
    admits every row, itself included."""
    n = len(x)
    mid, s = geometry._centre_and_shift(x)
    _z, norms, _s = scaled(x)
    everyone = np.arange(n)
    return geometry._Screen(coords=x, mid=mid, s=s, queries=everyone, limits=np.full(n, n),
                            skip_self=False, perm=everyone, norms=norms,
                            bounds=np.array([0, n]), qpos=everyone)


@SETTINGS
@given(x=rows())
# the last row is the others' midrange, so its z is 0 and S_hat's error in
# its pairs lies in the other row's norm alone: only the tile's r_x covers it
@example(x=np.array([[-0.376, -0.153], [0.655, -0.182], [0.1395, -0.1675]]))
def test_steps_3_and_4_hold_at_every_pair_of_a_tile(x):
    # (3): ||a||^2 >= S_hat - gamma_{D+2} P^2 - 5 D eta;
    # (4): fl(R R) >= gamma_{D+4} P^2 - D 2^-501 for the pair's own R, and the
    # tile's L, with its largest r_x for every x, has
    # ||t||^2 >= L / (1+u) - D 2^-500 where L >= 0
    dim = x.shape[1]
    scr = one_cluster(x)
    z, norms, s = scaled(x)
    ux, uz = [units(r) for r in x], [units(r) for r in z]
    worst3 = worst4 = worst_l = 0.0
    with np.errstate(over="ignore"):
        for br, lt, cand in geometry._cluster_tiles(scr, 0, scr.queries, np.empty(len(x) ** 2)):
            s_hat = geometry._s_hat(-2.0 * z[br], z[cand].T, norms[br, None], norms[cand])
            for i, q in enumerate(br):
                for j, c in enumerate(cand):
                    a2, b2 = sq(uz[q]), sq(uz[c])
                    excess = exact(s_hat[i, j]) - sq(uz[c], uz[q]) - 5 * dim * ETA
                    assert below_roots(excess, a2, b2, gamma(dim + 2))
                    if a2 + b2:
                        worst3 = max(worst3, float(excess) / float(gamma(dim + 2))
                                     / root_scale(a2, b2))
                    rr = -exact(geometry._lower_bound(np.zeros(1), norms[q], norms[c], dim)[0])
                    assert above_roots(rr + dim * Fraction(1, 2 ** 501), a2, b2, gamma(dim + 4))
                    t2, low = sq(ux[c], ux[q], s), exact(lt[i, j])
                    if low >= 0:
                        assert t2 >= low / (1 + U) - dim * Fraction(1, 2 ** 500)
                    # the share of the tile's own subtrahend, S_hat - L
                    worst_l = max(worst_l, share(exact(s_hat[i, j]) - t2,
                                                 exact(s_hat[i, j]) - low))
                    if rr:
                        worst4 = max(worst4, float(gamma(dim + 4)) * root_scale(a2, b2)
                                     / float(rr))
    target(worst3, label="step 3")
    target(worst4, label="step 4 kappa")
    target(worst_l, label="step 4 L")


@SETTINGS
@given(x=rows(n_rows=(2, 5)))
def test_step_6_centre_bound_holds_for_every_row_and_centre(x):
    # 2^s ||q - c|| >= fl(sqrt(max(L, 0))) (1 - 2u) - sqrt(D) 2^-250, from (4)
    # at the front end, with every row a centre
    dim = x.shape[1]
    z, norms, s = scaled(x)
    ux = [units(r) for r in x]
    with np.errstate(over="ignore"):
        s_hat = geometry._s_hat(z, -2.0 * z.T, norms[:, None], norms)
        lam = geometry._centre_bounds(s_hat, norms[:, None], norms, dim).T
    shares = []
    for c in range(len(x)):
        for q in range(len(x)):
            t2, v = sq(ux[q], ux[c], s), exact(lam[c, q]) * (1 - 2 * U)
            # sqrt(t2) + sqrt(D 2^-500) >= v
            assert v <= 0 or below_roots(v * v, t2, dim * Fraction(1, 2 ** 500), 1)
            allowance = 2 * float(U) * lam[c, q] + math.sqrt(dim) * 2.0 ** -250
            shares.append((lam[c, q] - math.sqrt(float(t2))) / allowance)
    target(max(shares), label="step 6 centre bound")


@SETTINGS
@given(ub=magnitudes, s=shifts, dim=dims)
def test_step_5_threshold_covers_every_pair_that_may_reach_below_ub(ub, s, dim):
    # by (1) a pair with K <= UB has S <= UB^2 (1 + gamma_{D+5}) + D eta, and by
    # (4) L / (1+u) - D 2^-500 <= 2^2s S; so any L > T proves K > UB only if
    # T >= (1+u) (2^2s (UB^2 (1 + gamma_{D+5}) + D eta) + D 2^-500)
    with np.errstate(over="ignore"):
        thr = geometry._prune_threshold(np.array([ub]), s, dim)[0]
    if ub == 0.0:
        assert thr == -np.inf              # the row's minimum is found
        return
    if thr == np.finfo(np.float64).max:
        return                             # clamped: every pair is evaluated
    scale2 = Fraction(2) ** (2 * s)
    need = (1 + U) * (scale2 * (exact(ub) ** 2 * (1 + gamma(dim + 5)) + dim * ETA)
                      + dim * Fraction(1, 2 ** 500))
    base = scale2 * exact(ub) ** 2
    target(share(need - base, exact(thr) - base), label="step 5")
    assert exact(thr) >= need


@SETTINGS
@given(ub=magnitudes, r=magnitudes, s=shifts, dim=dims)
def test_step_6_reach_prunes_only_clusters_out_of_reach(ub, r, s, dim):
    # with lam > _reach, the triangle inequality and (1) need
    # lam (1 - 2u) - sqrt(D) 2^-250 >
    #     2^s (r + UB) (1 + gamma_{D+5}) + 2 sqrt(D) 2^(s-537)
    # for the smallest such lam, the float after the reach
    with np.errstate(over="ignore"):
        reach = geometry._reach(np.ldexp(np.array([ub]), s), np.ldexp(r, s), s, dim)[0]
    lam = np.nextafter(reach, np.inf)
    if not np.isfinite(lam):
        return                             # nothing is pruned
    grown = Fraction(2) ** s * (exact(r) + exact(ub)) * (1 + gamma(dim + 5))
    gap = exact(lam) * (1 - 2 * U) - grown
    c = Fraction(1, 2 ** 250) + 2 * Fraction(2) ** s * Fraction(1, 2 ** 537)
    assert gap > 0 and gap * gap > dim * c * c          # gap > sqrt(D) c
    need = (grown + Fraction(math.sqrt(dim)) * c) / (1 - 2 * U)
    base = Fraction(2) ** s * (exact(r) + exact(ub))
    target(share(need - base, exact(reach) - base), label="step 6 reach")
