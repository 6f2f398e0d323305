"""Property tests: the certified Gram screen of the metric-indexed backend
returns the naive oracle's minima bit for bit.

The inputs aim at the screen's error bound: large offsets from the origin
(cancellation in the Gram form), coordinates near 1e-160 and subnormals
(underflow in the kernel and in the screen), exact duplicates, -0.0,
grid-valued coordinates (exact distance ties) and one-ulp perturbations
(near ties).  Small tiles exercise the multi-block paths that only paths
longer than a tile reach with the default sizes, and a patched cluster
count puts several clusters (or one per row) in front of the screen at the
small sizes drawn here, at D in {1, 2, 8} as well as D >= 16.  A patched
sample size makes the centre traversal visit a strided sample of the
candidates, as it does by default only past 1024 of them.  A patched Gram
product sums its terms one at a time in ascending or descending order of
magnitude instead of the host BLAS's order: the certificates hold for any.
"""

from contextlib import ExitStack
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gaugebounds import (
    ExceptionSet,
    GaugeSpec,
    PrefixNNBackend,
    ProcessSpec,
    SamplePath,
    leave_one_out_min,
    prefix_min_indexed,
)
from gaugebounds import geometry
from gaugebounds.processes import EmbeddingSpec, embed, simulate

# the example count comes from the loaded profile (conftest.py)
SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])

GAUGES = {
    "lipschitz": GaugeSpec.lipschitz(1.5),
    "smooth": GaugeSpec.smooth(1.5, 0.7),
    "local_lipschitz": GaugeSpec.local_lipschitz_truncated(1.0),
    "local_smooth": GaugeSpec.local_smooth(1.2),
    "hinge": GaugeSpec.hinge_classification(2.0),
}


@st.composite
def adversarial_coords(draw, dims=(16, 256)):
    dim = draw(st.sampled_from(dims))
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    offset = draw(st.sampled_from([0.0, 1e6, -1e6, 1e50, 1e150, -1e150]))
    spread = draw(st.sampled_from(["unit", "relative", "tiny", "subnormal", "huge"]))
    base = rng.standard_normal((n, dim))
    if draw(st.booleans()):
        base = np.round(base * 2.0) / 2.0            # grid values: exact distance ties
    if draw(st.booleans()):
        # two clusters far apart: the Gram form cancels badly within each
        base[rng.random(n) < 0.5, 0] += draw(st.sampled_from([1e4, 1e8]))
    scale = {"unit": 1.0, "relative": abs(offset) * 1e-9 or 1.0, "tiny": 3e-162,
             "subnormal": 1e-310, "huge": 1e150}[spread]
    if spread in ("tiny", "subnormal"):
        offset = 0.0                                 # an offset would swallow the spread
    x = offset + base * scale
    if n > 3 and draw(st.booleans()):
        x[rng.integers(0, n)] = x[rng.integers(0, n)]          # exact duplicate
    if n > 3 and draw(st.booleans()):
        i, j = rng.integers(0, n, 2)
        x[j] = x[i]
        k = rng.integers(0, dim)
        x[j, k] = np.nextafter(x[i, k], np.inf)                   # one-ulp near tie
    if draw(st.booleans()):
        x[rng.random((n, dim)) < 0.2] = 0.0
        x[rng.random((n, dim)) < 0.2] = -0.0
    return x


tiles = st.sampled_from([None, 6, 10, 8])
# None keeps the derived count (about sqrt(n)); 3 forces a few clusters and
# 1000 a centre on every distinct row (of the sample)
clusters = st.sampled_from([None, 3, 1000])
# None keeps the default, every candidate at these sizes; 3, 8 and 16 take
# every candidate up to 3, 8 or 16 of them and a stride of up to 14, 5 or 3
# past that
samples = st.sampled_from([None, 3, 8, 16])


def _sequential_gram(a, b, out=None, descending=False):
    """a @ b with each entry's products fl(a_k b_k) summed one at a time, in
    ascending or descending order of their magnitudes."""
    cols = b.reshape(b.shape[0], -1)
    terms = a[:, None, :] * cols.T[None, :, :]
    order = np.argsort(np.abs(terms), axis=2, kind="stable")
    terms = np.take_along_axis(terms, order[..., ::-1] if descending else order, axis=2)
    # accumulate adds one term at a time, left to right (a reduce would pair them)
    total = np.add.accumulate(terms, axis=2)[..., -1].reshape((a.shape[0],) + b.shape[1:])
    if out is None:
        return total
    out[...] = total
    return out


# the Gram products a patched screen may use in place of the host's BLAS
orders = st.sampled_from(["ascending", "descending"])


def _patched(tile, n_clusters, sample=None, order=None):
    stack = ExitStack()
    if order is not None:
        gram = partial(_sequential_gram, descending=order == "descending")
        stack.enter_context(mock.patch.object(geometry, "_gram", gram))
    if tile is not None:
        stack.enter_context(mock.patch.multiple(geometry, _TILE=tile, _EXACT_BATCH=2 * 256))
    if n_clusters is not None:
        stack.enter_context(mock.patch.object(geometry, "_n_clusters", lambda n: n_clusters))
    if sample is not None:
        stack.enter_context(mock.patch.object(geometry, "_SAMPLE", sample))
    return stack


def _path(coords, kind, rng):
    if kind == "hinge":
        return SamplePath.from_labeled(coords, rng.choice([-1, 1], len(coords)))
    return SamplePath.from_coords(coords)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _check_prefix(coords, kind, seed, patch, exceptions):
    rng = np.random.default_rng(seed)
    n = len(coords)
    path, gauge = _path(coords, kind, rng), GAUGES[kind]
    tau = int(rng.integers(1, n))
    exc = None
    if exceptions:
        n_eff = n - tau
        # position 0 must stay admissible; 1 and n_eff - 1 are the boundaries
        picks = {i for i in (1, n_eff - 1) if 0 < i < n_eff}
        picks |= {int(i) for i in rng.integers(1, max(2, n_eff), 3) if 0 < i < n_eff}
        exc = ExceptionSet(indices=tuple(sorted(picks)), n_eff=n_eff)
    naive, indexed = PrefixNNBackend("naive"), PrefixNNBackend("indexed")
    a = prefix_min_indexed(path, gauge, tau, exc, naive)
    with _patched(*patch):
        b = prefix_min_indexed(path, gauge, tau, exc, indexed)
    assert np.array_equal(_bits(a.mins), _bits(b.mins))
    assert indexed.distance_evaluations >= indexed.screened_pairs


def _check_leave_one_out(coords, kind, seed, patch):
    rng = np.random.default_rng(seed)
    path, gauge = _path(coords, kind, rng), GAUGES[kind]
    naive, indexed = PrefixNNBackend("naive"), PrefixNNBackend("indexed")
    a = leave_one_out_min(path, gauge, naive)
    with _patched(*patch):
        b = leave_one_out_min(path, gauge, indexed)
    assert np.array_equal(_bits(a), _bits(b))
    assert indexed.distance_evaluations >= indexed.screened_pairs


@SETTINGS
@given(coords=adversarial_coords(), kind=st.sampled_from(sorted(GAUGES)),
       seed=st.integers(0, 2 ** 16), tile=tiles, n_clusters=clusters, sample=samples)
def test_prefix_screen_matches_oracle(coords, kind, seed, tile, n_clusters, sample):
    _check_prefix(coords, kind, seed, (tile, n_clusters, sample), exceptions=False)


@SETTINGS
@given(coords=adversarial_coords(), seed=st.integers(0, 2 ** 16), tile=tiles,
       n_clusters=clusters, sample=samples)
def test_prefix_screen_with_boundary_exceptions(coords, seed, tile, n_clusters, sample):
    _check_prefix(coords, "lipschitz", seed, (tile, n_clusters, sample), exceptions=True)


@SETTINGS
@given(coords=adversarial_coords(), kind=st.sampled_from(sorted(GAUGES)),
       seed=st.integers(0, 2 ** 16), tile=tiles, n_clusters=clusters, sample=samples)
def test_leave_one_out_screen_matches_oracle(coords, kind, seed, tile, n_clusters, sample):
    _check_leave_one_out(coords, kind, seed, (tile, n_clusters, sample))


LOW_DIMS = (1, 2, 8)


@SETTINGS
@given(coords=adversarial_coords(dims=LOW_DIMS), kind=st.sampled_from(sorted(GAUGES)),
       seed=st.integers(0, 2 ** 16), tile=tiles, n_clusters=clusters, sample=samples)
def test_low_dimension_prefix_matches_oracle(coords, kind, seed, tile, n_clusters, sample):
    _check_prefix(coords, kind, seed, (tile, n_clusters, sample), exceptions=False)


@SETTINGS
@given(coords=adversarial_coords(dims=LOW_DIMS), kind=st.sampled_from(sorted(GAUGES)),
       seed=st.integers(0, 2 ** 16), tile=tiles, n_clusters=clusters, sample=samples)
def test_low_dimension_prefix_with_boundary_exceptions(coords, kind, seed, tile, n_clusters,
                                                       sample):
    _check_prefix(coords, kind, seed, (tile, n_clusters, sample), exceptions=True)


@SETTINGS
@given(coords=adversarial_coords(dims=LOW_DIMS), kind=st.sampled_from(sorted(GAUGES)),
       seed=st.integers(0, 2 ** 16), tile=tiles, n_clusters=clusters, sample=samples)
def test_low_dimension_leave_one_out_matches_oracle(coords, kind, seed, tile, n_clusters,
                                                    sample):
    _check_leave_one_out(coords, kind, seed, (tile, n_clusters, sample))


def _check_either(coords, kind, seed, patch, loo):
    if loo:
        _check_leave_one_out(coords, kind, seed, patch)
    else:
        _check_prefix(coords, kind, seed, patch, exceptions=False)


@SETTINGS
@given(coords=adversarial_coords(), kind=st.sampled_from(sorted(GAUGES)),
       seed=st.integers(0, 2 ** 16), tile=tiles, n_clusters=clusters, order=orders,
       loo=st.booleans())
def test_screen_matches_oracle_under_sequential_gram(coords, kind, seed, tile, n_clusters,
                                                     order, loo):
    _check_either(coords, kind, seed, (tile, n_clusters, None, order), loo)


@SETTINGS
@given(coords=adversarial_coords(dims=LOW_DIMS), kind=st.sampled_from(sorted(GAUGES)),
       seed=st.integers(0, 2 ** 16), tile=tiles, n_clusters=clusters, order=orders,
       loo=st.booleans())
def test_low_dimension_matches_oracle_under_sequential_gram(coords, kind, seed, tile,
                                                           n_clusters, order, loo):
    _check_either(coords, kind, seed, (tile, n_clusters, None, order), loo)


def test_sequential_gram_is_a_gram_product():
    # the patch sums the host product's terms in another order, nothing else
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((5, 7)), rng.standard_normal((7, 4))
    for descending in (False, True):
        assert np.allclose(_sequential_gram(a, b, descending=descending), a @ b)
        assert np.allclose(_sequential_gram(a, b[:, 0], descending=descending), a @ b[:, 0])
    # two half ulps of 1 add up to an ulp first, and each rounds away after 1
    terms, ones = np.array([[2.0 ** -53, 1.0, 2.0 ** -53]]), np.ones((3, 1))
    assert _sequential_gram(terms, ones)[0, 0] == 1.0 + 2.0 ** -52
    assert _sequential_gram(terms, ones, descending=True)[0, 0] == 1.0


def test_one_cluster_of_more_than_4096_candidates():
    # with one centre, each tile is a block of queries against all 4200 rows
    rng = np.random.default_rng(9)
    path = SamplePath.from_coords(np.round(rng.standard_normal((4200, 3)) * 4.0) / 4.0)
    gauge = GaugeSpec.lipschitz(1.0)
    prefix = prefix_min_indexed(path, gauge, 3, backend=PrefixNNBackend("naive")).mins
    loo = leave_one_out_min(path, gauge, PrefixNNBackend("naive"))
    with _patched(None, 1):
        indexed = PrefixNNBackend("indexed")
        assert np.array_equal(_bits(prefix_min_indexed(path, gauge, 3, backend=indexed).mins),
                              _bits(prefix))
        assert np.array_equal(_bits(leave_one_out_min(path, gauge, indexed)), _bits(loo))


def test_screen_evaluates_about_one_pair_per_row_on_spread_data():
    rng = np.random.default_rng(5)
    path = SamplePath.from_coords(rng.random((600, 64)))
    backend = PrefixNNBackend("indexed")
    prefix_min_indexed(path, GaugeSpec.lipschitz(1.0), 1, backend=backend)
    # exact evaluations beyond the build's one cluster radius per candidate
    exact = backend.distance_evaluations - backend.screened_pairs - 599
    assert backend.screened_pairs >= 599 * 600 // 2
    assert 599 <= exact <= 2 * 599


def _screened_and_naive(path):
    gauge = GaugeSpec.lipschitz(1.0)
    naive, indexed = PrefixNNBackend("naive"), PrefixNNBackend("indexed")
    a = prefix_min_indexed(path, gauge, 1, backend=naive)
    b = prefix_min_indexed(path, gauge, 1, backend=indexed)
    assert np.array_equal(_bits(a.mins), _bits(b.mins))
    return indexed.screened_pairs, naive.distance_evaluations


@pytest.mark.parametrize("path", [
    SamplePath.from_coords(np.random.default_rng(6).random((1000, 2))),
    embed(EmbeddingSpec.fourier(8), simulate(ProcessSpec.circle_rotation(p=0.01, seed=6), 1000)),
], ids=["uniform-square", "fourier-8-circle"])
def test_clusters_prune_on_low_dimensional_data(path):
    screened, naive = _screened_and_naive(path)
    assert screened < naive


def test_nothing_is_pruned_on_subnormal_data():
    # the kernel underflows, so the cluster bound's absolute term exceeds
    # every centre bound and each pair is screened
    coords = np.random.default_rng(7).standard_normal((200, 2)) * 1e-310
    screened, naive = _screened_and_naive(SamplePath.from_coords(coords))
    assert screened >= naive


def test_repeated_runs_give_identical_minima_and_counts():
    rng = np.random.default_rng(8)
    path = SamplePath.from_coords(rng.random((700, 3)))
    gauge = GaugeSpec.lipschitz(1.0)
    runs = []
    for _ in range(2):
        backend = PrefixNNBackend("indexed")
        mins = prefix_min_indexed(path, gauge, 2, backend=backend).mins
        counts = (backend.distance_evaluations, backend.screened_pairs)
        loo = leave_one_out_min(path, gauge, backend)
        runs.append((mins, counts, loo, (backend.distance_evaluations, backend.screened_pairs)))
    (m1, c1, l1, d1), (m2, c2, l2, d2) = runs
    assert np.array_equal(_bits(m1), _bits(m2)) and c1 == c2
    assert np.array_equal(_bits(l1), _bits(l2)) and d1 == d2
    # plain ints, so reports and traces serialise them as before
    assert all(type(c) is int for c in c1 + d1)


def _two_cluster_path(seed, dim, scale, separation, grid):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((40, dim))
    if grid:
        base = np.round(base * 2.0) / 2.0
    base[::2, 0] += separation
    return SamplePath.from_coords(base * scale)


def _assert_backends_agree(path):
    gauge = GaugeSpec.lipschitz(1.0)
    for tau in (1, 3):
        a = prefix_min_indexed(path, gauge, tau, backend=PrefixNNBackend("naive"))
        b = prefix_min_indexed(path, gauge, tau, backend=PrefixNNBackend("indexed"))
        assert np.array_equal(_bits(a.mins), _bits(b.mins))
    a = leave_one_out_min(path, gauge, PrefixNNBackend("naive"))
    b = leave_one_out_min(path, gauge, PrefixNNBackend("indexed"))
    assert np.array_equal(_bits(a), _bits(b))


@pytest.mark.parametrize("dim", [16, 256])
def test_gram_error_term_under_cancellation(dim):
    # clusters 1e8 apart: the Gram error is as large as the in-cluster
    # squared distances, so only the error term keeps the true minimum
    for seed in range(10):
        _assert_backends_agree(_two_cluster_path(seed, dim, 1.0, 1e8, grid=False))


@pytest.mark.parametrize("dim", [16, 256])
def test_kernel_underflow_term_near_1e_minus_160(dim):
    # squares of 1e-161 are subnormal, so the kernel itself is off by ~1e-3,
    # and grid values give exact ties that only its rounding orders
    for seed in range(10):
        _assert_backends_agree(_two_cluster_path(seed, dim, 3e-162, 0.0, grid=True))


def test_kernel_overflow_near_the_float_range():
    # rows at +-1.8e308 make the kernel overflow to +inf for most of their
    # pairs; the screen's scaled coordinates stay finite
    big = np.finfo(np.float64).max
    for seed in range(20):
        rng = np.random.default_rng(seed)
        coords = np.round(rng.standard_normal((30, 16)))
        huge = rng.random(30) < 0.3
        coords[huge] = rng.choice([-big, big, 1e300], (int(huge.sum()), 16))
        _assert_backends_agree(SamplePath.from_coords(coords))


def test_cluster_bound_keeps_its_error_term():
    # a hypothesis find: offsets of 1e6 make the uncorrected S_hat from a
    # query to a centre err by more than the distances inside a cluster, so
    # without step (6)'s error term the cluster that holds the minimum is
    # pruned
    coords = np.array([
        [-0.0, 0.0], [1000000.0004911107, 1000000.0002527506],
        [1000000.0014247975, 1000000.0003114899], [0.0, 999999.9995422321],
        [999999.9998702027, 999999.9987956545], [999999.9988750677, 1000000.0005747556],
        [999999.9991009417, 1000000.0005053553], [1000000.0003099806, 999999.9995274608],
        [1000000.0004911108, -0.0]])
    _check_prefix(coords, "hinge", 1, (None, 3), exceptions=False)


def _whole_path_scaling(coords):
    mid, s = geometry._centre_and_shift(coords)
    z = geometry._scale(coords, mid, s, np.empty(coords.shape))
    return mid, s, z, np.einsum("ij,ij->i", z, z)


SCALED_DIMS = (1, 2, 8, 256)


def _tile_factors(s):
    """The powers of two that a tile puts on z_q and z_x (see _tile_shift)."""
    t = geometry._tile_shift(s)
    return 2.0 ** (t - s), -(2.0 ** (1 + s - t))


def _tile_rows(coords, mid, s, rows):
    """A tile's query rows and member rows for the path rows rows."""
    t = geometry._tile_shift(s)
    scr = geometry._Screen(coords, mid, s, *([None] * 7))
    members = geometry._rows(scr, rows, t)
    members *= -2.0 ** (1 + 2 * (s - t))
    return geometry._rows(scr, rows, t), members


@SETTINGS
@given(coords=adversarial_coords(dims=SCALED_DIMS), data=st.data())
def test_scaled_rows_are_the_whole_path_scaling(coords, data):
    # the screen scales rows where a product needs them; each row a tile
    # takes, its member rows and each block's norms must be the whole path's
    # z, or z times a power of two that leaves every product as it was.
    # Tiny columns beside large ones make the scaling underflow
    n, dim = coords.shape
    coords[:, ::2] *= data.draw(st.sampled_from([1.0, 1e-300, 1e-310]))
    mid, s, z, norms = _whole_path_scaling(coords)
    rows = np.asarray(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
    fq, fx = _tile_factors(s)
    zq, zx = _tile_rows(coords, mid, s, rows)
    assert np.array_equal(_bits(zq), _bits(fq * z[rows]))
    assert np.array_equal(_bits(zx), _bits(fx * z[rows]))
    assert fq * fx == -2.0
    r0 = data.draw(st.integers(0, n - 1))
    r1 = data.draw(st.integers(r0 + 1, n))
    block = geometry._scale(coords[r0:r1], mid, s, np.empty((r1 - r0, dim)))
    assert np.array_equal(_bits(block), _bits(z[r0:r1]))
    assert np.array_equal(_bits(np.einsum("ij,ij->i", block, block)), _bits(norms[r0:r1]))
    # the front end's groups from the one that holds row first on: the row
    # slices, S_hat and norms of a pass from row 0, bit for bit, and those
    # norms are the whole path's
    centres = np.asarray(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
    first = data.draw(st.integers(0, n - 1))
    zc2, n_c = -2.0 * z[centres].T, norms[centres]
    whole, got = np.full(n, np.nan), np.full(n, np.nan)
    with mock.patch.object(geometry, "_TILE", data.draw(tiles) or geometry._TILE):
        ref = [(rows, sh.copy())
               for rows, sh in geometry._front_s_hat(coords, mid, s, zc2, n_c, whole)]
        groups = [(rows, sh.copy())
                  for rows, sh in geometry._front_s_hat(coords, mid, s, zc2, n_c, got, first)]
    start = groups[0][0].start
    assert start <= first < groups[0][0].stop
    assert [rows for rows, _sh in groups] == [rows for rows, _sh in ref if rows.start >= start]
    for (_rows, sh), (_ref_rows, ref_sh) in zip(groups, ref[-len(groups):]):
        assert np.array_equal(_bits(sh), _bits(ref_sh))
    assert np.array_equal(_bits(whole), _bits(norms))
    assert np.array_equal(_bits(got[start:]), _bits(norms[start:]))


@pytest.mark.parametrize("large, tiny", [(1.0, 1e-310), (0.6, 1e-310), (1e150, 1e-300),
                                         (1e-3, 5e-324)])
def test_tile_rows_where_the_scaling_underflows(large, tiny):
    # z of a tiny column beside a large one rounds as it underflows (s < 0
    # scales down: s = -1 at large = 0.6); a tile's rows must still be z
    # times its powers of two, with ldexp the reference
    for seed in range(4):
        coords = np.random.default_rng(seed).standard_normal((50, 4))
        coords[:, 0] *= large
        coords[:, 1:] *= tiny
        mid, s, z, _norms = _whole_path_scaling(coords)
        assert np.array_equal(_bits(z), _bits(np.ldexp(coords - mid, s)))
        rows = np.arange(50)[::-1]
        fq, fx = _tile_factors(s)
        zq, zx = _tile_rows(coords, mid, s, rows)
        assert np.array_equal(_bits(zq), _bits(fq * z[rows]))
        assert np.array_equal(_bits(zx), _bits(fx * z[rows]))


def _gram_inputs_are_whole_path_rows(coords, calls):
    # each operand is z times one factor, the two factors of a product
    # multiply to -2, and each norm beside a row is that row's z norm
    _mid, s, z, norms = _whole_path_scaling(coords)
    factors = {1.0, -2.0, *_tile_factors(s)}
    rows_of = {f: {(f * row).tobytes() + nz.tobytes() for row, nz in zip(z, norms)}
               for f in factors}
    for a, b, na, nb in calls:
        found = []
        for rows, nr in ((np.atleast_2d(a), na), (np.atleast_2d(b.T), nb)):
            nr = np.broadcast_to(np.ravel(nr), (len(rows),))
            keys = [row.tobytes() + nz.tobytes() for row, nz in zip(rows, nr)]
            found.append({f for f in factors if all(key in rows_of[f] for key in keys)})
        assert any(fa * fb == -2.0 for fa in found[0] for fb in found[1])


@SETTINGS
@given(coords=adversarial_coords(dims=SCALED_DIMS), tile=tiles, n_clusters=clusters,
       sample=samples, seed=st.integers(0, 2 ** 16), loo=st.booleans())
def test_every_gram_input_is_a_row_of_the_whole_path_scaling(coords, tile, n_clusters, sample,
                                                             seed, loo):
    # the traversal, the front end, the query-major pass and every tile of
    # both passes: each Gram operand row is a row of the whole path's z times
    # a power of two, the two powers of a product multiply to -2, and each
    # norm beside a row is that row's, bit for bit
    n = len(coords)
    if loo:
        problem = (np.arange(n), np.full(n, n), True)
    else:
        tau = int(np.random.default_rng(seed).integers(1, n))
        problem = (tau + np.arange(n - tau), np.arange(1, n - tau + 1), False)
    calls, s_hat = [], geometry._s_hat

    def recorded(a, b, na, nb, out=None):
        calls.append((a.copy(), b.copy(), np.copy(na), np.copy(nb)))
        return s_hat(a, b, na, nb, out)

    with _patched(tile, n_clusters, sample), mock.patch.object(geometry, "_s_hat", recorded):
        geometry._euclid_min_screened(coords, *problem)
    _gram_inputs_are_whole_path_rows(coords, calls)


@SETTINGS
@given(coords=adversarial_coords(dims=SCALED_DIMS), n_clusters=st.sampled_from([2, 3, 1000]),
       tile=tiles, seed=st.integers(0, 2 ** 16),
       nudge=st.sampled_from([0.0, 1e-16, -1e-16, 1e-15, 0.5]))
def test_query_major_pass_emits_exactly_the_pairs_step_6_keeps(coords, n_clusters, tile, seed,
                                                                 nudge):
    # every query against every centre by step (6) itself, from the front
    # end's S_hat, with pass-1 bounds and radii placed near the boundary
    n, dim = coords.shape
    rng = np.random.default_rng(seed)
    mid, s, _z, norms = _whole_path_scaling(coords)
    with np.errstate(over="ignore"), _patched(tile, n_clusters):
        centres, zc2, n_c, _pairs = geometry._centres(coords, mid, s, n)
        k = centres.size
        groups = [(r, b.copy()) for r, b in geometry._front_s_hat(coords, mid, s, zc2, n_c, norms)]
        sh = np.concatenate([b for _r, b in groups])
        nearest = sh.argmin(axis=1)
        perm = np.argsort(nearest, kind="stable")
        bounds = np.searchsorted(nearest[perm], np.arange(k + 1))
        queries = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        scr = geometry._Screen(coords, mid, s, queries, np.full(queries.size, n), False, perm,
                               norms[perm], bounds, np.argsort(perm)[queries])
        lam = geometry._centre_bounds(sh.copy(), norms[:, None], n_c, dim)[queries]
        reach_c = np.ldexp(rng.random(k) * rng.choice([0.0, 1.0, 1e-3]), s)
        pick = rng.integers(0, k, queries.size)
        base = lam[np.arange(queries.size), pick] - reach_c[pick]
        reach_q = np.maximum(base * (1.0 + nudge), 0.0)
        reach_q[rng.random(queries.size) < 0.1] = 0.0
        reach_q[rng.random(queries.size) < 0.1] = np.inf
        own = nearest[queries]
        keep = lam <= geometry._reach(reach_q[:, None], reach_c, s, dim)
        keep &= (bounds[:-1] < bounds[1:]) & (np.arange(k) != own[:, None])
        live, at = geometry._live_pairs(scr, norms, zc2, n_c, own, reach_q, reach_c)
    for b in range(k):
        assert np.array_equal(live[at[b]: at[b + 1]], np.flatnonzero(keep[:, b]))
