"""Property tests: the certified Gram screen of the metric-indexed backend
returns the naive oracle's minima bit for bit.

The inputs aim at the screen's error bound: large offsets from the origin
(cancellation in the Gram form), coordinates near 1e-160 and subnormals
(underflow in the kernel and in the screen), exact duplicates, -0.0,
grid-valued coordinates (exact distance ties) and one-ulp perturbations
(near ties).  Small tiles exercise the multi-block and multi-chunk paths
that only paths longer than a tile reach with the default sizes, and a
patched cluster count puts several clusters (or one per row) in front of
the screen at the small sizes drawn here, at D in {1, 2, 8} as well as
D >= 16.
"""

from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gaugebounds import (
    ExceptionSet,
    GaugeSpec,
    PrefixNNBackend,
    SamplePath,
    leave_one_out_min,
    prefix_min_indexed,
)
from gaugebounds import geometry
from gaugebounds.processes import EmbeddingSpec, ProcessSpec, embed, simulate

# huge coordinates overflow the kernel and the smooth gauges to +inf, in
# both backends
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

SETTINGS = settings(max_examples=120, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

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


tiles = st.sampled_from([None, (3, 6), (5, 10), (8, 8)])
# None keeps the derived count (about sqrt(n)); 3 forces a few clusters and
# 1000 a centre on every distinct row
clusters = st.sampled_from([None, 3, 1000])


def _patched(tile, n_clusters):
    stack = ExitStack()
    if tile is not None:
        cols, cells = tile
        stack.enter_context(mock.patch.multiple(
            geometry, _MAX_COLS=cols, _TILE=cells, _EXACT_BATCH=2 * 256))
    if n_clusters is not None:
        stack.enter_context(mock.patch.object(geometry, "_n_clusters", lambda n: n_clusters))
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
    naive, indexed = PrefixNNBackend.naive(), PrefixNNBackend.metric_indexed()
    a = prefix_min_indexed(path, gauge, tau, exc, naive)
    with _patched(*patch):
        b = prefix_min_indexed(path, gauge, tau, exc, indexed)
    assert np.array_equal(_bits(a.mins), _bits(b.mins))
    assert indexed.distance_evaluations >= indexed.screened_pairs


def _check_leave_one_out(coords, kind, seed, patch):
    rng = np.random.default_rng(seed)
    path, gauge = _path(coords, kind, rng), GAUGES[kind]
    naive, indexed = PrefixNNBackend.naive(), PrefixNNBackend.metric_indexed()
    a = leave_one_out_min(path, gauge, naive)
    with _patched(*patch):
        b = leave_one_out_min(path, gauge, indexed)
    assert np.array_equal(_bits(a), _bits(b))
    assert indexed.distance_evaluations >= indexed.screened_pairs


@SETTINGS
@given(coords=adversarial_coords(), kind=st.sampled_from(sorted(GAUGES)),
       seed=st.integers(0, 2 ** 16), tile=tiles, n_clusters=clusters)
def test_prefix_screen_matches_oracle(coords, kind, seed, tile, n_clusters):
    _check_prefix(coords, kind, seed, (tile, n_clusters), exceptions=False)


@SETTINGS
@given(coords=adversarial_coords(), seed=st.integers(0, 2 ** 16), tile=tiles,
       n_clusters=clusters)
def test_prefix_screen_with_boundary_exceptions(coords, seed, tile, n_clusters):
    _check_prefix(coords, "lipschitz", seed, (tile, n_clusters), exceptions=True)


@SETTINGS
@given(coords=adversarial_coords(), kind=st.sampled_from(sorted(GAUGES)),
       seed=st.integers(0, 2 ** 16), tile=tiles, n_clusters=clusters)
def test_leave_one_out_screen_matches_oracle(coords, kind, seed, tile, n_clusters):
    _check_leave_one_out(coords, kind, seed, (tile, n_clusters))


LOW_DIMS = (1, 2, 8)


@SETTINGS
@given(coords=adversarial_coords(dims=LOW_DIMS), kind=st.sampled_from(sorted(GAUGES)),
       seed=st.integers(0, 2 ** 16), tile=tiles, n_clusters=clusters)
def test_low_dimension_prefix_matches_oracle(coords, kind, seed, tile, n_clusters):
    _check_prefix(coords, kind, seed, (tile, n_clusters), exceptions=False)


@SETTINGS
@given(coords=adversarial_coords(dims=LOW_DIMS), kind=st.sampled_from(sorted(GAUGES)),
       seed=st.integers(0, 2 ** 16), tile=tiles, n_clusters=clusters)
def test_low_dimension_prefix_with_boundary_exceptions(coords, kind, seed, tile, n_clusters):
    _check_prefix(coords, kind, seed, (tile, n_clusters), exceptions=True)


@SETTINGS
@given(coords=adversarial_coords(dims=LOW_DIMS), kind=st.sampled_from(sorted(GAUGES)),
       seed=st.integers(0, 2 ** 16), tile=tiles, n_clusters=clusters)
def test_low_dimension_leave_one_out_matches_oracle(coords, kind, seed, tile, n_clusters):
    _check_leave_one_out(coords, kind, seed, (tile, n_clusters))


def test_screen_evaluates_about_one_pair_per_row_on_spread_data():
    rng = np.random.default_rng(5)
    path = SamplePath.from_coords(rng.random((600, 64)))
    backend = PrefixNNBackend.metric_indexed()
    prefix_min_indexed(path, GaugeSpec.lipschitz(1.0), 1, backend=backend)
    # exact evaluations beyond the build's one cluster radius per candidate
    exact = backend.distance_evaluations - backend.screened_pairs - 599
    assert backend.screened_pairs >= 599 * 600 // 2
    assert 599 <= exact <= 2 * 599


def _screened_and_naive(path):
    gauge = GaugeSpec.lipschitz(1.0)
    naive, indexed = PrefixNNBackend.naive(), PrefixNNBackend.metric_indexed()
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
        backend = PrefixNNBackend.metric_indexed()
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
        a = prefix_min_indexed(path, gauge, tau, backend=PrefixNNBackend.naive())
        b = prefix_min_indexed(path, gauge, tau, backend=PrefixNNBackend.metric_indexed())
        assert np.array_equal(_bits(a.mins), _bits(b.mins))
    a = leave_one_out_min(path, gauge, PrefixNNBackend.naive())
    b = leave_one_out_min(path, gauge, PrefixNNBackend.metric_indexed())
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
