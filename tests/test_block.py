"""Property tests: the row-blocked gauge kernel and the naive scans built on
it return the per-row definition's values bit for bit, and the D = 1
sorted-neighbour truth returns the brute-force minimum bit for bit.  Guards
of the kernel's allocation rule (one new block-sized array per call, written
in place) follow the property tests.

The reference below is the per-row gauge definition written out in full:
one query against an index array, through the row kernel _euclid_row.  The
blocked code must only regroup rows, never change the arithmetic, so every
comparison is on the bit patterns.  Small tile sizes reach the partial-tile,
multi-tile and one-pair-per-tile code that default sizes reach only on long
paths.
"""

import tracemalloc
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gaugebounds import ExceptionSet, GaugeSpec, PrefixNNBackend, SamplePath, prefix_min_indexed
from gaugebounds import geometry
from gaugebounds.estimators import (
    _min_gauge_to_path,
    leave_one_out_min,
    prefix_min_profile,
)
from gaugebounds.geometry import (
    _euclid_row,
    base_metric_kind,
    distance_transform,
    gauge_block,
    gauge_row,
)
from test_screen import adversarial_coords

# huge coordinates overflow the kernel and the smooth gauges to +inf
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

SETTINGS = settings(max_examples=80, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

DIMS = (1, 2, 16, 256)

# (gauge, path variant) pairs covering every gauge kind
CASES = {
    "lipschitz": (GaugeSpec.lipschitz(1.5), "coords"),
    "lipschitz-discrete-coords": (GaugeSpec.lipschitz(2.0, metric="discrete"), "coords"),
    "lipschitz-discrete-symbols": (GaugeSpec.lipschitz(2.0, metric="discrete"), "symbol"),
    "discrete": (GaugeSpec.discrete(), "symbol"),
    "smooth": (GaugeSpec.smooth(1.5, 0.7), "coords"),
    "hinge": (GaugeSpec.hinge_classification(2.0), "labeled"),
    "regression": (GaugeSpec.regression(1.25), "paired"),
    "local_lipschitz": (GaugeSpec.local_lipschitz_truncated(1.0), "coords"),
    "local_smooth": (GaugeSpec.local_smooth(1.2), "coords"),
}

tiles = st.sampled_from([None, 1, 5, 64])


def _tiled(tile):
    stack = ExitStack()
    if tile is not None:
        stack.enter_context(mock.patch.object(geometry, "_TILE", tile))
    return stack


def _path(coords, variant, rng):
    n = len(coords)
    if variant == "symbol":
        # one symbol per distinct first coordinate keeps the duplicates
        return SamplePath.from_symbols(np.unique(coords[:, 0], return_inverse=True)[1])
    if variant == "labeled":
        return SamplePath.from_labeled(coords, rng.choice([-1, 1], n))
    if variant == "paired":
        return SamplePath.from_paired(coords, coords[rng.permutation(n), -1])
    return SamplePath.from_coords(coords)


def _row_reference(gauge, path, q, cand):
    """g(X[q], X[i]) for i in cand, one query at a time."""
    transform = distance_transform(gauge)
    if path.kind == "symbol":
        return transform((path.symbols[cand] != path.symbols[q]).astype(np.float64))
    block = path.coords[cand]
    if base_metric_kind(gauge) == "discrete":
        return transform((block != path.coords[q]).any(axis=1).astype(np.float64))
    vals = transform(_euclid_row(block, path.coords[q]))
    if gauge.kind == "hinge":
        return np.where(path.labels[cand] == path.labels[q], vals, np.inf)
    if gauge.kind == "regression":
        return vals + np.abs(path.targets[cand] - path.targets[q])
    return vals


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@SETTINGS
@given(coords=adversarial_coords(dims=DIMS), case=st.sampled_from(sorted(CASES)),
       seed=st.integers(0, 2 ** 16), tile=tiles)
def test_block_matches_row_loop(coords, case, seed, tile):
    rng = np.random.default_rng(seed)
    gauge, variant = CASES[case]
    path = _path(coords, variant, rng)
    n = len(path)
    queries = rng.integers(0, n, int(rng.integers(1, 2 * n)))
    if rng.random() < 0.5:
        a, b = sorted(rng.integers(0, n + 1, 2))
        cand, cand_idx = slice(a, b), np.arange(a, b)
    else:
        cand = cand_idx = rng.integers(0, n, int(rng.integers(0, 2 * n)))
    expected = np.array([_row_reference(gauge, path, q, cand_idx) for q in queries])
    with _tiled(tile):
        block = gauge_block(gauge, path, queries, cand)
        rows = [gauge_row(gauge, path, q, cand) for q in queries]
    assert block.shape == (queries.size, cand_idx.size)
    assert np.array_equal(_bits(block), _bits(expected.reshape(block.shape)))
    for q, row in zip(queries, rows):
        assert np.array_equal(_bits(row), _bits(_row_reference(gauge, path, q, cand_idx)))


@SETTINGS
@given(coords=adversarial_coords(dims=DIMS), case=st.sampled_from(sorted(CASES)),
       seed=st.integers(0, 2 ** 16), tile=tiles, with_exceptions=st.booleans())
def test_naive_prefix_matches_row_loop(coords, case, seed, tile, with_exceptions):
    rng = np.random.default_rng(seed)
    gauge, variant = CASES[case]
    path = _path(coords, variant, rng)
    n = len(path)
    tau = int(rng.integers(1, n))
    n_eff = n - tau
    keep = np.arange(n_eff)
    exc = None
    if with_exceptions:
        # position 0 must stay admissible; 1 and n_eff - 1 are the boundaries
        picks = {i for i in (1, n_eff - 1) if 0 < i < n_eff}
        picks |= {int(i) for i in rng.integers(1, max(2, n_eff), 3) if 0 < i < n_eff}
        exc = ExceptionSet(indices=tuple(sorted(picks)), n_eff=n_eff)
        keep = np.setdiff1d(keep, exc.indices)
    expected, count = [], 0
    for j in range(n_eff):
        cand = keep[keep <= j]
        expected.append(_row_reference(gauge, path, tau + j, cand).min())
        count += cand.size
    backend = PrefixNNBackend.naive()
    with _tiled(tile):
        mins = prefix_min_profile(path, gauge, tau, exc).mins
        profile = prefix_min_indexed(path, gauge, tau, exc, backend)
    assert np.array_equal(_bits(mins), _bits(expected))
    assert np.array_equal(_bits(profile.mins), _bits(expected))
    assert backend.distance_evaluations == count


@SETTINGS
@given(coords=adversarial_coords(dims=DIMS), case=st.sampled_from(sorted(CASES)),
       seed=st.integers(0, 2 ** 16), tile=tiles)
def test_leave_one_out_matches_row_loop(coords, case, seed, tile):
    rng = np.random.default_rng(seed)
    gauge, variant = CASES[case]
    path = _path(coords, variant, rng)
    n = len(path)
    expected = [_row_reference(gauge, path, k, np.delete(np.arange(n), k)).min()
                for k in range(n)]
    with _tiled(tile):
        loo = leave_one_out_min(path, gauge)
    assert np.array_equal(_bits(loo), _bits(expected))


# ---------------------------------------------------------------------------
# allocation rule: one new block per call, everything else in place
# ---------------------------------------------------------------------------

def _path_arrays(path):
    return [a for a in (path.coords, path.symbols, path.labels, path.targets) if a is not None]


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_gauge_block_returns_a_fresh_array(case, dim):
    gauge, variant = CASES[case]
    rng = np.random.default_rng(5)
    path = _path(np.round(rng.standard_normal((40, dim)), 1), variant, rng)
    before = [a.copy() for a in _path_arrays(path)]
    for queries, cand in ((slice(0, 40), slice(0, 40)), (slice(3, 9), slice(10, 40)),
                          (np.arange(40)[::-3], np.arange(5, 30))):
        block = gauge_block(gauge, path, queries, cand)
        assert block.dtype == np.float64 and block.flags.writeable
        for a in _path_arrays(path):
            assert not np.shares_memory(block, a)
    for a, b in zip(_path_arrays(path), before):
        assert not a.flags.writeable
        assert np.array_equal(a.view(np.uint8), b.view(np.uint8))


@pytest.mark.parametrize("case", sorted(CASES))
def test_gauge_block_without_queries_or_candidates_at_d1(case):
    gauge, variant = CASES[case]
    path = _path(np.arange(6.0).reshape(6, 1), variant, np.random.default_rng(0))
    none = np.array([], dtype=np.intp)
    for queries, cand, shape in ((none, slice(0, 6), (0, 6)), (slice(0, 6), none, (6, 0)),
                                 (slice(2, 2), slice(4, 4), (0, 0)), ([3], slice(5, 5), (1, 0))):
        assert gauge_block(gauge, path, queries, cand).shape == shape


@pytest.mark.parametrize("scan", ["prefix", "leave-one-out"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_naive_scan_holds_one_block_at_a_time(case, scan):
    # tracemalloc sees numpy's data buffers, so the peak is a count of bytes,
    # not a timing.  The bound is 1.5 of the scan's largest block: (n - 1)^2
    # values for the prefix profile, n^2 for leave-one-out, whose equal
    # limits keep full-size blocks.  Holding the kernel output, a tile
    # buffer and a transform result at once measures 2.3 blocks.
    gauge, variant = CASES[case]
    n = 256
    path = _path(np.random.default_rng(2).random((n, 1)), variant, np.random.default_rng(3))
    if scan == "prefix":
        run, block = (lambda: prefix_min_profile(path, gauge, 1)), (n - 1) ** 2 * 8
    else:
        run, block = (lambda: leave_one_out_min(path, gauge)), n * n * 8
    run()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * block


# ---------------------------------------------------------------------------
# D = 1 true missing mass from sorted neighbours
# ---------------------------------------------------------------------------

EUCLIDEAN = {
    "lipschitz": GaugeSpec.lipschitz(1.5),
    "smooth": GaugeSpec.smooth(1.5, 0.7),
    "local_lipschitz": GaugeSpec.local_lipschitz_truncated(0.25),
    "local_smooth": GaugeSpec.local_smooth(1.2),
}


def _brute_min(gauge, path, fresh):
    """min over every sample point of g(fresh point, X_i), one draw at a time."""
    transform = distance_transform(gauge)
    out = []
    for k in range(len(fresh)):
        vals = transform(_euclid_row(path.coords, fresh.coords[k]))
        if gauge.kind == "hinge":
            vals = np.where(path.labels == fresh.labels[k], vals, np.inf)
        elif gauge.kind == "regression":
            vals = vals + np.abs(path.targets - fresh.targets[k])
        out.append(np.min(vals))
    return np.array(out)


def _assert_truth_exact(gauge, path, fresh):
    got = _min_gauge_to_path(gauge, path, fresh)
    assert np.array_equal(_bits(got), _bits(_brute_min(gauge, path, fresh)))


BIG = np.finfo(np.float64).max
TINY = 5e-324

D1_SETS = {
    "signed-zeros-and-duplicates": ([0.0, -0.0, 0.0, 1.0, 1.0, -1.0, -0.0],
                                    [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, TINY, -TINY]),
    "outside-the-range": ([1.0, 2.0, 3.0, 2.0],
                          [-10.0, 0.999, 1.0, 3.0, np.nextafter(3.0, 4.0), 100.0]),
    "overflowing-differences": ([-BIG, -1e300, 1e300, BIG, 0.0],
                                [BIG, -BIG, 0.0, 1.5e308, -1e308, 1e300, -1.7e308]),
    "subnormal": ([TINY, 1e-320, -2.5e-320, 0.0, 3 * TINY],
                  [0.0, TINY, 2 * TINY, -TINY, 7e-321, -1e-320, 1e-300]),
    "one-point": ([0.3], [0.3, 0.0, -0.3, 1e300, -BIG, TINY]),
}


@pytest.mark.parametrize("kind", sorted(EUCLIDEAN))
@pytest.mark.parametrize("name", sorted(D1_SETS))
def test_sorted_neighbour_truth_on_edge_cases(name, kind):
    xs, qs = D1_SETS[name]
    _assert_truth_exact(EUCLIDEAN[kind], SamplePath.from_coords(xs),
                        SamplePath.from_coords(qs))


@pytest.mark.parametrize("kind", sorted(EUCLIDEAN))
def test_sorted_neighbour_truth_at_equidistant_draws(kind):
    # draws at the float midpoint of two neighbours: the two rounded
    # differences tie or differ by one ulp, and the kernel must pick the same
    rng = np.random.default_rng(11)
    for scale in (1.0, 1e-3, 1e8, 1e-300):
        xs = np.sort(rng.standard_normal(40)) * scale
        qs = 0.5 * xs[:-1] + 0.5 * xs[1:]
        qs = np.concatenate((qs, np.nextafter(qs, np.inf), np.nextafter(qs, -np.inf)))
        _assert_truth_exact(EUCLIDEAN[kind], SamplePath.from_coords(xs),
                            SamplePath.from_coords(qs))


@SETTINGS
@given(coords=adversarial_coords(dims=(1,)), kind=st.sampled_from(sorted(EUCLIDEAN)),
       seed=st.integers(0, 2 ** 16))
def test_sorted_neighbour_truth_matches_brute_force(coords, kind, seed):
    rng = np.random.default_rng(seed)
    split = int(rng.integers(1, len(coords)))
    path = SamplePath.from_coords(coords[:split])
    # fresh draws: the rest, the sample points themselves and their ulp neighbours
    qs = np.concatenate((coords[split:], coords[:split],
                         np.nextafter(coords[:split], np.inf)))
    _assert_truth_exact(EUCLIDEAN[kind], path, SamplePath.from_coords(qs))


@pytest.mark.parametrize("variant", ["labeled", "paired"])
def test_label_and_target_gauges_at_d1_use_the_block(variant):
    rng = np.random.default_rng(3)
    xs, qs = np.round(rng.standard_normal((30, 1)), 1), np.round(rng.standard_normal((50, 1)), 1)
    if variant == "labeled":
        gauge = GaugeSpec.hinge_classification(2.0)
        path = SamplePath.from_labeled(xs, rng.choice([-1, 1], 30))
        fresh = SamplePath.from_labeled(qs, rng.choice([-1, 1], 50))
    else:
        gauge = GaugeSpec.regression(1.5)
        path = SamplePath.from_paired(xs, rng.standard_normal(30))
        fresh = SamplePath.from_paired(qs, rng.standard_normal(50))
    # labels or targets change these minima, so the label-blind sorted
    # neighbours would give other values
    blind = _min_gauge_to_path(GaugeSpec.lipschitz(gauge.L), SamplePath.from_coords(xs),
                               SamplePath.from_coords(qs))
    assert not np.array_equal(blind, _brute_min(gauge, path, fresh))
    _assert_truth_exact(gauge, path, fresh)
