"""The admissible-minimum contract that the kernels of geometry share.

A problem is (queries, limits, keep, skip_self): query r sees the path rows
i < limits[r] with keep[i] and, under skip_self, i != queries[r].  The
reference below spells that out one query at a time through gauge_block.
admissible_mins on both backend kinds must return its minima bit for bit,
+inf for a query without candidates, on every problem shape the estimators
pose (prefix minima with and without exception sets, leave-one-out, the
truth's fresh draws against the path) and on arbitrary ones.  The kernels
_naive_mins, _order_min and _euclid_min_screened answer row-prefix problems
(no keep mask, no labels) and must return the same minima on those.  The
backends' counters keep their pinned values.
"""

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
from gaugebounds.estimators import _min_gauge_to_path
from gaugebounds.geometry import (
    _euclid_min_screened,
    _naive_mins,
    _order_min,
    admissible_mins,
    distance_transform,
    gauge_block,
)
from test_screen import adversarial_coords

SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])

SHAPES = ("prefix", "prefix-exceptions", "leave-one-out", "truth", "arbitrary")


def _problem(shape, n, rng):
    """(queries, limits, keep, skip_self, split): split is the path length
    of the truth's shape, where rows from split on are the fresh draws."""
    if shape.startswith("prefix"):
        tau = int(rng.integers(1, n))
        n_eff = n - tau
        keep = None
        if shape == "prefix-exceptions":
            # excluding row 0 leaves entry 0 without candidates
            keep = rng.random(n_eff) < 0.6
            keep[[i for i in (1, n_eff - 1) if i < n_eff]] = False
        return tau + np.arange(n_eff), np.arange(1, n_eff + 1), keep, False, None
    if shape == "leave-one-out":
        return np.arange(n), np.full(n, n), None, True, None
    if shape == "truth":
        split = int(rng.integers(1, n))
        return split + np.arange(n - split), np.full(n - split, split), None, False, split
    m = int(rng.integers(1, 2 * n))
    keep = rng.random(n) < 0.7 if rng.random() < 0.5 else None
    return (rng.integers(0, n, m), rng.integers(0, n + 1, m), keep,
            bool(rng.random() < 0.5), None)


def _oracle(gauge, path, queries, limits, keep, skip_self):
    """Minima and candidate count of the contract, one query at a time."""
    mins, count = [], 0
    for q, limit in zip(queries, limits):
        cand = np.array([i for i in range(limit)
                         if (keep is None or keep[i]) and not (skip_self and i == q)],
                        dtype=np.intp)
        count += cand.size
        mins.append(np.min(gauge_block(gauge, path, [q], cand)[0], initial=np.inf))
    return np.array(mins), count


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _with_duplicates(coords, rng):
    """Copies of some rows, half of them with every zero's sign flipped."""
    x = coords.copy()
    n = len(x)
    src, dst = rng.integers(0, n, (2, n // 3 + 1))
    x[dst] = x[src]
    flip = dst[: dst.size // 2]
    x[flip] = np.where(x[flip] == 0.0, -x[flip], x[flip])
    return x


def _check_truth(gauge, path, split, expected):
    n = len(path)
    got = _min_gauge_to_path(gauge, path._take(slice(0, split)), path._take(slice(split, n)))
    assert np.array_equal(_bits(got), _bits(expected))


def _check_dispatch(gauge, path, problem, expected):
    """admissible_mins on both backend kinds, each returning the oracle."""
    for kind in ("naive", "indexed"):
        mins, _, _ = admissible_mins(gauge, path, kind, *problem)
        assert np.array_equal(_bits(mins), _bits(expected)), kind


DISCRETE = {"discrete": GaugeSpec.discrete(),
            "lipschitz-discrete": GaugeSpec.lipschitz(2.0, metric="discrete")}


@SETTINGS
@given(coords=adversarial_coords(dims=(1, 2, 16)), name=st.sampled_from(sorted(DISCRETE)),
       symbols=st.booleans(), shape=st.sampled_from(SHAPES), seed=st.integers(0, 2 ** 16))
def test_discrete_min_matches_the_oracle(coords, name, symbols, shape, seed):
    rng = np.random.default_rng(seed)
    coords = _with_duplicates(coords, rng)
    if symbols:
        path = SamplePath.from_symbols(np.unique(coords[:, 0], return_inverse=True)[1])
    else:
        path = SamplePath.from_coords(coords)
    gauge = DISCRETE[name]
    queries, limits, keep, skip_self, split = _problem(shape, len(path), rng)
    expected, _ = _oracle(gauge, path, queries, limits, keep, skip_self)
    if keep is None:
        dmins, _ = _order_min(path, True, queries, limits, skip_self)
        assert np.array_equal(_bits(distance_transform(gauge)(dmins)), _bits(expected))
    _, count, _ = admissible_mins(gauge, path, "indexed", queries, limits, keep, skip_self)
    assert count == 2 * queries.size or (count == 0 and np.isinf(expected).all())
    _check_dispatch(gauge, path, (queries, limits, keep, skip_self), expected)
    if split is not None:
        _check_truth(gauge, path, split, expected)


EUCLIDEAN = {
    "lipschitz": GaugeSpec.lipschitz(1.5),
    "smooth": GaugeSpec.smooth(1.5, 0.7),
    "local_lipschitz": GaugeSpec.local_lipschitz_truncated(1.0),
    "local_smooth": GaugeSpec.local_smooth(1.2),
    "hinge": GaugeSpec.hinge_classification(2.0),
    "regression": GaugeSpec.regression(1.25),
}


@SETTINGS
@given(coords=adversarial_coords(dims=(1, 2, 16)), name=st.sampled_from(sorted(EUCLIDEAN)),
       shape=st.sampled_from(SHAPES), seed=st.integers(0, 2 ** 16))
def test_naive_and_screened_kernels_match_the_oracle(coords, name, shape, seed):
    rng = np.random.default_rng(seed)
    n = len(coords)
    gauge = EUCLIDEAN[name]
    if name == "hinge":
        path = SamplePath.from_labeled(coords, rng.choice([-1, 1], n))
    elif name == "regression":
        path = SamplePath.from_paired(coords, rng.standard_normal(n))
    else:
        path = SamplePath.from_coords(coords)
    queries, limits, keep, skip_self, split = _problem(shape, n, rng)
    expected, count = _oracle(gauge, path, queries, limits, keep, skip_self)
    _, naive_count, _ = admissible_mins(gauge, path, "naive", queries, limits, keep, skip_self)
    assert naive_count == count
    if keep is None:
        mins, _ = _naive_mins(gauge, path, queries, limits, skip_self)
        assert np.array_equal(_bits(mins), _bits(expected))
        if name not in ("hinge", "regression"):
            dmins, _, _ = _euclid_min_screened(path.coords, queries, limits, skip_self)
            assert np.array_equal(_bits(distance_transform(gauge)(dmins)), _bits(expected))
    _check_dispatch(gauge, path, (queries, limits, keep, skip_self), expected)
    if split is not None:
        _check_truth(gauge, path, split, expected)


D1 = ("lipschitz", "smooth", "local_lipschitz", "local_smooth")


@SETTINGS
@given(coords=adversarial_coords(dims=(1,)), name=st.sampled_from(D1),
       shape=st.sampled_from(SHAPES), seed=st.integers(0, 2 ** 16))
def test_order_min_matches_the_oracle_at_d1(coords, name, shape, seed):
    rng = np.random.default_rng(seed)
    path = SamplePath.from_coords(_with_duplicates(coords, rng))
    gauge = EUCLIDEAN[name]
    *problem, split = _problem(shape, len(path), rng)
    expected, _ = _oracle(gauge, path, *problem)
    queries, limits, keep, skip_self = problem
    if keep is None:
        dmins, _ = _order_min(path, False, queries, limits, skip_self)
        assert np.array_equal(_bits(distance_transform(gauge)(dmins)), _bits(expected))
    mins, _, screened = admissible_mins(gauge, path, "indexed", *problem)
    assert np.array_equal(_bits(mins), _bits(expected))
    assert screened == 0
    if split is not None:
        _check_truth(gauge, path, split, expected)


@pytest.mark.parametrize("name", D1)
def test_shared_rows_at_d1_take_the_sorted_kernel(name):
    # every problem shape at D = 1 takes the sorted neighbours: two
    # evaluations per query and none screened; none at all without candidates
    gauge = EUCLIDEAN[name]
    rng = np.random.default_rng(8)
    path = SamplePath.from_coords(np.round(rng.standard_normal((60, 1)), 1))
    for shape in SHAPES * 5:
        queries, limits, keep, skip_self, _split = _problem(shape, len(path), rng)
        expected, count = _oracle(gauge, path, queries, limits, keep, skip_self)
        mins, evaluations, screened = admissible_mins(gauge, path, "indexed", queries, limits,
                                                      keep, skip_self)
        assert np.array_equal(_bits(mins), _bits(expected))
        assert (evaluations, screened) == ((2 * queries.size, 0) if count else (0, 0))
    mins, evaluations, screened = admissible_mins(gauge, path, "indexed", queries, 0 * limits)
    assert np.isinf(mins).all() and (evaluations, screened) == (0, 0)
    # the last candidate row is the first query's limit, so its nearest row
    # (row 1, equal to it) is not admissible to it
    edge = SamplePath.from_coords([[0.0], [0.1], [0.1]])
    queries, limits = np.array([2, 2]), np.array([1, 2])
    expected, _ = _oracle(gauge, edge, queries, limits, None, False)
    mins, _, _ = admissible_mins(gauge, edge, "indexed", queries, limits)
    assert np.array_equal(_bits(mins), _bits(expected)) and expected[0] > 0.0


def _reduction_cases(dim):
    """(name, path, (queries, limits, keep, skip_self)) at the edges of
    admissible_mins' reductions: hinge label classes and exception sets.
    The truth's rows from limits[0] on are fresh draws."""
    rng = np.random.default_rng(30 + dim)
    n = 14
    coords = np.round(rng.standard_normal((n, dim)) * 2.0) / 2.0
    coords[5] = coords[9]                                # an exact duplicate
    labels = np.ones(n, dtype=int)
    labels[[1, 6, 9, 12]] = -1
    path = SamplePath.from_labeled(coords, labels)
    prefix = (2 + np.arange(n - 2), np.arange(1, n - 1))
    alone = np.ones(n, dtype=int)
    alone[4] = -1
    keep = np.ones(n - 2, dtype=bool)
    keep[1] = False         # the only candidate of class -1 that query 6 (limit 5) sees
    plus = np.flatnonzero(labels == 1)
    fresh = np.round(rng.standard_normal((30, dim)) * 2.0) / 2.0
    joined = SamplePath.from_labeled(np.concatenate((coords, fresh)),
                                     np.concatenate((labels, rng.choice([-1, 1], 30))))
    return [
        ("truth-fresh-labeled", joined, (n + np.arange(30), np.full(30, n), None, False)),
        ("truth-one-row", joined._take(slice(n - 1, None)),
         (1 + np.arange(30), np.full(30, 1), None, False)),
        ("one-label", SamplePath.from_labeled(coords, np.ones(n, dtype=int)),
         (*prefix, None, False)),
        ("one-label-loo", SamplePath.from_labeled(coords, -np.ones(n, dtype=int)),
         (np.arange(n), np.full(n, n), None, True)),
        ("single-row-class", SamplePath.from_labeled(coords, alone),
         (np.arange(n), np.full(n, n), None, True)),
        ("exception-removes-a-class", path, (*prefix, keep, False)),
        ("queries-from-one-class", path,
         (plus, rng.integers(0, n + 1, plus.size), None, True)),
        ("repeated-and-excluded-queries", path,
         (np.array([3, 3, 7, 7, 0, 12, 3]), np.array([5, 14, 14, 8, 14, 13, 0]),
          np.isin(np.arange(n), [3, 7, 0], invert=True), True)),
        ("repeated-queries-no-skip", path,
         (np.array([3, 3, 7, 7, 0, 12, 3]), np.array([5, 14, 14, 8, 14, 13, 0]),
          np.isin(np.arange(n), [3, 12], invert=True), False)),
    ]


@pytest.mark.parametrize("dim", [1, 8])
def test_reductions_at_their_edges(dim):
    # every case on both kinds equals the oracle; the naive kind keeps the
    # definitional pair count, and at D = 1 the order kernel counts two
    # evaluations per query of each label class that has a candidate
    gauge = GaugeSpec.hinge_classification(2.0)
    for name, path, problem in _reduction_cases(dim):
        queries, limits, keep, skip_self = problem
        expected, count = _oracle(gauge, path, *problem)
        _check_dispatch(gauge, path, problem, expected)
        assert admissible_mins(gauge, path, "naive", *problem)[1] == count, name
        if dim == 1:
            kept = np.arange(len(path)) if keep is None else np.flatnonzero(keep)
            order = 0
            for label in (-1, 1):
                mine = path.labels[queries] == label
                if mine.any():
                    rows = kept[kept < limits[mine].max()]
                    order += 2 * int(mine.sum()) * bool((path.labels[rows] == label).any())
            assert admissible_mins(gauge, path, "indexed", *problem)[1:] == (order, 0), name
        if name.startswith("truth"):
            _check_truth(gauge, path, int(limits[0]), expected)
        if name == "single-row-class":
            assert np.isinf(expected[4]) and np.isfinite(np.delete(expected, 4)).all()
        if name == "exception-removes-a-class":
            assert np.isinf(expected[queries == 6]).all()
            assert np.isfinite(expected[queries == 9]).all()


# ---------------------------------------------------------------------------
# counters, pinned
# ---------------------------------------------------------------------------

def _table_paths():
    rng = np.random.default_rng(2024)
    n = 40
    coords = np.round(rng.random((n, 3)) * 4) / 4       # a grid: duplicates and ties
    labels = np.where(rng.random(n) < 0.5, -1, 1)
    return {
        "coords": SamplePath.from_coords(coords),
        "coords-d1": SamplePath.from_coords(coords[:, :1]),
        "symbol": SamplePath.from_symbols(rng.integers(0, 12, n)),
        "labeled": SamplePath.from_labeled(coords, labels),
        "paired": SamplePath.from_paired(coords, rng.standard_normal(n)),
    }


TABLE_GAUGES = {
    "lipschitz": (GaugeSpec.lipschitz(1.5), "coords"),
    "smooth": (GaugeSpec.smooth(1.5, 0.7), "coords"),
    "local_lipschitz": (GaugeSpec.local_lipschitz_truncated(0.3), "coords"),
    "local_smooth": (GaugeSpec.local_smooth(1.2), "coords"),
    "lipschitz-d1": (GaugeSpec.lipschitz(1.5), "coords-d1"),
    "smooth-d1": (GaugeSpec.smooth(1.5, 0.7), "coords-d1"),
    "local_lipschitz-d1": (GaugeSpec.local_lipschitz_truncated(0.3), "coords-d1"),
    "local_smooth-d1": (GaugeSpec.local_smooth(1.2), "coords-d1"),
    "hinge": (GaugeSpec.hinge_classification(2.0), "labeled"),
    "regression": (GaugeSpec.regression(1.25), "paired"),
    "discrete": (GaugeSpec.discrete(), "symbol"),
    "discrete-coords": (GaugeSpec.discrete(), "coords"),
    "lipschitz-discrete": (GaugeSpec.lipschitz(2.0, metric="discrete"), "symbol"),
}

# (distance_evaluations, screened_pairs) for prefix minima at tau = 2 (n_eff =
# 38), the same with exceptions {1, 5, 37}, and leave-one-out minima, n = 40,
# at D = 3 and on the first coordinate alone (D = 1).
# Naive: the admissible sums 38 * 39 / 2 = 741 and 741 - (37 + 33 + 1) = 670,
# and n (n - 1) = 1560.  Order kernel (the discrete metric, and D = 1): two
# evaluations per query, 2 n_eff or 2 n.
# Screen: the certified screen's own counts on this data (the centre
# traversal over the candidates, every row's S_hat against every centre, the
# screened tiles and the exact evaluations), which depend on the
# coordinates, not on the distance transform; with exceptions, on the path
# with the kept rows first.  Hinge: the screen's counts summed over the two
# label classes.  The regression gauge takes the naive kernel on either
# backend.
NAIVE = ((741, 0), (670, 0), (1560, 0))
ORDER = ((76, 0), (76, 0), (80, 0))
SCREEN = ((1204, 1106), (1121, 1026), (1414, 1282))
COUNTS = {
    "lipschitz": SCREEN,
    "smooth": SCREEN,
    "local_lipschitz": SCREEN,
    "local_smooth": SCREEN,
    "lipschitz-d1": ORDER,
    "smooth-d1": ORDER,
    "local_lipschitz-d1": ORDER,
    "local_smooth-d1": ORDER,
    "hinge": ((780, 694), (721, 636), (1022, 901)),
    "regression": NAIVE,
    "discrete": ORDER,
    "discrete-coords": ORDER,
    "lipschitz-discrete": ORDER,
}


@pytest.mark.parametrize("kind", ["naive", pytest.param("indexed", id="metric-indexed")])
@pytest.mark.parametrize("name", sorted(TABLE_GAUGES))
def test_counters_keep_their_values(name, kind):
    gauge, variant = TABLE_GAUGES[name]
    path = _table_paths()[variant]
    exceptions = ExceptionSet(indices=(1, 5, 37), n_eff=38)
    backend = PrefixNNBackend(kind=kind)
    runs = (lambda: prefix_min_indexed(path, gauge, 2, None, backend),
            lambda: prefix_min_indexed(path, gauge, 2, exceptions, backend),
            lambda: leave_one_out_min(path, gauge, backend))
    expected = NAIVE if kind == "naive" else COUNTS[name]
    for run, counts in zip(runs, expected):
        run()
        assert (backend.distance_evaluations, backend.screened_pairs) == counts
        assert type(backend.distance_evaluations) is int
        assert type(backend.screened_pairs) is int
