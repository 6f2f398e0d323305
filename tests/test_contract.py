"""The admissible-minimum contract that the three kernels of geometry share.

A problem is (queries, limits, keep, skip_self): query r sees the path rows
i < limits[r] with keep[i] and, under skip_self, i != queries[r].  The
reference below spells that out one query at a time through gauge_block.
_naive_mins, _discrete_min and _euclid_min_screened must return its minima
bit for bit, +inf for a query without candidates, on every problem shape the
estimators pose (prefix minima with and without exception sets,
leave-one-out, the truth's fresh draws against the path) and on arbitrary
ones.  The backends' counters keep their pinned values.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gaugebounds import (
    BackendMismatchError,
    ExceptionSet,
    GaugeSpec,
    PrefixNNBackend,
    SamplePath,
    leave_one_out_min,
    prefix_min_indexed,
)
from gaugebounds.estimators import _min_gauge_to_path
from gaugebounds.geometry import (
    _discrete_min,
    _euclid_min_screened,
    _naive_mins,
    distance_transform,
    gauge_block,
)
from test_screen import adversarial_coords

# huge coordinates overflow the kernel and the smooth gauges to +inf
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

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


def _part(path, rows):
    if path.kind == "symbol":
        return SamplePath(kind="symbol", symbols=path.symbols[rows])
    pick = (lambda a: None if a is None else a[rows])
    return SamplePath(kind=path.kind, coords=path.coords[rows],
                      labels=pick(path.labels), targets=pick(path.targets))


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
    got = _min_gauge_to_path(gauge, _part(path, slice(0, split)), _part(path, slice(split, n)))
    assert np.array_equal(_bits(got), _bits(expected))


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
    dmins, count = _discrete_min(path, queries, limits, keep, skip_self)
    assert np.array_equal(_bits(distance_transform(gauge)(dmins)), _bits(expected))
    assert count == queries.size
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
    mins, naive_count = _naive_mins(gauge, path, queries, limits, keep, skip_self)
    assert np.array_equal(_bits(mins), _bits(expected))
    assert naive_count == count
    if name != "regression":
        labels = path.labels if name == "hinge" else None
        dmins, _, _ = _euclid_min_screened(path.coords, queries, limits, keep=keep,
                                           labels=labels, skip_self=skip_self)
        assert np.array_equal(_bits(distance_transform(gauge)(dmins)), _bits(expected))
    if split is not None:
        _check_truth(gauge, path, split, expected)


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
        "symbol": SamplePath.from_symbols(rng.integers(0, 12, n)),
        "labeled": SamplePath.from_labeled(coords, labels),
        "paired": SamplePath.from_paired(coords, rng.standard_normal(n)),
    }


TABLE_GAUGES = {
    "lipschitz": (GaugeSpec.lipschitz(1.5), "coords"),
    "smooth": (GaugeSpec.smooth(1.5, 0.7), "coords"),
    "local_lipschitz": (GaugeSpec.local_lipschitz_truncated(0.3), "coords"),
    "local_smooth": (GaugeSpec.local_smooth(1.2), "coords"),
    "hinge": (GaugeSpec.hinge_classification(2.0), "labeled"),
    "regression": (GaugeSpec.regression(1.25), "paired"),
    "discrete": (GaugeSpec.discrete(), "symbol"),
    "discrete-coords": (GaugeSpec.discrete(), "coords"),
    "lipschitz-discrete": (GaugeSpec.lipschitz(2.0, metric="discrete"), "symbol"),
}

# (distance_evaluations, screened_pairs) for prefix minima at tau = 2 (n_eff =
# 38), the same with exceptions {1, 5, 37}, and leave-one-out minima, n = 40.
# Naive: the admissible sums 38 * 39 / 2 = 741 and 741 - (37 + 33 + 1) = 670,
# and n (n - 1) = 1560.  Discrete index: one evaluation per query, n_eff or n.
# Screen: the certified screen's own counts on this data, which depend on the
# coordinates and the hinge labels, not on the distance transform.
NAIVE = ((741, 0), (670, 0), (1560, 0))
DISCRETE_INDEX = ((38, 0), (38, 0), (40, 0))
SCREEN = ((1014, 916), (1026, 931), (1214, 1082))
COUNTS = {
    "lipschitz": SCREEN,
    "smooth": SCREEN,
    "local_lipschitz": SCREEN,
    "local_smooth": SCREEN,
    "hinge": ((1256, 1159), (1217, 1123), (1456, 1329)),
    "regression": None,
    "discrete": DISCRETE_INDEX,
    "discrete-coords": DISCRETE_INDEX,
    "lipschitz-discrete": DISCRETE_INDEX,
}


@pytest.mark.parametrize("kind", ["naive", "metric-indexed"])
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
    if expected is None:
        for run in runs:
            with pytest.raises(BackendMismatchError):
                run()
        return
    for run, counts in zip(runs, expected):
        run()
        assert (backend.distance_evaluations, backend.screened_pairs) == counts
        assert type(backend.distance_evaluations) is int
        assert type(backend.screened_pairs) is int
