import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugebounds import (
    FunctionSample,
    GaugeSpec,
    Point,
    SamplePath,
    eval_gauge,
    eval_phi,
    gauge_diameter,
    greedy_cover,
    pairwise_gauge,
)

finite_floats = st.floats(min_value=-10, max_value=10, allow_nan=False)


def symmetric_gauges():
    return [
        GaugeSpec.lipschitz(2.0),
        GaugeSpec.lipschitz(1.5, metric="discrete"),
        GaugeSpec.discrete(),
        GaugeSpec.smooth(gamma=1.3, lam=0.8),
        GaugeSpec.local_smooth(c=0.9),
        GaugeSpec.local_lipschitz_truncated(r0=3.0),
    ]


class TestEvalGauge:
    def test_lipschitz_euclidean(self):
        g = GaugeSpec.lipschitz(2.0)
        assert eval_gauge(g, Point.dense([0.0, 0.0]), Point.dense([3.0, 4.0])) == 10.0

    def test_hinge_label_mismatch_is_infinite(self):
        g = GaugeSpec.hinge_classification(1.0)
        y = Point.with_label([0.5, 0.5], -1)
        x = Point.with_label([0.5, 0.5], +1)
        assert eval_gauge(g, y, x) == math.inf

    def test_hinge_same_label_scales_distance(self):
        g = GaugeSpec.hinge_classification(2.0)
        y = Point.with_label([0.0], 1)
        x = Point.with_label([3.0], 1)
        assert eval_gauge(g, y, x) == 6.0

    def test_regression_product_form(self):
        g = GaugeSpec.regression(2.0)
        y = Point.with_target([0.0], 1.0)
        x = Point.with_target([3.0], -0.5)
        assert eval_gauge(g, y, x) == pytest.approx(2.0 * 3.0 + 1.5, rel=1e-15)

    def test_local_lipschitz_truncates(self):
        g = GaugeSpec.local_lipschitz_truncated(0.5)
        assert eval_gauge(g, Point.dense([0.0]), Point.dense([0.4])) == pytest.approx(0.4)
        assert eval_gauge(g, Point.dense([0.0]), Point.dense([0.6])) == math.inf

    @pytest.mark.parametrize("gauge,y,x", [
        (GaugeSpec.lipschitz(1.0), Point.dense([1.0, 2.0]), Point.dense([1.0, 2.0])),
        (GaugeSpec.discrete(), Point.discrete(4), Point.discrete(4)),
        (GaugeSpec.smooth(1.0, 1.0), Point.dense([0.3]), Point.dense([0.3])),
        (GaugeSpec.local_smooth(1.0), Point.dense([0.3]), Point.dense([0.3])),
        (GaugeSpec.local_lipschitz_truncated(1.0), Point.dense([0.3]), Point.dense([0.3])),
        (GaugeSpec.hinge_classification(1.0),
         Point.with_label([0.1], 1), Point.with_label([0.1], 1)),
        (GaugeSpec.regression(1.0),
         Point.with_target([0.1], 2.0), Point.with_target([0.1], 2.0)),
    ])
    def test_zero_iff_equal(self, gauge, y, x):
        assert eval_gauge(gauge, y, x) == 0.0

    def test_positive_when_different(self):
        # labels differ but coords agree: still a different point, gauge > 0
        g = GaugeSpec.hinge_classification(1.0)
        assert eval_gauge(g, Point.with_label([0.1], 1), Point.with_label([0.1], -1)) > 0
        assert eval_gauge(GaugeSpec.discrete(), Point.discrete(1), Point.discrete(2)) == 1.0

    def test_variant_mismatch(self):
        with pytest.raises(ValueError, match="variant"):
            eval_gauge(GaugeSpec.discrete(), Point.discrete(1), Point.dense([1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="imension"):
            eval_gauge(GaugeSpec.lipschitz(1.0), Point.dense([1.0]), Point.dense([1.0, 2.0]))

    def test_gauge_needs_matching_path_kind(self):
        with pytest.raises(ValueError, match="variant"):
            eval_gauge(GaugeSpec.lipschitz(1.0), Point.discrete(0), Point.discrete(1))


class TestGaugeProperties:
    @given(a=st.tuples(finite_floats, finite_floats), b=st.tuples(finite_floats, finite_floats))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_of_symmetric_variants(self, a, b):
        pa, pb = Point.dense(a), Point.dense(b)
        for gauge in (GaugeSpec.lipschitz(2.0), GaugeSpec.smooth(1.3, 0.8),
                      GaugeSpec.local_smooth(0.9), GaugeSpec.local_lipschitz_truncated(3.0)):
            assert eval_gauge(gauge, pa, pb) == eval_gauge(gauge, pb, pa)

    @given(a=finite_floats, b=finite_floats)
    @settings(max_examples=200, deadline=None)
    def test_smooth_is_scaled_squared_lipschitz(self, a, b):
        gamma, lam = 1.7, 0.4
        smooth = GaugeSpec.smooth(gamma, lam)
        base = GaugeSpec.lipschitz(1.0)
        pa, pb = Point.dense([a]), Point.dense([b])
        d = eval_gauge(base, pa, pb)
        expected = (1.0 + lam) * (gamma / 2.0) * d * d
        assert eval_gauge(smooth, pa, pb) == pytest.approx(expected, rel=1e-12, abs=1e-300)

    @given(d=st.floats(min_value=0, max_value=5, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_local_smooth_matches_young_construction(self, d):
        # g = (1/q) (rho(d) d)^q with rho(r) = c (1 + r^2), q = 2
        c = 1.4
        gauge = GaugeSpec.local_smooth(c)
        got = eval_gauge(gauge, Point.dense([0.0]), Point.dense([d]))
        expected = 0.5 * (c * (1.0 + d * d) * d) ** 2
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_base_metric_checked(self):
        with pytest.raises(ValueError, match="base metric must be"):
            GaugeSpec.lipschitz(1.0, metric="manhattan")
        for kind in ("smooth", "regression", "hinge", "local_lipschitz"):
            with pytest.raises(ValueError, match=f"discrete base metric, not '{kind}'"):
                GaugeSpec(kind=kind, metric="discrete")

    @pytest.mark.parametrize("fields, name", [
        ({"kind": "lipschitz", "L": -1.0}, "L"),
        ({"kind": "regression"}, "L"),
        ({"kind": "hinge", "L": math.inf}, "L"),
        ({"kind": "smooth", "gamma": 1.0}, "lam"),
        ({"kind": "local_lipschitz", "r0": math.nan}, "r0"),
        ({"kind": "local_smooth", "c": 0.0}, "c"),
    ])
    def test_direct_construction_checks_parameters(self, fields, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive, got "):
            GaugeSpec(**fields)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="^unknown gauge kind 'tv'$"):
            GaugeSpec(kind="tv")

    def test_sup_gauge(self):
        assert GaugeSpec.discrete().sup_gauge(7.0) == 1.0
        assert GaugeSpec.lipschitz(2.0).sup_gauge(3.0) == 6.0
        assert GaugeSpec.smooth(2.0, 1.0).sup_gauge(2.0) == 8.0
        assert GaugeSpec.hinge_classification(1.0).sup_gauge(1.0) == math.inf
        assert GaugeSpec.local_lipschitz_truncated(0.5).sup_gauge(1.0) == math.inf

    def test_infinite_variants_flagged(self):
        assert GaugeSpec.hinge_classification(1.0).takes_infinite_values
        assert GaugeSpec.local_lipschitz_truncated(1.0).takes_infinite_values
        assert not GaugeSpec.lipschitz(1.0).takes_infinite_values


class TestEvalPhi:
    def test_lipschitz_is_evaluation(self):
        fs = FunctionSample(values=np.array([0.1, 0.7]))
        assert eval_phi(GaugeSpec.lipschitz(1.0), fs, 1) == 0.7

    def test_smooth_scales_evaluation(self):
        fs = FunctionSample(values=np.array([0.5]))
        assert eval_phi(GaugeSpec.smooth(1.0, 1.0), fs, 0) == 1.0

    def test_local_smooth_second_order(self):
        fs = FunctionSample(values=np.array([0.0]), grad_norms=np.array([0.0]),
                            local_smoothness=np.array([0.8]))
        assert eval_phi(GaugeSpec.local_smooth(1.0), fs, 0) == pytest.approx(0.02, rel=1e-12)

    def test_local_lipschitz_adds_half_square(self):
        fs = FunctionSample(values=np.array([0.3]), local_lipschitz=np.array([0.4]))
        got = eval_phi(GaugeSpec.local_lipschitz_truncated(1.0), fs, 0)
        assert got == pytest.approx(0.3 + 0.08, rel=1e-12)

    def test_missing_arrays_error(self):
        fs = FunctionSample(values=np.array([0.5]))
        with pytest.raises(ValueError, match="local_lipschitz"):
            eval_phi(GaugeSpec.local_lipschitz_truncated(1.0), fs, 0)
        with pytest.raises(ValueError, match="grad_norms"):
            eval_phi(GaugeSpec.local_smooth(1.0), fs, 0)

    def test_zero_value_forces_zero_gradient(self):
        fs = FunctionSample(values=np.array([0.0]), grad_norms=np.array([0.5]),
                            local_smoothness=np.array([1.0]))
        with pytest.raises(ValueError, match="gradient"):
            eval_phi(GaugeSpec.local_smooth(1.0), fs, 0)


def exact_min_cover(dist: np.ndarray, eps: float) -> int:
    """Exhaustive minimal partition into parts of pairwise gauge <= eps."""
    n = dist.shape[0]
    full = (1 << n) - 1
    members = [[i for i in range(n) if mask >> i & 1] for mask in range(full + 1)]
    ok = [
        all(dist[a, b] <= eps and dist[b, a] <= eps for a in ms for b in ms)
        for ms in members
    ]
    best = [0] + [n + 1] * full
    for mask in range(1, full + 1):
        low = mask & -mask
        sub = mask
        while sub:
            if sub & low and ok[sub]:
                cand = best[mask ^ sub] + 1
                if cand < best[mask]:
                    best[mask] = cand
            sub = (sub - 1) & mask
    return best[full]


class TestGreedyCover:
    def test_singleton(self):
        cover = greedy_cover(SamplePath.from_coords([[0.0]]), GaugeSpec.lipschitz(1.0), 0.1)
        assert cover.n_parts == 1

    def test_discrete_alphabet_needs_singletons(self):
        path = SamplePath.from_symbols(range(7))
        cover = greedy_cover(path, GaugeSpec.discrete(), 0.5)
        assert cover.n_parts == 7

    def test_three_points_on_line(self):
        path = SamplePath.from_coords([[0.0], [0.5], [1.0]])
        cover = greedy_cover(path, GaugeSpec.lipschitz(1.0), 0.6)
        assert cover.n_parts == 2
        assert exact_min_cover(pairwise_gauge(GaugeSpec.lipschitz(1.0), path), 0.6) == 2

    def test_accepts_point_lists(self):
        pts = [Point.dense([0.0]), Point.dense([0.05])]
        assert greedy_cover(pts, GaugeSpec.lipschitz(1.0), 0.1).n_parts == 1

    def test_bad_eps(self):
        path = SamplePath.from_coords(np.random.default_rng(3).random((10, 1)))
        for eps in (0.0, -1.0, -math.inf, math.nan):
            with pytest.raises(ValueError, match="eps must be positive"):
                greedy_cover(path, GaugeSpec.lipschitz(1.0), eps)

    def test_infinite_eps_is_one_part(self):
        path = SamplePath.from_coords(np.random.default_rng(3).random((10, 1)))
        assert greedy_cover(path, GaugeSpec.lipschitz(1.0), math.inf).n_parts == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_against_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 11))
        path = SamplePath.from_coords(rng.random((n, 2)))
        gauge = GaugeSpec.lipschitz(1.0)
        eps = float(rng.uniform(0.05, 0.9))
        cover = greedy_cover(path, gauge, eps)
        dist = pairwise_gauge(gauge, path)
        # the greedy count never beats the exhaustive minimum
        assert cover.n_parts >= exact_min_cover(dist, eps)
        # and every part really has gauge-diameter <= eps
        for part in range(cover.n_parts):
            idx = np.flatnonzero(cover.assignment == part)
            assert dist[np.ix_(idx, idx)].max() <= eps

    def test_assignment_covers_everything(self):
        rng = np.random.default_rng(10)
        path = SamplePath.from_coords(rng.random((20, 3)))
        cover = greedy_cover(path, GaugeSpec.lipschitz(1.0), 0.4)
        assert (cover.assignment >= 0).all()
        assert cover.assignment.max() == cover.n_parts - 1


class TestSamplePath:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            SamplePath.from_coords([[0.0], [float("nan")]])

    def test_rejects_negative_symbols(self):
        with pytest.raises(ValueError):
            SamplePath.from_symbols([1, -2])

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="label"):
            SamplePath.from_labeled([[0.0]], [2])

    def test_mixed_variant_points_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            SamplePath.from_points([Point.dense([0.0]), Point.discrete(1)])

    def test_arrays_are_immutable(self):
        path = SamplePath.from_coords([[1.0, 2.0]])
        with pytest.raises(ValueError):
            path.coords[0, 0] = 5.0

    def test_head(self):
        path = SamplePath.from_coords([[0.0], [1.0], [2.0]])
        assert np.array_equal(path.head(2).coords.ravel(), [0.0, 1.0])

    def test_point_round_trip(self):
        path = SamplePath.from_labeled([[0.5, 1.5]], [-1])
        p = path.point(0)
        assert p.kind == "labeled" and p.label == -1 and p.coords == (0.5, 1.5)


def test_gauge_diameter():
    path = SamplePath.from_coords([[0.0], [3.0], [1.0]])
    assert gauge_diameter(GaugeSpec.lipschitz(2.0), path) == 6.0
