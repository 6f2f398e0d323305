import numpy as np
import pytest

from gaugebounds import (
    ExceptionSet,
    GaugeSpec,
    PrefixNNBackend,
    SamplePath,
    leave_one_out_min,
    prefix_min_indexed,
    prefix_min_profile,
)
from gaugebounds.processes import EmbeddingSpec, ProcessSpec, embed, simulate


def random_case(rng, gauge_kind, n=96):
    if gauge_kind == "lipschitz":
        return GaugeSpec.lipschitz(2.0), SamplePath.from_coords(rng.random((n, 8)))
    if gauge_kind == "smooth":
        return GaugeSpec.smooth(1.5, 0.7), SamplePath.from_coords(rng.random((n, 3)))
    if gauge_kind == "local_smooth":
        return GaugeSpec.local_smooth(1.2), SamplePath.from_coords(rng.random((n, 2)))
    if gauge_kind == "local_lipschitz":
        return GaugeSpec.local_lipschitz_truncated(0.3), SamplePath.from_coords(rng.random((n, 2)))
    if gauge_kind == "discrete":
        return GaugeSpec.discrete(), SamplePath.from_symbols(rng.integers(0, 20, n))
    if gauge_kind == "lipschitz_discrete":
        return GaugeSpec.lipschitz(3.0, metric="discrete"), SamplePath.from_symbols(rng.integers(0, 10, n))
    return (GaugeSpec.hinge_classification(1.0),
            SamplePath.from_labeled(rng.random((n, 2)), rng.choice([-1, 1], n)))


ALL_KINDS = ("lipschitz", "smooth", "local_smooth", "local_lipschitz",
             "discrete", "lipschitz_discrete", "hinge")


class TestBackendEquivalence:
    def test_naive_backend_is_the_reference(self):
        rng = np.random.default_rng(1)
        path = SamplePath.from_coords(rng.random((50, 4)))
        direct = prefix_min_profile(path, GaugeSpec.lipschitz(1.0), 2)
        via_backend = prefix_min_indexed(path, GaugeSpec.lipschitz(1.0), 2,
                                         backend=PrefixNNBackend.naive())
        assert np.array_equal(direct.mins, via_backend.mins)

    @pytest.mark.parametrize("gauge_kind", ALL_KINDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_indexed_equals_naive_exactly(self, gauge_kind, seed):
        rng = np.random.default_rng(100 * seed + hash(gauge_kind) % 97)
        gauge, path = random_case(rng, gauge_kind)
        tau = int(rng.integers(1, 5))
        naive = prefix_min_indexed(path, gauge, tau, backend=PrefixNNBackend.naive())
        indexed = prefix_min_indexed(path, gauge, tau,
                                     backend=PrefixNNBackend.metric_indexed())
        assert np.array_equal(naive.mins, indexed.mins)

    @pytest.mark.parametrize("seed", range(4))
    def test_equivalence_with_exceptions(self, seed):
        rng = np.random.default_rng(seed)
        n, tau = 80, 2
        path = SamplePath.from_coords(rng.random((n, 4)))
        n_eff = n - tau
        picks = rng.choice(np.arange(1, n_eff), size=9, replace=False)
        exc = ExceptionSet(indices=tuple(int(i) for i in picks), n_eff=n_eff)
        gauge = GaugeSpec.lipschitz(1.0)
        a = prefix_min_indexed(path, gauge, tau, exc, PrefixNNBackend.naive())
        b = prefix_min_indexed(path, gauge, tau, exc, PrefixNNBackend.metric_indexed())
        assert np.array_equal(a.mins, b.mins)
        assert a.exceptions == b.exceptions == exc.indices

    def test_duplicate_points_tie_handling(self):
        # only minimum values are contracted, and ties leave them unchanged
        coords = np.array([[0.5, 0.5]] * 10 + [[0.7, 0.1]] * 5)
        path = SamplePath.from_coords(coords)
        gauge = GaugeSpec.lipschitz(1.0)
        a = prefix_min_indexed(path, gauge, 1, backend=PrefixNNBackend.naive())
        b = prefix_min_indexed(path, gauge, 1, backend=PrefixNNBackend.metric_indexed())
        assert np.array_equal(a.mins, b.mins)

    def test_negative_zero_coordinates_agree(self):
        coords = np.array([[0.0], [-0.0], [1.0]])
        path = SamplePath.from_coords(coords)
        gauge = GaugeSpec.discrete()
        a = prefix_min_indexed(path, gauge, 1, backend=PrefixNNBackend.naive())
        b = prefix_min_indexed(path, gauge, 1, backend=PrefixNNBackend.metric_indexed())
        assert np.array_equal(a.mins, b.mins)
        assert a.mins[0] == 0.0   # -0.0 equals 0.0 as a point

    @pytest.mark.parametrize("seed", range(6))
    def test_equivalence_fuzz_across_scales(self, seed):
        # coordinates spanning 18 orders of magnitude, with duplicates and
        # near-duplicates: the pruning slack must never cost exactness
        rng = np.random.default_rng(9000 + seed)
        for trial in range(25):
            n = int(rng.integers(3, 60))
            d = int(rng.integers(1, 6))
            scale = 10.0 ** rng.integers(-9, 10)
            base = rng.standard_normal((n, d)) * scale
            if n > 4:
                base[1] = base[0]
                base[3] = base[2] + rng.standard_normal(d) * scale * 1e-14
            path = SamplePath.from_coords(base)
            gauge = [GaugeSpec.lipschitz(float(rng.uniform(0.1, 10))),
                     GaugeSpec.smooth(float(rng.uniform(0.1, 5)), float(rng.uniform(0.1, 5))),
                     GaugeSpec.local_smooth(float(rng.uniform(0.1, 5))),
                     GaugeSpec.local_lipschitz_truncated(float(scale))][trial % 4]
            tau = int(rng.integers(1, min(4, n)))
            a = prefix_min_indexed(path, gauge, tau, backend=PrefixNNBackend.naive())
            b = prefix_min_indexed(path, gauge, tau, backend=PrefixNNBackend.metric_indexed())
            assert np.array_equal(a.mins, b.mins), (gauge.kind, n, d, scale)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_regression_gauge_on_the_index(self, dim):
        # the product metric takes the naive kernel on the indexed backend:
        # the same minima bit for bit, and the naive counts
        tiny = SamplePath.from_paired([[0.0], [1.0], [2.0]], [0.0, 0.5, 1.0])
        for backend in (PrefixNNBackend.naive(), PrefixNNBackend.metric_indexed()):
            mins = prefix_min_indexed(tiny, GaugeSpec.regression(1.0), 1, backend=backend).mins
            assert mins[0] == pytest.approx(1.5)
        rng = np.random.default_rng(21 + dim)
        n, tau = 60, 2
        path = SamplePath.from_paired(rng.random((n, dim)), rng.standard_normal(n))
        gauge = GaugeSpec.regression(1.5)
        exc = ExceptionSet(indices=(3, 8, 40), n_eff=n - tau)
        runs = (lambda b: prefix_min_indexed(path, gauge, tau, None, b).mins,
                lambda b: prefix_min_indexed(path, gauge, tau, exc, b).mins,
                lambda b: leave_one_out_min(path, gauge, b))
        for run in runs:
            naive, indexed = PrefixNNBackend.naive(), PrefixNNBackend.metric_indexed()
            a, b = run(naive), run(indexed)
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
            assert (indexed.distance_evaluations, indexed.screened_pairs) == \
                (naive.distance_evaluations, 0)

    def test_backend_kinds(self):
        assert PrefixNNBackend.metric_indexed().kind == "indexed"
        with pytest.raises(ValueError, match="'naive' or 'indexed', got 'metric-indexed'"):
            PrefixNNBackend("metric-indexed")


class TestLeaveOneOut:
    def test_example(self):
        path = SamplePath.from_coords([[0.0], [0.1], [0.9]])
        out = leave_one_out_min(path, GaugeSpec.lipschitz(1.0))
        assert np.allclose(out, [0.1, 0.1, 0.8])

    def test_two_identical_points(self):
        path = SamplePath.from_coords([[0.4], [0.4]])
        for backend in (PrefixNNBackend.naive(), PrefixNNBackend.metric_indexed()):
            assert np.array_equal(leave_one_out_min(path, GaugeSpec.lipschitz(1.0), backend),
                                  [0.0, 0.0])

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            leave_one_out_min(SamplePath.from_coords([[0.0]]), GaugeSpec.lipschitz(1.0))

    @pytest.mark.parametrize("gauge_kind", ALL_KINDS)
    def test_indexed_equals_naive(self, gauge_kind):
        rng = np.random.default_rng(hash(gauge_kind) % 211)
        gauge, path = random_case(rng, gauge_kind, n=64)
        a = leave_one_out_min(path, gauge, PrefixNNBackend.naive())
        b = leave_one_out_min(path, gauge, PrefixNNBackend.metric_indexed())
        assert np.array_equal(a, b)

    def test_matches_reference_function(self):
        rng = np.random.default_rng(77)
        path = SamplePath.from_coords(rng.random((30, 2)))
        gauge = GaugeSpec.lipschitz(1.0)
        assert np.array_equal(leave_one_out_min(path, gauge),
                              leave_one_out_min(path, gauge, PrefixNNBackend.metric_indexed()))


class TestTelemetry:
    def test_naive_count_is_sum_of_candidate_sizes(self):
        rng = np.random.default_rng(2)
        n, tau = 60, 3
        path = SamplePath.from_coords(rng.random((n, 2)))
        n_eff = n - tau
        exc = ExceptionSet(indices=(2, 5, 11), n_eff=n_eff)
        backend = PrefixNNBackend.naive()
        prefix_min_indexed(path, GaugeSpec.lipschitz(1.0), tau, exc, backend)
        keep = [i for i in range(n_eff) if i not in exc.indices]
        expected = sum(sum(1 for i in keep if i <= j) for j in range(n_eff))
        assert backend.distance_evaluations == expected

    @pytest.mark.parametrize("exclude", [(), (1, 7, 56)])
    def test_naive_counts_are_the_definitional_pair_counts(self, exclude):
        # row blocking evaluates masked pairs too; the count stays the
        # definition's: n_eff (n_eff + 1) / 2 less the excluded pairs, n (n - 1)
        rng = np.random.default_rng(4)
        n, tau = 300, 3
        n_eff = n - tau
        path = SamplePath.from_coords(rng.random((n, 2)))
        exc = ExceptionSet(indices=exclude, n_eff=n_eff)
        backend = PrefixNNBackend.naive()
        prefix_min_indexed(path, GaugeSpec.lipschitz(1.0), tau, exc, backend)
        expected = n_eff * (n_eff + 1) // 2 - sum(n_eff - i for i in exclude)
        assert backend.distance_evaluations == expected
        leave_one_out_min(path, GaugeSpec.lipschitz(1.0), backend)
        assert backend.distance_evaluations == n * (n - 1)

    def test_discrete_index_count_well_below_quadratic(self):
        spec = ProcessSpec.cycle_chain(16, 0.3, seed=5)
        path = simulate(spec, 64)
        naive, indexed = PrefixNNBackend.naive(), PrefixNNBackend.metric_indexed()
        a = prefix_min_indexed(path, GaugeSpec.discrete(), 2, backend=naive)
        b = prefix_min_indexed(path, GaugeSpec.discrete(), 2, backend=indexed)
        assert np.array_equal(a.mins, b.mins)
        assert indexed.distance_evaluations < 64 * 64 / 2
        assert indexed.distance_evaluations < naive.distance_evaluations

    def test_metric_index_prunes_on_low_dimensional_support(self):
        proc = ProcessSpec.circle_rotation(p=0.01, seed=9)
        path = embed(EmbeddingSpec.fourier(8), simulate(proc, 256))
        naive, indexed = PrefixNNBackend.naive(), PrefixNNBackend.metric_indexed()
        a = prefix_min_indexed(path, GaugeSpec.lipschitz(1.0), 1, backend=naive)
        b = prefix_min_indexed(path, GaugeSpec.lipschitz(1.0), 1, backend=indexed)
        assert np.array_equal(a.mins, b.mins)
        assert indexed.distance_evaluations < 0.5 * naive.distance_evaluations
