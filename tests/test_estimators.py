import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugebounds import (
    EmptyPrefixError,
    ExceptionSet,
    FiniteSupport,
    GaugeSpec,
    InfiniteGaugeError,
    PrefixGaugeProfile,
    SamplePath,
    SamplerOracle,
    good_turing,
    leave_one_out_min,
    missing_mass_G,
    missing_mass_Gt,
    prefix_min_profile,
    true_missing_mass,
)

LIP = GaugeSpec.lipschitz(1.0)


def line_path(*xs):
    return SamplePath.from_coords([[x] for x in xs])


class TestPrefixMinProfile:
    def test_hand_checkable_example(self):
        profile = prefix_min_profile(line_path(0, 1, 0.5, 0.25), LIP, tau=1)
        assert np.array_equal(profile.mins, [1.0, 0.5, 0.25])

    def test_constant_path_gives_zeros(self):
        for gauge, path in [
            (LIP, line_path(0.3, 0.3, 0.3, 0.3)),
            (GaugeSpec.discrete(), SamplePath.from_symbols([5, 5, 5])),
        ]:
            profile = prefix_min_profile(path, gauge, tau=1)
            assert np.array_equal(profile.mins, np.zeros(len(profile.mins)))

    def test_excluding_first_point_is_an_error(self):
        path = line_path(0, 1, 0.5, 0.25)
        exc = ExceptionSet(indices=(0,), n_eff=3)
        with pytest.raises(EmptyPrefixError, match="position 1"):
            prefix_min_profile(path, LIP, tau=1, exceptions=exc)

    def test_exclusion_respected(self):
        # dropping the nearest candidate raises the minimum
        path = line_path(0, 1, 0.9)
        base = prefix_min_profile(path, LIP, tau=1)
        assert base.mins[1] == pytest.approx(0.1)
        excl = prefix_min_profile(path, LIP, tau=1,
                                  exceptions=ExceptionSet(indices=(1,), n_eff=2))
        assert excl.mins[1] == pytest.approx(0.9)

    def test_tau_must_be_small(self):
        with pytest.raises(ValueError, match="tau"):
            prefix_min_profile(line_path(0, 1), LIP, tau=2)

    def test_larger_gap_shrinks_candidates(self):
        path = line_path(0, 1, 0.5, 0.25)
        profile = prefix_min_profile(path, LIP, tau=2)
        # entries for positions 2, 3 against prefixes {0}, {0,1}
        assert np.allclose(profile.mins, [0.5, 0.25])

    @pytest.mark.parametrize("seed", range(5))
    def test_growing_exceptions_never_shrink_minima(self, seed):
        rng = np.random.default_rng(seed)
        n, tau = 40, 2
        path = SamplePath.from_coords(rng.random((n, 2)))
        n_eff = n - tau
        small = set(int(i) for i in rng.choice(np.arange(1, n_eff), size=4, replace=False))
        big = small | {int(i) for i in rng.choice(np.arange(1, n_eff), size=6, replace=False)}
        mins_small = prefix_min_profile(
            path, LIP, tau, ExceptionSet(indices=tuple(small), n_eff=n_eff)).mins
        mins_big = prefix_min_profile(
            path, LIP, tau, ExceptionSet(indices=tuple(big), n_eff=n_eff)).mins
        assert (mins_big >= mins_small).all()

    def test_infinite_entries_allowed_in_profile(self):
        # labels force +inf where no same-label candidate exists yet
        path = SamplePath.from_labeled([[0.0], [1.0], [0.5]], [1, -1, -1])
        profile = prefix_min_profile(path, GaugeSpec.hinge_classification(1.0), tau=1)
        assert profile.mins[0] == math.inf
        assert profile.mins[1] == pytest.approx(0.5)


class TestSummaries:
    def test_g_example(self):
        profile = prefix_min_profile(line_path(0, 1, 0.5, 0.25), LIP, tau=1)
        assert missing_mass_G(profile) == pytest.approx(7.0 / 12.0, rel=1e-15)

    def test_g_zero(self):
        profile = prefix_min_profile(line_path(0.2, 0.2, 0.2), LIP, tau=1)
        assert missing_mass_G(profile) == 0.0

    def test_g_rejects_infinite_entries(self):
        profile = PrefixGaugeProfile(n=3, tau=1, exceptions=(),
                                     mins=np.array([0.5, math.inf]))
        with pytest.raises(InfiniteGaugeError, match="missing_mass_Gt"):
            missing_mass_G(profile)

    def test_gt_examples(self):
        profile = PrefixGaugeProfile(n=4, tau=1, exceptions=(),
                                     mins=np.array([1.0, 0.5, 0.25]))
        assert missing_mass_Gt(profile, 0.4) == pytest.approx(2.0 / 3.0)
        assert missing_mass_Gt(profile, 1.0) == 0.0     # strict exceedance
        assert missing_mass_Gt(profile, 2.0) == 0.0

    def test_gt_counts_infinities(self):
        profile = PrefixGaugeProfile(n=3, tau=1, exceptions=(),
                                     mins=np.array([0.1, math.inf]))
        assert missing_mass_Gt(profile, 1e9) == pytest.approx(0.5)

    def test_gt_monotone_in_t(self):
        rng = np.random.default_rng(0)
        profile = PrefixGaugeProfile(n=51, tau=1, exceptions=(), mins=rng.random(50))
        ts = np.linspace(0.01, 1.2, 40)
        vals = [missing_mass_Gt(profile, t) for t in ts]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_gt_needs_positive_t(self):
        profile = PrefixGaugeProfile(n=2, tau=1, exceptions=(), mins=np.array([0.1]))
        with pytest.raises(ValueError):
            missing_mass_Gt(profile, 0.0)


def step_integral(profile) -> float:
    """Integral of t -> missing_mass_Gt(profile, t), exact for step functions."""
    levels = np.unique(profile.mins)
    levels = levels[levels > 0]
    total, prev = 0.0, 0.0
    for v in levels:
        total += (v - prev) * missing_mass_Gt(profile, (prev + v) / 2.0)
        prev = v
    return total


class TestIntegralIdentity:
    @pytest.mark.parametrize("seed", range(10))
    def test_g_equals_integral_of_gt(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 120))
        mins = rng.random(n - 1) * rng.choice([0.1, 1.0, 10.0])
        mins[rng.random(n - 1) < 0.1] = 0.0
        profile = PrefixGaugeProfile(n=n, tau=1, exceptions=(), mins=mins)
        assert abs(missing_mass_G(profile) - step_integral(profile)) <= 1e-12


class TestGoodTuring:
    def test_example(self):
        assert good_turing(line_path(0, 0.1, 0.9), LIP, 0.2) == pytest.approx(1.0 / 3.0)

    def test_identical_points(self):
        assert good_turing(line_path(0.5, 0.5, 0.5), LIP, 0.1) == 0.0

    def test_two_isolated_points(self):
        assert good_turing(line_path(0.0, 1.0), LIP, 0.5) == 1.0

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            good_turing(line_path(0.0), LIP, 0.5)

    def test_needs_metric_gauge(self):
        with pytest.raises(ValueError, match="metric"):
            good_turing(line_path(0, 1), GaugeSpec.smooth(1.0, 1.0), 0.5)

    def test_leave_one_out_example(self):
        loo = leave_one_out_min(line_path(0, 0.1, 0.9), LIP)
        assert np.allclose(loo, [0.1, 0.1, 0.8])

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_never_exceeds_prefix_rate(self, data):
        # leave-one-out isolation <= prefix isolation (tau=1, no exceptions)
        n = data.draw(st.integers(min_value=2, max_value=24))
        xs = data.draw(st.lists(
            st.floats(min_value=0, max_value=1, allow_nan=False),
            min_size=n, max_size=n))
        t = data.draw(st.floats(min_value=1e-3, max_value=1.5))
        path = line_path(*xs)
        gt_rate = missing_mass_Gt(prefix_min_profile(path, LIP, 1), t)
        assert good_turing(path, LIP, t) <= gt_rate + 1e-15

    def test_never_exceeds_prefix_rate_discrete(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            path = SamplePath.from_symbols(rng.integers(0, 6, size=int(rng.integers(2, 30))))
            gauge = GaugeSpec.discrete()
            gt_rate = missing_mass_Gt(prefix_min_profile(path, gauge, 1), 0.5)
            assert good_turing(path, gauge, 0.5) <= gt_rate + 1e-15


class TestTrueMissingMass:
    def uniform_symbols(self, m):
        return FiniteSupport(support=SamplePath.from_symbols(range(m)),
                             probs=np.full(m, 1.0 / m))

    def test_full_coverage_is_exactly_zero(self):
        path = SamplePath.from_symbols(list(range(10)))
        est = true_missing_mass(path, GaugeSpec.discrete(), 0.5, self.uniform_symbols(10))
        assert est.value == 0.0 and est.exact and est.std_error == 0.0

    def test_partial_coverage_enumerates_missing_states(self):
        path = SamplePath.from_symbols([0, 1, 2, 3, 4, 5, 6, 2, 1])
        est = true_missing_mass(path, GaugeSpec.discrete(), 0.5, self.uniform_symbols(10))
        assert est.value == pytest.approx(0.3)

    def test_monte_carlo_consistent_across_reruns(self):
        rng_path = np.random.default_rng(5)
        path = SamplePath.from_coords(rng_path.random((40, 1)))
        oracle = SamplerOracle(draw=lambda rng, m: SamplePath.from_coords(rng.random((m, 1))))
        a = true_missing_mass(path, LIP, 0.005, oracle, n_mc=4000,
                              rng=np.random.default_rng(1))
        b = true_missing_mass(path, LIP, 0.005, oracle, n_mc=4000,
                              rng=np.random.default_rng(2))
        gap = abs(a.value - b.value)
        assert gap <= 3.0 * (a.std_error + b.std_error) + 1e-12
        assert not a.exact

    def test_monte_carlo_needs_rng_and_draws(self):
        oracle = SamplerOracle(draw=lambda rng, m: SamplePath.from_coords(rng.random((m, 1))))
        with pytest.raises(ValueError, match="n_mc"):
            true_missing_mass(line_path(0.0), LIP, 0.1, oracle, n_mc=0,
                              rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="rng"):
            true_missing_mass(line_path(0.0), LIP, 0.1, oracle, n_mc=10)

    @pytest.mark.parametrize("probs", [[0.5, math.nan, 0.5], [math.nan] * 3,
                                       [math.inf, 0.0, 0.0], [0.5, 0.6, -0.1]])
    def test_support_probabilities_must_be_a_distribution(self, probs):
        # a NaN would make the missing mass NaN, and no bound comparison fails on NaN
        with pytest.raises(ValueError, match="probs must be nonnegative and sum to 1"):
            FiniteSupport(support=SamplePath.from_symbols([0, 1, 2]), probs=probs)

    def test_lipschitz_class_supremum_identity(self):
        # the scaled gap-to-path function attains the excess-loss supremum:
        # checking it is L-Lipschitz and that its isolation probability equals
        # the missing mass at the matching radius, exactly, on finite support
        m, L, t = 12, 2.0, 0.7
        rng = np.random.default_rng(8)
        support_coords = rng.random((m, 1)) * 3.0
        support = SamplePath.from_coords(support_coords)
        probs = rng.random(m)
        probs /= probs.sum()
        sample_idx = [0, 3, 5, 5, 9]
        sample = SamplePath.from_coords(support_coords[sample_idx])

        def witness(z):
            return L * min(abs(z - float(c)) for c in sample.coords[:, 0])

        vals = np.array([witness(float(z)) for z in support.coords[:, 0]])
        pair_d = np.abs(support_coords - support_coords.T)
        assert (np.abs(vals[:, None] - vals[None, :]) <= L * pair_d + 1e-12).all()
        max_on_sample = max(witness(float(z)) for z in sample.coords[:, 0])
        assert max_on_sample == 0.0
        sup_side = float(probs[vals > max_on_sample + t].sum())
        gauge = GaugeSpec.lipschitz(1.0)
        mm = true_missing_mass(sample, gauge, t / L, FiniteSupport(support=support, probs=probs))
        assert sup_side == pytest.approx(mm.value, abs=0)


@pytest.mark.parametrize("t", [math.nan, math.inf, 0.0])
def test_thresholds_must_be_finite_and_positive(t):
    path = line_path(0.0, 0.1, 0.9)
    with pytest.raises(ValueError, match="t must be finite and positive"):
        missing_mass_Gt(prefix_min_profile(path, LIP, 1), t)
    with pytest.raises(ValueError, match="threshold must be finite and positive"):
        good_turing(path, LIP, t)
    support = FiniteSupport(support=line_path(0.0, 0.5), probs=np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="t must be finite and positive"):
        true_missing_mass(path, LIP, t, support)


class TestExceptionSet:
    def test_alpha(self):
        exc = ExceptionSet(indices=(1, 4), n_eff=8)
        assert exc.alpha == 0.25

    def test_outlier_pipeline_end_to_end(self):
        # observed penalties select the exception set, the profile respects
        # it, and the exception-tolerant bound consumes the resulting G
        from gaugebounds import (ClassBounds, FunctionSample, MixingProfile,
                                 eval_phi, risk_bound, risk_bound_with_exceptions)

        rng = np.random.default_rng(21)
        n, tau = 52, 2
        path = SamplePath.from_coords(rng.random((n, 1)))
        n_eff = n - tau
        values = rng.random(n_eff) * 0.05
        values[[7, 19, 30, 41, 44]] = 5.0   # corrupted observations
        fs = FunctionSample(values=values)
        phi = np.array([eval_phi(LIP, fs, i) for i in range(n_eff)])
        exc = ExceptionSet.worst_phi(phi, alpha=5 / n_eff)
        assert set(exc.indices) == {7, 19, 30, 41, 44}
        g_exc = missing_mass_G(prefix_min_profile(path, LIP, tau, exc))
        g_all = missing_mass_G(prefix_min_profile(path, LIP, tau))
        assert g_exc >= g_all
        mix = MixingProfile(tau=tau, phi_tau=0.0)
        cb = ClassBounds(sup_f=6.0, sup_g=2.0)
        tolerant = risk_bound_with_exceptions(g_exc, cb, mix, n, 0.05, exc.alpha)
        plain = risk_bound(g_all, cb, mix, n, 0.05)
        assert tolerant.total > plain.total   # the entropy penalty is the price
        assert tolerant.entropy_term > 0

    def test_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            ExceptionSet(indices=(1, 1), n_eff=4)
        with pytest.raises(ValueError, match="lie in"):
            ExceptionSet(indices=(5,), n_eff=4)

    def test_worst_phi_selection(self):
        phi = np.array([0.1, 0.9, 0.3, 0.9, 0.2])
        exc = ExceptionSet.worst_phi(phi, alpha=0.4)
        assert exc.indices == (1, 3)   # stable tie-break toward the earlier index

    def test_worst_phi_fraction_must_scale_to_integer(self):
        with pytest.raises(ValueError, match="integer"):
            ExceptionSet.worst_phi(np.array([0.1, 0.2, 0.3]), alpha=0.5)
