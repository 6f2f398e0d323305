import math

import numpy as np
import pytest

from gaugebounds import (
    ClassBounds,
    MixingProfile,
    covering_tail_bound,
    entropy_penalty,
    excess_loss_probability_bound,
    martingale_tail_threshold,
    risk_bound,
    risk_bound_with_exceptions,
)

# high-precision oracle values (mpmath, 40 digits), frozen
THRESH_100_005 = 0.08143244602130115      # e ln(20) / 100
IID_50_HALF = 1.0376833877072744          # 1 + e ln(2) / 50
AZUMA_100_005 = 0.24477468306808165       # sqrt(2 ln(20) / 100)
H_01 = 0.32508297339144824                # 0.1 ln 10 + 0.9 ln(10/9)
EXCEPT_BOUND_EX = 0.9650995853327102      # e (H(0.1) + ln(20)/100)
COVERING_EX = 0.4087549346349359          # 10 / (9 e)


class TestMartingaleTailThreshold:
    def test_frozen_value(self):
        assert martingale_tail_threshold(100, 0.05) == pytest.approx(THRESH_100_005, rel=1e-12)

    def test_vanishes_as_delta_approaches_one(self):
        assert martingale_tail_threshold(100, 1 - 1e-12) < 1e-11

    def test_halves_when_n_doubles(self):
        assert martingale_tail_threshold(200, 0.05) == pytest.approx(
            martingale_tail_threshold(100, 0.05) / 2.0, rel=1e-15)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.2, 1.5])
    def test_delta_domain(self, delta):
        with pytest.raises(ValueError):
            martingale_tail_threshold(100, delta)


class TestExcessLossBound:
    def test_frozen_example(self):
        mix = MixingProfile(tau=1, phi_tau=0.01)
        rep = excess_loss_probability_bound(0.1, mix, n=101, delta=0.05)
        assert rep.total == pytest.approx(0.2 + 0.01 + THRESH_100_005, rel=1e-12)

    def test_trivial_limit(self):
        mix = MixingProfile(tau=1, phi_tau=0.0)
        rep = excess_loss_probability_bound(0.0, mix, n=101, delta=1 - 1e-12)
        assert rep.total < 1e-11 and not rep.vacuous

    def test_iid_example(self):
        rep = excess_loss_probability_bound(0.5, MixingProfile.iid(), n=51, delta=0.5)
        assert rep.total == pytest.approx(IID_50_HALF, rel=1e-12)
        assert rep.vacuous   # a probability bound above 1

    def test_tau_too_large(self):
        with pytest.raises(ValueError, match="tau"):
            excess_loss_probability_bound(0.1, MixingProfile(tau=10, phi_tau=0.1), n=10, delta=0.1)

    def test_gt_domain(self):
        with pytest.raises(ValueError, match="gt_value"):
            excess_loss_probability_bound(1.2, MixingProfile.iid(), n=100, delta=0.1)

    def test_total_is_exact_sum_of_terms(self):
        mix = MixingProfile(tau=3, phi_tau=0.07)
        rep = excess_loss_probability_bound(0.22, mix, n=90, delta=0.13)
        assert rep.total == rep.estimator_term + rep.mixing_term + rep.confidence_term


class TestRiskBound:
    CB = ClassBounds(sup_f=1.0, sup_g=1.0)

    def test_frozen_example(self):
        mix = MixingProfile(tau=1, phi_tau=0.01)
        rep = risk_bound(0.05, self.CB, mix, n=101, delta=0.05)
        assert rep.total == pytest.approx(0.1 + 0.01 + THRESH_100_005, rel=1e-12)

    def test_trivial_limit_both_variants(self):
        mix = MixingProfile(tau=1, phi_tau=0.0)
        for variant in ("martingale", "azuma"):
            rep = risk_bound(0.0, self.CB, mix, n=101, delta=1 - 1e-12, variant=variant)
            assert rep.total < 1e-5

    def test_azuma_crossover(self):
        # with a dominant estimator term the factor-1 variant wins
        mix = MixingProfile(tau=1, phi_tau=0.0)
        mart = risk_bound(0.2, self.CB, mix, n=101, delta=0.05, variant="martingale")
        azu = risk_bound(0.2, self.CB, mix, n=101, delta=0.05, variant="azuma")
        assert mart.total == pytest.approx(0.4 + THRESH_100_005, rel=1e-12)
        assert azu.total == pytest.approx(0.2 + AZUMA_100_005, rel=1e-12)
        assert azu.total < mart.total

    def test_infinite_sups_rejected(self):
        mix = MixingProfile.iid()
        with pytest.raises(ValueError, match="finite"):
            risk_bound(0.1, ClassBounds(sup_f=1.0, sup_g=math.inf), mix, n=100, delta=0.1)
        with pytest.raises(ValueError, match="finite"):
            risk_bound(0.1, ClassBounds(sup_f=math.inf, sup_g=1.0), mix, n=100, delta=0.1)

    def test_monotone_in_inputs(self):
        mix = lambda phi: MixingProfile(tau=2, phi_tau=phi)
        base = risk_bound(0.1, ClassBounds(1.0, 1.0), mix(0.05), n=100, delta=0.1).total
        for g in (0.12, 0.3, 0.7):
            assert risk_bound(g, ClassBounds(1.0, 1.0), mix(0.05), 100, 0.1).total >= base
        for phi in (0.07, 0.2, 0.9):
            assert risk_bound(0.1, ClassBounds(1.0, 1.0), mix(phi), 100, 0.1).total >= base
        for sup_f, sup_g in ((2.0, 1.0), (1.0, 2.0), (3.0, 3.0)):
            assert risk_bound(0.1, ClassBounds(sup_f, sup_g), mix(0.05), 100, 0.1).total >= base
        for delta in (0.05, 0.01, 0.001):
            assert risk_bound(0.1, ClassBounds(1.0, 1.0), mix(0.05), 100, delta).total >= base
        for n in (200, 500, 5000):
            assert risk_bound(0.1, ClassBounds(1.0, 1.0), mix(0.05), n, 0.1).total <= base

    def test_vacuous_flag(self):
        rep = risk_bound(0.9, ClassBounds(1.0, 1.0), MixingProfile.iid(), 20, 0.01)
        assert rep.vacuous and rep.total > 1.0


class TestNonFiniteInputs:
    CB = ClassBounds(sup_f=1.0, sup_g=1.0)

    @pytest.mark.parametrize("g", [math.nan, math.inf, -1.0])
    def test_g_value_rejected_by_name(self, g):
        mix = MixingProfile.iid()
        with pytest.raises(ValueError, match="g_value must be finite and nonnegative"):
            risk_bound(g, self.CB, mix, n=100, delta=0.1)
        with pytest.raises(ValueError, match="g_value must be finite and nonnegative"):
            risk_bound_with_exceptions(g, self.CB, mix, n=100, delta=0.1, alpha=0.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, 0.0, -0.5])
    def test_echoed_t_rejected_by_name(self, t):
        with pytest.raises(ValueError, match="t must be finite and positive"):
            excess_loss_probability_bound(0.1, MixingProfile.iid(), n=100, delta=0.1, t=t)

    def test_gt_value_nan_rejected(self):
        with pytest.raises(ValueError, match="gt_value"):
            excess_loss_probability_bound(math.nan, MixingProfile.iid(), n=100, delta=0.1)

    @pytest.mark.parametrize("sup", [math.nan, -1.0])
    def test_class_sups_rejected_by_name(self, sup):
        with pytest.raises(ValueError, match=rf"^sup_f must be nonnegative \(\+inf allowed\), got {sup}$"):
            ClassBounds(sup_f=sup, sup_g=1.0)
        with pytest.raises(ValueError, match=rf"^sup_g must be nonnegative \(\+inf allowed\), got {sup}$"):
            ClassBounds(sup_f=1.0, sup_g=sup)

    def test_infinite_class_sup_stays_legal(self):
        assert not ClassBounds(sup_f=math.inf, sup_g=1.0).finite

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -0.1, 1.0])
    def test_alpha_rejected_by_name(self, alpha):
        with pytest.raises(ValueError, match=rf"^alpha must lie in \[0, 1\), got {alpha}$"):
            risk_bound_with_exceptions(0.1, self.CB, MixingProfile.iid(), n=100, delta=0.1,
                                       alpha=alpha)

    @pytest.mark.parametrize("t", [math.nan, math.inf, 0.0, -0.5])
    def test_covering_level_rejected_by_name(self, t):
        with pytest.raises(ValueError, match=rf"^t must be finite and positive, got {t}$"):
            covering_tail_bound(10, n=1000, tau=10, t=t, alpha_tau=0.0)


class TestEntropyPenalty:
    def test_h_zero(self):
        assert entropy_penalty(0.0, 100) == (0.0, 0.0)

    def test_h_half_is_ln_two(self):
        h, _ = entropy_penalty(0.5, 100)
        assert abs(h - math.log(2.0)) <= 1e-12

    def test_frozen_example(self):
        h, rest = entropy_penalty(0.1, 100)
        assert h == pytest.approx(H_01, rel=1e-12)
        assert rest == 0.0        # 2 pi 100 >= 1 / 0.09

    def test_small_sample_cap(self):
        # 2 pi N < 1 / (alpha(1-alpha)) switches to the logarithmic cap
        alpha, n_eff = 0.01, 4
        assert 2 * math.pi * n_eff < 1 / (alpha * (1 - alpha))
        _, rest = entropy_penalty(alpha, n_eff)
        assert rest == pytest.approx(math.log(math.pi * n_eff / 2.0) / 2.0, rel=1e-12)

    def test_alpha_domain(self):
        for alpha in (-0.1, 1.0, 1.3):
            with pytest.raises(ValueError):
                entropy_penalty(alpha, 10)


class TestRiskBoundWithExceptions:
    CB = ClassBounds(sup_f=1.0, sup_g=1.0)

    def test_alpha_zero_reduces_to_risk_bound(self):
        # exactly, as the docstring says: same terms, same floats
        rng = np.random.default_rng(13)
        for _ in range(2000):
            tau = int(rng.integers(1, 50))
            n = tau + int(rng.integers(1, 5000))
            mix = MixingProfile(tau=tau, phi_tau=float(rng.random()))
            cb = ClassBounds(sup_f=float(rng.uniform(0.0, 10.0)), sup_g=float(rng.uniform(0.0, 10.0)))
            g, delta = float(rng.uniform(0.0, 5.0)), float(rng.uniform(1e-12, 1.0))
            plain = risk_bound(g, cb, mix, n=n, delta=delta)
            tolerant = risk_bound_with_exceptions(g, cb, mix, n=n, delta=delta, alpha=0.0)
            assert tolerant.confidence_term == plain.confidence_term
            assert tolerant.total == plain.total
            assert tolerant.entropy_term == 0.0

    def test_frozen_example(self):
        mix = MixingProfile(tau=1, phi_tau=0.0)
        rep = risk_bound_with_exceptions(0.0, self.CB, mix, n=101, delta=0.05, alpha=0.1)
        assert rep.total == pytest.approx(EXCEPT_BOUND_EX, rel=1e-12)

    def test_non_integer_exception_count_rejected(self):
        mix = MixingProfile(tau=1, phi_tau=0.0)
        with pytest.raises(ValueError, match=r"^alpha \* n_eff = 1\.5 is not an integer$"):
            risk_bound_with_exceptions(0.0, self.CB, mix, n=101, delta=0.05, alpha=0.015)

    def test_penalty_decreases_to_risk_bound_as_alpha_shrinks(self):
        mix = MixingProfile(tau=1, phi_tau=0.0)
        plain = risk_bound(0.0, self.CB, mix, n=101, delta=0.05).total
        totals = [risk_bound_with_exceptions(0.0, self.CB, mix, 101, 0.05, a).total
                  for a in (0.5, 0.2, 0.1, 0.05, 0.01, 0.0)]
        assert all(x >= y - 1e-15 for x, y in zip(totals, totals[1:]))
        assert totals[-1] == pytest.approx(plain, rel=1e-12)
        assert all(t >= plain - 1e-15 for t in totals)

    def test_total_is_exact_sum_of_terms(self):
        mix = MixingProfile(tau=1, phi_tau=0.02)
        rep = risk_bound_with_exceptions(0.04, self.CB, mix, n=51, delta=0.1, alpha=0.1)
        assert rep.total == (rep.estimator_term + rep.mixing_term
                             + rep.confidence_term + rep.entropy_term)


class TestCoveringTailBound:
    def test_frozen_example(self):
        got = covering_tail_bound(10, n=1000, tau=10, t=0.2, alpha_tau=0.0)
        assert got == pytest.approx(COVERING_EX, rel=1e-12)

    def test_vacuous_when_horizon_too_short(self):
        assert covering_tail_bound(10, n=10, tau=10, t=0.2, alpha_tau=0.0) == math.inf
        assert covering_tail_bound(10, n=100, tau=10, t=0.38, alpha_tau=0.0) == math.inf

    def test_mixing_term_alone_can_exceed_one(self):
        got = covering_tail_bound(1, n=10**6, tau=1, t=0.2, alpha_tau=1.0)
        assert got > 1.0

    def test_nonincreasing_in_n_without_mixing(self):
        vals = [covering_tail_bound(50, n=n, tau=5, t=0.3, alpha_tau=0.0)
                for n in (100, 200, 400, 1000, 5000)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_float_noise_does_not_flip_ceil(self):
        # 1000 * 0.2 / 20 is 10.000000000000002 in floats; must act as 10
        got = covering_tail_bound(10, n=1000, tau=10, t=0.2, alpha_tau=1.0)
        assert got == pytest.approx(10 / (math.e * 9) + 10.0, rel=1e-12)


class TestCoveringIntegration:
    def test_greedy_cover_feeds_the_tail_bound(self):
        # estimate the support's cover count from points, then bound the tail
        from gaugebounds import GaugeSpec, SamplePath, greedy_cover

        rng = np.random.default_rng(12)
        support_points = SamplePath.from_coords(rng.random((200, 1)))
        t = 0.2
        cover = greedy_cover(support_points, GaugeSpec.lipschitz(1.0), t / 2.0)
        val = covering_tail_bound(cover.n_parts, n=50_000, tau=10, t=t, alpha_tau=1e-6)
        assert 0.0 < val < 1.0   # informative at this sample size
        tighter = covering_tail_bound(cover.n_parts, n=500_000, tau=10, t=t, alpha_tau=1e-6)
        assert tighter < val


class TestMixingProfile:
    def test_alpha_defaults_to_phi(self):
        mix = MixingProfile(tau=3, phi_tau=0.2)
        assert mix.alpha_tau == 0.2

    def test_alpha_cannot_exceed_phi(self):
        with pytest.raises(ValueError, match="alpha"):
            MixingProfile(tau=1, phi_tau=0.1, alpha_tau=0.2)

    def test_iid_profile(self):
        mix = MixingProfile.iid()
        assert mix.phi_tau == 0.0 and mix.alpha_tau == 0.0 and mix.tau == 1

    def test_class_bounds_validation(self):
        with pytest.raises(ValueError):
            ClassBounds(sup_f=-1.0, sup_g=1.0)
        assert not ClassBounds(sup_f=math.inf, sup_g=1.0).finite
