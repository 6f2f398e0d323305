import logging
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugebounds import (
    GaugeSpec,
    IidBernoulli,
    MarkovModulatedBernoulli,
    ProcessSpec,
    decay_study,
    validate_excess_loss_coverage,
    validate_good_turing,
    validate_martingale_tail,
)
from gaugebounds.estimators import _ordered_mean, prefix_min_profile
from gaugebounds.processes import EmbeddingSpec, embed, simulate
from gaugebounds.verify import _binomial_tail, _trial_seeds, binomial_pass


def exact_tail(v: int, n: int, p: float) -> Fraction:
    """P[Binomial(n, p) >= v] summed term by term in exact rationals."""
    a, b = Fraction(p).as_integer_ratio()
    total, c_power = 0, 1
    for i in range(n, max(v, 0) - 1, -1):
        total += math.comb(n, i) * a ** i * c_power
        c_power *= b - a
    return Fraction(total, b ** n)


_TARGETS = st.one_of(st.sampled_from([0.0, 1.0, 1e-300, 0.05, 0.5, 0.999]),
                     st.floats(0.0, 1.0))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 400), p=_TARGETS)
def test_binomial_tail_is_the_correctly_rounded_exact_sum(data, n, p):
    v = data.draw(st.integers(-1, n + 1), label="v")
    assert _binomial_tail(v, n, p) == float(exact_tail(v, n, p))


class TestBinomialTail:
    def test_underflow_to_subnormal_and_zero(self):
        tiny = 2.2250738585072014e-308
        cases = [(2, 2, 1e-160), (1074, 1074, 0.5), (1075, 1075, 0.5), (2, 2, 1e-300),
                 (3, 3, 1e-108), (1, 3, 1e-300), (60, 60, 2.0 ** -17)]
        for v, n, p in cases:
            assert _binomial_tail(v, n, p) == float(exact_tail(v, n, p))
        assert 0.0 < _binomial_tail(2, 2, 1e-160) < tiny
        assert _binomial_tail(1074, 1074, 0.5) == 5e-324
        # 2^-1075 lies halfway between 0 and the smallest subnormal: ties to even
        assert _binomial_tail(1075, 1075, 0.5) == 0.0
        assert _binomial_tail(2, 2, 1e-300) == 0.0

    def test_exact_ties_between_doubles(self):
        # tails of Binomial(n, 1/2) whose exact value is the midpoint of two
        # adjacent doubles: only the full exact sum rounds them correctly
        ties = 0
        for n in range(54, 64):
            numerator = 0
            for v in range(n, 0, -1):
                numerator += math.comb(n, v)
                odd = numerator >> ((numerator & -numerator).bit_length() - 1)
                if odd.bit_length() == 54:
                    ties += 1
                    assert _binomial_tail(v, n, 0.5) == float(exact_tail(v, n, 0.5))
        assert ties > 0

    @pytest.mark.parametrize("v, n, p", [(551, 10_000, 0.05), (449, 10_000, 0.05),
                                         (10_160, 20_000, 0.5)])
    def test_large_n_matches_exact_recurrence(self, v, n, p):
        # 1 - P[X < v], from exact integer terms C(n, i) a^i c^(n-i) for
        # i = v - 1 down to 0, each from the one after it by an exact division
        a, b = p.as_integer_ratio()
        c = b - a
        term = math.comb(n, v - 1) * a ** (v - 1) * c ** (n - v + 1)
        below = 0
        for i in range(v - 1, -1, -1):
            below += term
            term = term * i * c // ((n - i + 1) * a)
        assert _binomial_tail(v, n, p) == float(Fraction(b ** n - below, b ** n))

    def test_report_digits(self):
        # scipy's tail gave 7.860594399783733e-63 here
        assert binomial_pass(200, 1000, 0.05) == (False, 7.860594399784185e-63)
        assert binomial_pass(0, 1000, 0.05) == (True, 1.0)

    @pytest.mark.parametrize("violations, trials, target, message", [
        (1, 10, math.nan, "target"), (1, 10, math.inf, "target"), (1, 10, -0.1, "target"),
        (1, 10, 1.5, "target"), (0, 0, 0.5, "trials"), (-1, 10, 0.5, "violations"),
        (11, 10, 0.5, "violations"),
    ])
    def test_domain_errors(self, violations, trials, target, message):
        with pytest.raises(ValueError, match=message):
            binomial_pass(violations, trials, target)


class TestBinomialPassRule:
    def test_zero_violations_always_pass(self):
        passed, p = binomial_pass(0, 1000, 0.05)
        assert passed and p == pytest.approx(1.0)

    def test_gross_excess_fails(self):
        passed, p = binomial_pass(200, 1000, 0.05)
        assert not passed and p < 1e-3

    def test_moderate_excess_tolerated(self):
        # 60 violations at target rate 0.05 over 1000 trials is unusual but
        # not beyond the 0.001 alarm level
        passed, _ = binomial_pass(60, 1000, 0.05)
        assert passed


class TestMartingaleTail:
    def test_iid_bernoulli_coverage(self):
        rep = validate_martingale_tail(IidBernoulli(0.3), n=200, delta=0.05,
                                       trials=2000, seed=11)
        assert rep.passed
        assert rep.violation_rate <= 0.05
        assert rep.trials == 2000

    def test_markov_modulated_coverage(self):
        chain = MarkovModulatedBernoulli(stay0=0.9, stay1=0.7, q0=0.1, q1=0.6)
        rep = validate_martingale_tail(chain, n=200, delta=0.05, trials=2000, seed=13)
        assert rep.passed and rep.violation_rate <= 0.05

    def test_deterministic_one_chain(self):
        # R identically 1: V = Vhat = 1, never a violation
        rep = validate_martingale_tail(IidBernoulli(1.0), n=50, delta=0.5,
                                       trials=500, seed=1)
        assert rep.violations == 0

    def test_all_zero_chain(self):
        rep = validate_martingale_tail(IidBernoulli(0.0), n=50, delta=0.5,
                                       trials=500, seed=1)
        assert rep.violations == 0

    def test_insufficient_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            validate_martingale_tail(IidBernoulli(0.3), n=10, delta=0.1, trials=50)

    def test_deterministic_given_seed(self):
        a = validate_martingale_tail(IidBernoulli(0.4), n=100, delta=0.02,
                                     trials=400, seed=9)
        b = validate_martingale_tail(IidBernoulli(0.4), n=100, delta=0.02,
                                     trials=400, seed=9)
        assert a == b

    def test_frozen_chain_validation(self):
        with pytest.raises(ValueError, match="move"):
            MarkovModulatedBernoulli(stay0=1.0, stay1=1.0, q0=0.1, q1=0.9)


class TestExcessLossCoverage:
    def test_iid_circle_smoke(self):
        proc = ProcessSpec.iid_uniform("circle")
        rep = validate_excess_loss_coverage(proc, None, L=1.0, t=0.1, tau=1, n=64,
                                            delta=0.1, trials=60, mc_fresh=500, seed=3)
        assert rep.passed and rep.violation_rate <= 0.1

    def test_cycle_exact_branch_smoke(self):
        proc = ProcessSpec.cycle_chain(16, 0.5)
        rep = validate_excess_loss_coverage(proc, None, L=1.0, t=0.5, tau=3, n=96,
                                            delta=0.1, trials=60, seed=4)
        assert rep.passed

    def test_oversized_threshold_never_violates(self):
        # with t above the diameter the truth side is zero
        proc = ProcessSpec.iid_uniform("torus")
        rep = validate_excess_loss_coverage(proc, None, L=1.0, t=5.0, tau=1, n=32,
                                            delta=0.05, trials=40, mc_fresh=200, seed=5)
        assert rep.violations == 0

    def test_frozen_chain_requires_reset(self):
        proc = ProcessSpec.circle_rotation(p=0.0)
        with pytest.raises(ValueError, match="p = 0"):
            validate_excess_loss_coverage(proc, None, L=1.0, t=0.1, tau=1, n=32,
                                          delta=0.1, trials=40)

    def test_deterministic_and_thread_invariant(self):
        proc = ProcessSpec.iid_uniform("circle")
        kwargs = dict(L=1.0, t=0.05, tau=1, n=48, delta=0.1, trials=30,
                      mc_fresh=300, seed=8)
        a = validate_excess_loss_coverage(proc, None, **kwargs, threads=1)
        b = validate_excess_loss_coverage(proc, None, **kwargs, threads=4)
        assert a == b


class TestGoodTuring:
    def test_uniform_twenty_symbols(self):
        rep = validate_good_turing(20, 100, 0.5, trials=400, seed=6)
        assert rep.passed
        assert rep.rms <= rep.bound == pytest.approx(math.sqrt(7.0 / 100.0), rel=1e-12)

    def test_everything_seen_regime(self):
        rep = validate_good_turing(5, 2000, 0.5, trials=100, seed=7)
        assert rep.rms < 0.01

    def test_tiny_alphabet_rejected(self):
        with pytest.raises(ValueError, match="symbols"):
            validate_good_turing(1, 100, 0.5, trials=100)

    def test_threshold_at_or_above_one_trivial(self):
        rep = validate_good_turing(6, 50, 1.0, trials=100, seed=1)
        assert rep.rms == 0.0 and rep.passed

    @pytest.mark.parametrize("probs", [[0.5, math.nan, 0.5], [0.5, 0.5], [0.7, 0.7, -0.4]])
    def test_probs_checked_as_a_finite_support(self, probs):
        with pytest.raises(ValueError, match="probs must be nonnegative|one probability per"):
            validate_good_turing(3, 50, 0.5, trials=10, probs=probs)

    def test_nonuniform_distribution(self):
        probs = np.array([0.5, 0.2, 0.1, 0.1, 0.05, 0.05])
        rep = validate_good_turing(6, 80, 0.5, trials=300, seed=2, probs=probs)
        assert rep.passed


def pav_nonincreasing(y: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators fit of a nonincreasing sequence."""
    blocks = [[v, 1] for v in y]
    merged = []
    for val, w in blocks:
        merged.append([val, w])
        while len(merged) > 1 and merged[-2][0] < merged[-1][0]:
            v2, w2 = merged.pop()
            v1, w1 = merged.pop()
            merged.append([(v1 * w1 + v2 * w2) / (w1 + w2), w1 + w2])
    out = []
    for val, w in merged:
        out.extend([val] * w)
    return np.asarray(out)


class TestDecayStudy:
    def test_iid_mean_g_decreases(self):
        proc = ProcessSpec.iid_uniform("circle")
        rows = decay_study(proc, None, GaugeSpec.lipschitz(1.0), tau=1,
                           sizes=[16, 64, 256], n_seeds=4, seed=3)
        means = [r.mean_g for r in rows]
        assert means[0] > means[1] > means[2]
        assert all(r.tau_mix == 1 and r.p == 1.0 for r in rows)

    def test_pure_cycle_is_exactly_zero_beyond_recurrence(self):
        proc = ProcessSpec.cycle_chain(100, 0.0)
        rows = decay_study(proc, None, GaugeSpec.discrete(), tau=100,
                           sizes=[128, 256], p_list=[0.0], n_seeds=3, seed=4)
        assert all(r.mean_g == 0.0 and r.std_g == 0.0 for r in rows)
        assert all(r.tau_mix is None and r.tau_over_n is None for r in rows)

    def test_small_sizes_skipped_with_notice(self, caplog):
        proc = ProcessSpec.iid_uniform("circle")
        with caplog.at_level(logging.WARNING, logger="gaugebounds.verify"):
            rows = decay_study(proc, None, GaugeSpec.lipschitz(1.0), tau=32,
                               sizes=[16, 64], n_seeds=2, seed=1)
        assert [r.n for r in rows] == [64]
        assert any("skipping sizes" in rec.message for rec in caplog.records)

    def test_monotone_up_to_noise(self):
        proc = ProcessSpec.circle_rotation(p=0.2)
        rows = decay_study(proc, None, GaugeSpec.lipschitz(1.0), tau=1,
                           sizes=[16, 32, 64, 128, 256], p_list=[0.2],
                           n_seeds=6, seed=5)
        means = np.array([r.mean_g for r in rows])
        fit = pav_nonincreasing(means)
        pooled_se = math.sqrt(np.mean([r.std_g ** 2 / r.n_seeds for r in rows]))
        assert np.abs(fit - means).max() <= 2.0 * pooled_se + 1e-12

    def test_torus_decays_slower_than_circle(self):
        # paired seeds, sign test on the dimension effect at matched n
        n, seeds = 256, 10
        gauge = GaugeSpec.lipschitz(1.0)
        wins = 0
        for s in range(seeds):
            c_rows = decay_study(ProcessSpec.circle_rotation(p=1.0), None, gauge, 1,
                                 sizes=[n], p_list=[1.0], n_seeds=1, seed=s)
            t_rows = decay_study(ProcessSpec.torus_rotation(p=1.0), None, gauge, 1,
                                 sizes=[n], p_list=[1.0], n_seeds=1, seed=s)
            wins += t_rows[0].mean_g > c_rows[0].mean_g
        assert wins >= 8

    def test_reference_column_uses_mixing_time(self):
        proc = ProcessSpec.torus_rotation(p=0.5)
        rows = decay_study(proc, None, GaugeSpec.lipschitz(1.0), tau=1,
                           sizes=[32], p_list=[0.1, 1.0], n_seeds=2, seed=6)
        by_p = {r.p: r for r in rows}
        assert by_p[0.1].tau_mix == 22 and by_p[0.1].tau_over_n == pytest.approx(22 / 32)
        assert by_p[1.0].tau_mix == 1

    def test_backends_agree(self):
        # the study's fast kernels against the oracle's profiles of the same
        # paths, at D = 1 (order kernel) and D = 4 (certified screen)
        proc, gauge, tau = ProcessSpec.circle_rotation(p=0.3), GaugeSpec.lipschitz(1.0), 2
        sizes, ps, n_seeds = [24, 48], [0.3, 1.0], 2
        for emb in (EmbeddingSpec.identity(), EmbeddingSpec.fourier(4)):
            rows = decay_study(proc, emb, gauge, tau, sizes=sizes, p_list=ps,
                               n_seeds=n_seeds, seed=9)
            seeds = iter(_trial_seeds(9, len(ps) * n_seeds))
            expected = []
            for p in ps:
                profiles = [prefix_min_profile(embed(emb, simulate(
                    proc.with_reset_p(p).with_seed(int(next(seeds))), 48)), gauge, tau).mins
                    for _ in range(n_seeds)]
                for n in sizes:
                    g = np.asarray([_ordered_mean(m[: n - tau]) for m in profiles])
                    expected.append((p, n, float(g.mean()), float(g.std(ddof=1))))
            assert [(r.p, r.n, r.mean_g, r.std_g) for r in rows] == expected

    def test_iid_with_p_list_rejected(self):
        with pytest.raises(ValueError, match="p_list"):
            decay_study(ProcessSpec.iid_uniform("circle"), None,
                        GaugeSpec.lipschitz(1.0), 1, sizes=[16], p_list=[0.5])
