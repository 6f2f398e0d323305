"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings.  Tolerances and runtime budgets are stated inline.
"""

import math
import time

import numpy as np
import pytest

from gaugebounds import (
    ClassBounds,
    EmbeddingSpec,
    GaugeSpec,
    IidBernoulli,
    MarkovModulatedBernoulli,
    MixingProfile,
    PrefixGaugeProfile,
    PrefixNNBackend,
    ProcessSpec,
    SamplePath,
    decay_study,
    embed,
    entropy_penalty,
    leave_one_out_min,
    missing_mass_G,
    missing_mass_Gt,
    prefix_min_indexed,
    prefix_min_profile,
    risk_bound,
    risk_bound_with_exceptions,
    simulate,
    validate_excess_loss_coverage,
    validate_good_turing,
    validate_martingale_tail,
)


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def _line(ok: bool, name: str, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.2f}s)")


def test_criterion_1_n_cycle_zero_gap():
    """Pure deterministic cycle: the estimator is exactly zero past one lap."""
    with _Timer() as t:
        gauge = GaugeSpec.discrete()
        values = {}
        for n in (128, 512, 1024):
            path = simulate(ProcessSpec.cycle_chain(100, 0.0, seed=41), n)
            values[n] = missing_mass_G(prefix_min_profile(path, gauge, tau=100))
    ok = all(v == 0.0 for v in values.values()) and t.elapsed < 1.0
    _line(ok, "criterion 1 (cycle zero gap)", f"G={values}", t.elapsed)
    assert all(v == 0.0 for v in values.values())
    assert t.elapsed < 1.0


def test_criterion_2_martingale_tail_coverage():
    """Tail coverage at delta=0.05 over 10^4 trials, iid and Markov-modulated."""
    with _Timer() as t:
        iid = validate_martingale_tail(IidBernoulli(0.3), n=200, delta=0.05,
                                       trials=10_000, seed=101)
        mmb = validate_martingale_tail(
            MarkovModulatedBernoulli(stay0=0.9, stay1=0.7, q0=0.1, q1=0.6),
            n=200, delta=0.05, trials=10_000, seed=102)
    ok = iid.passed and mmb.passed and t.elapsed < 30.0
    _line(ok, "criterion 2 (martingale tail)",
          f"rates iid={iid.violation_rate:.4f} mmb={mmb.violation_rate:.4f} target 0.05",
          t.elapsed)
    assert iid.passed and iid.violation_rate <= 0.05
    assert mmb.passed and mmb.violation_rate <= 0.05
    assert t.elapsed < 30.0


def test_criterion_3_excess_loss_coverage():
    """Bound coverage at delta=0.1, 500 trials: exact branch and MC branch."""
    with _Timer() as t:
        cycle = validate_excess_loss_coverage(
            ProcessSpec.cycle_chain(16, 0.5), None, L=1.0, t=0.5, tau=3, n=128,
            delta=0.1, trials=500, seed=201)
        circle = validate_excess_loss_coverage(
            ProcessSpec.iid_uniform("circle"), None, L=1.0, t=0.1, tau=1, n=256,
            delta=0.1, trials=500, mc_fresh=2000, seed=202)
    ok = cycle.passed and circle.passed and t.elapsed < 120.0
    _line(ok, "criterion 3 (excess-loss coverage)",
          f"rates cycle={cycle.violation_rate:.4f} circle={circle.violation_rate:.4f} target 0.1",
          t.elapsed)
    assert cycle.passed and cycle.violation_rate <= 0.1
    assert circle.passed and circle.violation_rate <= 0.1
    assert t.elapsed < 120.0


def test_criterion_4_good_turing_concentration():
    """RMS(exact missing mass - Good-Turing) within sqrt(7/n) at n=100."""
    with _Timer() as t:
        rep = validate_good_turing(20, 100, 0.5, trials=2000, seed=301)
    bound = math.sqrt(7.0 / 100.0)
    ok = rep.rms <= bound and t.elapsed < 30.0
    _line(ok, "criterion 4 (Good-Turing)",
          f"rms={rep.rms:.4f} <= {bound:.4f}; observed slack note: rms <= 0.1 "
          f"(empirical looseness, not a guaranteed level)", t.elapsed)
    assert rep.passed and rep.rms <= bound == pytest.approx(0.2645751311064591, rel=1e-12)
    # recorded empirical margin; the guaranteed level is only sqrt(7/n)
    assert rep.rms <= 0.1
    assert t.elapsed < 30.0


def test_criterion_5_backend_equivalence_and_counts():
    """Indexed backend: identical profiles on 100 seeded paths, identical
    leave-one-out minima, and less than half the naive distance evaluations
    on low-dimensional-support data."""
    with _Timer() as t:
        rng = np.random.default_rng(777)
        loo_checked = 0
        for i in range(100):
            kind = ("lipschitz", "smooth", "discrete")[i % 3]
            if kind == "lipschitz":
                gauge = GaugeSpec.lipschitz(1.0)
                path = SamplePath.from_coords(rng.random((512, 8)))
            elif kind == "smooth":
                gauge = GaugeSpec.smooth(1.5, 0.5)
                path = SamplePath.from_coords(rng.random((512, 8)))
            else:
                gauge = GaugeSpec.discrete()
                path = SamplePath.from_symbols(rng.integers(0, 64, 512))
            tau = int(rng.integers(1, 4))
            naive = prefix_min_indexed(path, gauge, tau, backend=PrefixNNBackend("naive"))
            indexed = prefix_min_indexed(path, gauge, tau,
                                         backend=PrefixNNBackend("indexed"))
            assert np.array_equal(naive.mins, indexed.mins), f"profile mismatch at path {i}"
            if i % 5 == 0:
                a = leave_one_out_min(path, gauge, PrefixNNBackend("naive"))
                b = leave_one_out_min(path, gauge, PrefixNNBackend("indexed"))
                assert np.array_equal(a, b), f"leave-one-out mismatch at path {i}"
                loo_checked += 1

        # distance-evaluation telemetry on data with low-dimensional support
        proc = ProcessSpec.circle_rotation(p=0.01, seed=55)
        mpath = embed(EmbeddingSpec.fourier(8), simulate(proc, 512))
        nb, ib = PrefixNNBackend("naive"), PrefixNNBackend("indexed")
        pn = prefix_min_indexed(mpath, GaugeSpec.lipschitz(1.0), 1, backend=nb)
        pi = prefix_min_indexed(mpath, GaugeSpec.lipschitz(1.0), 1, backend=ib)
        assert np.array_equal(pn.mins, pi.mins)
        ratio = ib.distance_evaluations / nb.distance_evaluations
    ok = ratio < 0.5 and t.elapsed < 60.0
    _line(ok, "criterion 5 (backend equivalence)",
          f"100 profiles identical, {loo_checked} leave-one-out checks identical, "
          f"indexed/naive evaluations = {ratio:.3f} < 0.5", t.elapsed)
    assert ratio < 0.5
    assert t.elapsed < 60.0


def test_criterion_6_decay_study_shape():
    """Raster-embedded torus study: strict decay for p=1 and p=0.1 from
    n=2^4 up, and for p=0.001 the terminal mean G sits below the
    mixing-time reference tau_mix / n."""
    with _Timer() as t:
        rows = decay_study(
            ProcessSpec.torus_rotation(p=0.5),
            EmbeddingSpec.raster_rotation(with_scaling=True),
            GaugeSpec.lipschitz(1.0),
            tau=1,
            sizes=[2 ** k for k in range(1, 13)],
            p_list=[1.0, 0.1, 0.001],
            n_seeds=10,
            seed=4041,
        )
        by_p = {}
        for row in rows:
            by_p.setdefault(row.p, {})[row.n] = row
        strict = {}
        for p in (1.0, 0.1):
            means = [by_p[p][2 ** k].mean_g for k in range(4, 13)]
            strict[p] = all(a > b for a, b in zip(means, means[1:]))
        tail_row = by_p[0.001][4096]
        assert tail_row.tau_mix == 2302
        below_reference = tail_row.mean_g < tail_row.tau_over_n
    ok = strict[1.0] and strict[0.1] and below_reference and t.elapsed < 300.0
    _line(ok, "criterion 6 (decay study)",
          f"strict decay p=1:{strict[1.0]} p=0.1:{strict[0.1]}; "
          f"p=0.001 terminal G={tail_row.mean_g:.4f} < tau/n={tail_row.tau_over_n:.4f}",
          t.elapsed)
    assert strict[1.0] and strict[0.1]
    assert below_reference
    assert t.elapsed < 300.0


def test_criterion_7_iid_gap_magnitude():
    """iid uniform on [0,1): mean G at n=4096 stays below 0.01 (the
    brute-force expectation is about ln(n)/(2n) ~ 0.001), and the library
    output equals a direct-definition scan exactly."""
    with _Timer() as t:
        proc = ProcessSpec.iid_uniform("circle")
        gauge = GaugeSpec.lipschitz(1.0)

        # independent direct-definition oracle at a reduced size
        path = simulate(proc.with_seed(900), 512)
        xs = [float(v) for v in path.coords[:, 0]]
        direct = [min(abs(xs[k] - xs[i]) for i in range(k)) for k in range(1, 512)]
        lib = prefix_min_profile(path, gauge, 1)
        assert np.array_equal(np.asarray(direct), lib.mins)
        direct_g = sum(direct) / len(direct)

        gs = []
        for s in range(20):
            p = simulate(proc.with_seed(1000 + s), 4096)
            prof = prefix_min_indexed(p, gauge, 1, backend=PrefixNNBackend("indexed"))
            gs.append(missing_mass_G(prof))
        mean_g = float(np.mean(gs))
    expected_scale = math.log(4096) / (2 * 4096)
    ok = mean_g <= 0.01 and t.elapsed < 30.0
    _line(ok, "criterion 7 (iid gap magnitude)",
          f"mean G={mean_g:.6f} <= 0.01 (direct oracle at n=512: {direct_g:.6f}; "
          f"ln(n)/(2n)={expected_scale:.6f})", t.elapsed)
    assert mean_g <= 0.01
    assert t.elapsed < 30.0


def test_criterion_8_formula_identities():
    """Exception bound at alpha=0 equals the plain risk bound; the Bernoulli
    entropy at 1/2 is ln 2; the mean estimator integrates the threshold
    estimator, all at 1e-12."""
    with _Timer() as t:
        cb = ClassBounds(sup_f=1.0, sup_g=1.0)
        worst = 0.0
        for n, tau, delta, phi in ((101, 1, 0.05, 0.0), (64, 3, 0.2, 0.1),
                                   (1000, 10, 0.01, 0.02)):
            mix = MixingProfile(tau=tau, phi_tau=phi)
            a = risk_bound(0.07, cb, mix, n, delta).total
            b = risk_bound_with_exceptions(0.07, cb, mix, n, delta, alpha=0.0).total
            worst = max(worst, abs(a - b) / a)
        assert worst <= 1e-12

        h_half, _ = entropy_penalty(0.5, 100)
        entropy_gap = abs(h_half - math.log(2.0))
        assert entropy_gap <= 1e-12

        rng = np.random.default_rng(808)
        max_gap = 0.0
        for _ in range(100):
            n = int(rng.integers(5, 200))
            mins = rng.random(n - 1) * float(rng.choice([0.1, 1.0, 10.0]))
            mins[rng.random(n - 1) < 0.15] = 0.0
            profile = PrefixGaugeProfile(n=n, tau=1, exceptions=(), mins=mins)
            g = missing_mass_G(profile)
            levels = np.unique(profile.mins)
            levels = levels[levels > 0]
            total, prev = 0.0, 0.0
            for v in levels:
                total += (v - prev) * missing_mass_Gt(profile, (prev + v) / 2.0)
                prev = v
            max_gap = max(max_gap, abs(g - total))
        assert max_gap <= 1e-12
    ok = t.elapsed < 5.0
    _line(ok, "criterion 8 (formula identities)",
          f"alpha=0 relative gap {worst:.2e}; H(1/2)-ln2 gap {entropy_gap:.2e}; "
          f"max integral gap {max_gap:.2e}; all <= 1e-12", t.elapsed)
    assert t.elapsed < 5.0
