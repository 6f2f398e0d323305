"""Monte Carlo validation: probabilistic claims become statistical tests.

Each validator simulates many independent trials, counts violations of the
claim under test, and applies a one-sided exact binomial rule: a claim
"violation rate <= target" fails only when observing that many violations
under rate = target has probability below 0.001.  That keeps false alarms
out of CI while still catching real coverage breaks.

Everything is deterministic given (seed, trials): per-trial seeds expand
from one SeedSequence, and aggregation is order-independent counting, so
thread counts never change results.
"""

from __future__ import annotations

import logging
import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bounds import (
    MixingProfile,
    ProcessSpec,
    excess_loss_probability_bound,
    martingale_tail_threshold,
    mixing_bounds,
    mixing_time,
)
from .estimators import (
    FiniteSupport,
    PrefixNNBackend,
    _ordered_mean,
    missing_mass_Gt,
    prefix_min_indexed,
    prefix_min_profile,
    true_missing_mass,
)
from .geometry import GaugeSpec, SamplePath, _check_parameters
from .processes import EmbeddingSpec, _philox, embed, simulate, stationary_oracle

__all__ = [
    "TrialReport",
    "GoodTuringReport",
    "DecayRow",
    "IidBernoulli",
    "MarkovModulatedBernoulli",
    "binomial_pass",
    "validate_martingale_tail",
    "validate_excess_loss_coverage",
    "validate_good_turing",
    "decay_study",
]

logger = logging.getLogger(__name__)

_PASS_LEVEL = 1e-3


@dataclass(frozen=True)
class TrialReport:
    trials: int
    violations: int
    violation_rate: float
    target: float
    passed: bool
    p_value: float

    def __post_init__(self):
        if self.violations > self.trials:
            raise ValueError("violations cannot exceed trials")


def _cut(m: int, s: int, bits: int, up: bool) -> tuple[int, int]:
    """m 2^s cut to at most `bits` significant bits, rounded down (up if
    `up`): returns (m', s') with m' 2^s' <= m 2^s (>= if up)."""
    drop = m.bit_length() - bits
    if drop <= 0:
        return m, s
    return (-(-m >> drop) if up else m >> drop), s + drop


def _pow_bracket(x: int, k: int, bits: int, up: bool) -> tuple[int, int]:
    """x^k by squaring, cut to `bits` bits after every product."""
    m, s = 1, 0
    for bit in bin(k)[2:]:
        m, s = _cut(m * m, 2 * s, bits, up)
        if bit == "1":
            m, s = _cut(m * x, s, bits, up)
    return m, s


def _range_bracket(lo: int, hi: int, bits: int, up: bool) -> tuple[int, int]:
    """prod(range(lo, hi)) by a product tree, cut to `bits` bits at every node."""
    if hi - lo <= 64:
        return _cut(math.prod(range(lo, hi)), 0, bits, up)
    mid = (lo + hi) // 2
    m1, s1 = _range_bracket(lo, mid, bits, up)
    m2, s2 = _range_bracket(mid, hi, bits, up)
    return _cut(m1 * m2, s1 + s2, bits, up)


def _term_bracket(n: int, i: int, a: int, c: int, bits: int, up: bool) -> tuple[int, int]:
    """C(n, i) a^i c^(n-i) rounded down (up if `up`) as m 2^s, every
    intermediate cut to `bits` bits.  No cut happens once `bits` covers
    every intermediate, and then m 2^s is the exact integer."""
    k = min(i, n - i)
    num, s_num = _range_bracket(n - k + 1, n + 1, bits, up)      # n! / (n-k)!
    den, s_den = _range_bracket(1, k + 1, bits, not up)         # k!
    widen = max(0, bits + den.bit_length() - num.bit_length())
    comb = -(-(num << widen) // den) if up else (num << widen) // den
    m_a, s_a = _pow_bracket(a, i, bits, up)
    m_c, s_c = _pow_bracket(c, n - i, bits, up)
    return comb * m_a * m_c, s_num - s_den - widen + s_a + s_c


def _binomial_tail(v: int, n: int, p: float) -> float:
    """P[Binomial(n, p) >= v], rounded once from the exact rational value.

    p is the dyadic rational a / 2^e, so every term T_i = C(n, i) p^i
    (1-p)^(n-i) is exact and T_{i+1} / T_i = (n-i) a / ((i+1) (2^e - a)).
    The sum runs away from the mode, where the terms fall: upward from v
    when v lies above the mode, otherwise downward from v - 1 with the
    result 1 - sum.  Beyond the mode each ratio is below 1 and below the one
    before it, so the terms left after T_i sum to at most T_i r / (1 - r),
    r being the next ratio.  Integers lo <= T_i 2^F <= hi, scaled so the
    first term has `guard` bits, bracket every term; the sum stops once
    both ends of the bracket on the result round to the same double
    (int / int true division rounds correctly, subnormals and 0.0
    included).  Otherwise the guard bits double (Ziv's strategy).

    The first term's bracket comes from floor and ceiling fixed-point
    products (_term_bracket) at a few more bits than `guard`, so its cost
    grows about linearly with n and not with the n (e + 1) bits of the
    exact integer T_i0 2^(e n).  Once the guard bits cover every
    intermediate product, the bracket is that exact integer and every step
    is exact, so exact ties between two doubles terminate too.
    """
    if v <= 0:
        return 1.0
    if v > n or p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    a, b = p.as_integer_ratio()
    e = b.bit_length() - 1
    c = b - a
    upper = v > ((n + 1) * a) >> e
    i0 = v if upper else v - 1
    guard = 64 + 2 * n.bit_length()
    while True:
        # the cuts lose about 2 log2(n) bits of the working precision
        bits = guard + 2 * n.bit_length() + 8
        m_lo, x_lo = _term_bracket(n, i0, a, c, bits, False)
        m_hi, x_hi = _term_bracket(n, i0, a, c, bits, True)
        shift = m_lo.bit_length() + x_lo - guard          # T_i0 2^(e n) ~ lo 2^shift
        lo = m_lo << (x_lo - shift) if x_lo >= shift else m_lo >> (shift - x_lo)
        hi = m_hi << (x_hi - shift) if x_hi >= shift else -(-m_hi >> (shift - x_hi))
        one = 1 << (e * n - shift)
        s_lo = s_hi = 0
        i = i0
        while True:
            s_lo += lo
            s_hi += hi
            if upper:
                num, den, last = (n - i) * a, (i + 1) * c, i == n
                i += 1
            else:
                num, den, last = i * c, (n - i + 1) * a, i == 0
                i -= 1
            rem = 0 if last else -(-hi * num // (den - num))
            if upper:
                q_lo, q_hi = s_lo / one, (s_hi + rem) / one
            else:
                q_lo, q_hi = (one - s_hi - rem) / one, (one - s_lo) / one
            if q_lo == q_hi:
                return q_lo
            if last:
                break
            lo = lo * num // den
            hi = -(-hi * num // den)
        guard *= 2


def binomial_pass(violations: int, trials: int, target: float) -> tuple[bool, float]:
    """Exact one-sided binomial upper test of rate <= target.

    The p-value P[Binomial(trials, target) >= violations] is the exact tail
    rounded once to the nearest double.
    """
    violations, trials, target = operator.index(violations), operator.index(trials), float(target)
    _check_count("trials", trials)
    if not 0.0 <= target <= 1.0:
        raise ValueError(f"target must be a probability in [0, 1], got {target!r}")
    if not 0 <= violations <= trials:
        raise ValueError(f"violations must lie in [0, trials={trials}], got {violations}")
    p_value = _binomial_tail(violations, trials, target)
    return p_value >= _PASS_LEVEL, p_value


def _report(violations: int, trials: int, target: float) -> TrialReport:
    passed, p_value = binomial_pass(violations, trials, target)
    return TrialReport(
        trials=trials,
        violations=violations,
        violation_rate=violations / trials,
        target=target,
        passed=passed,
        p_value=p_value,
    )


def _check_count(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def _check_distinct(name: str, values: list) -> None:
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ValueError(f"{name} repeats {repeated}; each entry must appear once")


def _trial_seeds(seed: int, count: int) -> np.ndarray:
    return np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)


# ---------------------------------------------------------------------------
# martingale tail
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IidBernoulli:
    """R_j iid Bernoulli(q); the conditional means are constantly q."""

    q: float

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise ValueError("q must lie in [0, 1]")


@dataclass(frozen=True)
class MarkovModulatedBernoulli:
    """Hidden two-state Markov chain; state s emits Bernoulli(q_s).

    The filtration includes the states, so the conditional mean before step j
    is exactly the transition-weighted emission mean given the previous
    state.  The hidden chain starts in its stationary distribution.
    """

    stay0: float
    stay1: float
    q0: float
    q1: float

    def __post_init__(self):
        for name in ("stay0", "stay1", "q0", "q1"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if (1.0 - self.stay0) + (1.0 - self.stay1) <= 0.0:
            raise ValueError("the hidden chain must be able to move (some flip probability)")


def validate_martingale_tail(
    chain: IidBernoulli | MarkovModulatedBernoulli,
    n: int,
    delta: float,
    trials: int,
    seed: int = 0,
) -> TrialReport:
    """Check the doubled-empirical tail: the conditional-mean average V
    exceeds 2 * observed average + e ln(1/delta) / n in at most a delta
    fraction of trials."""
    if trials < 100:
        raise ValueError("need at least 100 trials for a meaningful rate")
    threshold = martingale_tail_threshold(n, delta)
    rng = _philox(seed)

    if isinstance(chain, IidBernoulli):
        emissions = rng.random((trials, n)) < chain.q
        v_hat = emissions.mean(axis=1)
        v = np.full(trials, chain.q)
    else:
        flip0, flip1 = 1.0 - chain.stay0, 1.0 - chain.stay1
        pi1 = flip0 / (flip0 + flip1)
        emit = np.array([chain.q0, chain.q1])
        cond_means = np.empty((trials, n))
        state = (rng.random(trials) < pi1).astype(np.int64)
        cond_means[:, 0] = (1.0 - pi1) * chain.q0 + pi1 * chain.q1
        emissions = np.empty((trials, n), dtype=bool)
        emissions[:, 0] = rng.random(trials) < emit[state]
        stay = np.array([chain.stay0, chain.stay1])
        for j in range(1, n):
            stay_j = stay[state]
            cond_means[:, j] = stay_j * emit[state] + (1.0 - stay_j) * emit[1 - state]
            flips = rng.random(trials) < (1.0 - stay_j)
            state = np.where(flips, 1 - state, state)
            emissions[:, j] = rng.random(trials) < emit[state]
        v_hat = emissions.mean(axis=1)
        v = cond_means.mean(axis=1)

    violations = int(np.count_nonzero(v > 2.0 * v_hat + threshold))
    return _report(violations, trials, delta)


# ---------------------------------------------------------------------------
# excess-loss coverage
# ---------------------------------------------------------------------------

def validate_excess_loss_coverage(
    proc: ProcessSpec,
    emb: EmbeddingSpec | None,
    L: float,
    t: float,
    tau: int,
    n: int,
    delta: float,
    trials: int,
    mc_fresh: int = 2000,
    seed: int = 0,
    threads: int = 1,
) -> TrialReport:
    """Coverage of the excess-loss probability bound for Lipschitz classes.

    Per trial: simulate and embed a path, evaluate the bound from the
    threshold estimate at t, and compare against the true missing mass of
    the first n - tau points at radius t / L (which attains the supremum
    over the L-Lipschitz class).  The truth side is exact on finite state
    spaces and Monte Carlo (with a 3-standard-error allowance) otherwise.
    """
    _check_count("trials", trials)
    _check_count("threads", threads)
    if proc.kind == "iid":
        mixing = MixingProfile(tau=tau, phi_tau=0.0, alpha_tau=0.0)
    else:
        if proc.reset_p == 0.0:
            raise ValueError("p = 0 chains admit no finite dependence bound; coverage is untestable")
        mixing = mixing_bounds(proc, tau)
    emb = emb or EmbeddingSpec.identity()
    oracle = stationary_oracle(proc, emb)
    metric = "discrete" if proc.space == "cycle" and emb.kind == "identity" else "euclidean"
    gauge = GaugeSpec.lipschitz(L, metric=metric)
    seeds = _trial_seeds(seed, 2 * trials)

    def one_trial(i: int) -> bool:
        path = embed(emb, simulate(proc.with_seed(int(seeds[i])), n))
        profile = prefix_min_profile(path, gauge, tau)
        gt = missing_mass_Gt(profile, t)
        rhs = excess_loss_probability_bound(gt, mixing, n, delta).total
        # exact on a finite support, where the generator goes unused
        truth = true_missing_mass(path.head(n - tau), gauge, t, oracle, n_mc=mc_fresh,
                                  rng=_philox(int(seeds[trials + i])))
        return truth.value - 3.0 * truth.std_error > rhs

    if threads <= 1:
        flags = [one_trial(i) for i in range(trials)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            flags = list(pool.map(one_trial, range(trials)))
    return _report(int(sum(flags)), trials, delta)


# ---------------------------------------------------------------------------
# Good-Turing concentration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GoodTuringReport:
    rms: float
    bound: float
    passed: bool
    trials: int
    n: int
    n_symbols: int
    threshold: float


def validate_good_turing(
    n_symbols: int,
    n: int,
    threshold: float,
    trials: int,
    seed: int = 0,
    probs=None,
) -> GoodTuringReport:
    """Root-mean-square gap between exact missing mass and the leave-one-out
    isolation estimator, over iid samples from a finite alphabet; checked
    against the sqrt(7/n) concentration level.

    At a sub-unit threshold under the discrete metric, isolation means the
    symbol is unseen (for the missing mass) or a singleton (for the
    estimator), so both sides reduce to exact counting.
    """
    _check_count("trials", trials)
    if n_symbols < 2:
        raise ValueError("need at least 2 symbols")
    if n < 2:
        raise ValueError("need n >= 2")
    _check_parameters(threshold=threshold)
    if probs is None:
        probs = np.full(n_symbols, 1.0 / n_symbols)
    probs = FiniteSupport(SamplePath.from_symbols(np.arange(n_symbols)), probs).probs
    rng = _philox(seed)
    if threshold >= 1.0:
        # no pair of distinct symbols is farther than 1, nothing is isolated
        return GoodTuringReport(rms=0.0, bound=math.sqrt(7.0 / n), passed=True,
                                trials=trials, n=n, n_symbols=n_symbols, threshold=threshold)
    draws = rng.choice(n_symbols, size=(trials, n), p=probs)
    counts = np.zeros((trials, n_symbols), dtype=np.int64)
    trial_idx = np.repeat(np.arange(trials), n)
    np.add.at(counts, (trial_idx, draws.ravel()), 1)
    gt = (counts[np.arange(trials)[:, None], draws] == 1).mean(axis=1)
    m_hat = ((counts == 0) * probs).sum(axis=1)
    rms = float(np.sqrt(np.mean((m_hat - gt) ** 2)))
    bound = math.sqrt(7.0 / n)
    return GoodTuringReport(rms=rms, bound=bound, passed=rms <= bound,
                            trials=trials, n=n, n_symbols=n_symbols, threshold=threshold)


# ---------------------------------------------------------------------------
# decay study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayRow:
    p: float
    n: int
    mean_g: float
    std_g: float
    n_seeds: int
    tau_mix: int | None      # mixing_time(p)
    tau_over_n: float | None


def decay_study(
    proc: ProcessSpec,
    emb: EmbeddingSpec | None,
    gauge: GaugeSpec,
    tau: int,
    sizes,
    p_list=None,
    n_seeds: int = 10,
    seed: int = 0,
) -> list[DecayRow]:
    """Mean and spread of the gap estimator G across sample sizes and reset
    probabilities, with the mixing-time reference column tau_mix / n.

    Per (p, seed) one maximal path is simulated and its prefix profile
    computed once, on the fast kernels; G at a smaller size is the mean of the leading profile
    entries, which equals the estimator on the prefix path exactly (the
    profile is prefix-causal).  Sharing the path across sizes removes
    between-size simulation noise from the decay comparison.

    Sizes not exceeding tau are skipped with a notice: the estimator is
    empty there.  Sizes that are all skipped, and a size or reset
    probability given twice (two rows with one (p, n) key), are errors.
    """
    _check_count("n_seeds", n_seeds)
    emb = emb or EmbeddingSpec.identity()
    sizes = sorted(int(s) for s in sizes)
    if not sizes:
        raise ValueError("sizes must be nonempty")
    _check_distinct("sizes", sizes)
    usable = [s for s in sizes if s > tau]
    skipped = [s for s in sizes if s <= tau]
    if not usable:
        raise ValueError(f"no size in {sizes} is larger than the gap tau={tau}")
    if skipped:
        logger.warning("skipping sizes %s: not larger than the gap tau=%d", skipped, tau)
    if proc.kind == "iid":
        if p_list:
            raise ValueError("p_list applies to reset chains, not iid processes")
        variants = [(1.0, proc)]
    else:
        ps = [float(p) for p in p_list or [proc.reset_p]]
        _check_distinct("p_list", ps)
        variants = [(p, proc.with_reset_p(p)) for p in ps]
    n_max = usable[-1]
    seeds = iter(_trial_seeds(seed, len(variants) * n_seeds))

    def one_run(spec: ProcessSpec) -> np.ndarray:
        # the path dies with the call: a raster path outweighs its profile 256-fold;
        # the backend only carries the pair counts, for a tracer to read
        path = embed(emb, simulate(spec, n_max))
        return prefix_min_indexed(path, gauge, tau, backend=PrefixNNBackend("indexed")).mins

    rows = []
    for p, variant in variants:
        profiles = [one_run(variant.with_seed(int(next(seeds)))) for _ in range(n_seeds)]
        tau_mix = mixing_time(p)
        for s in usable:
            arr = np.asarray([_ordered_mean(m[: s - tau]) for m in profiles])
            rows.append(DecayRow(
                p=p,
                n=s,
                mean_g=float(arr.mean()),
                std_g=float(arr.std(ddof=1)) if n_seeds > 1 else 0.0,
                n_seeds=n_seeds,
                tau_mix=tau_mix,
                tau_over_n=None if tau_mix is None else tau_mix / s,
            ))
    return rows
