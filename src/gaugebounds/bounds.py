"""Closed-form bound evaluation, itemized into named terms.

Two routes are provided, both at confidence 1 - delta over the sample path
with effective sample size n_eff = n - tau:

excess-loss probability route (threshold t, estimate gt = G_t):

    2 * gt + phi_tau + e * ln(1/delta) / n_eff

mean-risk route (estimate g = G, class sups ||F|| and ||g||):

    martingale:  2 * g + ||F|| * phi_tau + ||g|| * e * ln(1/delta) / n_eff
    azuma:       1 * g + ||F|| * phi_tau + ||g|| * sqrt(2 ln(1/delta) / n_eff)

The azuma variant trades the factor 2 on the estimator for a square-root
confidence term via the bounded-difference martingale tail; the constant
sqrt(2) is this library's instantiation of that standard tail.

An exception-tolerant variant charges the union bound over exception sets of
fraction alpha through the Bernoulli entropy H(alpha) plus a Stirling
remainder cap, replacing the confidence term by

    e * ||g|| * ( H(alpha) + (Rest(n_eff, alpha) + ln(1/delta)) / n_eff ).

Also included: the worst-case missing-mass tail driven by covering numbers,

    N_cover / (e * (floor(n t / (2 tau)) - 1)) + ceil(n t / (2 tau)) * alpha_tau,

vacuous (+inf) when the floor term is <= 1.

The dependence coefficient phi_tau comes either declared by the caller or
derived from a reset chain: ProcessSpec describes the chain (simulated by
processes), and because one reset anywhere inside a gap of tau steps makes
the conditional law exactly stationary, mixing_bounds reports
phi(tau) = alpha(tau) = (1 - p)^tau.

Pure arithmetic throughout, with no numpy, so evaluating a bound loads
nothing else; a report derives its total, the float sum of its terms in the
order estimator + mixing + confidence + entropy, and vacuity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

__all__ = [
    "MixingProfile",
    "ProcessSpec",
    "ZETA_GOLDEN",
    "ZETA_SILVER",
    "mixing_time",
    "mixing_bounds",
    "ClassBounds",
    "BoundReport",
    "martingale_tail_threshold",
    "excess_loss_probability_bound",
    "risk_bound",
    "entropy_penalty",
    "risk_bound_with_exceptions",
    "covering_tail_bound",
]

_E = math.e


@dataclass(frozen=True)
class MixingProfile:
    """Dependence coefficients of the process at gap tau.

    phi_tau is the uniform (conditional-probability) coefficient, alpha_tau
    the covariance-type one; alpha_tau <= phi_tau always, and both vanish for
    independent draws.  provenance records whether the numbers were declared
    by the caller or derived from a known chain construction.
    """

    tau: int
    phi_tau: float
    alpha_tau: float | None = None
    provenance: str = "declared"

    def __post_init__(self):
        if self.tau < 1:
            raise ValueError("tau must be a positive integer")
        if not 0.0 <= self.phi_tau <= 1.0:
            raise ValueError("phi_tau must lie in [0, 1]")
        alpha = self.phi_tau if self.alpha_tau is None else float(self.alpha_tau)
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha_tau must lie in [0, 1]")
        if alpha > self.phi_tau + 1e-12:
            raise ValueError("alpha_tau cannot exceed phi_tau")
        object.__setattr__(self, "alpha_tau", alpha)
        if self.provenance not in ("declared", "chain-derived"):
            raise ValueError("provenance must be 'declared' or 'chain-derived'")

    @classmethod
    def iid(cls) -> "MixingProfile":
        return cls(tau=1, phi_tau=0.0, alpha_tau=0.0, provenance="declared")


ZETA_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0   # 1/phi^2 = 0.3819660...
ZETA_SILVER = math.sqrt(2.0) - 1.0           # 0.4142135...


@dataclass(frozen=True)
class ProcessSpec:
    """Generative description of one stationary process plus its seed."""

    kind: str                      # "cycle" | "circle" | "torus" | "iid"
    seed: int = 0
    n_states: int | None = None    # cycle (and iid on the cycle)
    zeta: float | None = None      # circle increment
    zeta1: float | None = None     # torus increments
    zeta2: float | None = None
    reset_p: float | None = None   # reset probability p
    space: str | None = None       # phase space: an iid's choice, a chain's kind

    def __post_init__(self):
        if self.kind not in ("cycle", "circle", "torus", "iid"):
            raise ValueError(f"unknown process kind {self.kind!r}")
        if self.kind != "iid":
            p = self.reset_p
            if p is None or not 0.0 <= p <= 1.0:
                raise ValueError("reset probability must lie in [0, 1]")
        if self.kind == "cycle" and (self.n_states is None or self.n_states < 2):
            raise ValueError("cycle chain needs at least 2 states")
        if self.kind == "iid":
            if self.space not in ("cycle", "circle", "torus"):
                raise ValueError("iid space must be 'cycle', 'circle' or 'torus'")
            if self.space == "cycle" and (self.n_states is None or self.n_states < 2):
                raise ValueError("iid on the cycle needs n_states >= 2")
        elif self.space in (None, self.kind):
            object.__setattr__(self, "space", self.kind)
        else:
            raise ValueError(f"a {self.kind} chain moves on the {self.kind}, not the {self.space}")

    @classmethod
    def cycle_chain(cls, n_states: int, p: float, seed: int = 0) -> "ProcessSpec":
        return cls(kind="cycle", n_states=int(n_states), reset_p=float(p), seed=seed)

    @classmethod
    def circle_rotation(cls, zeta: float = ZETA_GOLDEN, p: float = 0.0, seed: int = 0) -> "ProcessSpec":
        if not 0.0 <= zeta < 1.0:
            raise ValueError("zeta must lie in [0, 1)")
        return cls(kind="circle", zeta=float(zeta), reset_p=float(p), seed=seed)

    @classmethod
    def torus_rotation(cls, zeta1: float = ZETA_GOLDEN, zeta2: float = ZETA_SILVER,
                       p: float = 0.0, seed: int = 0) -> "ProcessSpec":
        for z in (zeta1, zeta2):
            if not 0.0 <= z < 1.0:
                raise ValueError("increments must lie in [0, 1)")
        return cls(kind="torus", zeta1=float(zeta1), zeta2=float(zeta2),
                   reset_p=float(p), seed=seed)

    @classmethod
    def iid_uniform(cls, space: str, n_states: int | None = None, seed: int = 0) -> "ProcessSpec":
        return cls(kind="iid", space=space, n_states=n_states, seed=seed)

    def with_seed(self, seed: int) -> "ProcessSpec":
        return replace(self, seed=int(seed))

    def with_reset_p(self, p: float) -> "ProcessSpec":
        if self.kind == "iid":
            raise ValueError("iid processes have no reset probability")
        return replace(self, reset_p=float(p))

    @property
    def phase_dim(self) -> int:
        return {"cycle": 0, "circle": 1, "torus": 2}[self.space]


def mixing_time(p: float, eps: float = 0.1) -> int | None:
    """Smallest tau with (1 - p)^tau <= eps; None when p = 0, 1 when p = 1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if p == 0.0:
        return None
    if p == 1.0:
        return 1
    tau = max(1, math.ceil(math.log(eps) / math.log(1.0 - p) - 1e-12))
    while (1.0 - p) ** tau > eps:
        tau += 1
    while tau > 1 and (1.0 - p) ** (tau - 1) <= eps:
        tau -= 1
    return tau


def mixing_bounds(spec: ProcessSpec, tau: int) -> MixingProfile:
    """Coupling bound phi(tau) = alpha(tau) = (1 - p)^tau for reset chains."""
    if spec.kind == "iid":
        raise ValueError("iid processes carry no reset coupling; use MixingProfile.iid()")
    if tau < 1:
        raise ValueError("tau must be a positive integer")
    coeff = (1.0 - spec.reset_p) ** tau
    return MixingProfile(tau=tau, phi_tau=coeff, alpha_tau=coeff, provenance="chain-derived")


@dataclass(frozen=True)
class ClassBounds:
    """Sups over the loss class: ||F|| of the functions, ||g|| of the gauge."""

    sup_f: float
    sup_g: float

    def __post_init__(self):
        for name in ("sup_f", "sup_g"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"{name} must be nonnegative (+inf allowed), got {value}")

    @property
    def finite(self) -> bool:
        return math.isfinite(self.sup_f) and math.isfinite(self.sup_g)


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound, itemized.  total is the float sum of the present
    terms in the fixed order of terms(), and vacuous flags a total above the
    trivial ceiling (1 for probabilities, ||F|| for risks)."""

    kind: str
    estimator_term: float
    mixing_term: float
    confidence_term: float
    entropy_term: float | None
    ceiling: float
    inputs: dict = field(default_factory=dict)

    def __post_init__(self):
        if any(p < 0 for p in self.terms().values()):
            raise ValueError("bound terms must be nonnegative")

    def terms(self) -> dict:
        out = {
            "estimator_term": self.estimator_term,
            "mixing_term": self.mixing_term,
            "confidence_term": self.confidence_term,
        }
        if self.entropy_term is not None:
            out["entropy_term"] = self.entropy_term
        return out

    @property
    def total(self) -> float:
        total = self.estimator_term + self.mixing_term + self.confidence_term
        return total if self.entropy_term is None else total + self.entropy_term

    @property
    def vacuous(self) -> bool:
        return self.total > self.ceiling


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def _n_eff(n: int, tau: int) -> int:
    if tau < 1:
        raise ValueError("tau must be a positive integer")
    if tau >= n:
        raise ValueError(f"tau={tau} must be smaller than n={n}")
    return n - tau


def martingale_tail_threshold(n_eff: int, delta: float) -> float:
    """Deviation level e * ln(1/delta) / n_eff of the doubled-empirical
    martingale tail: the conditional-mean average exceeds twice the observed
    average by this much with probability at most delta."""
    if n_eff < 1:
        raise ValueError("n_eff must be positive")
    _check_delta(delta)
    return _E * math.log(1.0 / delta) / n_eff


def excess_loss_probability_bound(
    gt_value: float,
    mixing: MixingProfile,
    n: int,
    delta: float,
    t: float | None = None,
) -> BoundReport:
    """Bound on the conditional probability of exceeding the best observed
    penalty level by t, given the threshold estimate gt at that t.

    t itself does not enter the arithmetic (it is baked into gt_value); pass
    it to have the report echo the level the estimate was taken at.
    """
    if not 0.0 <= gt_value <= 1.0:
        raise ValueError("gt_value must lie in [0, 1]")
    if t is not None and not 0.0 < t < math.inf:
        raise ValueError(f"t must be finite and positive, got {t}")
    n_eff = _n_eff(n, mixing.tau)
    _check_delta(delta)
    estimator = 2.0 * gt_value
    mixing_term = mixing.phi_tau
    confidence = martingale_tail_threshold(n_eff, delta)
    inputs = {"gt_value": gt_value, "n": n, "tau": mixing.tau, "delta": delta,
              "phi_tau": mixing.phi_tau}
    if t is not None:
        inputs["t"] = t
    return BoundReport(
        kind="excess_loss",
        estimator_term=estimator,
        mixing_term=mixing_term,
        confidence_term=confidence,
        entropy_term=None,
        ceiling=1.0,
        inputs=inputs,
    )


def risk_bound(
    g_value: float,
    class_bounds: ClassBounds,
    mixing: MixingProfile,
    n: int,
    delta: float,
    variant: str = "martingale",
) -> BoundReport:
    """Bound on sup over the class of risk minus best observed penalty."""
    if not 0.0 <= g_value < math.inf:
        raise ValueError(f"g_value must be finite and nonnegative, got {g_value}")
    if variant not in ("martingale", "azuma"):
        raise ValueError("variant must be 'martingale' or 'azuma'")
    if not class_bounds.finite:
        raise ValueError(
            "risk bounds need finite class sups; infinite-valued gauges support "
            "only the excess-loss probability route"
        )
    n_eff = _n_eff(n, mixing.tau)
    _check_delta(delta)
    if variant == "martingale":
        estimator = 2.0 * g_value
        confidence = class_bounds.sup_g * martingale_tail_threshold(n_eff, delta)
    else:
        estimator = g_value
        confidence = class_bounds.sup_g * math.sqrt(2.0 * math.log(1.0 / delta) / n_eff)
    mixing_term = class_bounds.sup_f * mixing.phi_tau
    return BoundReport(
        kind="risk",
        estimator_term=estimator,
        mixing_term=mixing_term,
        confidence_term=confidence,
        entropy_term=None,
        ceiling=class_bounds.sup_f,
        inputs={"g_value": g_value, "n": n, "tau": mixing.tau, "delta": delta,
                "phi_tau": mixing.phi_tau, "sup_f": class_bounds.sup_f,
                "sup_g": class_bounds.sup_g, "variant": variant},
    )


def entropy_penalty(alpha: float, n_eff: int) -> tuple[float, float]:
    """Entropy H(alpha) and the Stirling remainder cap Rest(n_eff, alpha)
    bounding ln binom(n_eff, alpha * n_eff) <= n_eff * H(alpha) + Rest.

    H(0) = 0 by continuity, and the empty exception set carries no remainder.
    The cap is 0 once 2 pi n_eff >= 1 / (alpha (1 - alpha)), and
    ln(pi n_eff / 2) / 2 below that.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    if n_eff < 1:
        raise ValueError("n_eff must be positive")
    if alpha == 0.0:
        return 0.0, 0.0
    h = alpha * math.log(1.0 / alpha) + (1.0 - alpha) * math.log(1.0 / (1.0 - alpha))
    if 2.0 * math.pi * n_eff >= 1.0 / (alpha * (1.0 - alpha)):
        rest = 0.0
    else:
        rest = math.log(math.pi * n_eff / 2.0) / 2.0
    return h, rest


def _exception_count(alpha: float, n_eff: int) -> int:
    """The number alpha * n_eff of excluded positions, which must be an
    integer up to 1e-9."""
    count_f = alpha * n_eff
    count = round(count_f)
    if abs(count_f - count) > 1e-9:
        raise ValueError(f"alpha * n_eff = {count_f} is not an integer")
    return count


def risk_bound_with_exceptions(
    g_value: float,
    class_bounds: ClassBounds,
    mixing: MixingProfile,
    n: int,
    delta: float,
    alpha: float,
) -> BoundReport:
    """Martingale-route risk bound tolerating an alpha fraction of excluded
    positions, paid for by the entropy penalty.

    g_value must have been computed under an exception set of cardinality
    alpha * (n - tau), which must be an integer.  alpha = 0 reduces exactly
    to risk_bound.
    """
    if not 0.0 <= g_value < math.inf:
        raise ValueError(f"g_value must be finite and nonnegative, got {g_value}")
    if not class_bounds.finite:
        raise ValueError("exception-tolerant bounds need finite class sups")
    n_eff = _n_eff(n, mixing.tau)
    _check_delta(delta)
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    _exception_count(alpha, n_eff)
    h, rest = entropy_penalty(alpha, n_eff)
    estimator = 2.0 * g_value
    mixing_term = class_bounds.sup_f * mixing.phi_tau
    # martingale_tail_threshold's order of operations, so alpha = 0 gives
    # risk_bound's confidence term bit for bit
    confidence = class_bounds.sup_g * (_E * (rest + math.log(1.0 / delta)) / n_eff)
    entropy = _E * class_bounds.sup_g * h
    return BoundReport(
        kind="risk_with_exceptions",
        estimator_term=estimator,
        mixing_term=mixing_term,
        confidence_term=confidence,
        entropy_term=entropy,
        ceiling=class_bounds.sup_f,
        inputs={"g_value": g_value, "n": n, "tau": mixing.tau, "delta": delta,
                "alpha": alpha, "phi_tau": mixing.phi_tau,
                "sup_f": class_bounds.sup_f, "sup_g": class_bounds.sup_g},
    )


def _snap_to_int(q: float) -> float:
    # floor/ceil below should not flip on 1-ulp noise from the division
    r = round(q)
    return float(r) if abs(q - r) <= 1e-9 * max(1.0, abs(q)) else q


def covering_tail_bound(
    n_cover: int,
    n: int,
    tau: int,
    t: float,
    alpha_tau: float,
) -> float:
    """Worst-case tail of the mean estimator at level t from a covering
    number of the support at scale t/2.  +inf when fewer than two full
    tau-blocks fit in the nt/2 horizon (the bound is vacuous there)."""
    if n_cover < 1:
        raise ValueError("n_cover must be a positive integer")
    if n < 1 or tau < 1:
        raise ValueError("n and tau must be positive integers")
    if not 0.0 < t < math.inf:
        raise ValueError(f"t must be finite and positive, got {t}")
    if not 0.0 <= alpha_tau <= 1.0:
        raise ValueError("alpha_tau must lie in [0, 1]")
    q = _snap_to_int(n * t / (2.0 * tau))
    m = math.floor(q)
    if m <= 1:
        return math.inf
    return n_cover / (_E * (m - 1)) + math.ceil(q) * alpha_tau
