"""Step-size and iteration planners for the ULA chain.

plan_strong turns (m, L, d, eps) into a schedule guaranteeing a KL gap of at
most eps for m-strongly-convex, L-smooth negative log-densities; plan_weak
covers the merely convex case from (C1, C2, h') inputs; plan_halving restarts
with successively halved targets so the log factor never sees the initial gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PlanningError",
    "StepPlan",
    "WeakPlanInputs",
    "plan_strong",
    "plan_strong_tv",
    "plan_strong_w2",
    "plan_weak",
    "plan_halving",
    "discretization_error_bound",
    "kl_init_bound",
]


class PlanningError(ValueError):
    """No valid (h, k) schedule exists for the requested target."""


@dataclass(frozen=True)
class StepPlan:
    h: float
    k: int
    epsilon: float
    regime: str  # "strong" | "weak" | "halving-stage"
    notes: str = ""

    def __post_init__(self):
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise PlanningError(f"step size must be positive and finite, got {self.h}")
        if self.k < 1:
            raise PlanningError(f"iteration count must be >= 1, got {self.k}")
        if not self.epsilon > 0.0:
            raise PlanningError(f"target accuracy must be positive, got {self.epsilon}")


def _check_mld(m: float, L: float, d: int) -> None:
    if not (0 < m <= L):
        raise PlanningError(f"need 0 < m <= L, got m={m}, L={L}")
    if not 1 <= d <= 2**53:  # a float holds d exactly
        raise PlanningError(f"dimension must be in [1, 2**53], got {d}")


def _quotient(a: float, b: float) -> float:
    """a / b for a >= 0, b >= 0, and inf where b underflowed to 0 (the schedule then fails its checks)."""
    return a / b if b else math.inf


def _step_count(k: float) -> int:
    """ceil(k), where every schedule's step count becomes an int; an infinite or NaN k is a PlanningError."""
    if not math.isfinite(k):
        raise PlanningError(f"step count {k} is not finite: the inputs are beyond float range")
    return math.ceil(k)


def _strong_schedule(m: float, L: float, d: int, epsilon: float, log_factor: float | None = None):
    """h = m*eps/(16*d*L^2) and k = ceil(16*(L/m)^2*d*log_factor/eps), log_factor ln(d*L/(m*eps)) by default.

    Every target needs d*L/(m*eps) > 1, which keeps that log positive and h < 1/(16*L).
    """
    ratio = _quotient(d * L, m * epsilon)
    if ratio <= 1.0:
        raise PlanningError(
            f"target epsilon={epsilon} too large: d*L/(m*eps)={ratio} <= 1 makes the log factor "
            "ln(d*L/(m*eps)) non-positive and h >= 1/(16*L)"
        )
    if log_factor is None:
        log_factor = math.log(ratio)
    h = _quotient(m * epsilon, 16.0 * d * L * L)
    return h, _step_count(_quotient(16.0 * (L * L), m * m) * d * log_factor / epsilon)


def plan_strong(m: float, L: float, d: int, epsilon: float) -> StepPlan:
    """Schedule reaching KL(p_k, p*) <= epsilon under m-strong convexity.

    h = m*eps/(16*d*L^2) and k = ceil(16*(L/m)^2*d*ln(d*L/(m*eps))/eps). Valid
    only while d*L/(m*eps) > 1, so the log factor is positive; the resulting h
    always satisfies h < 1/(16*L).
    """
    _check_mld(m, L, d)
    if not epsilon > 0:
        raise PlanningError(f"epsilon must be positive, got {epsilon}")
    h, k = _strong_schedule(m, L, d, epsilon)
    notes = (
        "h=m*eps/(16*d*L^2); k=ceil(16*(L/m)^2*d*ln(d*L/(m*eps))/eps); "
        "time horizon k*h >= ln(d*L/(m*eps))/m"
    )
    return StepPlan(h=h, k=k, epsilon=float(epsilon), regime="strong", notes=notes)


def plan_strong_tv(m: float, L: float, d: int, delta: float) -> StepPlan:
    """Total-variation target: TV(p_k, p*) <= delta via the KL plan at eps = delta^2."""
    if not delta > 0:
        raise PlanningError(f"TV target delta must be positive, got {delta}")
    if not delta * delta > 0:
        raise PlanningError(f"TV target delta={delta} is too small: eps = delta^2 underflows to 0")
    base = plan_strong(m, L, d, delta * delta)
    notes = base.notes + f"; targets TV<={delta} via eps=delta^2 and TV<=sqrt(eps)"
    return StepPlan(base.h, base.k, base.epsilon, base.regime, notes)


def plan_strong_w2(m: float, L: float, d: int, delta: float) -> StepPlan:
    """Wasserstein-2 target: W2(p_k, p*) <= delta via eps = m*delta^2/2.

    The bound W2 <= sqrt(2*eps/m) then equals delta exactly; the looser
    convention eps = m*delta^2 leaves a sqrt(2) slack and is recorded in the
    notes only.
    """
    if not delta > 0:
        raise PlanningError(f"W2 target delta must be positive, got {delta}")
    eps = m * delta * delta / 2.0
    if m > 0 and not eps > 0:
        raise PlanningError(f"W2 target delta={delta} is too small: eps = m*delta^2/2 underflows to 0")
    base = plan_strong(m, L, d, eps)
    notes = base.notes + (
        f"; targets W2<={delta} via eps=m*delta^2/2={eps} "
        f"(looser convention eps=m*delta^2={2.0 * eps})"
    )
    return StepPlan(base.h, base.k, base.epsilon, base.regime, notes)


@dataclass(frozen=True)
class WeakPlanInputs:
    """Inputs for the convex (m = 0) planner.

    c1 is the initial W2 radius W2(p_0, p*), c2 the root second moment of the
    target, h_prime the largest stepsize keeping the h-chain's stationary law
    within W2 radius c1 of the target (math.inf allowed as a sentinel), and
    kl0 the initial KL gap in nats.
    """

    c1: float
    c2: float
    h_prime: float
    kl0: float

    def __post_init__(self):
        for name in ("c1", "c2", "h_prime", "kl0"):
            v = getattr(self, name)
            if not v > 0:
                raise PlanningError(f"{name} must be positive, got {v}")


def plan_weak(inputs: WeakPlanInputs, L: float, d: int, epsilon: float) -> StepPlan:
    """Convex-case schedule: h is 1/48 of the smallest of three stepsize caps.

    The caps are eps/(C1*(C1+C2)*L^2), eps^2/(C1^2*d*L^2) and h_prime; the
    first uses the C1*(C1+C2) denominator, the smaller of the two printed
    variants. k = ceil(2*C1^2/(eps*h) + 2*C1^2*max(0, ln kl0)/h); the log term
    counts the burn-in spent while the KL gap exceeds 1 and is dropped when
    kl0 <= 1.
    """
    if not L > 0:
        raise PlanningError(f"L must be positive, got {L}")
    if not 1 <= d <= 2**53:
        raise PlanningError(f"dimension must be in [1, 2**53], got {d}")
    if not epsilon > 0:
        raise PlanningError(f"epsilon must be positive, got {epsilon}")
    c1, c2 = inputs.c1, inputs.c2
    caps = {
        "eps/(C1*(C1+C2)*L^2)": _quotient(epsilon, c1 * (c1 + c2) * L * L),
        "eps^2/(C1^2*d*L^2)": _quotient(epsilon * epsilon, c1 * c1 * d * L * L),
        "h_prime": inputs.h_prime,
    }
    binding = min(caps, key=caps.get)
    h = caps[binding] / 48.0
    k = _step_count(
        _quotient(2.0 * c1 * c1, epsilon * h) + _quotient(2.0 * c1 * c1 * max(0.0, math.log(inputs.kl0)), h)
    )
    notes = (
        f"h=min(caps)/48, binding cap {binding}; "
        "k=ceil(2*C1^2/(eps*h) + 2*C1^2*max(0, ln kl0)/h)"
    )
    return StepPlan(h=h, k=k, epsilon=float(epsilon), regime="weak", notes=notes)


def plan_halving(m: float, L: float, d: int, epsilon: float, kl0: float) -> list[StepPlan]:
    """Restart schedule halving the KL gap per stage, from kl0 down to epsilon.

    Stage j targets eps_j = kl0/2^(j+1) with h_j = m*eps_j/(16*d*L^2) and
    k_j = ceil(16*(L/m)^2*d*ln(2)/eps_j): each stage only needs to halve its
    starting gap, so ln(2) replaces the full log factor. Like plan_strong's,
    every target needs d*L/(m*eps_j) > 1, so kl0 must be below 2*d*L/m.
    Returns [] when kl0 <= epsilon (nothing left to do).
    """
    _check_mld(m, L, d)
    if not epsilon > 0:
        raise PlanningError(f"epsilon must be positive, got {epsilon}")
    if not 0 < kl0 < math.inf:
        raise PlanningError(f"kl0 must be positive and finite, got {kl0}")
    plans, eps_j = [], kl0
    while eps_j > epsilon:  # stage j targets kl0/2^(j+1), the last one the first at or below epsilon
        j = len(plans)
        eps_j = math.ldexp(kl0, -(j + 1))
        h_j, k_j = _strong_schedule(m, L, d, eps_j, math.log(2.0))
        plans.append(
            StepPlan(
                h=h_j,
                k=k_j,
                epsilon=eps_j,
                regime="halving-stage",
                notes=f"stage {j}: target eps_j = kl0/2^{j + 1}; h_j=m*eps_j/(16*d*L^2)",
            )
        )
    return plans


def discretization_error_bound(L: float, h: float, d: int, second_moment: float) -> float:
    """Multiplier of the dual-norm gradient in the one-step discretization error.

    Returns 2*L^2*h*sqrt(second_moment) + 2*L*sqrt(h*d), where second_moment
    bounds E||x||^2 at the step boundary.
    """
    if not (L >= 0 and h >= 0 and d >= 0 and second_moment >= 0):  # NaN fails too
        raise ValueError("all inputs must be nonnegative")
    return 2.0 * L * L * h * math.sqrt(second_moment) + 2.0 * L * math.sqrt(h * d)


def kl_init_bound(m: float, L: float, d: int) -> float:
    """Upper bound d*L/m on KL(N(0, I/m), p*) for an m-strongly-convex target."""
    _check_mld(m, L, d)
    return d * L / m
