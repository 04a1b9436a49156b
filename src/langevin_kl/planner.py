"""Step-size and iteration planners for the ULA chain.

plan_strong turns (m, L, d, eps) into a schedule guaranteeing a KL gap of at
most eps for m-strongly-convex, L-smooth negative log-densities; plan_weak
covers the merely convex case from (C1, C2, h') inputs; plan_halving restarts
with successively halved targets so the log factor never sees the initial gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _check_positive(x, what: str, finite: bool = True, error=ValueError) -> None:
    """The rule for every positive number: x > 0, and finite unless inf has a meaning there (finite=False)."""
    if not (x > 0 and (x < math.inf or not finite)):
        raise error(f"{what} must be positive{' and finite' if finite else ''}, got {x}")


def _check_count(n, what: str, least: int = 1, most: int | None = None, error=ValueError) -> None:
    """The rule for every count: an int or numpy integer, never a bool, in [least, most] (no bound if most is None)."""
    if isinstance(n, bool) or not (isinstance(n, (int, np.integer)) and least <= n and (most is None or n <= most)):
        words = {0: "a nonnegative integer", 1: "a positive integer"}.get(least, f"an integer >= {least}")
        raise error(f"{what} must be {words if most is None else f'an integer in [{least}, {most}]'}, got {n!r}")


def _check_steps(h, k=1, least: int = 1, error=ValueError) -> None:
    """The rule for every ULA (h, k): h a positive finite step size, k a step count >= least (1, or 0: no steps)."""
    _check_positive(h, "step size", error=error)
    _check_count(k, "step count", least, error=error)


@dataclass(frozen=True)
class StepPlan:
    h: float
    k: int
    epsilon: float
    regime: str  # "strong" | "weak" | "halving-stage"
    notes: str = ""

    def __post_init__(self):
        _check_steps(self.h, self.k, error=PlanningError)
        _check_positive(self.epsilon, "epsilon", error=PlanningError)


def _check_problem(m: float | None, L: float, d: int, epsilon: float | None = None) -> None:
    """A planner's inputs: L, m (None: a convex target has none) and epsilon positive and finite, m <= L, d <= 2**53."""
    _check_positive(L, "L", error=PlanningError)
    if m is not None:
        _check_positive(m, "m", error=PlanningError)
        if m > L:
            raise PlanningError(f"need m <= L, got m={m}, L={L}")
    _check_count(d, "dimension", 1, 2**53, error=PlanningError)  # a float holds d exactly
    if epsilon is not None:
        _check_positive(epsilon, "epsilon", error=PlanningError)


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
    _check_problem(m, L, d, epsilon)
    h, k = _strong_schedule(m, L, d, epsilon)
    notes = (
        "h=m*eps/(16*d*L^2); k=ceil(16*(L/m)^2*d*ln(d*L/(m*eps))/eps); "
        "time horizon k*h >= ln(d*L/(m*eps))/m"
    )
    return StepPlan(h=h, k=k, epsilon=float(epsilon), regime="strong", notes=notes)


def plan_strong_tv(m: float, L: float, d: int, delta: float) -> StepPlan:
    """Total-variation target: TV(p_k, p*) <= delta via the KL plan at eps = delta^2."""
    _check_positive(delta, "TV target delta", error=PlanningError)
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
    _check_positive(delta, "W2 target delta", error=PlanningError)
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
            _check_weak_input(name, getattr(self, name))


def _check_weak_input(name: str, x, what: str | None = None, error=PlanningError) -> None:
    """The rule for every weak input, named what (name by default): positive and finite, but h_prime may be inf."""
    _check_positive(x, what or name, finite=name != "h_prime", error=error)


def plan_weak(inputs: WeakPlanInputs, L: float, d: int, epsilon: float) -> StepPlan:
    """Convex-case schedule: h is 1/48 of the smallest of three stepsize caps.

    The caps are eps/(C1*(C1+C2)*L^2), eps^2/(C1^2*d*L^2) and h_prime; the
    first uses the C1*(C1+C2) denominator, the smaller of the two printed
    variants. k = ceil(2*C1^2/(eps*h) + 2*C1^2*max(0, ln kl0)/h); the log term
    counts the burn-in spent while the KL gap exceeds 1 and is dropped when
    kl0 <= 1.
    """
    _check_problem(None, L, d, epsilon)
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
    _check_problem(m, L, d, epsilon)
    _check_positive(kl0, "kl0", error=PlanningError)
    plans, eps_j = [], kl0
    while eps_j > epsilon:  # stage j targets kl0/2^(j+1), the last one the first at or below epsilon
        j = len(plans)
        eps_j = math.ldexp(kl0, -(j + 1))
        h_j, k_j = _strong_schedule(m, L, d, eps_j, math.log(2.0))
        notes = f"stage {j}: target eps_j = kl0/2^{j + 1}; h_j=m*eps_j/(16*d*L^2)"
        plans.append(StepPlan(h=h_j, k=k_j, epsilon=eps_j, regime="halving-stage", notes=notes))
    return plans


def discretization_error_bound(L: float, h: float, d: int, second_moment: float) -> float:
    """Multiplier of the dual-norm gradient in the one-step discretization error.

    Returns 2*L^2*h*sqrt(second_moment) + 2*L*sqrt(h*d), where second_moment
    bounds E||x||^2 at the step boundary. d is a count, 0 allowed; h may be 0.
    """
    if not all(0 <= x < math.inf for x in (L, h, second_moment)):  # NaN fails too
        raise ValueError(f"all inputs must be nonnegative and finite, got {L, h, second_moment}")
    _check_count(d, "dimension", 0)
    return 2.0 * L * L * h * math.sqrt(second_moment) + 2.0 * L * math.sqrt(h * d)


def kl_init_bound(m: float, L: float, d: int) -> float:
    """Upper bound d*L/m on KL(N(0, I/m), p*) for an m-strongly-convex target."""
    _check_problem(m, L, d)
    return d * L / m
