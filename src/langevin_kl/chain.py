"""ULA ensemble engine with counter-addressed noise streams.

Every standard normal consumed by the sampler is indexed by
(seed, purpose, step, chain, coordinate) through the Philox counter: within
one (seed, purpose, step) slot, normal k = chain*d + coordinate is word k % 4
of counter block k // 4, so every generated word is used. Results are
therefore independent of chunking and worker count, replayable from the seed
alone, and two ensembles built on the same seed consume identical noise,
which is exactly the synchronous coupling the contraction experiments need.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from .metrics import se_of_mean
from .planner import StepPlan
from .potentials import Potential, grad_u

__all__ = [
    "THREADS_ENV",
    "DivergedError",
    "GaussianInit",
    "PointInit",
    "GAUSSIAN_1_OVER_M",
    "Ensemble",
    "TraceRow",
    "CoupledTrace",
    "check_seed",
    "init_ensemble",
    "step",
    "run",
    "trace_row",
    "trace_csv",
    "coupled_run",
]

THREADS_ENV = "LANGEVIN_KL_THREADS"

_PURPOSE_INIT = 0
_PURPOSE_STEP = 1
# fewest normals a worker thread must draw per step; below this a thread's
# start-up costs more than it saves, so smaller ensembles step serially
_MIN_NORMALS_PER_WORKER = 65_536


class DivergedError(RuntimeError):
    """A chain state left the finite floats; reports the first offender."""

    def __init__(self, chain_index: int, step_index: int):
        super().__init__(f"chain {chain_index} produced a non-finite state at step {step_index}")
        self.chain_index = chain_index
        self.step_index = step_index


GAUSSIAN_1_OVER_M = "gaussian_1_over_m"


@dataclass(frozen=True)
class GaussianInit:
    """Independent Gaussian start N(mean, diag(cov_diag))."""

    mean: np.ndarray
    cov_diag: np.ndarray


@dataclass(frozen=True)
class PointInit:
    """Every chain starts at the same point x."""

    x: np.ndarray


@dataclass(frozen=True)
class Ensemble:
    """n_chains independent ULA states plus everything needed to replay them."""

    states: np.ndarray  # (n_chains, d)
    step_index: int
    h: float  # stepsize of the most recent step; 0.0 before any step
    seed: int
    potential: Potential

    @property
    def n_chains(self) -> int:
        return self.states.shape[0]

    @property
    def d(self) -> int:
        return self.states.shape[1]


def check_seed(seed) -> int:
    """The seed as an int, or ValueError unless it is an integer in [0, 2**64), a Philox key."""
    seed = operator.index(seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed}")
    return seed


# one Philox per thread, re-keyed for every slot: building a generator costs
# more than setting its state, and seeds itself from OS entropy first
_GENERATORS = threading.local()


def _philox(key: np.ndarray, counter: np.ndarray) -> Philox:
    """This thread's Philox, set to the start of (key, counter) with an empty buffer."""
    bg = getattr(_GENERATORS, "philox", None)
    if bg is None:
        bg = _GENERATORS.philox = Philox(key=key)
    bg.state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,  # the buffer is empty: the next word comes from block `counter`
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bg


def _normals(seed: int, purpose: int, step: int, lo: int, out: np.ndarray) -> None:
    """Write the standard normals of chains [lo, lo + len(out)) into out, shape (chains, d).

    Normal k = chain*d + coord of the (seed, purpose, step) slot is word k % 4
    of Philox block k // 4. A chunk starts at the block holding its first
    normal and skips the words before it, so any chunking reads exactly the
    words a serial pass reads.
    """
    if not out.flags.c_contiguous:
        raise ValueError("normals are written into C-contiguous rows only")
    flat = out.reshape(-1)  # a view of out
    k0 = lo * out.shape[1]
    skip = k0 % 4
    key = np.array([seed, 0], dtype=np.uint64)
    counter = np.array([k0 // 4, 0, step, purpose], dtype=np.uint64)
    raw = _philox(key, counter).random_raw(skip + flat.size)[skip:]
    raw >>= np.uint64(11)
    # (raw >> 11) * 2^-53 + 2^-54 lies strictly inside (0, 1), so ndtri stays finite
    np.multiply(raw, 2.0**-53, out=flat)
    flat += 2.0**-54
    ndtri(flat, out=flat)


def _workers(explicit=None) -> int:
    if explicit is not None:
        return max(1, int(explicit))
    try:
        return max(1, int(os.environ.get(THREADS_ENV, "1")))
    except ValueError:
        return 1


def _chunks(n: int, d: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous chain ranges, one per worker, each with enough normals to pay for its thread."""
    w = max(1, min(workers, n, n * d // _MIN_NORMALS_PER_WORKER))
    if w == 1:
        return [(0, n)]
    edges = np.linspace(0, n, w + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def init_ensemble(p: Potential, init, n: int, seed: int) -> Ensemble:
    """Draw n independent chains from the chosen initial law.

    init is GAUSSIAN_1_OVER_M for N(0, I/m) (requires m > 0), a GaussianInit,
    or a PointInit. Draws come from the (chain, step 0) init stream. seed is
    an integer in [0, 2**64).
    """
    if n < 1:
        raise ValueError(f"need at least one chain, got {n}")
    seed = check_seed(seed)
    if isinstance(init, str) and init == GAUSSIAN_1_OVER_M:
        if not p.m > 0:
            raise ValueError(
                "gaussian_1_over_m needs m > 0; for a weakly convex target pass an explicit "
                "GaussianInit or PointInit"
            )
        states = np.empty((n, p.d))
        _normals(seed, _PURPOSE_INIT, 0, 0, states)
        states /= math.sqrt(p.m)
    elif isinstance(init, GaussianInit):
        mean = np.atleast_1d(np.asarray(init.mean, dtype=float))
        var = np.atleast_1d(np.asarray(init.cov_diag, dtype=float))
        if mean.size != p.d or var.size != p.d:
            raise ValueError(f"init dimensions {mean.size}/{var.size} do not match d={p.d}")
        if not np.all(var > 0):
            raise ValueError("init variances must be positive")
        states = np.empty((n, p.d))
        _normals(seed, _PURPOSE_INIT, 0, 0, states)
        states *= np.sqrt(var)
        states += mean
    elif isinstance(init, PointInit):
        x = np.atleast_1d(np.asarray(init.x, dtype=float))
        if x.size != p.d:
            raise ValueError(f"init point has {x.size} coordinates, potential d={p.d}")
        states = np.tile(x, (n, 1))
    else:
        raise TypeError(f"unsupported init spec {init!r}")
    return Ensemble(states, 0, 0.0, seed, p)


def _step_chunk(e: Ensemble, h: float, lo: int, hi: int, out: np.ndarray) -> None:
    x = e.states[lo:hi]
    xi = out[lo:hi]
    _normals(e.seed, _PURPOSE_STEP, e.step_index, lo, xi)
    xi *= math.sqrt(2.0 * h)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught in step
        # a custom grad_fn may return its input, so the drift gets its own array
        drift = h * grad_u(e.potential, x)
        np.subtract(x, drift, out=drift)
        xi += drift


def step(e: Ensemble, h: float, workers: int | None = None) -> Ensemble:
    """Advance every chain one update x' = x - h grad U(x) + sqrt(2h) xi.

    The per-chain noise slot is (seed, step_index), so parallel and serial
    execution produce bit-identical states.
    """
    if not h > 0:
        raise ValueError(f"step size must be positive, got {h}")
    n = e.n_chains
    out = np.empty_like(e.states, order="C")
    bounds = _chunks(n, e.d, _workers(workers))
    if len(bounds) == 1:
        _step_chunk(e, h, 0, n, out)
    else:
        with ThreadPoolExecutor(max_workers=len(bounds)) as pool:
            futures = [pool.submit(_step_chunk, e, h, lo, hi, out) for lo, hi in bounds]
            for f in futures:
                f.result()
    if not np.isfinite(out).all():
        bad = np.flatnonzero(~np.isfinite(out).all(axis=1))[0]
        raise DivergedError(int(bad), e.step_index)
    return Ensemble(out, e.step_index + 1, float(h), e.seed, e.potential)


@dataclass(frozen=True)
class TraceRow:
    step: int
    second_moment: float
    mean_norm: float
    second_moment_se: float


def trace_row(e: Ensemble) -> TraceRow:
    """Ensemble mean of |x|^2 with its standard error, and the norm of the mean, at e's step."""
    s = np.sum(e.states * e.states, axis=1)
    return TraceRow(
        step=e.step_index,
        second_moment=float(s.mean()),
        mean_norm=float(np.linalg.norm(e.states.mean(axis=0))),
        second_moment_se=se_of_mean(s) if s.size > 1 else 0.0,
    )


def run(
    e: Ensemble, plan: StepPlan, record_every: int = 1, workers: int | None = None
) -> tuple[Ensemble, list[TraceRow]]:
    """Execute plan.k steps at plan.h, recording summary rows.

    Rows are recorded at step 0, at every record_every-th step, and at the
    final step.
    """
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    rows = [trace_row(e)]
    cur = e
    for i in range(plan.k):
        cur = step(cur, plan.h, workers=workers)
        if cur.step_index % record_every == 0 or i == plan.k - 1:
            rows.append(trace_row(cur))
    return cur, rows


def trace_csv(rows: list[TraceRow]) -> str:
    """Serialize trace rows to CSV: step,second_moment,mean_norm."""
    lines = ["step,second_moment,mean_norm"]
    lines += [f"{r.step},{r.second_moment!r},{r.mean_norm!r}" for r in rows]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CoupledTrace:
    """Root mean squared distance between two synchronously coupled ensembles.

    Entry t covers step t (entry 0 is the initial coupling); se holds the
    delta-method standard error of each entry.
    """

    rms: np.ndarray
    se: np.ndarray


def _coupled_stats(ea: Ensemble, eb: Ensemble) -> tuple[float, float]:
    d2 = np.sum((ea.states - eb.states) ** 2, axis=1)
    m = float(d2.mean())
    r = math.sqrt(m)
    se = se_of_mean(d2) / (2.0 * r) if d2.size > 1 and r > 0 else 0.0
    return r, se


def coupled_run(
    p: Potential, init_a, init_b, h: float, k: int, n: int, seed: int, workers: int | None = None
) -> CoupledTrace:
    """Drive two ensembles with identical noise and record their RMS distance.

    Requires h <= 1/L, the regime in which a single convex smooth ULA step
    contracts every coupled pair.
    """
    if k < 1:
        raise ValueError(f"need at least one step, got k={k}")
    if h > 1.0 / p.L:
        raise ValueError(f"coupled run requires h <= 1/L = {1.0 / p.L}, got h={h}")
    ea = init_ensemble(p, init_a, n, seed)
    eb = init_ensemble(p, init_b, n, seed)
    rms = np.empty(k + 1)
    se = np.empty(k + 1)
    rms[0], se[0] = _coupled_stats(ea, eb)
    for i in range(k):
        ea = step(ea, h, workers=workers)
        eb = step(eb, h, workers=workers)
        rms[i + 1], se[i + 1] = _coupled_stats(ea, eb)
    return CoupledTrace(rms=rms, se=se)
