"""ULA ensemble engine with block-addressed noise streams.

An ensemble's chains fall into blocks of ceil(65536 / d) whole chains. Block
b of the (seed, purpose, step) slot holds numpy's ziggurat normals from an
SFC64 seeded by the Philox words at key (seed, 0), counter
(0, b, step, purpose), so its noise depends on its address alone. Every
chain of an ensemble takes its step in one vectorised pass: results are
replayable from the seed (bit-exact for a given numpy version, which fixes the
ziggurat), and two ensembles on one seed draw identical blocks, the
synchronous coupling the contraction experiments need.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import SFC64, Generator, Philox

from .metrics import mean_and_se
from .planner import StepPlan, _check_count, _check_dimension, _check_finite, _check_positive, _check_steps
from .potentials import Potential, grad_u

__all__ = [
    "DivergedError",
    "GaussianInit",
    "PointInit",
    "GAUSSIAN_1_OVER_M",
    "Ensemble",
    "TraceRow",
    "CoupledTrace",
    "init_ensemble",
    "step",
    "run",
    "trace_csv",
    "coupled_run",
]

_PURPOSE_INIT = 0
_PURPOSE_STEP = 1
# a block holds ceil(_BLOCK_NORMALS / d) whole chains; the size is part of the
# stream layout, so changing it changes every chain trajectory
_BLOCK_NORMALS = 65_536


class DivergedError(RuntimeError):
    """A chain state left the finite floats; reports the first offender and its last finite state."""

    def __init__(self, chain_index: int, step_index: int, state: np.ndarray):
        super().__init__(f"chain {chain_index} produced a non-finite state at step {step_index}")
        self.chain_index = chain_index
        self.step_index = step_index
        self.state = state  # the chain before the step that left the finite floats


GAUSSIAN_1_OVER_M = "gaussian_1_over_m"


@dataclass(frozen=True)
class GaussianInit:
    """Independent Gaussian start N(mean, diag(cov_diag)): a finite mean, a positive finite variance per coordinate."""

    mean: np.ndarray
    cov_diag: np.ndarray

    def __post_init__(self):
        mean, var = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (self.mean, self.cov_diag))
        _check_dimension(mean.size, var.size, "init mean", "init variances")
        _check_count(var.size, "init dimension")  # an empty start has no least variance
        for bound in (var.min(), var.max()):  # every variance lies between them, and a NaN one makes both NaN
            _check_positive(bound, "init variances")
        _check_finite(mean, "init mean")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov_diag", var)


@dataclass(frozen=True)
class PointInit:
    """Every chain starts at the same finite point x."""

    x: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        _check_finite(x, "init point")
        object.__setattr__(self, "x", x)


@dataclass(frozen=True)
class Ensemble:
    """n_chains independent ULA states plus everything needed to replay them."""

    states: np.ndarray  # (n_chains, d)
    step_index: int
    seed: int
    potential: Potential

    @property
    def n_chains(self) -> int:
        return self.states.shape[0]

    @property
    def d(self) -> int:
        return self.states.shape[1]


def check_seed(seed, what: str = "seed", error=ValueError) -> int:
    """The seed as an int, or error unless it is a count (planner._check_count) in [0, 2**64), a Philox key."""
    try:
        _check_count(seed, what, 0, (1 << 64) - 1)
    except ValueError:  # the count rule's bound would read 18446744073709551615
        raise error(f"{what} must be an integer in [0, 2**64), got {seed}") from None
    return int(seed)


class _BlockStream:
    """One thread's bit generators, and the state dicts that point them at a block.

    The dicts hold lists that are rewritten in place for every block; the
    setters copy them, and read lists faster than arrays. Building a bit
    generator costs more than setting its state, so each thread builds its
    Philox, SFC64 and Generator once.
    """

    def __init__(self):
        self.key = [0, 0]
        self.counter = [0, 0, 0, 0]
        self.philox = Philox(0)
        self.philox_state = {
            "bit_generator": "Philox",
            "state": {"counter": self.counter, "key": self.key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,  # the buffer is empty: the next word is the first of `counter`
            "has_uint32": 0,
            "uinteger": 0,
        }
        self.words = [0, 0, 0, 1]  # numpy's sfc64_set_seed: (w0, w1, w2, 1)
        self.sfc64 = SFC64(0)
        self.sfc64_state = {
            "bit_generator": "SFC64",
            "state": {"state": self.words},
            "has_uint32": 0,
            "uinteger": 0,
        }
        self.normal = Generator(self.sfc64)

    def at(self, seed: int, purpose: int, step: int, b: int) -> Generator:
        """The Generator at the start of block b's stream.

        The first three words of Philox key (seed, 0) from counter
        (0, b, step, purpose) seed the SFC64 as numpy's sfc64_set_seed does:
        state (w0, w1, w2, 1), then 12 outputs discarded.
        """
        self.key[0] = seed
        self.counter[1:] = b, step, purpose
        self.philox.state = self.philox_state
        self.words[:3] = self.philox.random_raw(3).tolist()
        self.sfc64.state = self.sfc64_state
        self.sfc64.random_raw(12)  # as output=False would, at a third of its cost
        return self.normal


_STREAMS = threading.local()  # each thread's _BlockStream, built for its first block


def _normals(seed: int, purpose: int, step: int, out: np.ndarray) -> None:
    """Write the standard normals of the slot's chains 0, ..., len(out) - 1 into out, shape (chains, d).

    Block b of the (seed, purpose, step) slot is numpy's
    ziggurat on an SFC64 seeded by the first three words of Philox key
    (seed, 0) from counter (0, b, step, purpose): the counter-based Philox
    hashes the address, the cheaper SFC64 draws the bulk. A block cut short by
    the end of the ensemble holds its stream's first normals.
    """
    if not out.flags.c_contiguous:
        raise ValueError("normals are written into C-contiguous rows only")
    per = -(-_BLOCK_NORMALS // out.shape[1])  # chains per block
    stream = getattr(_STREAMS, "stream", None)
    if stream is None:
        stream = _STREAMS.stream = _BlockStream()
    for a in range(0, out.shape[0], per):
        stream.at(seed, purpose, step, a // per).standard_normal(out=out[a : a + per])


def init_ensemble(p: Potential, init, n: int, seed: int) -> Ensemble:
    """Draw n independent chains from the chosen initial law.

    init is GAUSSIAN_1_OVER_M for N(0, I/m) (requires m > 0), a GaussianInit,
    or a PointInit. Draws come from the (chain, step 0) init stream. seed is
    an integer in [0, 2**64).
    """
    _check_count(n, "chain count")
    seed = check_seed(seed)
    if isinstance(init, str) and init == GAUSSIAN_1_OVER_M:
        if not p.m > 0:  # worded for a run config's [init] too, where this is the default
            raise ValueError(
                f"the default {GAUSSIAN_1_OVER_M} init needs m > 0 and {p.kind} has m = {p.m}; "
                "set an explicit [init] (kind = gaussian or point)"
            )
        states = np.empty((n, p.d))
        _normals(seed, _PURPOSE_INIT, 0, states)
        states /= math.sqrt(p.m)
    elif isinstance(init, GaussianInit):
        _check_dimension(init.mean.size, p.d, "init", "potential")
        states = np.empty((n, p.d))
        _normals(seed, _PURPOSE_INIT, 0, states)
        states *= np.sqrt(init.cov_diag)
        states += init.mean
    elif isinstance(init, PointInit):
        _check_dimension(init.x.size, p.d, "init", "potential")
        states = np.tile(init.x, (n, 1))
    else:
        raise TypeError(f"unsupported init spec {init!r}")
    return Ensemble(states, 0, seed, p)


def step(e: Ensemble, h: float, workers: int = 1, out: np.ndarray | None = None) -> Ensemble:
    """Advance every chain one update x' = x - h grad U(x) + sqrt(2h) xi.

    The per-chain noise slot is (seed, step_index). The new states are written
    into out if given: a C-contiguous float64 array of e.states' shape that
    shares no memory with it.

    Steps are serial. workers is a positive count by the count rule and has
    no other effect: it is kept only because perfbench/run.py still times
    step(e, h, workers=1) against workers=2, and can go once it stops.
    """
    _check_positive(h, "step size")
    _check_count(workers, "workers")
    if out is None:
        out = np.empty_like(e.states, order="C")
    elif (
        out.shape != e.states.shape
        or out.dtype != np.float64
        or not out.flags.c_contiguous
        or not out.flags.writeable
    ):
        raise ValueError(f"out must be a writeable C-contiguous float64 array of shape {e.states.shape}")
    elif np.shares_memory(out, e.states):
        raise ValueError("out overlaps the states it is computed from")
    x = e.states
    _normals(e.seed, _PURPOSE_STEP, e.step_index, out)
    out *= math.sqrt(2.0 * h)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught below
        # h * grad is a new array, so x - h * grad is written into it
        drift = h * grad_u(e.potential, x)
        np.subtract(x, drift, out=drift)
        out += drift
    if not np.isfinite(out).all():
        bad = np.flatnonzero(~np.isfinite(out).all(axis=1))[0]
        raise DivergedError(int(bad), e.step_index, e.states[bad].copy())
    return Ensemble(out, e.step_index + 1, e.seed, e.potential)


@dataclass(frozen=True)
class TraceRow:
    step: int
    second_moment: float
    mean_norm: float
    second_moment_se: float


def trace_row(e: Ensemble) -> TraceRow:
    """Ensemble mean of |x|^2 with its standard error, and the norm of the mean, at e's step."""
    second, se = mean_and_se(np.sum(e.states * e.states, axis=1))
    return TraceRow(
        step=e.step_index,
        second_moment=second,
        mean_norm=float(np.linalg.norm(e.states.mean(axis=0))),
        second_moment_se=se,
    )


def _ensemble_steps(e: Ensemble, stages, record_every: int, take=step):
    """Step e through each (h, k) stage by take: the only loop that steps an ensemble.

    Lazily yields (h, n, ensemble) at each multiple of record_every on e's own
    step index and at each stage's end, n steps after the last such point.
    e's states and one spare take the steps in turn (no fresh pages a step),
    so a yielded ensemble holds only until the generator resumes.
    """
    spare = np.empty_like(e.states, order="C")
    for h, k in stages:
        end = e.step_index + k
        while e.step_index < end:
            n = min(end, (e.step_index // record_every + 1) * record_every) - e.step_index
            for _ in range(n):
                e, spare = take(e, h, out=spare), e.states
            yield h, n, e


def run(e: Ensemble, plan: StepPlan, record_every: int = 1) -> tuple[Ensemble, list[TraceRow]]:
    """Execute plan.k steps at plan.h, recording summary rows; e itself is left as it is.

    Rows are recorded at e's own step, at every record_every-th step, and at
    the final step.
    """
    _check_count(record_every, "record_every")
    rows = [trace_row(e)]
    for _, _, e in _ensemble_steps(replace(e, states=e.states.copy()), [(plan.h, plan.k)], record_every):
        rows.append(trace_row(e))
    return e, rows


def _csv_text(columns: tuple[str, ...], rows) -> str:
    """A header of the columns, then a line a row of its fields of those names: floats by repr, others by str."""
    cells = [columns, *([getattr(r, c) for c in columns] for r in rows)]
    lines = (",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in line) for line in cells)
    return "".join(line + "\n" for line in lines)


def trace_csv(rows: list[TraceRow]) -> str:
    """Serialize trace rows to CSV: step,second_moment,mean_norm."""
    return _csv_text(("step", "second_moment", "mean_norm"), rows)


@dataclass(frozen=True)
class CoupledTrace:
    """Root mean squared distance between two synchronously coupled ensembles.

    Entry t covers step t (entry 0 is the initial coupling); se holds the
    delta-method standard error of each entry.
    """

    rms: np.ndarray
    se: np.ndarray


def _coupled_stats(ea: Ensemble, eb: Ensemble) -> tuple[float, float]:
    m, se = mean_and_se(np.sum((ea.states - eb.states) ** 2, axis=1))
    r = math.sqrt(m)
    return r, (se / (2.0 * r) if r > 0 else 0.0)


def coupled_run(p: Potential, init_a, init_b, h: float, k: int, n: int, seed: int) -> CoupledTrace:
    """Drive two ensembles with identical noise and record their RMS distance.

    Requires h <= 1/L, the regime in which a single convex smooth ULA step
    contracts every coupled pair.
    """
    _check_steps(h, k)
    _check_count(n, "chain count")
    if h > 1.0 / p.L:
        raise ValueError(f"coupled run requires h <= 1/L = {1.0 / p.L}, got h={h}")
    ea = init_ensemble(p, init_a, n, seed)
    eb = init_ensemble(p, init_b, n, seed)
    pairs = zip(_ensemble_steps(ea, [(h, k)], 1), _ensemble_steps(eb, [(h, k)], 1))
    stats = [_coupled_stats(ea, eb)] + [_coupled_stats(a, b) for (_, _, a), (_, _, b) in pairs]
    rms, se = np.array(stats).T
    return CoupledTrace(rms=rms, se=se)
