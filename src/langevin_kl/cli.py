"""Batch front door: plan schedules, run experiments, verify inequality suites.

Subcommands:
    plan    print an (h, k) schedule for a strong, weak or halving regime
    run     execute a config file; writes a JSON report plus metric CSVs
    verify  run a named property suite and report margins

Exit codes: 0 pass, 1 run/verify failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import platform
import sys
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import accumulate
from pathlib import Path

import numpy as np

from . import __version__
from .chain import (
    GAUSSIAN_1_OVER_M,
    GaussianInit,
    PointInit,
    _csv_text,
    _ensemble_steps,
    check_seed,
    coupled_run,
    init_ensemble,
    run as run_chain,
    step,
    trace_csv,
    trace_row,
)
# stationary_law is not called here: it stays imported because the benchmark
# probe (perfbench/probe.py) wraps the oracle functions by their names on cli
from .gaussian_oracle import (
    GaussianLaw,
    GaussianPath,
    _check_step,
    exact_flow_law,
    fisher_info_relative,
    gaussian_1d,
    kl_gaussian,
    stationary_law,
    target_law,
    tv_gaussian_1d,
    ula_step_law,
    w2_gaussian,
)
from .grid_oracle import (
    _step_operator,
    default_grid,
    discretize_law,
    estimate_h_prime,
    kl_grid,
    second_moment_grid,
    target_density_grid,
    tv_grid,
    ula_step_grid,
    w2_grid_1d,
)
from .metrics import summarize, z_scores_vs_oracle
from .planner import (
    PlanningError,
    StepPlan,
    WeakPlanInputs,
    _check_count,
    _check_positive,
    _check_weak_input,
    kl_init_bound,
    plan_halving,
    plan_strong,
    plan_strong_tv,
    plan_strong_w2,
    plan_weak,
)
from .potentials import construct_potential

MARGIN_TOL = -1e-9
# the largest |mean|, |x| and sqrt(cov_diag) of an [init]: |x|^2, about 1e120 a coordinate, is the largest power
# of a state formed (metrics.mean_and_se scales by a power of two before it squares), well inside the float range
_INIT_MAX = 1e60
# the largest max/min of an [init] cov_diag on a non-diagonal A: rotated into its eigenbasis,
# the smallest variance moves by about 3e-16 * max/min of itself (d <= 100), at 1e16 below 0
_INIT_COND = 1e12
# the most steps a run takes: planner._step_count holds step counts exactly up
# to 2**53, far below the 2**64 step indices of the Philox counter
_MAX_STEPS = 2**53
# a run whose first record interval projects the rest of its steps past this
# many seconds says so on stderr: a finite plan may still outlast anyone's wait
_ETA_SECONDS = 60.0
_ETA_UNITS = (("years", 365.25 * 86400.0), ("days", 86400.0), ("h", 3600.0), ("min", 60.0))


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# plan


def _stages(regime: str, m, L, d, eps, kl0, weak: WeakPlanInputs | None, resolved: dict) -> list[StepPlan]:
    """The stages of a regime's schedule; a halving kl0 defaults to kl_init_bound and goes into resolved."""
    # the planners are called by their names on this module, where the benchmark probe times them
    if regime == "strong":
        return [plan_strong(m, L, d, eps)]
    if regime == "weak":
        return [plan_weak(weak, L, d, eps)]
    resolved["halving_kl0"] = kl0 = kl_init_bound(m, L, d) if kl0 is None else kl0
    return plan_halving(m, L, d, eps, kl0)


# the number flags each regime reads, required then optional, besides its target's:
# --eps for a KL target, --delta for a TV or W2 one (strong only)
_PLAN_FLAGS = {"strong": ("m L d", ""), "weak": ("L d c1 c2 kl0", "h_prime"), "halving": ("m L d", "kl0")}
# plan's number flags, by the names they set
_PLAN_NUMBERS = {name: "--" + name.replace("_", "-") for name in "m L d eps delta c1 c2 h_prime kl0".split()}


def _plan_from_args(args):
    if args.target != "kl" and args.regime != "strong":
        raise ConfigError(f"--target {args.target} needs --regime strong")
    required, optional = (names.split() for names in _PLAN_FLAGS[args.regime])
    for name in required:
        if getattr(args, name) is None:
            raise ConfigError(f"--{name} is required for the {args.regime} regime")
    by = "eps" if args.target == "kl" else "delta"
    if getattr(args, by) is None:
        raise ConfigError(f"--{by} is required for --target {args.target}")
    reads = [*required, by, *optional]
    for name, flag in _PLAN_NUMBERS.items():
        if name not in reads and getattr(args, name) is not None:
            raise ConfigError(
                f"{flag} is not read by --regime {args.regime} --target {args.target}, "
                f"which takes {', '.join(map(_PLAN_NUMBERS.get, reads))}"
            )
    if by == "delta":
        fn = plan_strong_tv if args.target == "tv" else plan_strong_w2
        return [fn(args.m, args.L, args.d, args.delta)]
    h_prime = math.inf if args.h_prime is None else args.h_prime
    weak = WeakPlanInputs(args.c1, args.c2, h_prime, args.kl0) if args.regime == "weak" else None
    return _stages(args.regime, args.m, args.L, args.d, args.eps, args.kl0, weak, {})


def cmd_plan(args) -> int:
    try:
        plans = _plan_from_args(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PlanningError as exc:
        print(f"planning error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        # a halving schedule is a list of stages, however many its numbers give
        doc = {"stages": [asdict(p) for p in plans]} if args.regime == "halving" else asdict(plans[0])
        print(json.dumps(doc, sort_keys=True))
        return 0
    if not plans:
        print("no stages needed: kl0 <= epsilon")
        return 0
    for p in plans:
        print(f"regime={p.regime} h={p.h!r} k={p.k} epsilon={p.epsilon!r}")
        print(f"  notes: {p.notes}")
    if len(plans) > 1:
        print(f"total steps: {sum(p.k for p in plans)}")
    return 0


# ---------------------------------------------------------------------------
# run config


@dataclass
class RunConfig:
    regime: str
    epsilon: float
    n_chains: int
    seed: int
    record_every: int
    out_dir: str
    potential_kind: str
    potential_params: dict
    init_kind: str
    init_params: dict
    gaussian_oracle: bool
    grid_oracle: bool
    grid_n: int | None
    weak: dict = field(default_factory=dict)
    halving_kl0: float | None = None
    raw: dict = field(default_factory=dict)


def _floats(text: str) -> list[float]:
    return [float(t) for t in text.replace(",", " ").split()]


def _matrix(text: str) -> list[list[float]]:
    # rows on separate (indented) lines or separated by "|"
    return [_floats(row) for row in text.replace("|", "\n").splitlines() if row.strip()]


_WEAK_INPUTS = ("c1", "c2", "h_prime", "kl0")
# the keys each [potential] and [init] kind reads besides kind, by the argument or field each parses to;
# a key its kind does not read is a config error, and so is one it reads left out, unless _OPTIONAL_KEYS
_KIND_KEYS = {
    "potential": {
        "quadratic-diagonal": {"diag": _floats},
        "quadratic-full": {"matrix": _matrix},
        "huber": {"delta": float, "dim": int},
    },
    "init": {
        "gaussian": {"mean": _floats, "cov_diag": _floats},
        "point": {"x": _floats},
        GAUSSIAN_1_OVER_M: {},
    },
}
_OPTIONAL_KEYS = ("dim",)  # huber's dim defaults to 1
# the keys each section of a run config may set; any other section or key is a config error
_CONFIG_KEYS = {
    "run": ("regime", "epsilon", "n_chains", "seed", "record_every", "out_dir"),
    **{s: ("kind", *(key for keys in kinds.values() for key in keys)) for s, kinds in _KIND_KEYS.items()},
    "oracles": ("gaussian", "grid", "grid_n"),
    "weak": _WEAK_INPUTS,
    "halving": ("kl0",),
}


def _check_keys(cp: configparser.ConfigParser) -> None:
    """Refuse a section or key outside _CONFIG_KEYS; a [DEFAULT] key would be set in every section."""
    for key in cp.defaults():
        raise ConfigError(f"unknown key [{cp.default_section}] {key}: set each key in its own section")
    for section in cp.sections():
        if section not in _CONFIG_KEYS:
            raise ConfigError(f"unknown section [{section}]; the sections are [{'], ['.join(_CONFIG_KEYS)}]")
        keys = _CONFIG_KEYS[section]
        for key in cp[section]:
            if key not in keys:
                raise ConfigError(f"unknown key [{section}] {key}; [{section}] takes {', '.join(keys)}")


def _kind(text, section: str, kind: str) -> dict:
    """The parsed keys of a known [potential] or [init] kind that sets every key it needs and no other."""
    if kind not in _KIND_KEYS[section]:
        raise ConfigError(f"unknown {section} kind {kind!r}")
    parsers = _KIND_KEYS[section][kind]
    takes = ", ".join(parsers) or "no other key"
    if extra := [key for key in text if key not in ("kind", *parsers)]:
        raise ConfigError(f"[{section}] kind = {kind} does not read {', '.join(extra)}; it takes {takes}")
    if missing := [key for key in parsers if key not in text and key not in _OPTIONAL_KEYS]:
        raise ConfigError(f"[{section}] kind = {kind} needs {', '.join(missing)}; it takes {takes}")
    return {key: parse(text[key]) for key, parse in parsers.items() if key in text}


def load_config(path: str) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        if not cp.read(path):
            raise ConfigError(f"cannot read config file {path}")
        _check_keys(cp)
        run = cp["run"]
        if "epsilon" not in run:
            raise ConfigError("[run] needs epsilon")
        regime = run.get("regime", "strong")
        if regime not in ("strong", "weak", "halving"):
            raise ConfigError(f"unknown regime {regime!r}")
        pot = cp["potential"]
        kind = pot.get("kind")
        params = _kind(pot, "potential", kind)
        init = cp["init"] if cp.has_section("init") else {}
        init_kind = init.get("kind", GAUSSIAN_1_OVER_M)
        init_params = _kind(init, "init", init_kind)
        weak_text = cp["weak"] if cp.has_section("weak") else {}
        weak = {key: _weak_value(weak_text.get(key, "estimate"), key) for key in _WEAK_INPUTS}
        cfg = RunConfig(
            regime=regime,
            epsilon=run.getfloat("epsilon"),
            n_chains=run.getint("n_chains", fallback=1000),
            seed=run.getint("seed", fallback=0),
            record_every=run.getint("record_every", fallback=1),
            out_dir=run.get("out_dir", "out"),
            potential_kind=kind,
            potential_params=params,
            init_kind=init_kind,
            init_params=init_params,
            gaussian_oracle=cp.getboolean("oracles", "gaussian", fallback=False),
            grid_oracle=cp.getboolean("oracles", "grid", fallback=False),
            grid_n=cp.getint("oracles", "grid_n", fallback=None),
            weak=weak,
            halving_kl0=cp.getfloat("halving", "kl0", fallback=None),
            raw={s: dict(cp[s]) for s in cp.sections()},
        )
    except (configparser.Error, KeyError, TypeError, ValueError, AttributeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid config {path}: {exc}") from exc
    _check_positive(cfg.epsilon, "run.epsilon", error=ConfigError)
    _check_count(cfg.n_chains, "run.n_chains", 2, error=ConfigError)
    _check_count(cfg.record_every, "run.record_every", error=ConfigError)
    for key, values in cfg.init_params.items():
        what = "sqrt(cov_diag)" if key == "cov_diag" else f"|{key}|"
        if not all((math.sqrt(abs(v)) if key == "cov_diag" else abs(v)) <= _INIT_MAX for v in values):
            raise ConfigError(f"[init] {key}: every {what} must be at most {_INIT_MAX:g}, got {values}")
    if cfg.halving_kl0 is not None:
        _check_positive(cfg.halving_kl0, "halving.kl0", error=ConfigError)
    check_seed(cfg.seed, "run.seed", ConfigError)
    # a key the run would not read is refused, where report.json's config would echo it as if used
    for section in ("weak", "halving"):
        if cfg.regime != section and cfg.raw.get(section):
            raise ConfigError(
                f"[{section}] sets {', '.join(cfg.raw[section])}, read only under regime = {section}; "
                f"this config has regime = {cfg.regime}"
            )
    if cfg.grid_n is not None:
        if not cfg.grid_oracle:
            raise ConfigError("[oracles] grid_n is read only with grid = true, and the grid oracle is off")
        _check_count(cfg.grid_n, "oracles.grid_n", 8, error=ConfigError)
    return cfg


def _build_init(cfg: RunConfig):
    """The init's name, or its law with each field set from the [init] key of the same name."""
    if cfg.init_kind == GAUSSIAN_1_OVER_M:
        return GAUSSIAN_1_OVER_M
    law = GaussianInit if cfg.init_kind == "gaussian" else PointInit
    return law(**{key: np.asarray(values, dtype=float) for key, values in cfg.init_params.items()})


def _weak_value(text: str, key: str):
    """A [weak] input: "estimate", or a number by the weak-input rule (planner._check_weak_input)."""
    if (v := text.strip()) == "estimate":
        return v
    try:
        x = float(v)
    except ValueError:
        raise ConfigError(f"weak.{key} must be a number or estimate, got {v!r}") from None
    _check_weak_input(key, x, f"weak.{key}", ConfigError)
    return x


# ---------------------------------------------------------------------------
# run execution

# the claim each run verdict checks, by verdict name
_CLAIMS = {
    "kl_init_bound": "KL(N(0, I/m), p*) <= d*L/m",
    "strong_kl_final": "final KL(p_k, p*) <= epsilon under the planned schedule",
    "halving_kl_final": "final KL(p_k, p*) <= epsilon under the planned schedule",
    "weak_gaussian_kl_final": "final KL(p_k, p*) <= epsilon under the planned weak schedule",
    "halving_stage_targets": "KL <= kl0/2^(j+1) at the end of every halving stage",
    "tv_target": "TV(p_k, p*) <= sqrt(epsilon)",
    "w2_target": "W2(p_k, p*) <= sqrt(2*epsilon/m)",
    "second_moment_bound": "law second moment <= 4d/m at every step",
    "second_moment_bound_empirical": "ensemble second moment <= 4d/m + 5 SE at every recorded step",
    "w2_stationary_contraction": "W2(p_k, pi_h) is non-increasing in k",
    "sampler_matches_oracle": "final ensemble moments within 5 SE of the exact law",
    "weak_kl_final": "final grid KL(p_k, p*) <= epsilon",
    "grid_kl_final": "final grid KL(p_k, p*) <= epsilon",
    "kl_decreasing": "grid KL to p* decreases along the recorded run",
    "weak_second_moment_bound": "grid second moment <= 4*(C1^2 + C2^2) along the run",
}


@dataclass
class Verdict:
    name: str
    claim: str
    margin: float
    passed: bool


def _verdict(name: str, margin: float, tol: float = MARGIN_TOL) -> Verdict:
    return Verdict(name=name, claim=_CLAIMS[name], margin=float(margin), passed=bool(margin >= tol))


def _json_safe(obj):
    """Replace non-finite floats (h_prime=inf, trivial margins) for strict JSON."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _final_epsilon(cfg, plans) -> float:
    """The KL the schedule promises at its end, the target of every final-KL verdict: the last stage's."""
    return plans[-1].epsilon if plans else cfg.epsilon  # [run] epsilon for a halving run with no stage


def _kl_final(cfg, plans, rows, weak_name: str, name: str) -> Verdict:
    """A tracker's final-KL verdict: the last stage's epsilon - its last row's KL, named weak_name if regime = weak."""
    return _verdict(weak_name if cfg.regime == "weak" else name, _final_epsilon(cfg, plans) - rows[-1].kl)


def _empirical_margin(bound: float, rows) -> float:
    """Worst of bound + 5 SE - ensemble second moment over trace rows."""
    return min(bound + 5.0 * r.second_moment_se - r.second_moment for r in rows)


def _oracle_moment_margin(second, rows) -> float:
    """Worst of 5 SE - |ensemble second moment - the law's| over trace rows; second[j] is the law's at step j."""
    return min(5.0 * r.second_moment_se - abs(r.second_moment - second[r.step]) for r in rows)


# A tracker follows one exact oracle law alongside the chain: it holds the
# law, its worst per-step margins and its recorded rows, and judges its own
# claims at the end. The oracles never read the chain, so at each record point
# each tracker advances the n steps the chain took since the last one.


class _GaussianTracker:
    """Exact law on a quadratic target: rows of KL, W2, Fisher and second moment.

    The law is a GaussianPath, held in A's eigenbasis for the whole run (A is
    decomposed once). A record interval is one vectorised pass over steps
    j..j+n of the stage, from the stage's first law, and one closed-form jump
    to step j+n. The pass gives the worst per-step margins (second moment
    against 4d/m, W2 contraction towards pi_h) and the row's second moment;
    the row's KL and W2 to the target come from a pass over step j+n alone.
    """

    Row = namedtuple("Row", "step kl w2 fisher second_moment")
    csv = ("gaussian_csv", "gaussian.csv")

    def __init__(self, pot, init):
        if pot.kind == "quadratic-diagonal":
            self.A = np.diag(pot.diag)
        elif pot.kind == "quadratic-full":
            self.A = pot.matrix
        else:
            raise ConfigError("the gaussian oracle supports quadratic potentials only")
        if isinstance(init, str):
            law = GaussianLaw(np.zeros(pot.d), np.eye(pot.d) / pot.m)
        elif isinstance(init, GaussianInit):
            law = GaussianLaw(init.mean, init.cov_diag)  # a 1-D cov is read as a diagonal
        else:
            raise ConfigError("the gaussian oracle needs a gaussian init (point laws are degenerate)")
        self.path = GaussianPath(law, self.A)
        c = np.diagonal(law.cov)  # equal for the default init
        if self.path.Q is not None and c.max() > _INIT_COND * c.min():
            raise ConfigError(
                f"[init] cov_diag: max/min above {_INIT_COND:g} on a non-diagonal A, got {c.tolist()}"
            )
        self.basis_A = np.diag(self.path.w)  # A in its eigenbasis, where the path holds the law
        self.pot = pot
        self.init = init
        self.bound = 4.0 * pot.d / pot.m
        self.sm_worst = math.inf  # margin vs 4d/m along the law trajectory
        self.w2_worst = math.inf  # most negative allowed increase of W2 to pi_h
        self.rows = []
        # the step-0 row is step 0 of a stage at any stable stepsize: its KL,
        # W2 and second moment do not depend on it, and a first stage at that
        # stepsize would start from this same law and step
        self.h, self.start, self.j = 1.0 / pot.L, self.path, 0
        self.second = float(self.path.stats(self.h, 0)[0][0])

    @property
    def law(self) -> GaussianLaw:
        return self.path.law

    def check(self, h: float) -> None:
        """Raise what a step at h would raise: the law diverges unless h*L < 2."""
        _check_step(self.path.w, h)

    def advance(self, h: float, steps: int) -> None:
        if h != self.h:  # a new stage starts here and contracts towards the pi_h of its stepsize
            self.h, self.start, self.j = h, self.path, 0
        # every law of a stage is one closed-form jump from the stage's first
        # law; the pass starts at step j, the last one already judged
        second, w2_pi_h = self.start.stats(h, self.j + steps, first=self.j)
        self.second = float(second[-1])
        self.j += steps
        self.path = self.start.jump(h, self.j)
        self.sm_worst = min(self.sm_worst, self.bound - float(second[1:].max()))
        self.w2_worst = min(self.w2_worst, -float(np.diff(w2_pi_h).max()))

    def row(self, step_idx: int) -> None:
        # KL and W2 to the target are read at the recorded step only
        kl, w2 = (float(s[0]) for s in self.start.target_stats(self.h, self.j, first=self.j))
        # relative Fisher information does not depend on the basis
        fisher = fisher_info_relative(GaussianLaw(self.path.mean, self.path.cov), self.basis_A)
        self.rows.append(self.Row(step_idx, kl, w2, fisher, self.second))

    def verdicts(self, cfg, plans, resolved, chain_rows, ens) -> list[Verdict]:
        pot = self.pot
        eps = _final_epsilon(cfg, plans)
        verdicts = []
        if isinstance(self.init, str):
            verdicts.append(_verdict("kl_init_bound", kl_init_bound(pot.m, pot.L, pot.d) - self.rows[0].kl))
        # a weak one names its oracle, as the grid's weak_kl_final may sit beside it
        verdicts.append(_kl_final(cfg, plans, self.rows, "weak_gaussian_kl_final", f"{cfg.regime}_kl_final"))
        if cfg.regime == "halving" and plans:
            kl_at = {r.step: r.kl for r in self.rows}  # each stage ends at a record point
            margins = [p.epsilon - kl_at[end] for p, end in zip(plans, accumulate(p.k for p in plans))]
            verdicts.append(_verdict("halving_stage_targets", min(margins)))
        law = self.law
        if pot.d == 1:  # a 1 x 1 A needs no decomposition
            verdicts.append(_verdict("tv_target", math.sqrt(eps) - tv_gaussian_1d(law, target_law(self.A))))
        zs = z_scores_vs_oracle(summarize(ens), law)
        zmax = max(float(np.max(np.abs(zs["mean"]))), float(np.max(np.abs(zs["cov"]))), abs(zs["second_moment"]))
        return verdicts + [
            _verdict("w2_target", math.sqrt(2.0 * eps / pot.m) - self.rows[-1].w2),  # the last row is at the final law
            _verdict("second_moment_bound", self.sm_worst),
            _verdict("second_moment_bound_empirical", _empirical_margin(self.bound, chain_rows)),
            _verdict("w2_stationary_contraction", self.w2_worst, tol=-1e-12),
            _verdict("sampler_matches_oracle", 5.0 - zmax),
        ]


class _GridTracker:
    """Cell masses of the law of a 1-D chain: rows of KL, TV, W2 and second moment.

    Its error budget is the grid law's own (the mass each step renormalised
    away and the largest mass a boundary cell held) and how coarse the cells
    are for the steps: the largest dx^2/(8h) over the run's stages, the most
    variance the linear split of a pushed center can add in a step (dx^2/4)
    against the step's noise (2h).
    """

    Row = namedtuple("Row", "step kl tv w2 second_moment")
    csv = ("grid_csv", "grid.csv")

    def __init__(self, cfg, pot, init):
        self.target, self.p = default_grid(pot, None if isinstance(init, str) else init, cfg.grid_n)
        if isinstance(init, str):  # after the box, so that a bad grid is reported first
            raise ConfigError(
                f"the default {GAUSSIAN_1_OVER_M} init is N(0, 1/m), the target itself on the 1-D quadratic "
                "the grid oracle needs, so the run could only move away from it; set an explicit [init]"
            )
        self.pot = pot
        self.rows = []
        self.split_ratio = 0.0  # no stage, no split

    def check(self, h: float) -> None:
        """Raise what a step at h would raise (a drift map that is not monotone on the grid, past h = 1/L)."""
        _step_operator(self.p, self.pot, h)

    def advance(self, h: float, steps: int) -> None:
        self.split_ratio = max(self.split_ratio, self.p.dx**2 / (8.0 * h))
        self.p = ula_step_grid(self.p, self.pot, h, steps)

    def error_budget(self) -> dict:
        """The grid law's numerical error: mass renormalised away, boundary-cell mass, split against noise."""
        p = self.p
        return {
            "renorm_drift_abs_sum": p.renorm_drift_abs_sum,
            "boundary_mass_max": p.boundary_mass_max,
            "split_variance_ratio_max": self.split_ratio,
        }

    def row(self, step_idx: int) -> None:
        p, tgt = self.p, self.target
        row = self.Row(step_idx, kl_grid(p, tgt), tv_grid(p, tgt), w2_grid_1d(p, tgt), second_moment_grid(p))
        self.rows.append(row)

    def verdicts(self, cfg, plans, resolved, chain_rows, ens) -> list[Verdict]:
        diffs = np.diff([r.kl for r in self.rows])
        verdicts = [
            _kl_final(cfg, plans, self.rows, "weak_kl_final", "grid_kl_final"),
            _verdict("kl_decreasing", float(-diffs.max()) if diffs.size else 0.0, tol=-1e-12),
        ]
        if cfg.regime == "weak":
            c1, c2 = resolved["c1"], resolved["c2"]
            cap = 4.0 * (c1 * c1 + c2 * c2)
            verdicts.append(_verdict("weak_second_moment_bound", min(cap - r.second_moment for r in self.rows)))
        return verdicts


# how the grid oracle estimates each [weak] input a config leaves to "estimate", in the order they are
# resolved: f(pot, grid, resolved), where the h' search reads the c1 resolved before it
_WEAK_ESTIMATES = {
    "c1": lambda pot, grid, resolved: grid.rows[0].w2,
    "c2": lambda pot, grid, resolved: math.sqrt(second_moment_grid(grid.target)),
    "kl0": lambda pot, grid, resolved: grid.rows[0].kl,
    "h_prime": lambda pot, grid, resolved: estimate_h_prime(pot, resolved["c1"], grid.target),
}


def _resolve_plans(cfg: RunConfig, pot, grid: _GridTracker | None, resolved: dict) -> list:
    """The run's stage plans; inputs the program chose go into resolved."""
    if cfg.regime != "weak":
        return _stages(cfg.regime, pot.m, pot.L, pot.d, cfg.epsilon, cfg.halving_kl0, None, resolved)
    need = [key for key in _WEAK_INPUTS if cfg.weak[key] == "estimate"]
    if need and grid is None:
        raise ConfigError(f"weak inputs {need} say 'estimate' but the grid oracle is off")
    for key, estimate in _WEAK_ESTIMATES.items():
        resolved[key] = estimate(pot, grid, resolved) if key in need else cfg.weak[key]
    return _stages("weak", pot.m, pot.L, pot.d, cfg.epsilon, None, WeakPlanInputs(**resolved), resolved)


def _print_eta(step_s: float, left: int) -> None:
    """One eta: line on stderr if left steps at step_s seconds each take over _ETA_SECONDS."""
    eta = left * step_s
    if eta > _ETA_SECONDS:
        unit, size = next((u, s) for u, s in _ETA_UNITS if eta >= s)
        print(
            f"eta: {left} steps left at {step_s * 1e3:.3g} ms per step, about {eta / size:.3g} {unit}",
            file=sys.stderr,
            flush=True,
        )


def execute_run(cfg: RunConfig) -> tuple[dict, bool]:
    """Plan, set up the trackers, step to every record point, judge, write."""
    try:
        # values the grammar lets through but the library rejects (a negative
        # Huber delta, an init of the wrong length, a grid of 4 cells) are config errors
        pot = construct_potential(cfg.potential_kind, **cfg.potential_params)
        init = _build_init(cfg)
        trackers = [_GaussianTracker(pot, init)] if cfg.gaussian_oracle else []
        ens = init_ensemble(pot, init, cfg.n_chains, cfg.seed)
        grid = _GridTracker(cfg, pot, init) if cfg.grid_oracle else None
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if grid is not None:
        trackers.append(grid)
    for t in trackers:
        t.row(0)
    resolved: dict = {}
    plans = _resolve_plans(cfg, pot, grid, resolved)
    steps = sum(p.k for p in plans)
    if steps > _MAX_STEPS:
        raise PlanningError(
            f"the plan takes a {len(str(steps))}-digit number of steps, more than 2**53 = {_MAX_STEPS}: "
            "no run can finish it"
        )
    for t in trackers:  # a stage an oracle cannot step fails here, before out_dir and the first step
        for plan in plans:
            t.check(plan.h)
    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, or a path under one
        raise ConfigError(f"[run] out_dir: {exc}") from exc

    chain_rows = [trace_row(ens)]
    started = time.perf_counter()
    stages = [(plan.h, plan.k) for plan in plans]
    # each step looks cli.step up, where the benchmark hooks and times it
    for h, n, ens in _ensemble_steps(ens, stages, cfg.record_every, lambda *a, **kw: step(*a, **kw)):
        chain_rows.append(trace_row(ens))
        for t in trackers:
            t.advance(h, n)
            t.row(ens.step_index)
        if len(chain_rows) == 2:  # the first record point
            _print_eta((time.perf_counter() - started) / ens.step_index, steps - ens.step_index)

    verdicts = [v for t in trackers for v in t.verdicts(cfg, plans, resolved, chain_rows, ens)]

    # (output key, file name, text): each text is built just before its file is written
    files = [("chain_csv", "chain.csv", lambda: trace_csv(chain_rows))]
    files += [(*t.csv, partial(_csv_text, t.Row._fields, t.rows)) for t in trackers]
    report = {
        "version": __version__,
        "seed": cfg.seed,
        "config": cfg.raw,
        "potential": {"kind": pot.kind, "m": pot.m, "L": pot.L, "d": pot.d},
        "plan": [asdict(p) for p in plans],
        "resolved": resolved,
        "verdicts": [vars(v) for v in verdicts],
        "outputs": {key: str(out_dir / name) for key, name, _ in files},
        # what the chain noise depends on besides the seed (numpy fixes the
        # ziggurat; the Philox and SFC64 words are fixed by their algorithms)
        "environment": {"python": platform.python_version(), "numpy": np.__version__},
    }
    if grid is not None:
        report["grid_error_budget"] = grid.error_budget()
    text = json.dumps(_json_safe(report), sort_keys=True, indent=2, allow_nan=False) + "\n"
    files.append(("report_json", "report.json", lambda: text))
    written: list[Path] = []
    try:
        for _, name, text_of in files:
            path = out_dir / name
            with path.open("w") as fh:  # once open, the file is this run's, however far its write gets
                written.append(path)
                fh.write(text_of())
    except BaseException:
        for f in written:
            f.unlink(missing_ok=True)
        raise
    return report, all(v.passed for v in verdicts)


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        report, ok = execute_run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PlanningError, ValueError, RuntimeError, MemoryError, OSError) as exc:  # OSError: a failed write
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    for v in report["verdicts"]:
        status = "pass" if v["passed"] else "FAIL"
        print(f"{status} {v['name']} margin={v['margin']:.6g}")
    print(f"report: {Path(cfg.out_dir) / 'report.json'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# verify suites


def _rand_spd(rng, d: int) -> np.ndarray:
    w = rng.uniform(0.3, 3.0, size=d)
    if d == 1:
        return np.array([[w[0]]])
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return (Q * w) @ Q.T


def _rand_law(rng, d: int) -> GaussianLaw:
    return GaussianLaw(rng.normal(0.0, 1.0, size=d), _rand_spd(rng, d))


def _suite_inequalities(seed: int):
    rng = np.random.default_rng(seed)
    checks = []

    worst = math.inf
    for _ in range(100):
        p = gaussian_1d(rng.normal(0.0, 2.0), rng.uniform(0.3, 4.0))
        q = gaussian_1d(rng.normal(0.0, 2.0), rng.uniform(0.3, 4.0))
        worst = min(worst, math.sqrt(kl_gaussian(p, q) / 2.0) - tv_gaussian_1d(p, q))
    checks.append(("pinsker_tv_le_sqrt_kl_half", worst))

    # the Talagrand, log-Sobolev and weak-convexity bounds share each draw
    talagrand = log_sobolev = weak = math.inf
    for _ in range(100):
        d = int(rng.integers(1, 4))
        A = _rand_spd(rng, d)
        m = float(np.linalg.eigvalsh(A)[0])
        p = _rand_law(rng, d)
        tgt = target_law(A)
        kl, w2, fisher = kl_gaussian(p, tgt), w2_gaussian(p, tgt), fisher_info_relative(p, A)
        talagrand = min(talagrand, (2.0 / m) * kl - w2**2)
        log_sobolev = min(log_sobolev, fisher / (2.0 * m) - kl)
        weak = min(weak, math.sqrt(fisher) * w2 - kl)
    checks.append(("talagrand_w2sq_le_2kl_over_m", talagrand))
    checks.append(("log_sobolev_kl_le_fisher_over_2m", log_sobolev))
    checks.append(("convex_kl_le_sqrt_fisher_times_w2", weak))

    worst = math.inf
    delta = 1e-5
    for _ in range(20):
        d = int(rng.integers(1, 4))
        a = rng.uniform(0.3, 3.0, size=d)
        A = np.diag(a)
        init = GaussianLaw(rng.uniform(-2.0, 2.0, size=d), np.diag(rng.uniform(0.4, 3.0, size=d)))
        t = float(rng.uniform(0.05, 1.0))
        tgt = target_law(A)
        dkl = (
            kl_gaussian(exact_flow_law(A, init, t + delta), tgt)
            - kl_gaussian(exact_flow_law(A, init, t - delta), tgt)
        ) / (2.0 * delta)
        fisher = fisher_info_relative(exact_flow_law(A, init, t), A)
        rel = abs(dkl + fisher) / max(fisher, 1e-300)
        worst = min(worst, 1e-3 - rel)
    checks.append(("dissipation_dkl_dt_eq_minus_fisher", worst))
    return checks


def _suite_oracle_equivalence(seed: int):
    pot = construct_potential("quadratic-diagonal", diag=[1.0])
    A = np.diag(pot.diag)
    lo, hi, n = -8.0, 8.0, 4096
    tgt_grid = target_density_grid(pot, lo, hi, n)
    grid = discretize_law(GaussianInit(mean=np.zeros(1), cov_diag=np.ones(1)), lo, hi, n)
    law = GaussianLaw(np.zeros(1), np.eye(1))
    tgt_law = target_law(A)
    h = 0.1
    worst = math.inf
    for _ in range(50):
        grid = ula_step_grid(grid, pot, h)
        law = ula_step_law(law, A, h)
        diff = abs(kl_grid(grid, tgt_grid) - kl_gaussian(law, tgt_law))
        worst = min(worst, 1e-3 - diff)
    return [("grid_vs_gaussian_kl_within_1e3", worst)]


def _suite_contraction(seed: int):
    checks = []
    quad = construct_potential("quadratic-diagonal", diag=[1.0])
    trace = coupled_run(
        quad, PointInit(np.array([1.0])), PointInit(np.array([-1.0])), h=0.5, k=8, n=4, seed=seed
    )
    expected = 2.0 * 0.5 ** np.arange(9)
    # the two exact checks' margins already subtract their 1e-12 tolerance, so each is judged at 0
    checks.append(("coupled_quadratic_exact_halving", 1e-12 - float(np.max(np.abs(trace.rms - expected))), 0.0))

    hub = construct_potential("huber", delta=1.0)
    tr = coupled_run(
        hub,
        GaussianInit(mean=np.zeros(1), cov_diag=np.full(1, 4.0)),
        GaussianInit(mean=np.full(1, 2.0), cov_diag=np.full(1, 1.0)),
        h=0.1,
        k=100,
        n=4000,
        seed=seed,
    )
    margins = tr.rms[:-1] + 5.0 * tr.se[:-1] - tr.rms[1:]
    checks.append(("coupled_huber_nonincreasing_5se", float(margins.min())))

    gauss = _GaussianTracker(construct_potential("quadratic-diagonal", diag=[1.0, 2.0]), GAUSSIAN_1_OVER_M)
    gauss.advance(0.01, 300)
    checks.append(("oracle_w2_to_stationary_nonincreasing", gauss.w2_worst + 1e-12, 0.0))
    return checks


def _suite_moments(seed: int):
    checks = []
    pot = construct_potential("quadratic-diagonal", diag=[1.0, 2.0])
    gauss = _GaussianTracker(pot, GAUSSIAN_1_OVER_M)
    gauss.advance(0.01, 400)
    checks.append(("oracle_second_moment_le_4d_over_m", gauss.sm_worst))

    ens = init_ensemble(pot, GAUSSIAN_1_OVER_M, 4000, seed)
    _, rows = run_chain(ens, StepPlan(h=0.01, k=300, epsilon=1.0, regime="strong"), record_every=1)
    checks.append(("empirical_second_moment_le_4d_over_m_5se", _empirical_margin(gauss.bound, rows[1:])))
    # the 4d/m gates sit far from their edge; this one holds the ensemble to the exact law, step by step
    exact = gauss.start.stats(0.01, 300)[0]  # the law's second moment at steps 0, ..., 300
    checks.append(("empirical_second_moment_within_5se_of_oracle", _oracle_moment_margin(exact, rows)))
    return checks


SUITES = {
    "inequalities": _suite_inequalities,
    "oracle-equivalence": _suite_oracle_equivalence,
    "contraction": _suite_contraction,
    "moments": _suite_moments,
}


def cmd_verify(args) -> int:
    try:
        check_seed(args.seed, "--seed")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    checks = SUITES[args.suite](args.seed)
    failed = False
    for name, margin, *tol in checks:  # a check may carry its own tolerance, as a run verdict does
        ok = margin >= (tol[0] if tol else MARGIN_TOL)
        failed |= not ok
        print(f"{'PASS' if ok else 'FAIL'} {name} margin={margin:.6g}")
    worst = min(margin for _, margin, *_ in checks)
    print(f"suite {args.suite}: {'FAIL' if failed else 'PASS'} (worst margin {worst:.6g})")
    return 1 if failed else 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="langevin-kl",
        description="Plan, run and verify unadjusted Langevin sampling experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="print an (h, k) schedule")
    p.add_argument("--regime", choices=["strong", "weak", "halving"], required=True)
    p.add_argument("--target", choices=["kl", "tv", "w2"], default="kl")
    for name, flag in _PLAN_NUMBERS.items():  # a weak plan reads no --h-prime as inf
        p.add_argument(flag, dest=name, type=int if name == "d" else float)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_plan)

    r = sub.add_parser("run", help="execute a run config (INI)")
    r.add_argument("config")
    r.set_defaults(func=cmd_run)

    v = sub.add_parser("verify", help="run a property suite")
    v.add_argument("suite", choices=sorted(SUITES))
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    """The `langevin-kl` command line; returns the exit status.

    Side effect: the first call in a process runs `gc.freeze()`, which moves
    every object alive at that moment, the caller's included, out of reach of
    the cyclic garbage collector for good. For the command line that is the
    import-time heap (about 24k objects, most of them numpy's), which then no
    collection walks again, the final one at interpreter exit included: about
    25 ms off every command. A program that calls `main` in-process keeps
    alive any of its own objects that were alive at the first call and later
    become cyclic garbage.
    """
    import gc

    if gc.get_freeze_count() == 0:
        gc.freeze()
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
