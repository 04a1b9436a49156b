"""Run `langevin-kl run <config>` in this process and report timestamps.

    python3 probe.py <src_dir> <config> <probe.json> <trace: 0|1>

This is the child process of one benchmark repetition. It does what the
`langevin-kl` entry point does (`langevin_kl.cli:main`), plus:

* untraced (0): one timestamp at entry to the first ULA step. A one-shot
  hook on `cli.step` takes it and puts the original function back, so no
  later step pays for a wrapper.
* traced (1): every public function at a layer boundary is wrapped where
  the calling module references it (`cli.step`, `chain.grad_u`, ...). Each
  call records a span (name, start, end, parent); the spans stay in memory
  and are written once, after the run has finished.

Times are CLOCK_MONOTONIC nanoseconds, the clock the parent process uses
for the process start and exit, so both sides share one time line.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

# (module that makes the call, name it calls, layer of the callee)
BOUNDARIES = [
    ("cli", "load_config", "cli"),
    ("cli", "execute_run", "cli"),
    ("cli", "construct_potential", "potentials"),
    ("cli", "plan_strong", "planner"),
    ("cli", "plan_halving", "planner"),
    ("cli", "plan_weak", "planner"),
    ("cli", "kl_init_bound", "planner"),
    ("cli", "init_ensemble", "chain"),
    ("cli", "step", "chain"),
    ("cli", "trace_csv", "chain"),
    ("cli", "target_law", "gaussian_oracle"),
    ("cli", "stationary_law", "gaussian_oracle"),
    ("cli", "ula_step_law", "gaussian_oracle"),
    ("cli", "kl_gaussian", "gaussian_oracle"),
    ("cli", "w2_gaussian", "gaussian_oracle"),
    ("cli", "fisher_info_relative", "gaussian_oracle"),
    ("cli", "tv_gaussian_1d", "gaussian_oracle"),
    ("cli", "default_grid", "grid_oracle"),
    ("cli", "target_density_grid", "grid_oracle"),
    ("cli", "discretize_law", "grid_oracle"),
    ("cli", "estimate_h_prime", "grid_oracle"),
    ("cli", "ula_step_grid", "grid_oracle"),
    ("cli", "kl_grid", "grid_oracle"),
    ("cli", "tv_grid", "grid_oracle"),
    ("cli", "w2_grid_1d", "grid_oracle"),
    ("cli", "second_moment_grid", "grid_oracle"),
    ("cli", "summarize", "metrics"),
    ("cli", "z_scores_vs_oracle", "metrics"),
    ("chain", "grad_u", "potentials"),
    ("grid_oracle", "grad_u", "potentials"),
    ("grid_oracle", "u_value", "potentials"),
]


def _normals_drawn(args, result) -> int:
    """Standard normals a chain call consumed: one per chain and coordinate."""
    if len(args) > 1 and type(args[1]).__name__ == "PointInit":  # init_ensemble from a point
        return 0
    return int(result.states.size)


class Tracer:
    """Span recorder for the wrapped boundaries of one process."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, normals)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: int, end: int) -> None:
        self.spans.append((next(self._ids), -1, name, start, end, 0))

    def wrap(self, name: str, fn):
        draws = name in ("chain.step", "chain.init_ensemble")
        spans, ids, clock, main_ident, main_stack = (
            self.spans, self._ids, time.monotonic_ns, self._main_ident, self._main_stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() == main_ident:
                stack = main_stack
                parent = stack[-1] if stack else -1
            else:
                stack = self._stack()
                # a worker thread's outermost span belongs to the main-thread
                # call that handed it the work (chain.step running its chunks)
                parent = stack[-1] if stack else (main_stack[-1] if main_stack else -1)
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append((span_id, parent, name, start, end, _normals_drawn(args, result) if draws else 0))
            return result

        return traced

    def install(self, modules: dict) -> None:
        for caller, attr, layer in BOUNDARIES:
            mod = modules[caller]
            setattr(mod, attr, self.wrap(f"{layer}.{attr}", getattr(mod, attr)))


def _first_step_hook(cli, stamp: dict) -> None:
    original = cli.step

    def first_step(*args, **kwargs):
        stamp["first_step_ns"] = time.monotonic_ns()
        cli.step = original
        return original(*args, **kwargs)

    cli.step = first_step


def main(argv: list[str]) -> int:
    src, config, out_path, trace = argv
    sys.path.insert(0, src)
    t_import = time.monotonic_ns()
    from langevin_kl import chain, cli, grid_oracle

    t_imported = time.monotonic_ns()
    if not cli.__file__.startswith(src):
        raise SystemExit(f"imported {cli.__file__}, not the package under {src}")
    result: dict = {"first_step_ns": None}
    tracer = None
    if trace == "1":
        tracer = Tracer()
        tracer.record("cli.import", t_import, t_imported)
        tracer.install({"cli": cli, "chain": chain, "grid_oracle": grid_oracle})
    else:
        _first_step_hook(cli, result)
    try:
        code = cli.main(["run", config])
    finally:
        sys.stdout.flush()
        if tracer is not None:
            result["spans"] = tracer.spans
        with open(out_path, "w") as fh:
            json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
