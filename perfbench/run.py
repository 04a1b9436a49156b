#!/usr/bin/env python3
"""Benchmark of `langevin-kl run`: end-to-end timings and a traced per-layer split.

    python3 perfbench/run.py --workload strong-d2 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
Each repetition is a fresh `langevin-kl run <config>` process on the config
`workloads.py` derives from `--seed`. Repetitions start until `--seconds`
have passed (at least three untraced, or one untraced/traced pair).

--trace 0 reports the end-to-end metrics, each the median over repetitions:
wall_s (process start to exit), setup_s (process start to the first ULA
step), step_ms ((wall_s - setup_s) / executed steps), cpu_s (user + system
CPU of the run process) and peak_rss_mb.

--trace 1 alternates untraced and traced repetitions. The traced ones wrap
every layer-boundary call (see probe.py) and give the per-layer metrics of
the traced repetition with the median wall time: a span's self time is its
duration minus what its children cover, and trace.unaccounted_s is the
traced wall time no span covers.

Every repetition passes the correctness gate or counts as failed (never
retried): exit code 0 and every verdict passed; the executed step count
equals the planned one with no cap; chain/oracle CSVs and report.json
byte-identical across all repetitions of the invocation, traced or not; the
oracle CSVs within RTOL/ATOL of the stored reference. The last line of
standard output is the JSON result; quartiles, sample counts and the
environment are printed above it.
"""

from __future__ import annotations

import os

# pinned before numpy loads, here and in every run process. The run
# processes are serial too: with 2 workers the step amplified the host's
# speed swings past any bound the benchmark may set (see README.md); the
# traced run measures the 2-worker pool as chain.step.speedup_2w.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "LANGEVIN_KL_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from workloads import WORKLOADS, config_text  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference"

OUTPUTS = ("chain.csv", "gaussian.csv", "grid.csv", "report.json")
ORACLE_CSVS = ("gaussian.csv", "grid.csv")
# oracle CSVs against the stored reference: the seed changes only the chain
# noise, so only rounding separates them
RTOL, ATOL = 1e-9, 1e-12
REP_TIMEOUT_S = 120
SPEEDUP_BUDGET_S = 2.0
# The split's layers are the package modules, except that gaussian_oracle
# (quadratic workloads) and grid_oracle (huber-weak-grid) are one "oracles"
# layer, timings and counts alike: each workload runs exactly one of them,
# and a metric that reads 0 on every run says nothing.
LAYER_OF = {"gaussian_oracle": "oracles", "grid_oracle": "oracles"}
LAYERS = ("potentials", "planner", "chain", "oracles", "metrics", "cli")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "step_ms": "ms", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "chain.step.calls": "count",
    "chain.step.self_ms_per_call": "ms",
    "chain.step.speedup_2w": "x",
    "chain.init_ensemble.ns_per_normal": "ns",
    "chain.normals_drawn": "count",
    "potentials.grad_u.calls": "count",
    "potentials.grad_u.ms_per_call": "ms",
    "oracles.step.calls": "count",
    "oracles.step_ms_per_call": "ms",
    "oracles.metrics.calls": "count",
    "oracles.metrics_ms": "ms",
    "oracles.setup_ms": "ms",
    "metrics.summarize.calls": "count",
    "metrics.summarize.ms_per_call": "ms",
    "cli.import_s": "s",
    "cli.load_config_ms": "ms",
    "cli.execute_run.self_ms": "ms",
    "cli.bytes_written": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.unaccounted_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
# oracle calls grouped by role; a workload runs the Gaussian or the grid ones
ORACLE_STEP = ("gaussian_oracle.ula_step_law", "grid_oracle.ula_step_grid")
ORACLE_METRICS = (
    "gaussian_oracle.kl_gaussian", "gaussian_oracle.w2_gaussian", "gaussian_oracle.fisher_info_relative",
    "gaussian_oracle.tv_gaussian_1d", "grid_oracle.kl_grid", "grid_oracle.tv_grid", "grid_oracle.w2_grid_1d",
    "grid_oracle.second_moment_grid",
)
ORACLE_SETUP = (
    "gaussian_oracle.target_law", "gaussian_oracle.stationary_law", "grid_oracle.default_grid",
    "grid_oracle.target_density_grid", "grid_oracle.discretize_law", "grid_oracle.estimate_h_prime",
)


@dataclass
class Rep:
    traced: bool
    code: int
    t0: int  # monotonic ns just before the process was started
    t1: int  # monotonic ns after it was reaped
    cpu_s: float
    peak_rss_mb: float
    outputs: dict[str, bytes]
    probe: dict
    errors: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return (self.t1 - self.t0) * 1e-9

    @property
    def report(self) -> dict:
        return json.loads(self.outputs["report.json"])

    @property
    def total_steps(self) -> int:
        return sum(p["k"] for p in self.report["plan"])


def run_process(rep_dir: Path, traced: bool) -> Rep:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(THREAD_ENV)
    cmd = [sys.executable, str(HERE / "probe.py"), str(SRC), "run.ini", "probe.json", str(int(traced))]
    with open(rep_dir / "stdout.txt", "wb") as out, open(rep_dir / "stderr.txt", "wb") as err:
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(cmd, cwd=rep_dir, stdout=out, stderr=err, env=env)
        timer = threading.Timer(REP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.monotonic_ns()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    outputs = {
        name: (rep_dir / "out" / name).read_bytes() for name in OUTPUTS if (rep_dir / "out" / name).exists()
    }
    probe_path = rep_dir / "probe.json"
    probe = json.loads(probe_path.read_text()) if probe_path.exists() else {}
    return Rep(
        traced=traced,
        code=proc.returncode,
        t0=t0,
        t1=t1,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        outputs=outputs,
        probe=probe,
    )


def end_to_end(rep: Rep) -> dict[str, float]:
    setup_s = (rep.probe["first_step_ns"] - rep.t0) * 1e-9
    return {
        "wall_s": rep.wall_s,
        "setup_s": setup_s,
        "step_ms": (rep.wall_s - setup_s) * 1e3 / rep.total_steps,
        "cpu_s": rep.cpu_s,
        "peak_rss_mb": rep.peak_rss_mb,
    }


# ---------------------------------------------------------------------------
# correctness gate


def _rows(text: bytes) -> tuple[str, np.ndarray]:
    header, *lines = text.decode().splitlines()
    return header, np.array([[float(v) for v in line.split(",")] for line in lines])


def reference_errors(workload: str, outputs: dict[str, bytes]) -> list[str]:
    errors = []
    for name in ORACLE_CSVS:
        ref_path = REFERENCE / workload / name
        if ref_path.exists() != (name in outputs):
            errors.append(f"{name}: present in run {name in outputs}, in reference {ref_path.exists()}")
            continue
        if name not in outputs:
            continue
        head, got = _rows(outputs[name])
        ref_head, ref = _rows(ref_path.read_bytes())
        if head != ref_head or got.shape != ref.shape:
            errors.append(f"{name}: layout {head} {got.shape} differs from reference {ref_head} {ref.shape}")
        elif not np.allclose(got, ref, rtol=RTOL, atol=ATOL):
            worst = float(np.max(np.abs(got - ref) / (ATOL + RTOL * np.abs(ref))))
            errors.append(f"{name}: off the reference by {worst:.3g}x the tolerance")
    return errors


def gate(rep: Rep, first: Rep | None, workload: str) -> None:
    """Append to rep.errors every correctness check the repetition fails."""
    if rep.code != 0:
        rep.errors.append(f"exit code {rep.code}")
    if "report.json" not in rep.outputs or "chain.csv" not in rep.outputs:
        rep.errors.append("report.json or chain.csv missing")
        return
    report = rep.report
    failed = [v["name"] for v in report["verdicts"] if not v["passed"]]
    if failed or not report["verdicts"]:
        rep.errors.append(f"verdicts failed: {failed or 'none recorded'}")
    if "steps_capped_at" in report["resolved"]:
        rep.errors.append(f"steps capped at {report['resolved']['steps_capped_at']}")
    last_step = int(rep.outputs["chain.csv"].decode().splitlines()[-1].split(",")[0])
    if last_step != rep.total_steps:
        rep.errors.append(f"executed {last_step} steps, planned {rep.total_steps}")
    if first is not None:
        differ = [n for n in OUTPUTS if rep.outputs.get(n) != first.outputs.get(n)]
        if differ:
            rep.errors.append(f"not byte-identical to the first repetition: {differ}")
    rep.errors.extend(reference_errors(workload, rep.outputs))
    if not rep.traced and rep.probe.get("first_step_ns") is None:
        rep.errors.append("no first-step timestamp")


# ---------------------------------------------------------------------------
# traced repetitions


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of the intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list) -> dict[int, int]:
    """Self time in ns of each span id: its duration minus the part of it
    that its children cover.

    The self times add up to the time the spans cover as long as no two
    children of one span overlap, which holds in the serial run processes;
    summary.py checks it.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, parent, _, start, end, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return {s[0]: s[4] - s[3] - _covered(children[s[0]]) for s in spans}


def layer_split(rep: Rep) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    spans = rep.probe["spans"]  # (id, parent, name, start, end, normals)
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, int] = defaultdict(int)  # inclusive ns
    self_ns: dict[str, int] = defaultdict(int)
    layer_self: dict[str, int] = dict.fromkeys(LAYERS, 0)
    normals = 0
    for span_id, _, name, start, end, drawn in spans:
        calls[name] += 1
        total[name] += end - start
        self_ns[name] += own[span_id]
        module = name.split(".")[0]
        layer_self[LAYER_OF.get(module, module)] += own[span_id]
        normals += drawn

    def ms(*names):
        return sum(total[n] for n in names) * 1e-6

    def ms_per_call(*names, times=total):
        n = sum(calls[name] for name in names)
        return sum(times[name] for name in names) * 1e-6 / n if n else 0.0

    init_normals = sum(s[5] for s in spans if s[2] == "chain.init_ensemble")
    wall_ns = rep.t1 - rep.t0
    out = {
        "chain.step.calls": calls["chain.step"],
        "chain.step.self_ms_per_call": ms_per_call("chain.step", times=self_ns),
        "chain.init_ensemble.ns_per_normal": total["chain.init_ensemble"] / init_normals,
        "chain.normals_drawn": normals,
        "potentials.grad_u.calls": calls["potentials.grad_u"],
        "potentials.grad_u.ms_per_call": ms_per_call("potentials.grad_u"),
        "oracles.step.calls": sum(calls[n] for n in ORACLE_STEP),
        "oracles.step_ms_per_call": ms_per_call(*ORACLE_STEP),
        "oracles.metrics.calls": sum(calls[n] for n in ORACLE_METRICS),
        "oracles.metrics_ms": ms(*ORACLE_METRICS),
        "oracles.setup_ms": ms(*ORACLE_SETUP),
        "metrics.summarize.calls": calls["metrics.summarize"],
        "metrics.summarize.ms_per_call": ms_per_call("metrics.summarize"),
        "cli.import_s": total["cli.import"] * 1e-9,
        "cli.load_config_ms": ms("cli.load_config"),
        "cli.execute_run.self_ms": self_ns["cli.execute_run"] * 1e-6,
        "cli.bytes_written": sum(len(b) for b in rep.outputs.values()),
        **{f"{layer}.self_s": layer_self[layer] * 1e-9 for layer in LAYERS},
        "trace.unaccounted_s": (wall_ns - _covered([(s[3], s[4]) for s in spans])) * 1e-9,
        "trace.wall_s": wall_ns * 1e-9,
    }
    return out


COUNTS = [m for m, unit in PER_LAYER_UNITS.items() if unit == "count"]  # must repeat exactly


def step_speedup(config: Path, h: float, deadline: float) -> tuple[float, bool]:
    """Time public step(ens, h, workers=1) against workers=2 on the workload's ensemble.

    Returns the ratio of median step times and whether both worker counts
    produced bit-identical states.
    """
    sys.path.insert(0, str(SRC))
    from langevin_kl import GAUSSIAN_1_OVER_M, GaussianInit, construct_potential, init_ensemble, step
    from langevin_kl.cli import load_config

    cfg = load_config(str(config))
    init = cfg.init_kind  # the workloads start from gaussian_1_over_m or a gaussian
    if init != GAUSSIAN_1_OVER_M:
        init = GaussianInit(np.array(cfg.init_params["mean"]), np.array(cfg.init_params["cov_diag"]))
    ens = init_ensemble(construct_potential(cfg.potential_kind, **cfg.potential_params), init, cfg.n_chains, cfg.seed)
    times: dict[int, list[float]] = {1: [], 2: []}
    same = True
    while len(times[1]) < 5 or (time.monotonic() < deadline and len(times[1]) < 200):
        states = {}
        for workers in (1, 2) if len(times[1]) % 2 == 0 else (2, 1):
            t = time.perf_counter()
            states[workers] = step(ens, h, workers=workers).states
            times[workers].append(time.perf_counter() - t)
        same &= bool(np.array_equal(states[1], states[2]))
    return statistics.median(times[1]) / statistics.median(times[2]), same


# ---------------------------------------------------------------------------


def _read(path: str, default: str = "unknown") -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return default


def environment() -> dict:
    cpuinfo = _read("/proc/cpuinfo", "")
    cpu = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines() if ln.startswith("model name")), "unknown")
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    llc = max(((_read(c / "level").strip(), _read(c / "size").strip()) for c in caches), default=("?", "unknown"))
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "llc": f"L{llc[0]} {llc[1]}",
        "threads": THREAD_ENV,
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def warm_up(work: Path, config: str) -> None:
    """Run the config once, untimed and ungated.

    It compiles the package's bytecode and fills the page cache, so no timed
    process pays for either (with an import-only warm-up, the first timed
    run of three trial invocations read 1.1-1.4x the median of the others).
    """
    rep_dir = work / "warm-up"
    rep_dir.mkdir()
    (rep_dir / "run.ini").write_text(config)
    run_process(rep_dir, traced=False)
    shutil.rmtree(rep_dir)


def measure(name: str, config: str, work: Path, args) -> list[Rep]:
    """Start repetitions until --seconds have passed; gate each one."""
    reps: list[Rep] = []
    rounds: list[float] = []
    start = time.monotonic()
    # a round is one repetition, or an untraced/traced pair; stop at the
    # round boundary nearest to --seconds
    while len(reps) < (2 if args.trace else 3) or (
        time.monotonic() - start + 0.5 * statistics.median(rounds) < args.seconds
    ):
        round_start = time.monotonic()
        for traced in (False, True) if args.trace else (False,):
            rep_dir = work / f"rep{len(reps)}"
            rep_dir.mkdir()
            (rep_dir / "run.ini").write_text(config)
            rep = run_process(rep_dir, traced)
            gate(rep, reps[0] if reps else None, name)
            reps.append(rep)
            shutil.rmtree(rep_dir)
        rounds.append(time.monotonic() - round_start)
    return reps


def traced_metrics(reps: list[Rep], config: Path) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Reported per-layer metrics, and the samples each one was taken from."""
    splits = []
    for rep in reps:
        if rep.traced and not rep.errors:
            split = layer_split(rep)
            if split["chain.step.calls"] != rep.total_steps:
                rep.errors.append(f"traced {split['chain.step.calls']} steps, planned {rep.total_steps}")
            splits.append((rep, split))
    if not splits:
        return {}, {}
    splits.sort(key=lambda p: p[0].wall_s)
    first = splits[0][1]
    for rep, split in splits[1:]:
        differ = [c for c in COUNTS if split[c] != first[c]]
        if differ:
            rep.errors.append(f"counts do not repeat: {differ}")
    mid_rep, mid = splits[(len(splits) - 1) // 2]
    samples = {m: [s[m] for _, s in splits] for m in mid}
    # repetitions alternate untraced, traced: the difference within a pair
    # is the tracer's cost, and the host's drift between pairs cancels
    samples["trace.overhead_s"] = [t.wall_s - u.wall_s for u, t in zip(reps[::2], reps[1::2])
                                   if not (u.errors or t.errors)]
    ratio, same = step_speedup(config, mid_rep.report["plan"][0]["h"], time.monotonic() + SPEEDUP_BUDGET_S)
    samples["chain.step.speedup_2w"] = [ratio]
    if not same:
        mid_rep.errors.append("step(workers=1) and step(workers=2) states differ")
    reported = {**mid, "chain.step.speedup_2w": ratio}
    if samples["trace.overhead_s"]:
        reported["trace.overhead_s"] = statistics.median(samples["trace.overhead_s"])
    return reported, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind: stop the run process, clean up
    if not (SRC / "langevin_kl" / "cli.py").is_file():
        print(f"error: no package source at {SRC}; run from the root of a langevin-kl checkout", file=sys.stderr)
        return 2

    name = args.workload
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = config_text(name, args.seed)
        warm_up(work, config)
        reps = measure(name, config, work, args)
        if args.trace:
            units = PER_LAYER_UNITS
            (work / "run.ini").write_text(config)
            reported, values = traced_metrics(reps, work / "run.ini")
        else:
            units = END_TO_END_UNITS
            rows = [end_to_end(r) for r in reps if not r.errors]
            values = {m: [row[m] for row in rows] for m in units} if rows else {}
            reported = {m: statistics.median(v) for m, v in values.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    failed = [r for r in reps if r.errors]
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {name}: seed {args.seed}, {len(reps)} runs, {len(failed)} failed")
    for r in failed:
        print(f"FAILED {'traced' if r.traced else 'untraced'} run: {'; '.join(r.errors)}")
    for metric, value in reported.items():
        q1, q3 = quartiles(values[metric])
        print(f"{metric:42s} {value:14.6g} {units[metric]:5s} q1 {q1:.6g} q3 {q3:.6g} n {len(values[metric])}"
              f" [{' '.join(f'{v:.6g}' for v in values[metric])}]")
    result = {
        "correct": not failed and set(reported) == set(units),
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
