import gc
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from langevin_kl import cli
from langevin_kl.chain import GAUSSIAN_1_OVER_M, GaussianInit
from langevin_kl.cli import SUITES, main
from langevin_kl.gaussian_oracle import GaussianLaw, stationary_law, w2_gaussian
from langevin_kl.potentials import construct_potential

STRONG_INI = """
[run]
regime = strong
epsilon = 0.5
n_chains = 2000
seed = 7
record_every = 50
out_dir = {out}

[potential]
kind = quadratic-diagonal
diag = 1.0, 2.0

[init]
kind = gaussian_1_over_m

[oracles]
gaussian = true
"""

WEAK_INI = """
[run]
regime = weak
epsilon = 0.2
n_chains = 500
seed = 3
record_every = 100
out_dir = {out}

[potential]
kind = huber
delta = 1.0
dim = 1

[init]
kind = gaussian
mean = 0.0
cov_diag = 4.0

[oracles]
grid = true
grid_n = 2048

[weak]
c1 = estimate
c2 = estimate
h_prime = estimate
kl0 = estimate
"""

HALVING_INI = """
[run]
regime = halving
epsilon = 0.25
n_chains = 400
seed = 1
record_every = 25
out_dir = {out}

[potential]
kind = quadratic-diagonal
diag = 1.0, 2.0

[oracles]
gaussian = true

[halving]
kl0 = 4.0
"""


def test_plan_strong_prints_schedule(capsys):
    assert main(["plan", "--regime", "strong", "--m", "1", "--L", "2", "--d", "2", "--eps", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "h=0.00078125" in out
    assert "k=4722" in out


def test_plan_tv_echoes_delta_squared(capsys):
    rc = main(
        ["plan", "--regime", "strong", "--m", "1", "--L", "2", "--d", "2",
         "--target", "tv", "--delta", "0.3", "--json"]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["epsilon"] == pytest.approx(0.09)


def test_plan_missing_m_is_usage_error(capsys):
    assert main(["plan", "--regime", "strong", "--L", "2", "--d", "2", "--eps", "0.1"]) == 2


def test_plan_unknown_regime_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--regime", "bogus"])
    assert exc.value.code == 2


def test_plan_oversized_epsilon_is_planning_error(capsys):
    assert main(["plan", "--regime", "strong", "--m", "1", "--L", "1", "--d", "1", "--eps", "2"]) == 1
    assert "planning error" in capsys.readouterr().err


def test_plan_weak_json(capsys):
    rc = main(
        ["plan", "--regime", "weak", "--L", "1", "--d", "1", "--eps", "0.1",
         "--c1", "1", "--c2", "1", "--kl0", str(math.e), "--json"]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k"] == 105600


def test_run_strong_writes_report_and_verdicts(tmp_path, capsys):
    cfg = tmp_path / "strong.ini"
    out = tmp_path / "out"
    cfg.write_text(STRONG_INI.format(out=out))
    assert main(["run", str(cfg)]) == 0
    report = json.loads((out / "report.json").read_text())
    verdicts = {v["name"]: v["passed"] for v in report["verdicts"]}
    assert verdicts["strong_kl_final"] is True
    assert verdicts["kl_init_bound"] is True
    assert verdicts["second_moment_bound"] is True
    assert (out / "chain.csv").read_text().splitlines()[0] == "step,second_moment,mean_norm"
    assert (out / "gaussian.csv").read_text().splitlines()[0] == "step,kl,w2,fisher,second_moment"


def test_run_is_byte_deterministic(tmp_path, capsys):
    cfg = tmp_path / "strong.ini"
    out = tmp_path / "out"
    cfg.write_text(STRONG_INI.format(out=out))
    assert main(["run", str(cfg)]) == 0
    first = (out / "chain.csv").read_bytes(), (out / "gaussian.csv").read_bytes()
    assert main(["run", str(cfg)]) == 0
    second = (out / "chain.csv").read_bytes(), (out / "gaussian.csv").read_bytes()
    assert first == second


def test_run_weak_records_estimated_h_prime(tmp_path, capsys):
    cfg = tmp_path / "weak.ini"
    out = tmp_path / "out"
    cfg.write_text(WEAK_INI.format(out=out))
    assert main(["run", str(cfg)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["resolved"]["h_prime"] > 0
    assert report["resolved"]["c1"] > 0
    verdicts = {v["name"]: v["passed"] for v in report["verdicts"]}
    assert verdicts["weak_kl_final"] is True
    assert verdicts["weak_second_moment_bound"] is True
    assert (out / "grid.csv").read_text().splitlines()[0] == "step,kl,tv,w2,second_moment"
    budget = report["grid_error_budget"]
    assert 0.0 < budget["renorm_drift_abs_sum"] < 1e-9
    assert 0.0 <= budget["boundary_mass_max"] < 1e-9


def test_run_halving_checks_stage_targets(tmp_path, capsys):
    cfg = tmp_path / "halving.ini"
    out = tmp_path / "out"
    cfg.write_text(HALVING_INI.format(out=out))
    assert main(["run", str(cfg)]) == 0
    report = json.loads((out / "report.json").read_text())
    verdicts = {v["name"]: v["passed"] for v in report["verdicts"]}
    assert verdicts["halving_stage_targets"] is True
    assert len(report["plan"]) == math.ceil(math.log2(4.0 / 0.25))


FULL_MATRIX_INI = """
[run]
regime = strong
epsilon = 0.4
n_chains = 1000
seed = 21
record_every = 40
out_dir = {out}

[potential]
kind = quadratic-full
matrix =
    2.0 0.5
    0.5 1.0

[init]
kind = gaussian
mean = 0.0, 0.0
cov_diag = 1.2, 1.2

[oracles]
gaussian = true
"""


def test_run_quadratic_full_matrix_rows(tmp_path, capsys):
    cfg = tmp_path / "full.ini"
    out = tmp_path / "out"
    cfg.write_text(FULL_MATRIX_INI.format(out=out))
    assert main(["run", str(cfg)]) == 0
    report = json.loads((out / "report.json").read_text())
    w = report["potential"]
    assert w["kind"] == "quadratic-full"
    assert w["m"] == pytest.approx(1.5 - math.sqrt(0.5))  # eigenvalues of [[2,.5],[.5,1]]
    assert w["L"] == pytest.approx(1.5 + math.sqrt(0.5))


def test_run_gaussian_oracle_rejected_for_huber(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(
        "[run]\nepsilon = 0.4\nout_dir = " + str(tmp_path / "o") + "\n"
        "[potential]\nkind = huber\ndelta = 1.0\n[oracles]\ngaussian = true\n"
    )
    assert main(["run", str(cfg)]) == 2
    assert "quadratic" in capsys.readouterr().err


WEAK_NUMERIC_INI = """
[run]
regime = weak
epsilon = 0.2
n_chains = 200
seed = 5
record_every = 50
out_dir = {out}

[potential]
kind = huber
delta = 1.0

[init]
kind = gaussian
mean = 0.0
cov_diag = 4.0

[weak]
c1 = 0.6
c2 = 1.5
h_prime = inf
kl0 = 0.13
"""


def test_run_weak_numeric_inputs_and_inf_sentinel(tmp_path, capsys):
    cfg = tmp_path / "weak_num.ini"
    out = tmp_path / "out"
    cfg.write_text(WEAK_NUMERIC_INI.format(out=out))
    assert main(["run", str(cfg)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["resolved"]["h_prime"] == "inf"  # sanitized for strict JSON
    assert report["plan"][0]["regime"] == "weak"


@pytest.mark.parametrize(
    "body, message",
    [
        ("", "config error"),  # no potential section
        ("[potential]\nkind = huber\ndelta = -1\n[init]\nkind = point\nx = 0\n", "delta must be positive"),
        ("[potential]\nkind = quadratic-diagonal\ndiag = -1, 2\n", "entries must be positive"),
        (
            "[potential]\nkind = quadratic-diagonal\ndiag = 1, 2\n"
            "[init]\nkind = gaussian\nmean = 0, 0, 0\ncov_diag = 1, 1\n",
            "do not match d=2",
        ),
        ("[potential]\nkind = quadratic-diagonal\ndiag = 1\n[oracles]\ngrid = true\ngrid_n = 4\n", "8 cells"),
        (
            "[potential]\nkind = quadratic-diagonal\ndiag = 1\n"
            "[oracles]\ngrid = true\ngrid_x_min = 5\ngrid_x_max = -5\n",
            "need x_max > x_min",
        ),
        *[
            (
                "[potential]\nkind = quadratic-diagonal\ndiag = 1\n"
                f"[oracles]\ngrid = true\ngrid_n = {n}\n",
                "8 cells",
            )
            for n in (0, -5, 3)
        ],
        (
            "[potential]\nkind = huber\ndelta = 1\n[init]\nkind = point\nx = 0\n[weak]\nc1 = abc\n",
            "weak.c1 must be a number",
        ),
    ],
    ids=[
        "no-potential",
        "huber-delta",
        "negative-diag",
        "init-mean-length",
        "grid-n",
        "grid-bounds",
        "grid-n-0",
        "grid-n-negative",
        "grid-n-3",
        "weak-not-a-number",
    ],
)
def test_run_bad_config_is_usage_error(tmp_path, capsys, body, message):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[run]\nepsilon = 0.5\nn_chains = 20\nout_dir = {tmp_path / 'o'}\n" + body)
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()  # rejected before anything is written


@pytest.mark.parametrize(
    "text",
    [
        "[run]\nepsilon = 0.5\n[potential]\nkind = quadratic-diagonal\ndiag = 1\n[run]\nseed = 1\n",
        "epsilon = 0.5\n[potential]\nkind = quadratic-diagonal\ndiag = 1\n",
    ],
    ids=["duplicate-section", "no-section-header"],
)
def test_run_unparsable_config_is_usage_error(tmp_path, capsys, text):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid config") and "Traceback" not in err


def test_run_missing_file_is_usage_error(capsys):
    assert main(["run", "/nonexistent/nope.ini"]) == 2


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_suite_passes(capsys, suite):
    assert main(["verify", suite, "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "worst margin" in out


def test_verify_unknown_suite_lists_choices(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nosuchsuite"])
    assert exc.value.code == 2
    assert "inequalities" in capsys.readouterr().err


def test_run_huber_grid_default_init_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "huber_grid.ini"
    cfg.write_text(
        "[run]\nregime = weak\nepsilon = 0.2\nout_dir = " + str(tmp_path / "o") + "\n"
        "[potential]\nkind = huber\ndelta = 1.0\n[oracles]\ngrid = true\n"
        "[weak]\nc1 = 0.6\nc2 = 1.5\nh_prime = inf\nkl0 = 0.13\n"
    )
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "explicit [init]" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_run_seed_outside_philox_key_range_is_config_error(tmp_path, capsys, seed):
    cfg = tmp_path / "seed.ini"
    cfg.write_text(STRONG_INI.format(out=tmp_path / "out").replace("seed = 7", f"seed = {seed}"))
    assert main(["run", str(cfg)]) == 2
    assert "[0, 2**64)" in capsys.readouterr().err
    assert main(["verify", "contraction", "--seed", str(seed)]) == 2
    assert "[0, 2**64)" in capsys.readouterr().err


def test_run_accepts_both_ends_of_the_seed_range(tmp_path, capsys):
    chains = []
    for seed in (0, 2**64 - 1):
        cfg = tmp_path / f"seed{seed}.ini"
        out = tmp_path / f"out{seed}"
        text = STRONG_INI.format(out=out).replace("seed = 7", f"seed = {seed}")
        cfg.write_text(text.replace("n_chains = 2000", "n_chains = 200"))
        assert main(["run", str(cfg)]) == 0
        assert json.loads((out / "report.json").read_text())["seed"] == seed
        chains.append((out / "chain.csv").read_bytes())
    assert chains[0] != chains[1]


def test_cli_import_leaves_scipy_integrate_unloaded():
    code = "import sys, langevin_kl.cli; print('scipy.integrate' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def _probe_boundaries():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"
    spec = importlib.util.spec_from_file_location("perfbench_probe", path)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe.BOUNDARIES


def test_benchmark_hooks_resolve():
    """The benchmark wraps each (caller, name) boundary where the caller module references it."""
    for caller, name, _ in _probe_boundaries():
        assert hasattr(importlib.import_module(f"langevin_kl.{caller}"), name), (caller, name)


def test_run_steps_through_the_cli_step_name(tmp_path, monkeypatch, capsys):
    """Every ULA step of a run goes through cli.step, where the benchmark times it."""
    calls = []
    original = cli.step

    def counting_step(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "step", counting_step)
    cfg = tmp_path / "strong.ini"
    out = tmp_path / "out"
    cfg.write_text(STRONG_INI.format(out=out))
    assert main(["run", str(cfg)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(calls) == sum(p["k"] for p in report["plan"])


def test_run_advances_the_gaussian_oracle_once_per_record_interval(tmp_path, monkeypatch, capsys):
    """One closed-form jump of the exact law per record interval, through cli.ula_step_law."""
    calls = []
    original = cli.ula_step_law

    def counting(*args, **kwargs):
        calls.append(args[3] if len(args) > 3 else kwargs.get("k", 1))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "ula_step_law", counting)
    cfg = tmp_path / "strong.ini"
    out = tmp_path / "out"
    cfg.write_text(STRONG_INI.format(out=out))
    assert main(["run", str(cfg)]) == 0
    rows = (out / "gaussian.csv").read_text().splitlines()[1:]
    steps = [int(r.split(",")[0]) for r in rows]
    assert calls == steps[1:]  # each call jumps from the stage start to the next record point


def _tracker_by_recursion(A, mean, cov, bound, stages):
    """The per-step margins the tracker keeps, from the matrix recursion one step at a time."""
    d = A.shape[0]
    sm_worst = w2_worst = math.inf
    for h, k in stages:
        pi_h = stationary_law(A, h)
        prev = w2_gaussian(GaussianLaw(mean, cov), pi_h)
        M = np.eye(d) - h * A
        for _ in range(k):
            mean = M @ mean
            cov = M @ cov @ M.T + 2.0 * h * np.eye(d)
            sm_worst = min(sm_worst, bound - (np.trace(cov) + mean @ mean))
            now = w2_gaussian(GaussianLaw(mean, cov), pi_h)
            w2_worst = min(w2_worst, prev - now)
            prev = now
    return sm_worst, w2_worst, mean, cov


@pytest.mark.parametrize(
    "kind, params, init, stages, every",
    [
        # the strong-d2 benchmark run: diag(1, 2) from N(0, I/m), 286 steps recorded every 100
        ("quadratic-diagonal", {"diag": [1.0, 2.0]}, None, [(0.005859375, 286)], 100),
        # three halving stages, recorded every 7
        ("quadratic-diagonal", {"diag": [1.0, 2.0]}, None, [(0.02, 30), (0.01, 45), (0.005, 50)], 7),
        # a rotated target from a non-isotropic init: the batched W2 path
        (
            "quadratic-full",
            {"matrix": [[2.0, 0.5], [0.5, 1.0]]},
            ([0.4, -0.3], [0.5, 1.8]),
            [(0.02, 60), (0.01, 90)],
            11,
        ),
    ],
    ids=["strong-d2", "halving-stages", "rotated-anisotropic"],
)
def test_gaussian_tracker_matches_the_step_recursion(kind, params, init, stages, every):
    pot = construct_potential(kind, **params)
    spec = GAUSSIAN_1_OVER_M if init is None else GaussianInit(np.array(init[0]), np.array(init[1]))
    tracker = cli._GaussianTracker(pot, spec)
    law0 = tracker.law
    for h, k in stages:
        for lo in range(0, k, every):
            tracker.advance(h, min(every, k - lo))
    sm_worst, w2_worst, mean, cov = _tracker_by_recursion(
        tracker.A, law0.mean, law0.cov, tracker.bound, stages
    )
    assert abs(tracker.sm_worst - sm_worst) <= 1e-12
    assert abs(tracker.w2_worst - w2_worst) <= 1e-12
    assert np.max(np.abs(tracker.law.mean - mean)) <= 1e-12 * np.max(np.abs(mean))  # exact 0 from N(0, I/m)
    assert np.max(np.abs(tracker.law.cov - cov)) <= 1e-12 * np.max(np.abs(cov))


def test_main_freezes_the_import_heap_once(capsys):
    main(["plan", "--regime", "strong", "--m", "1", "--L", "2", "--d", "2", "--eps", "0.1"])
    frozen = gc.get_freeze_count()
    assert frozen > 0
    main(["plan", "--regime", "strong", "--m", "1", "--L", "2", "--d", "2", "--eps", "0.1"])
    assert gc.get_freeze_count() == frozen
