import ast
import gc
import importlib
import importlib.util
import json
import math
import os
import platform
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from langevin_kl import cli, grid_oracle
from langevin_kl.chain import GAUSSIAN_1_OVER_M, GaussianInit
from langevin_kl.cli import SUITES, main
from langevin_kl.gaussian_oracle import GaussianLaw, GaussianPath, stationary_law, w2_gaussian
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


@pytest.mark.parametrize("target", ["tv", "w2"])
def test_plan_tv_or_w2_target_without_delta_is_usage_error(capsys, target):
    assert main(["plan", "--regime", "strong", "--m", "1", "--L", "2", "--d", "2", "--target", target]) == 2
    assert capsys.readouterr().err == f"error: --delta is required for --target {target}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            "--regime halving --m 1 --L 1 --d 1 --eps 0.25 --kl0 1 --target tv --delta 0.3",
            "--target tv needs --regime strong",
        ),
        ("--regime weak --L 1 --d 1 --eps 0.1 --c1 1 --c2 1 --kl0 2 --target w2", "--target w2 needs --regime strong"),
        (
            "--regime halving --m 1 --L 1 --d 1 --eps 0.25 --kl0 1 --delta 0.3",
            "--delta is not read by --regime halving --target kl, which takes --m, --L, --d, --eps, --kl0",
        ),
        (
            "--regime strong --m 1 --L 2 --d 2 --eps 0.1 --c1 5 --kl0 3",
            "--c1 is not read by --regime strong --target kl, which takes --m, --L, --d, --eps",
        ),
        ("--regime strong --m 1 --L 2 --d 2 --eps 0.1 --h-prime 1", "--h-prime is not read by --regime strong"),
        (
            "--regime weak --m 1 --L 1 --d 1 --eps 0.1 --c1 1 --c2 1 --kl0 2",
            "--m is not read by --regime weak --target kl, which takes --L, --d, --c1, --c2, --kl0, --eps, --h-prime",
        ),
        (
            "--regime strong --m 1 --L 2 --d 2 --target tv --delta 0.3 --eps 0.1",
            "--eps is not read by --regime strong --target tv, which takes --m, --L, --d, --delta",
        ),
        ("--regime strong --m 1 --L 2 --d 2 --target w2 --delta 0.3 --eps 0.1", "--eps is not read by"),
    ],
    ids=["halving-tv", "weak-w2", "halving-delta", "strong-c1-kl0", "strong-h-prime", "weak-m", "tv-eps", "w2-eps"],
)
def test_plan_flag_its_regime_does_not_read_is_usage_error(capsys, argv, message):
    assert main(["plan", *argv.split()]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}")


def test_plan_weak_h_prime_defaults_to_inf(capsys):
    weak = ["plan", "--regime", "weak", "--L", "1", "--d", "1", "--eps", "0.1", "--c1", "1", "--c2", "1", "--kl0", "2"]
    assert main(weak) == 0
    default = capsys.readouterr().out
    assert main(weak + ["--h-prime", "inf"]) == 0
    assert capsys.readouterr().out == default
    assert main(weak + ["--h-prime", "1e-3"]) == 0
    assert "binding cap h_prime" in capsys.readouterr().out


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


_HALVING_PLAN = ["plan", "--regime", "halving", "--m", "1", "--L", "1", "--d", "1", "--eps", "0.25"]


def test_plan_halving_prints_every_stage(capsys):
    assert main(_HALVING_PLAN + ["--kl0", "1"]) == 0
    assert capsys.readouterr().out == (
        "regime=halving-stage h=0.03125 k=23 epsilon=0.5\n"
        "  notes: stage 0: target eps_j = kl0/2^1; h_j=m*eps_j/(16*d*L^2)\n"
        "regime=halving-stage h=0.015625 k=45 epsilon=0.25\n"
        "  notes: stage 1: target eps_j = kl0/2^2; h_j=m*eps_j/(16*d*L^2)\n"
        "total steps: 68\n"
    )
    assert main(_HALVING_PLAN + ["--kl0", "1", "--json"]) == 0
    stages = json.loads(capsys.readouterr().out)["stages"]
    assert [(s["h"], s["k"], s["epsilon"]) for s in stages] == [(0.03125, 23, 0.5), (0.015625, 45, 0.25)]
    # one stage keeps the halving shape: the shape follows the regime, not the stage count
    assert main(_HALVING_PLAN + ["--kl0", "0.4", "--json"]) == 0
    (stage,) = json.loads(capsys.readouterr().out)["stages"]
    assert (stage["regime"], stage["epsilon"]) == ("halving-stage", 0.2)


def test_plan_halving_kl0_defaults_to_the_init_bound(capsys):
    assert main(_HALVING_PLAN + ["--json"]) == 0
    default = capsys.readouterr().out
    assert main(_HALVING_PLAN + ["--kl0", "1", "--json"]) == 0  # d*L/m
    assert capsys.readouterr().out == default


def test_plan_halving_with_nothing_to_do(capsys):
    assert main(_HALVING_PLAN + ["--kl0", "0.2"]) == 0
    assert capsys.readouterr().out == "no stages needed: kl0 <= epsilon\n"
    assert main(_HALVING_PLAN + ["--kl0", "0.2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"stages": []}


@pytest.mark.parametrize(
    "argv",
    [
        "--regime strong --m 1e-300 --L 2 --d 2 --eps 0.1",  # m^2 underflows to 0
        "--regime strong --m 1 --L 1e200 --d 2 --eps 0.1",  # L^2 overflows
        "--regime strong --m 1 --L 2 --d 2 --eps 1e-320",  # k overflows
        "--regime weak --L 1 --d 1 --eps 1e-200 --c1 1 --c2 1 --kl0 2",  # h underflows to 0
        "--regime weak --L 1e200 --d 1 --eps 0.1 --c1 1 --c2 1 --kl0 2",
        "--regime halving --m 1 --L 2 --d 2 --eps 0.1 --kl0 inf",
        "--regime halving --m 1 --L 2 --d 2 --eps 0.1 --kl0 1e308",  # stage 0 targets eps > d*L/m
        "--regime strong --m 1 --L 2 --d " + "9" * 400 + " --eps 0.1",  # d beyond float range
        "--regime strong --m 1 --L 2 --d 2 --target tv --delta 1e-200",  # delta^2 underflows to 0
        "--regime strong --m 1 --L 2 --d 2 --target w2 --delta 1e-200",
    ],
    ids=[
        "m-tiny",
        "L-huge",
        "eps-tiny",
        "weak-eps-tiny",
        "weak-L-huge",
        "kl0-inf",
        "kl0-1e308",
        "d-huge",
        "tv-delta-tiny",
        "w2-delta-tiny",
    ],
)
def test_plan_extreme_inputs_are_planning_errors(capsys, argv):
    assert main(["plan", *argv.split()]) == 1
    err = capsys.readouterr().err
    assert err.startswith("planning error: ") and "Traceback" not in err


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
    assert "eta:" not in capsys.readouterr().err  # a run this short prints no ETA


def test_report_records_the_environment(tmp_path, capsys):
    cfg = tmp_path / "strong.ini"
    out = tmp_path / "out"
    cfg.write_text(STRONG_INI.format(out=out))
    assert main(["run", str(cfg)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["environment"] == {"python": platform.python_version(), "numpy": np.__version__}
    keys = {"version", "seed", "config", "potential", "plan", "resolved", "verdicts", "outputs"}
    assert set(report) == keys | {"environment"}


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
    # one stage on 2,048 cells of [-24, 24]: its split adds at most 2.7% of the step's noise
    dx = 48.0 / 2048
    assert budget["split_variance_ratio_max"] == pytest.approx(dx * dx / (8.0 * report["plan"][0]["h"]), rel=1e-12)
    assert budget["split_variance_ratio_max"] < 0.03


def test_grid_interval_matches_single_grid_steps(tmp_path):
    # a record interval is one kernel call: it leaves the law and the error budget
    # exactly where as many ula_step_grid calls do, across a halving of h
    from langevin_kl.grid_oracle import ula_step_grid

    cfg_path = tmp_path / "weak.ini"
    cfg_path.write_text(WEAK_INI.format(out=tmp_path / "out"))
    cfg = cli.load_config(str(cfg_path))
    pot = construct_potential(cfg.potential_kind, **cfg.potential_params)
    tracker = cli._GridTracker(cfg, pot, cli._build_init(cfg))
    p = tracker.p
    boundary = max(p.mass[0], p.mass[-1])
    for h, k in [(0.02, 37), (0.02, 1), (0.01, 50)]:
        tracker.advance(h, k)
        for _ in range(k):
            p = ula_step_grid(p, pot, h)
            boundary = max(boundary, p.mass[0], p.mass[-1])
        assert np.array_equal(tracker.p.mass, p.mass)
        drift = p.renorm_drift_abs_sum
        budget = tracker.error_budget()
        assert budget.pop("split_variance_ratio_max") == p.dx**2 / (8.0 * h)  # h only shrinks here
        assert budget == {"renorm_drift_abs_sum": drift, "boundary_mass_max": float(boundary)}
    assert drift > 0.0 and boundary > 0.0


def test_grid_budget_records_the_coarsest_split_against_noise(tmp_path):
    """split_variance_ratio_max is the largest dx^2/(8h) over the stages, whatever their step counts."""
    cfg_path = tmp_path / "weak.ini"
    cfg_path.write_text(WEAK_INI.format(out=tmp_path / "out").replace("grid_n = 2048", "grid_n = 256"))
    cfg = cli.load_config(str(cfg_path))
    tracker = cli._GridTracker(cfg, construct_potential("huber", delta=1.0), cli._build_init(cfg))
    assert tracker.error_budget()["split_variance_ratio_max"] == 0.0  # no step taken, no split
    dx2 = (48.0 / 256) ** 2
    for h, k, worst in [(0.04, 5, dx2 / 0.32), (0.01, 1, dx2 / 0.08), (0.02, 30, dx2 / 0.08)]:
        tracker.advance(h, k)
        assert tracker.error_budget()["split_variance_ratio_max"] == pytest.approx(worst, rel=1e-15)


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


def _init_config(tmp_path, init: str) -> Path:
    """FULL_MATRIX_INI (rotated A) with the given [init] body; the Gaussian oracle is on unless init is a point."""
    text = FULL_MATRIX_INI.format(out=tmp_path / "out")
    text = text.replace("kind = gaussian\nmean = 0.0, 0.0\ncov_diag = 1.2, 1.2\n", init)
    if "kind = point" in init:
        text = text.replace("gaussian = true", "gaussian = false")
    cfg = tmp_path / "init.ini"
    cfg.write_text(text)
    return cfg


def test_run_rejects_an_init_whose_fourth_power_overflows(tmp_path, capsys):
    """mean = 1e308 on a rotated A with the Gaussian oracle is a config error before any work, with no warning."""
    cfg = _init_config(tmp_path, "kind = gaussian\nmean = 1e308, 0\ncov_diag = 1, 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [init] mean") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "init",
    ["kind = gaussian\nmean = 1e60, -1e60\ncov_diag = 1e120, 1e120\n", "kind = point\nx = 1e60, -1e60\n"],
    ids=["gaussian", "point"],
)
def test_run_accepts_the_largest_init_without_warnings(tmp_path, capsys, init):
    """The rule's own bounds run end to end, through the rotated Gaussian oracle too, with no overflow warning."""
    cfg = _init_config(tmp_path, init)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(cfg)]) in (0, 1)
    captured = capsys.readouterr()
    assert captured.err == "" and "report:" in captured.out
    rows = np.loadtxt(tmp_path / "out" / "chain.csv", delimiter=",", skiprows=1)
    assert np.isfinite(rows).all() and rows[0, 1] > 1e120


@pytest.mark.parametrize("cov_diag", ["1e20, 1", "1000000000000.0001, 1"], ids=["1e20", "just-above-1e12"])
def test_run_rejects_an_ill_conditioned_init_on_a_rotated_a(tmp_path, capsys, cov_diag):
    """Past max/min cov_diag = 1e12 the rotation into A's eigenbasis is a config error, with no warning."""
    cfg = _init_config(tmp_path, f"kind = gaussian\nmean = 0, 0\ncov_diag = {cov_diag}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [init] cov_diag: max/min above 1e+12") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_run_accepts_the_most_ill_conditioned_init(tmp_path, capsys):
    """max/min cov_diag = 1e12 on a rotated A runs with no warning, and its step-0 KL is exact."""
    cfg = _init_config(tmp_path, "kind = gaussian\nmean = 0, 0\ncov_diag = 1e12, 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(cfg)]) == 1  # far from the target after the planned steps
    assert "report:" in capsys.readouterr().out
    kl = float((tmp_path / "out" / "gaussian.csv").read_text().splitlines()[1].split(",")[1])
    kl_ref = _mp_reference_rows(cfg.read_text(), {"plan": []}, {0})[0][0]
    assert abs(kl - kl_ref) <= 1e-12 * kl_ref


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


def _run_verdicts(tmp_path, capsys, text):
    """Run the config text with out_dir under tmp_path; its exit code and the names of its verdict lines."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(text.replace("out_dir = out\n", f"out_dir = {tmp_path / 'out'}\n"))
    code = main(["run", str(cfg)])
    lines = capsys.readouterr().out.splitlines()
    return code, [line.split()[1] for line in lines if line.startswith(("pass ", "FAIL "))]


_GRID_RUN = """
[run]
regime = {regime}
epsilon = {eps}
n_chains = 20
seed = 4
record_every = 100
out_dir = out

[potential]
kind = {potential}

[init]
kind = gaussian
mean = {mean}
cov_diag = {var}

[oracles]
grid = true
gaussian = {gaussian}
"""


def test_weak_huber_delta_half_runs_on_a_box_it_works_out(tmp_path, capsys):
    """Huber delta = 0.5 leaves 1.8e-8 in the edge cells of +/-24: the box doubles to +/-48 and the run,
    its weak inputs estimated from the grid, ends with verdicts instead of a config error."""
    text = _GRID_RUN.format(regime="weak", eps=0.3, potential="huber\ndelta = 0.5", mean=0, var=4, gaussian="false")
    code, names = _run_verdicts(tmp_path, capsys, text)
    assert (code, names) == (0, ["weak_kl_final", "kl_decreasing", "weak_second_moment_bound"])
    assert json.loads((tmp_path / "out" / "report.json").read_text())["grid_error_budget"]["boundary_mass_max"] < 1e-9


def test_grid_run_from_a_start_beyond_the_default_box(tmp_path, capsys):
    """N(1, 2) needs +/-12.31 on diag = 1, whose box starts at +/-12: the box doubles to +/-24, and the grid
    law then follows the Gaussian oracle's exact one."""
    text = _GRID_RUN.format(regime="strong", eps=0.5, potential="quadratic-diagonal\ndiag = 1", mean=1, var=2, gaussian="true")
    code, names = _run_verdicts(tmp_path, capsys, text)
    assert code == 0 and "grid_kl_final" in names and "strong_kl_final" in names
    grid, exact = (
        np.loadtxt(tmp_path / "out" / name, delimiter=",", skiprows=1) for name in ("grid.csv", "gaussian.csv")
    )
    assert np.abs(grid[:, 1] - exact[:, 1]).max() < 1e-4  # kl, row by row


def test_final_kl_verdicts_of_both_oracles_judge_the_last_stage_epsilon(tmp_path, capsys):
    """A halving run promises its last stage's epsilon, here 0.25 below [run] epsilon = 0.3 (stages at 0.5 and
    0.25): both oracles judge their final KL against it, so their margins differ by their final KLs alone."""
    text = _GRID_RUN.format(regime="halving", eps=0.3, potential="quadratic-diagonal\ndiag = 1", mean=1, var=2, gaussian="true")
    code, _ = _run_verdicts(tmp_path, capsys, text)
    out = tmp_path / "out"
    report = json.loads((out / "report.json").read_text())
    assert code == 0 and [stage["epsilon"] for stage in report["plan"]] == [0.5, 0.25]
    margins = {v["name"]: v["margin"] for v in report["verdicts"]}
    grid, exact = (np.loadtxt(out / name, delimiter=",", skiprows=1) for name in ("grid.csv", "gaussian.csv"))
    assert margins["grid_kl_final"] == 0.25 - grid[-1, 1]
    assert margins["halving_kl_final"] == 0.25 - exact[-1, 1]
    assert abs(margins["grid_kl_final"] - margins["halving_kl_final"]) < 1e-4


def test_grid_run_builds_its_target_and_start_once(tmp_path, capsys, monkeypatch):
    """default_grid's laws, the ones that proved the box, are the run's: no second build of either."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for mod, name in [(grid_oracle, "target_density_grid"), (grid_oracle, "discretize_gaussian"), (cli, "target_density_grid")]:
        monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    text = _GRID_RUN.format(regime="strong", eps=0.5, potential="quadratic-diagonal\ndiag = 1", mean=0.5, var=1, gaussian="false")
    code, _ = _run_verdicts(tmp_path, capsys, text)
    assert code == 0 and sorted(calls) == ["discretize_gaussian", "target_density_grid"]


_WEAK_QUADRATIC = """
[run]
regime = weak
epsilon = 0.5
n_chains = 200
seed = 5
record_every = 100
out_dir = out

[potential]
kind = quadratic-diagonal
diag = {diag}

[init]
kind = gaussian
mean = {mean}
cov_diag = {var}

[oracles]
gaussian = true
grid = {grid}

[weak]
c1 = 1
c2 = {c2}
h_prime = {h_prime}
kl0 = {kl0}
"""


def test_weak_run_on_the_gaussian_oracle_reports_no_strong_verdict(tmp_path, capsys):
    """A weak plan is judged by a KL verdict named for the weak regime, not strong_kl_final."""
    text = _WEAK_QUADRATIC.format(diag="1, 2", mean="0.5, 0.5", var="1, 1", grid="false", c2=2, h_prime=0.1, kl0=1)
    code, names = _run_verdicts(tmp_path, capsys, text)
    assert code == 0 and "weak_gaussian_kl_final" in names
    assert not [name for name in names if name.startswith("strong_")], names
    claims = {v["name"]: v["claim"] for v in json.loads((tmp_path / "out" / "report.json").read_text())["verdicts"]}
    assert "weak schedule" in claims["weak_gaussian_kl_final"]


def test_weak_run_with_both_oracles_names_each_verdict_once(tmp_path, capsys):
    """On a 1-D quadratic both oracles judge the weak plan's final KL, under two names."""
    text = _WEAK_QUADRATIC.format(diag="1", mean="0.5", var="1", grid="true", c2=1, h_prime=0.5, kl0=0.5)
    code, names = _run_verdicts(tmp_path, capsys, text)
    assert code == 0 and {"weak_kl_final", "weak_gaussian_kl_final"} <= set(names)
    assert len(names) == len(set(names)), names
    assert not [name for name in names if name.startswith("strong_")], names


@pytest.mark.parametrize(
    "workload, names",
    [
        (
            "strong-d2",
            [
                "kl_init_bound", "strong_kl_final", "w2_target", "second_moment_bound",
                "second_moment_bound_empirical", "w2_stationary_contraction", "sampler_matches_oracle",
            ],
        ),
        ("huber-weak-grid", ["weak_kl_final", "kl_decreasing", "weak_second_moment_bound"]),
    ],
)
def test_benchmark_workloads_keep_their_verdict_names(tmp_path, capsys, workload, names):
    """The names do not depend on the chain count, so the workloads run here on 200 chains."""
    text = _perfbench("workloads").config_text(workload, 1)
    code, printed = _run_verdicts(tmp_path, capsys, re.sub(r"n_chains = \d+", "n_chains = 200", text))
    assert (code, printed) == (0, names)


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
        (
            "[potential]\nkind = quadratic-diagonal\ndiag = 1\n[oracles]\ngrid = true\ngrid_n = 4\n",
            "oracles.grid_n must be an integer >= 8, got 4",
        ),
        # the box is the grid oracle's own: a config that still sets a bound is refused, not obeyed
        (
            "[potential]\nkind = quadratic-diagonal\ndiag = 1\n"
            "[oracles]\ngrid = true\ngrid_x_min = 5\ngrid_x_max = -5\n",
            "unknown key [oracles] grid_x_min; [oracles] takes gaussian, grid, grid_n",
        ),
        (
            "[potential]\nkind = quadratic-diagonal\ndiag = 1\n"
            "[init]\nkind = gaussian\nmean = 1e30\ncov_diag = 1\n[oracles]\ngrid = true\n",
            "no box up to +/-1.1068e+20 of 4096 cells holds the target and the start: grid",
        ),
        *[
            (
                "[potential]\nkind = quadratic-diagonal\ndiag = 1\n"
                f"[oracles]\ngrid = true\ngrid_n = {n}\n",
                "oracles.grid_n must be an integer >= 8",
            )
            for n in (0, -5, 3)
        ],
        (
            "[potential]\nkind = huber\ndelta = 1\n[init]\nkind = point\nx = 0\n[weak]\nc1 = abc\n",
            "weak.c1 must be a number",
        ),
        *[
            (
                f"[potential]\nkind = huber\ndelta = 1\n[init]\nkind = point\nx = 0\n[weak]\n{key} = {v}\n",
                f"weak.{key} must be positive",
            )
            for key, v in (("c1", "-1"), ("kl0", "nan"), ("c2", "inf"), ("h_prime", "0"))
        ],
        *[
            (f"[potential]\nkind = quadratic-diagonal\ndiag = 1\n[halving]\nkl0 = {v}\n", "halving.kl0 must be")
            for v in ("-1", "nan", "inf")
        ],
        (
            "regime = weak\n[potential]\nkind = huber\ndelta = 1\n[init]\nkind = point\nx = 0\n",
            "say 'estimate' but the grid oracle is off",
        ),
        *[
            (f"[potential]\nkind = quadratic-diagonal\ndiag = 1, 2\n[init]\n{init}\n", message)
            for init, message in (
                ("kind = gaussian\nmean = 1.0000000000000002e60, 0\ncov_diag = 1, 1", "[init] mean"),
                ("kind = gaussian\nmean = 0, nan\ncov_diag = 1, 1", "[init] mean"),
                ("kind = gaussian\nmean = 0, 0\ncov_diag = 1, 1.0000000000000002e120", "[init] cov_diag"),
                ("kind = gaussian\nmean = 0, 0\ncov_diag = inf, 1", "[init] cov_diag"),
                ("kind = point\nx = -1e61, 0", "[init] x"),
            )
        ],
        # grid_max_steps capped grid runs once; a config that still sets it must not run uncapped unnoticed
        *[
            (
                f"regime = weak\ngrid_max_steps = {v}\n[potential]\nkind = huber\ndelta = 1\n"
                "[init]\nkind = gaussian\nmean = 0\ncov_diag = 4\n[oracles]\ngrid = true\n",
                "unknown key [run] grid_max_steps; [run] takes regime, epsilon, n_chains,",
            )
            for v in (0, -5)
        ],
        (
            "reocrd_every = 10\n[potential]\nkind = quadratic-diagonal\ndiag = 1\n",
            "unknown key [run] reocrd_every",
        ),
        (
            "[potential]\nkind = quadratic-diagonal\ndiag = 1\n[oracles]\ngausian = true\n",
            "unknown key [oracles] gausian; [oracles] takes gaussian, grid, grid_n",
        ),
        (
            "[potential]\nkind = quadratic-diagonal\ndiag = 1\n[oracels]\ngaussian = true\n",
            "unknown section [oracels]; the sections are [run], [potential], [init], [oracles], [weak], [halving]",
        ),
        (
            "[DEFAULT]\nseed = 1\n[potential]\nkind = quadratic-diagonal\ndiag = 1\n",
            "unknown key [DEFAULT] seed: set each key in its own section",
        ),
        (
            "[potential]\nkind = quadratic-diagonal\ndiag = 2.0\n[oracles]\ngrid = true\n",
            "init is N(0, 1/m), the target itself",
        ),
        (
            "[potential]\nkind = huber\ndelta = 1\ndim = 2\n[init]\nkind = point\nx = 0, 0\n"
            "[oracles]\ngrid = true\n",
            "grid oracle is 1-D only, potential has d=2",
        ),
        (
            "[potential]\nkind = quadratic-diagonal\ndiag = 1\n[init]\nkind = point\nx = 0.5\n"
            "[oracles]\ngaussian = true\n",
            "point laws are degenerate",
        ),
        ("record_every = 0\n[potential]\nkind = quadratic-diagonal\ndiag = 1\n", "run.record_every must be a positive integer, got 0"),
        # a key the chosen kind does not read would be echoed in report.json as if it had been used
        (
            "[potential]\nkind = quadratic-diagonal\ndiag = 1\ndelta = 5.0\n",
            "[potential] kind = quadratic-diagonal does not read delta; it takes diag",
        ),
        (
            "[potential]\nkind = quadratic-full\nmatrix = 1\ndiag = 1\ndim = 1\n",
            "[potential] kind = quadratic-full does not read diag, dim; it takes matrix",
        ),
        (
            "[potential]\nkind = huber\ndelta = 1\nmatrix = 1\n[init]\nkind = point\nx = 0\n",
            "[potential] kind = huber does not read matrix; it takes delta, dim",
        ),
        (
            "[potential]\nkind = quadratic-diagonal\ndiag = 1\n[init]\nkind = gaussian_1_over_m\nx = 3.0\n",
            "[init] kind = gaussian_1_over_m does not read x; it takes no other key",
        ),
        (
            "[potential]\nkind = quadratic-diagonal\ndiag = 1\n[init]\ncov_diag = 1\n",
            "[init] kind = gaussian_1_over_m does not read cov_diag; it takes no other key",
        ),
        (
            "[potential]\nkind = quadratic-diagonal\ndiag = 1\n[init]\nkind = point\nx = 0\nmean = 0\n",
            "[init] kind = point does not read mean; it takes x",
        ),
        (
            "[potential]\nkind = quadratic-diagonal\ndiag = 1\n[init]\nkind = gaussian\nmean = 0\nx = 0\n",
            "[init] kind = gaussian does not read x; it takes mean, cov_diag",
        ),
        # a key the chosen kind needs and does not find is named with the keys the kind takes
        ("[potential]\nkind = quadratic-diagonal\n", "[potential] kind = quadratic-diagonal needs diag; it takes diag"),
        ("[potential]\nkind = quadratic-full\n", "[potential] kind = quadratic-full needs matrix; it takes matrix"),
        (
            "[potential]\nkind = huber\ndim = 1\n[init]\nkind = point\nx = 0\n",
            "[potential] kind = huber needs delta; it takes delta, dim",
        ),
        (
            "[potential]\nkind = quadratic-diagonal\ndiag = 1\n[init]\nkind = gaussian\nmean = 0\n",
            "[init] kind = gaussian needs cov_diag; it takes mean, cov_diag",
        ),
        (
            "[potential]\nkind = quadratic-diagonal\ndiag = 1\n[init]\nkind = point\n",
            "[init] kind = point needs x; it takes x",
        ),
        # a section or key that the regime or oracle switch does not read would be echoed as if it had been used
        (
            "[potential]\nkind = quadratic-diagonal\ndiag = 1\n[weak]\nc1 = 1\nkl0 = estimate\n",
            "[weak] sets c1, kl0, read only under regime = weak; this config has regime = strong",
        ),
        (
            "regime = halving\n[potential]\nkind = quadratic-diagonal\ndiag = 1\n[weak]\nh_prime = inf\n",
            "[weak] sets h_prime, read only under regime = weak; this config has regime = halving",
        ),
        (
            "[potential]\nkind = quadratic-diagonal\ndiag = 1\n[halving]\nkl0 = 4\n",
            "[halving] sets kl0, read only under regime = halving; this config has regime = strong",
        ),
        (
            "regime = weak\n[potential]\nkind = huber\ndelta = 1\n[init]\nkind = point\nx = 0\n"
            "[weak]\nc1 = 1\nc2 = 1\nkl0 = 1\n[halving]\nkl0 = 4\n",
            "[halving] sets kl0, read only under regime = halving; this config has regime = weak",
        ),
        *[
            (
                f"[potential]\nkind = quadratic-diagonal\ndiag = 1\n[oracles]\n{switch}grid_n = 64\n",
                "[oracles] grid_n is read only with grid = true, and the grid oracle is off",
            )
            for switch in ("gaussian = true\n", "grid = false\n")
        ],
    ],
    ids=[
        "no-potential",
        "huber-delta",
        "negative-diag",
        "init-mean-length",
        "grid-n",
        "grid-bounds",
        "grid-no-box-holds-the-start",
        "grid-n-0",
        "grid-n-negative",
        "grid-n-3",
        "weak-not-a-number",
        "weak-c1-negative",
        "weak-kl0-nan",
        "weak-c2-inf",
        "weak-h-prime-zero",
        "halving-kl0-negative",
        "halving-kl0-nan",
        "halving-kl0-inf",
        "weak-estimate-without-grid",
        "init-mean-above-1e60",
        "init-mean-nan",
        "init-cov-diag-above-1e120",
        "init-cov-diag-inf",
        "init-point-above-1e60",
        "grid-max-steps-0",
        "grid-max-steps-negative",
        "misspelled-run-key",
        "misspelled-oracles-key",
        "misspelled-section",
        "default-section-key",
        "grid-default-init-is-the-target",
        "grid-huber-d2",
        "gaussian-oracle-point-init",
        "record-every-0",
        "quadratic-diagonal-delta",
        "quadratic-full-diag-dim",
        "huber-matrix",
        "default-init-x",
        "default-init-cov-diag",
        "point-init-mean",
        "gaussian-init-x",
        "quadratic-diagonal-without-diag",
        "quadratic-full-without-matrix",
        "huber-without-delta",
        "gaussian-init-without-cov-diag",
        "point-init-without-x",
        "weak-under-strong",
        "weak-under-halving",
        "halving-under-strong",
        "halving-under-weak",
        "grid-n-without-grid",
        "grid-n-with-grid-false",
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


def test_run_planning_error_writes_nothing(tmp_path, capsys):
    cfg = tmp_path / "big_eps.ini"
    cfg.write_text(
        f"[run]\nepsilon = 100\nn_chains = 20\nout_dir = {tmp_path / 'o'}\n"
        "[potential]\nkind = quadratic-diagonal\ndiag = 1\n"
    )
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed") and "Traceback" not in err
    assert not (tmp_path / "o").exists()  # the plan failed before anything is written


@pytest.mark.parametrize(
    "oracle, message",
    [
        ("gaussian", "run failed: unstable step: h*L = 10.4"),
        ("grid", "run failed: drift map not monotone on the grid; need h <= 1/L = 1.0"),
    ],
    ids=["gaussian", "grid"],
)
def test_run_refuses_a_stage_its_oracle_cannot_step_before_writing(tmp_path, monkeypatch, capsys, oracle, message):
    """A weak plan of h = 10.41 on a unit quadratic fails as a plan: before out_dir and the first step."""
    steps = []
    monkeypatch.setattr(cli, "step", lambda *args, **kwargs: steps.append(1))
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        f"[run]\nregime = weak\nepsilon = 0.5\nn_chains = 20\nout_dir = {tmp_path / 'o'}\n"
        "[potential]\nkind = quadratic-diagonal\ndiag = 1\n"
        "[init]\nkind = gaussian\nmean = 0\ncov_diag = 2\n"
        f"[oracles]\n{oracle} = true\n"
        "[weak]\nc1 = 0.001\nc2 = 1\nh_prime = inf\nkl0 = 1\n"
    )
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err
    assert steps == [] and not (tmp_path / "o").exists()


def test_run_whose_h_prime_search_fails_writes_nothing(tmp_path, monkeypatch, capsys):
    """No stepsize from 1/L down to 2^-23/L keeps a stationary law within the radius: exit 1, nothing written.

    The search's stationary laws are stubbed at an infinite W2 from the target; the run's own W2 rows are not.
    """
    monkeypatch.setattr(grid_oracle, "stationary_grid", lambda pot, h, target: target)
    monkeypatch.setattr(grid_oracle, "w2_grid_1d", lambda p, q: math.inf)
    steps = []
    monkeypatch.setattr(cli, "step", lambda *args, **kwargs: steps.append(1))
    cfg = tmp_path / "weak.ini"
    out = tmp_path / "out"
    cfg.write_text(WEAK_INI.format(out=out))
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"run failed: no stepsize down to {2.0**-23} kept the stationary law within W2 radius")
    assert steps == [] and not out.exists()


@pytest.mark.parametrize(
    "edits",
    [
        {"diag = 1.0, 2.0": "diag = 1e-300, 2"},  # m^2 underflows to 0 in the planned k
        {"diag = 1.0, 2.0": "diag = 1e-3, 1", "epsilon = 0.5": "epsilon = 1e-300"},  # k overflows
        # about 14 PiB of chain states, which fails at allocation at once; a
        # count that could really be allocated must never be tried here
        {"n_chains = 2000": "n_chains = 1000000000000000"},
    ],
    ids=["m-tiny", "eps-tiny", "n-chains-huge"],
)
def test_run_extreme_inputs_fail_without_output(tmp_path, capsys, edits):
    text = STRONG_INI.format(out=tmp_path / "out")
    for old, new in edits.items():
        text = text.replace(old, new)
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_run_refuses_a_plan_too_long_to_finish_before_writing(tmp_path):
    """k of about 1.5e210 steps is refused at once, not stepped until the process is killed."""
    cfg = tmp_path / "long.ini"
    out = tmp_path / "out"
    cfg.write_text(
        f"[run]\nepsilon = 1e-200\nn_chains = 2\nout_dir = {out}\n"
        "[potential]\nkind = quadratic-diagonal\ndiag = 1e-3, 1\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run(
        [sys.executable, "-m", "langevin_kl.cli", "run", str(cfg)],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert done.returncode == 1
    assert done.stderr.startswith("run failed: the plan takes a 211-digit number of steps, more than 2**53")
    assert not out.exists()


def _first_stderr_line(cfg: Path) -> str:
    """The first stderr line of `run cfg` in a subprocess (waiting at most 20 s), which is then killed."""
    import select

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "langevin_kl.cli", "run", str(cfg)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        ready, _, _ = select.select([proc.stderr], [], [], 20.0)
        return proc.stderr.readline() if ready else ""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_run_prints_an_eta_for_a_plan_that_will_not_finish_soon(tmp_path):
    """k of about 6.9e14 steps is below 2**53, so it runs; its first record point says how long it would take."""
    cfg = tmp_path / "long.ini"
    cfg.write_text(
        f"[run]\nepsilon = 1e-6\nn_chains = 2\nrecord_every = 100\nout_dir = {tmp_path / 'out'}\n"
        "[potential]\nkind = quadratic-diagonal\ndiag = 1e-3, 1\n"
    )
    line = _first_stderr_line(cfg)
    left = 685325216560204 - 100
    assert line.startswith(f"eta: {left} steps left at ") and " ms per step, about " in line
    assert line.rstrip().endswith(" years")


def test_run_with_the_grid_oracle_takes_its_whole_plan(tmp_path):
    """A grid-oracle run is not cut short: its 9.6e13 planned steps get the same eta line as any run."""
    cfg = tmp_path / "long.ini"
    cfg.write_text(
        "[run]\nregime = weak\nepsilon = 1e-4\nn_chains = 2\nrecord_every = 100\n"
        f"out_dir = {tmp_path / 'out'}\n"
        "[potential]\nkind = huber\ndelta = 1.0\n"
        "[init]\nkind = gaussian\nmean = 0.0\ncov_diag = 4.0\n"
        "[oracles]\ngrid = true\ngrid_n = 256\n"
        "[weak]\nc1 = 1\nc2 = 1\nh_prime = 1\nkl0 = 1\n"
    )
    line = _first_stderr_line(cfg)
    left = 96000000000000 - 100  # plan_weak's k for these inputs
    assert line.startswith(f"eta: {left} steps left at ") and " ms per step, about " in line
    assert line.rstrip().endswith(" years")


@pytest.mark.parametrize("where", ["a-file", "under-a-file"])
def test_run_out_dir_that_cannot_be_made_is_config_error(tmp_path, capsys, where):
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    cfg = tmp_path / "run.ini"
    cfg.write_text(STRONG_INI.format(out=blocker if where == "a-file" else blocker / "out"))
    assert main(["run", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("config error: [run] out_dir: ") and "Traceback" not in err and out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "run.ini"]  # nothing written
    assert blocker.read_text() == "kept\n"


def test_run_write_failure_removes_what_it_wrote(tmp_path, capsys):
    """A write that fails after the steps is a run failure; the files this run wrote are removed."""
    out_dir = tmp_path / "out"
    (out_dir / "gaussian.csv").mkdir(parents=True)  # chain.csv is written, then gaussian.csv cannot be
    cfg = tmp_path / "run.ini"
    cfg.write_text(STRONG_INI.format(out=out_dir).replace("n_chains = 2000", "n_chains = 20"))
    assert main(["run", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("run failed: ") and "gaussian.csv" in err and "Traceback" not in err
    assert out == ""
    assert [p.name for p in out_dir.iterdir()] == ["gaussian.csv"]


def test_run_write_cut_short_by_a_full_disk_removes_the_partial_file(tmp_path, monkeypatch, capsys):
    """A file whose write fails part way (the disk fills) is removed with the files written before it."""
    open_path = Path.open

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    def opening(path, *args, **kwargs):
        fh = open_path(path, *args, **kwargs)
        return FullDisk(fh) if path.name == "report.json" else fh

    monkeypatch.setattr(Path, "open", opening)
    out_dir = tmp_path / "out"
    cfg = tmp_path / "run.ini"
    cfg.write_text(STRONG_INI.format(out=out_dir).replace("n_chains = 2000", "n_chains = 20"))
    assert main(["run", str(cfg)]) == 1
    assert capsys.readouterr().err == "run failed: [Errno 28] No space left on device\n"
    assert list(out_dir.iterdir()) == []


def test_readme_config_grammar_shows_the_declared_keys(tmp_path):
    """Each key README's ini grammar block shows, commented out or not, is declared, and each one declared is shown;
    the block itself loads."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    (tmp_path / "grammar.ini").write_text(block)
    assert cli.load_config(str(tmp_path / "grammar.ini")).regime == "strong"
    shown, section = set(), None
    for line in block.splitlines():
        if m := re.match(r"\[(\w+)\]", line):
            section = m.group(1)
        elif m := re.match(r";?\s*(\w+)\s*=", line):
            shown.add((section, m.group(1)))
    declared = {(section, key) for section, keys in cli._CONFIG_KEYS.items() for key in keys}
    assert shown - declared == set()
    assert declared - shown == set()


@pytest.mark.parametrize("workload", ["strong-d2", "huber-weak-grid"])
def test_benchmark_workloads_print_no_eta(tmp_path, capsys, workload):
    text = _perfbench("workloads").config_text(workload, 1)
    cfg = tmp_path / "run.ini"
    cfg.write_text(text.replace("out_dir = out", f"out_dir = {tmp_path / 'out'}"))
    assert main(["run", str(cfg)]) == 0
    assert "eta:" not in capsys.readouterr().err


def test_run_missing_file_is_usage_error(capsys):
    assert main(["run", "/nonexistent/nope.ini"]) == 2


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_suite_passes(capsys, suite):
    """The three statistical checks, 5-SE gates on fixed seeds, failed on 0 of 200 seeds (0-199) each at their
    suites' sizes: moments' empirical_second_moment_le_4d_over_m_5se (smallest margin 6.10) and
    empirical_second_moment_within_5se_of_oracle (smallest margin 0.030, against 5 SE of about 0.125), and
    contraction's coupled_huber_nonincreasing_5se (smallest margin 0.046). Each false-fail rate is at most 1.5%
    (one-sided 95% Clopper-Pearson bound). The suites' other checks are not statistical."""
    assert main(["verify", suite, "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "worst margin" in out


def test_verify_moments_fails_a_planted_wrong_oracle(monkeypatch, capsys):
    """An oracle on diag(1, 3) for the sampler's diag(1, 2) passes both 4d/m gates and fails the oracle check.

    Over seeds 0-199 the oracle check failed this oracle on all 200, and one on diag(1, 2.5) on 187. One on
    diag(1, 2.2) failed on 3 only: a second moment 1.45 where it should be 1.5 is inside 5 SE of 4,000 chains.
    """
    real = cli._GaussianTracker
    wrong = construct_potential("quadratic-diagonal", diag=[1.0, 3.0])
    monkeypatch.setattr(cli, "_GaussianTracker", lambda pot, init: real(wrong, init))
    assert main(["verify", "moments", "--seed", "1"]) == 1
    out = capsys.readouterr().out
    assert "PASS oracle_second_moment_le_4d_over_m " in out
    assert "PASS empirical_second_moment_le_4d_over_m_5se " in out
    assert "FAIL empirical_second_moment_within_5se_of_oracle " in out


def test_verify_contraction_judges_its_exact_check_at_its_own_tolerance(monkeypatch, capsys):
    """coupled_quadratic_exact_halving holds the coupled rms to 2 * 0.5**t within 1e-12: a planted error of
    1e-10 fails it, where judged at MARGIN_TOL (-1e-9) on top of its own 1e-12 it passed."""
    real = cli.coupled_run

    def planted(*args, **kwargs):
        trace = real(*args, **kwargs)
        return type(trace)(rms=trace.rms + 1e-10, se=trace.se)

    monkeypatch.setattr(cli, "coupled_run", planted)
    assert main(["verify", "contraction", "--seed", "0"]) == 1
    out = capsys.readouterr().out
    assert "FAIL coupled_quadratic_exact_halving margin=-9.9e-11" in out
    assert "PASS coupled_huber_nonincreasing_5se " in out
    assert "PASS oracle_w2_to_stationary_nonincreasing " in out


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


@pytest.mark.parametrize("threads", ["x", "0", "-2", "1.5", "3"])
def test_threads_env_is_inert(tmp_path, monkeypatch, capsys, threads):
    """Steps are serial: LANGEVIN_KL_THREADS, set to anything, changes no output of run."""
    cfg = tmp_path / "strong.ini"
    out = tmp_path / "out"
    cfg.write_text(STRONG_INI.format(out=out))
    runs = []
    for value in (None, threads):
        if value is None:
            monkeypatch.delenv("LANGEVIN_KL_THREADS", raising=False)
        else:
            monkeypatch.setenv("LANGEVIN_KL_THREADS", value)
        assert main(["run", str(cfg)]) == 0
        files = [(out / name).read_bytes() for name in ("chain.csv", "gaussian.csv", "report.json")]
        runs.append([capsys.readouterr().out.encode(), *files])
    assert runs[0] == runs[1]


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


def test_cli_runs_load_no_scipy(tmp_path):
    """Importing the CLI, then a grid-oracle run and a d = 1 Gaussian-oracle run, loads no scipy module.

    numpy is the only runtime dependency; the Gaussian run computes tv_target
    in closed form. numpy.f2py and numpy.ma (which scipy.special loads) stay
    unloaded too, and so is concurrent.futures: steps are serial.
    """
    weak = tmp_path / "weak.ini"
    small = WEAK_INI.format(out=tmp_path / "grid").replace("n_chains = 500", "n_chains = 20")
    weak.write_text(small.replace("grid_n = 2048", "grid_n = 256"))
    gauss = tmp_path / "gauss.ini"
    gauss.write_text(STRONG_INI.format(out=tmp_path / "gauss").replace("diag = 1.0, 2.0", "diag = 2.0"))
    code = (
        "import sys, langevin_kl.cli as cli\n"
        "heavy = ('numpy.f2py', 'numpy.ma', 'concurrent.futures')\n"
        "loaded = lambda: [m for m in sys.modules if m in heavy or m.split('.')[0] == 'scipy']\n"
        "print(loaded())\n"
        f"print(cli.main(['run', {str(weak)!r}]), cli.main(['run', {str(gauss)!r}]))\n"
        "print(loaded())\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[-2].split()[0] in ("0", "1") and (tmp_path / "grid" / "grid.csv").exists()  # the grid run finished
    assert lines[-2].split()[1] == "0"
    report = json.loads((tmp_path / "gauss" / "report.json").read_text())
    assert "tv_target" in [v["name"] for v in report["verdicts"]]
    assert lines[-1] == "[]"


def _perfbench(name):
    """The benchmark's module perfbench/<name>.py, loaded from the source checkout."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_resolve():
    """The benchmark wraps each (caller, name) boundary where the caller module references it."""
    for caller, name, _ in _perfbench("probe").BOUNDARIES:
        assert hasattr(importlib.import_module(f"langevin_kl.{caller}"), name), (caller, name)


def test_src_imports_are_used_or_wrapped_by_the_benchmark():
    """A name a src module imports is used there, or the probe wraps it there: the probe-only imports are listed."""
    unused = set()
    for path in (Path(__file__).resolve().parents[1] / "src" / "langevin_kl").glob("*.py"):
        tree = ast.parse(path.read_text())
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if alias.name != "*"
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.stem, name) for name in imported - used}
    wrapped = {(caller, name) for caller, name, _ in _perfbench("probe").BOUNDARIES}
    assert unused - wrapped == set()  # a dead import
    assert unused == {("cli", "stationary_law")}  # imported only for the probe (ROADMAP item 1)


@pytest.mark.parametrize("ini", ["STRONG_INI", "HALVING_INI", "WEAK_INI"])
def test_run_steps_through_the_cli_step_name(ini, tmp_path, monkeypatch, capsys):
    """Every ULA step of a run goes through cli.step, where the benchmark times it: one stage, four stages,
    and a grid-oracle run."""
    calls = []
    original = cli.step

    def counting_step(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "step", counting_step)
    cfg = tmp_path / "run.ini"
    out = tmp_path / "out"
    cfg.write_text(globals()[ini].format(out=out))
    assert main(["run", str(cfg)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(calls) == sum(p["k"] for p in report["plan"])


def test_benchmark_first_step_hook_stamps_once_and_puts_cli_step_back(tmp_path, monkeypatch, capsys):
    """The untraced probe's one-shot hook on cli.step takes one stamp in a four-stage run and puts cli.step
    back, and every planned step still goes through cli.step. A run loop that captured cli.step once would
    call the hook at every step, and the last step would set the stamp."""
    probe = _perfbench("probe")
    reads = []
    monkeypatch.setattr(probe, "time", types.SimpleNamespace(monotonic_ns=lambda: reads.append(1) or len(reads)))
    calls = []
    original = cli.step

    def counting_step(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "step", counting_step)
    stamp = {"first_step_ns": None}
    probe._first_step_hook(cli, stamp)
    cfg = tmp_path / "halving.ini"
    out = tmp_path / "out"
    cfg.write_text(HALVING_INI.format(out=out))
    assert main(["run", str(cfg)]) == 0
    plan = json.loads((out / "report.json").read_text())["plan"]
    assert len(plan) == 4  # stages of 45, 89, 178 and 355 steps: none ends on a multiple of record_every = 25
    assert stamp == {"first_step_ns": 1} and len(reads) == 1
    assert cli.step is counting_step
    assert len(calls) == sum(p["k"] for p in plan)


def test_run_advances_the_grid_oracle_through_the_cli_name(tmp_path, monkeypatch, capsys):
    """The grid law takes each record interval as one cli.ula_step_grid call, where the benchmark times it."""
    calls = []
    original = cli.ula_step_grid

    def counting_step(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "ula_step_grid", counting_step)
    cfg = tmp_path / "weak.ini"
    out = tmp_path / "out"
    cfg.write_text(WEAK_INI.format(out=out))
    assert main(["run", str(cfg)]) == 0
    rows = (out / "grid.csv").read_text().splitlines()[1:]
    assert len(calls) == len(rows) - 1 > 1


def test_run_plans_the_weak_regime_from_the_grids_step_0_row(tmp_path, monkeypatch, capsys):
    """Estimated c1 and kl0 are grid.csv's step-0 w2 and kl: the run measures each grid row once."""
    calls = {"w2_grid_1d": 0, "kl_grid": 0}
    for name in calls:
        original = getattr(cli, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
    cfg = tmp_path / "weak.ini"
    out = tmp_path / "out"
    cfg.write_text(WEAK_INI.format(out=out))
    assert main(["run", str(cfg)]) == 0
    rows = [line.split(",") for line in (out / "grid.csv").read_text().splitlines()[1:]]
    assert calls == {"w2_grid_1d": len(rows), "kl_grid": len(rows)}
    resolved = json.loads((out / "report.json").read_text())["resolved"]
    assert (resolved["c1"], resolved["kl0"]) == (float(rows[0][3]), float(rows[0][1]))


ROTATED_HALVING_INI = """
[run]
regime = halving
epsilon = 0.3
n_chains = 400
seed = 2
record_every = 25
out_dir = {out}

[potential]
kind = quadratic-full
matrix =
    2.0 0.5
    0.5 1.0

[init]
kind = gaussian
mean = 0.3, -0.2
cov_diag = 1.0, 1.0

[oracles]
gaussian = true

[halving]
kl0 = 2.0
"""


def test_run_advances_the_gaussian_oracle_once_per_record_interval(tmp_path, monkeypatch, capsys):
    """Per record interval one pass from the stage start, one target pass at the recorded step and
    one jump to the stage step; A decomposed at most once."""
    jumps, passes, targets, decompositions = [], [], [], []
    jump, stats, target_stats = GaussianPath.jump, GaussianPath.stats, GaussianPath.target_stats
    eigh = np.linalg.eigh

    def counting_jump(self, h, k):
        jumps.append(k)
        return jump(self, h, k)

    def counting_stats(self, h, k, first=0):
        # an N(0, I) init stays exactly diagonal in the eigenbasis, stage after stage
        passes.append((first, k, np.count_nonzero(self.cov - np.diag(np.diagonal(self.cov)))))
        return stats(self, h, k, first)

    def counting_target_stats(self, h, k, first=0):
        targets.append((first, k))
        return target_stats(self, h, k, first)

    monkeypatch.setattr(GaussianPath, "jump", counting_jump)
    monkeypatch.setattr(GaussianPath, "stats", counting_stats)
    monkeypatch.setattr(GaussianPath, "target_stats", counting_target_stats)
    monkeypatch.setattr(np.linalg, "eigh", lambda M: decompositions.append(1) or eigh(M))
    for name, ini, stages, eighs in (("strong", STRONG_INI, 1, 0), ("rotated-halving", ROTATED_HALVING_INI, 3, 1)):
        jumps.clear(), passes.clear(), targets.clear(), decompositions.clear()
        cfg = tmp_path / f"{name}.ini"
        out = tmp_path / name
        cfg.write_text(ini.format(out=out))
        assert main(["run", str(cfg)]) == 0
        plans = json.loads((out / "report.json").read_text())["plan"]
        assert len(plans) == stages
        ends = np.cumsum([0] + [p["k"] for p in plans])
        steps = [int(r.split(",")[0]) for r in (out / "gaussian.csv").read_text().splitlines()[2:]]
        starts = [int(ends[np.searchsorted(ends, s) - 1]) for s in steps]
        assert jumps == [s - a for s, a in zip(steps, starts)]  # k = the stage step of each record point
        firsts = [0] + [k if a == b else 0 for a, b, k in zip(starts[1:], starts, jumps)]
        assert passes == [(0, 0, 0)] + [(f, k, 0) for f, k in zip(firsts, jumps)]  # and the step-0 row
        assert targets == [(0, 0)] + [(k, k) for k in jumps]  # KL and W2 at each recorded step alone
        assert len(decompositions) == eighs


def _mp_reference_rows(ini: str, report: dict, steps: list[int]) -> dict:
    """(KL, W2) to N(0, A^-1) at the given steps, by the ULA recursion at 40 digits (d = 2)."""
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 40
    import configparser

    cp = configparser.ConfigParser()
    cp.read_string(ini.format(out="unused"))
    pot, init = cp["potential"], cp["init"]
    if pot["kind"] == "quadratic-diagonal":
        A = mp.diag([mp.mpf(x) for x in pot["diag"].split(",")])
    else:
        A = mp.matrix([[mp.mpf(x) for x in row.split()] for row in pot["matrix"].strip().splitlines()])
    if init["kind"] == "gaussian":
        mean = mp.matrix([mp.mpf(x) for x in init["mean"].split(",")])
        cov = mp.diag([mp.mpf(x) for x in init["cov_diag"].split(",")])
    else:  # N(0, I/m), with the float m the run used
        mean, cov = mp.matrix([0, 0]), mp.eye(2) / mp.mpf(report["potential"]["m"])
    T = A**-1

    def kl_w2(mean, cov):
        AC, CT = A * cov, cov * T
        kl = (AC[0, 0] + AC[1, 1] - 2 - mp.log(mp.det(AC)) + (mean.T * A * mean)[0]) / 2
        # tr sqrt(X) = sqrt(tr X + 2 sqrt(det X)) for a 2 x 2 X with positive eigenvalues
        cross = mp.sqrt(CT[0, 0] + CT[1, 1] + 2 * mp.sqrt(mp.det(cov) * mp.det(T)))
        w2sq = mean[0] ** 2 + mean[1] ** 2 + cov[0, 0] + cov[1, 1] + T[0, 0] + T[1, 1] - 2 * cross
        return kl, mp.sqrt(w2sq)

    rows, j = {0: kl_w2(mean, cov)}, 0
    for plan in report["plan"]:
        h = mp.mpf(plan["h"])
        M = mp.eye(2) - h * A
        for _ in range(plan["k"]):
            mean, cov, j = M * mean, M * cov * M.T + 2 * h * mp.eye(2), j + 1
            if j in steps:
                rows[j] = kl_w2(mean, cov)
    return rows


@pytest.mark.parametrize("ini", [FULL_MATRIX_INI, STRONG_INI], ids=["full-matrix", "strong"])
def test_gaussian_rows_match_a_40_digit_reference(tmp_path, capsys, ini):
    cfg = tmp_path / "run.ini"
    out = tmp_path / "out"
    cfg.write_text(ini.format(out=out))
    assert main(["run", str(cfg)]) == 0
    report = json.loads((out / "report.json").read_text())
    rows = [[float(v) for v in r.split(",")] for r in (out / "gaussian.csv").read_text().splitlines()[1:]]
    ref = _mp_reference_rows(ini, report, {int(r[0]) for r in rows})
    assert len(ref) == len(rows)
    for step, kl, w2, _, _ in rows:
        kl_ref, w2_ref = ref[int(step)]
        assert abs(kl - kl_ref) <= 1e-12 * kl_ref, step
        assert abs(w2 - w2_ref) <= 1e-12 * w2_ref, step


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


def test_gaussian_tracker_solves_one_eigenproblem_per_step(monkeypatch):
    # a rotated target from a non-isotropic init takes the batched path: each
    # step of an interval costs one d x d problem (W2 to pi_h), each recorded
    # row two more (KL and W2 to the target)
    solved = []
    eigvalsh = np.linalg.eigvalsh
    pot = construct_potential("quadratic-full", matrix=[[2.0, 0.5, 0.1], [0.5, 1.0, -0.3], [0.1, -0.3, 1.5]])
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: solved.append(M.size // 9) or eigvalsh(M))
    tracker = cli._GaussianTracker(pot, GaussianInit(np.array([0.3, -0.2, 0.6]), np.array([1.4, 0.6, 2.0])))
    tracker.row(0)
    assert sum(solved) == 1 + 2  # the step-0 pass and row
    for steps in (50, 50, 7):
        solved.clear()
        tracker.advance(0.01, steps)
        tracker.row(0)
        assert sum(solved) == (steps + 1) + 2  # the pass re-reads step j, the last one judged


def test_main_freezes_the_import_heap_once(capsys):
    main(["plan", "--regime", "strong", "--m", "1", "--L", "2", "--d", "2", "--eps", "0.1"])
    frozen = gc.get_freeze_count()
    assert frozen > 0
    main(["plan", "--regime", "strong", "--m", "1", "--L", "2", "--d", "2", "--eps", "0.1"])
    assert gc.get_freeze_count() == frozen
