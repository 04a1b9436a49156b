import math
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.random import Philox
from scipy.special import ndtri

import langevin_kl.chain as chain_mod
from langevin_kl.chain import (
    GAUSSIAN_1_OVER_M,
    DivergedError,
    GaussianInit,
    PointInit,
    coupled_run,
    init_ensemble,
    run,
    step,
)
from langevin_kl.gaussian_oracle import GaussianLaw, ula_step_law
from langevin_kl.metrics import summarize, z_scores_vs_oracle
from langevin_kl.planner import StepPlan, plan_strong
from langevin_kl.potentials import huber, quadratic_diagonal


def test_init_gaussian_1_over_m_variance():
    pot = quadratic_diagonal([1.0, 2.0])
    e = init_ensemble(pot, GAUSSIAN_1_OVER_M, 100_000, seed=7)
    v = e.states.var(axis=0, ddof=1)
    se = math.sqrt(2.0 / (e.n_chains - 1))  # SE of a unit-variance estimate
    assert np.all(np.abs(v - 1.0) <= 5.0 * se)


def test_init_gaussian_1_over_m_needs_strong_convexity():
    with pytest.raises(ValueError, match="explicit"):
        init_ensemble(huber(1.0), GAUSSIAN_1_OVER_M, 10, seed=0)


def test_init_point_is_exact():
    pot = quadratic_diagonal([1.0, 2.0])
    e = init_ensemble(pot, PointInit(np.zeros(2)), 3, seed=0)
    assert np.all(e.states == 0.0)


def test_init_gaussian_explicit_moments():
    pot = quadratic_diagonal([1.0, 2.0])
    e = init_ensemble(pot, GaussianInit(mean=[1.0, -1.0], cov_diag=[4.0, 0.25]), 50_000, seed=3)
    assert np.allclose(e.states.mean(axis=0), [1.0, -1.0], atol=5 * 2.0 / math.sqrt(50_000))
    assert np.allclose(e.states.var(axis=0), [4.0, 0.25], rtol=0.05)


def test_step_drift_only_with_forced_zero_noise(monkeypatch):
    pot = quadratic_diagonal([1.0])
    e = init_ensemble(pot, PointInit(np.array([1.0])), 1, seed=0)
    monkeypatch.setattr(chain_mod, "_normals", lambda seed, purpose, step, lo, out: out.fill(0.0))
    out = step(e, 0.5)
    assert out.states[0, 0] == 0.5


def test_step_noise_marginal_from_point():
    pot = quadratic_diagonal([1.0])
    e = init_ensemble(pot, PointInit(np.zeros(1)), 100_000, seed=5)
    h = 0.3
    out = step(e, h)
    v = out.states.var(ddof=1)
    se = 2.0 * h * math.sqrt(2.0 / (e.n_chains - 1))
    assert abs(v - 2.0 * h) <= 5.0 * se


def test_step_rejects_nonpositive_h():
    pot = quadratic_diagonal([1.0])
    e = init_ensemble(pot, PointInit(np.zeros(1)), 2, seed=0)
    with pytest.raises(ValueError, match="positive"):
        step(e, 0.0)


def test_step_reports_diverged_chain():
    pot = quadratic_diagonal([1.0])
    e = init_ensemble(pot, PointInit(np.array([1e300])), 3, seed=0)
    with pytest.raises(DivergedError, match="chain 0 .* step 0"):
        step(e, 1e10)


def test_replay_is_bit_exact():
    pot = quadratic_diagonal([1.0, 2.0])

    def take(n_steps):
        e = init_ensemble(pot, GAUSSIAN_1_OVER_M, 1000, seed=123)
        for _ in range(n_steps):
            e = step(e, 0.05)
        return e.states

    assert np.array_equal(take(5), take(5))


def test_parallel_and_serial_agree_bit_exactly(monkeypatch):
    # every ensemble here is below the serial threshold; let each worker take a chunk
    monkeypatch.setattr(chain_mod, "_MIN_NORMALS_PER_WORKER", 1)
    pot = quadratic_diagonal([1.0, 2.0])
    e = init_ensemble(pot, GAUSSIAN_1_OVER_M, 5000, seed=9)
    serial = step(e, 0.02, workers=1)
    for w in (2, 3, 7):
        assert np.array_equal(serial.states, step(e, 0.02, workers=w).states)
    # chunks whose first normal sits inside a 4-word Philox block, n*d not a multiple of 4
    for diag in ([1.0], [1.0, 2.0], [1.0, 1.5, 2.0], [1.0, 1.0, 2.0, 2.0, 3.0]):
        pot_d = quadratic_diagonal(diag)
        e_d = init_ensemble(pot_d, GAUSSIAN_1_OVER_M, 999, seed=17)
        assert e_d.states.size % 4 != 0
        serial = step(e_d, 0.02, workers=1)
        for w in (2, 3, 7):
            assert any(lo * pot_d.d % 4 for lo, _ in chain_mod._chunks(999, pot_d.d, w))
            assert np.array_equal(serial.states, step(e_d, 0.02, workers=w).states)


def test_small_ensembles_step_serially():
    per = chain_mod._MIN_NORMALS_PER_WORKER
    assert chain_mod._chunks(20_000, 2, 2) == [(0, 20_000)]
    assert chain_mod._chunks(per, 2, 4) == [(0, per // 2), (per // 2, per)]
    assert len(chain_mod._chunks(10 * per, 1, 7)) == 7


def test_normals_follow_the_flat_counter_layout():
    # normal k of a slot is word k % 4 of Philox block k // 4, whatever the chunk start
    seed, step_index = 2024, 3
    words = Philox(key=np.array([seed, 0], dtype=np.uint64), counter=[0, 0, step_index, 1]).random_raw(60)
    expected = ndtri((words >> np.uint64(11)) * 2.0**-53 + 2.0**-54)
    for d in (1, 2, 3, 5):
        for lo in (0, 1, 3):
            out = np.empty((12 // d, d))
            chain_mod._normals(seed, 1, step_index, lo, out)
            assert np.array_equal(out.ravel(), expected[lo * d : lo * d + out.size])


def test_reused_generator_reads_the_words_of_a_fresh_one():
    # each thread re-points one Philox per slot; no word buffered for an
    # earlier slot (21 words leave 3 of a block behind) may leak into the next
    slots = [(2024, 1, 3, 0, (7, 3)), (5, 0, 0, 1, (3, 2)), (2**64 - 1, 1, 9, 5, (11, 1))]
    slots.append((2024, 1, 3, 1, (7, 3)))  # the first slot from the second chain on

    def fresh(seed, purpose, step_index, lo, shape):
        k0 = lo * shape[1]
        bg = Philox(key=np.array([seed, 0], dtype=np.uint64), counter=[k0 // 4, 0, step_index, purpose])
        words = bg.random_raw(k0 % 4 + shape[0] * shape[1])[k0 % 4 :]
        return ndtri((words >> np.uint64(11)) * 2.0**-53 + 2.0**-54).reshape(shape)

    def draw_all():
        for seed, purpose, step_index, lo, shape in slots + slots[::-1]:
            out = np.empty(shape)
            chain_mod._normals(seed, purpose, step_index, lo, out)
            assert np.array_equal(out, fresh(seed, purpose, step_index, lo, shape))
        return chain_mod._GENERATORS.philox

    main_gen = draw_all()
    with ThreadPoolExecutor(max_workers=1) as pool:
        worker_gen = pool.submit(draw_all).result(timeout=60)
    assert worker_gen is not main_gen
    assert draw_all() is main_gen


def test_serial_steps_build_one_generator(monkeypatch):
    built = []

    def counting_philox(*args, **kwargs):
        built.append(kwargs)
        return Philox(*args, **kwargs)

    monkeypatch.setattr(chain_mod, "Philox", counting_philox)
    monkeypatch.setattr(chain_mod, "_GENERATORS", threading.local())  # this thread has none yet
    pot = quadratic_diagonal([1.0, 2.0])
    e = init_ensemble(pot, GAUSSIAN_1_OVER_M, 200, seed=8)
    for _ in range(10):
        e = step(e, 0.01)
    assert len(built) == 1


# The first normals of the (seed 7, step purpose, step 0) slot. A change here
# changes every chain trajectory: record it in CHANGES.md and the version.
PINNED_NORMALS = [
    0.9642330218869046,
    -0.37544192414676675,
    -1.3677451595258556,
    -0.014956299987362011,
    0.5645243563367279,
]


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_normal_stream_is_pinned(d):
    out = np.empty((5, d))
    chain_mod._normals(7, 1, 0, 0, out)
    assert out.ravel()[:5].tolist() == PINNED_NORMALS


def test_seed_range():
    pot = quadratic_diagonal([1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no integer-cast warning at either end
        low = init_ensemble(pot, GAUSSIAN_1_OVER_M, 4, seed=0)
        high = init_ensemble(pot, GAUSSIAN_1_OVER_M, 4, seed=2**64 - 1)
        stepped = step(high, 0.1)
    assert high.seed == 2**64 - 1
    assert not np.array_equal(low.states, high.states)
    assert np.all(np.isfinite(stepped.states))
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            init_ensemble(pot, GAUSSIAN_1_OVER_M, 4, seed=bad)


def test_threads_env_only_affects_speed(monkeypatch):
    monkeypatch.setattr(chain_mod, "_MIN_NORMALS_PER_WORKER", 1)
    pot = quadratic_diagonal([1.0, 2.0])
    e = init_ensemble(pot, GAUSSIAN_1_OVER_M, 4096, seed=11)
    base = step(e, 0.01).states
    monkeypatch.setenv(chain_mod.THREADS_ENV, "4")
    assert np.array_equal(base, step(e, 0.01).states)


def test_ensemble_matches_gaussian_oracle():
    pot = quadratic_diagonal([1.0, 2.0])
    A = np.diag([1.0, 2.0])
    e = init_ensemble(pot, GAUSSIAN_1_OVER_M, 20_000, seed=31)
    law = GaussianLaw(np.zeros(2), np.eye(2))
    for _ in range(200):
        e = step(e, 0.01)
        law = ula_step_law(law, A, 0.01)
    z = z_scores_vs_oracle(summarize(e), law)
    zmax = max(
        float(np.max(np.abs(z["mean"]))),
        float(np.max(np.abs(z["cov"]))),
        abs(z["second_moment"]),
    )
    assert zmax <= 5.0


def test_run_records_and_replays():
    pot = quadratic_diagonal([1.0, 2.0])
    plan = plan_strong(1, 2, 2, 0.5)
    e = init_ensemble(pot, GAUSSIAN_1_OVER_M, 2000, seed=77)
    final, rows = run(e, plan, record_every=50)
    assert final.step_index == plan.k
    assert rows[0].step == 0
    assert rows[-1].step == plan.k
    recorded = {r.step for r in rows}
    assert all(s % 50 == 0 or s == plan.k for s in recorded)
    # moment boundedness along the run: 4d/m plus Monte Carlo slack
    bound = 4.0 * pot.d / pot.m
    assert all(r.second_moment <= bound + 5.0 * r.second_moment_se for r in rows)
    # replay gives the identical trace
    _, rows2 = run(init_ensemble(pot, GAUSSIAN_1_OVER_M, 2000, seed=77), plan, record_every=50)
    assert rows == rows2


def test_run_rejects_bad_record_every():
    pot = quadratic_diagonal([1.0])
    e = init_ensemble(pot, PointInit(np.zeros(1)), 2, seed=0)
    plan = StepPlan(h=0.1, k=3, epsilon=0.5, regime="strong")
    with pytest.raises(ValueError, match="record_every"):
        run(e, plan, record_every=0)


def test_trace_csv_format():
    pot = quadratic_diagonal([1.0])
    e = init_ensemble(pot, PointInit(np.zeros(1)), 10, seed=0)
    _, rows = run(e, StepPlan(h=0.1, k=2, epsilon=0.5, regime="strong"))
    text = chain_mod.trace_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "step,second_moment,mean_norm"
    assert len(lines) == len(rows) + 1


def test_coupled_identical_inits_stay_identical():
    pot = huber(1.0)
    init = GaussianInit(mean=np.zeros(1), cov_diag=np.ones(1))
    tr = coupled_run(pot, init, init, h=0.1, k=20, n=100, seed=4)
    assert np.all(tr.rms == 0.0)


def test_coupled_quadratic_contracts_exactly():
    pot = quadratic_diagonal([1.0])
    tr = coupled_run(
        pot, PointInit(np.array([1.0])), PointInit(np.array([-1.0])), h=0.5, k=4, n=3, seed=0
    )
    # coupled difference obeys delta' = (1 - h a) delta exactly
    assert np.allclose(tr.rms, 2.0 * 0.5 ** np.arange(5), atol=1e-13)


def test_coupled_huber_rms_nonincreasing():
    pot = huber(1.0)
    tr = coupled_run(
        pot,
        GaussianInit(mean=np.zeros(1), cov_diag=np.full(1, 4.0)),
        GaussianInit(mean=np.full(1, 2.0), cov_diag=np.ones(1)),
        h=0.5,
        k=50,
        n=10_000,
        seed=13,
    )
    assert np.all(tr.rms[1:] <= tr.rms[:-1] + 5.0 * tr.se[:-1])


def test_coupled_run_requires_small_step():
    pot = huber(1.0)
    init = PointInit(np.zeros(1))
    with pytest.raises(ValueError, match="1/L"):
        coupled_run(pot, init, init, h=1.5, k=1, n=2, seed=0)
