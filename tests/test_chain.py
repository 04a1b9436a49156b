import dataclasses
import math
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.random import SFC64, Generator, Philox
from numpy.random.bit_generator import ISeedSequence

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
    monkeypatch.setattr(chain_mod, "_normals", lambda seed, purpose, step, out: out.fill(0.0))
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
    for h in (0.0, math.inf):
        with pytest.raises(ValueError, match="positive"):
            step(e, h)


def test_step_reports_diverged_chain():
    pot = quadratic_diagonal([1.0])
    e = init_ensemble(pot, PointInit(np.array([1e300])), 3, seed=0)
    with pytest.raises(DivergedError, match="chain 0 .* step 0") as info:
        step(e, 1e10)
    # the diverged chain's last finite state, a copy that outlives the ensemble
    assert info.value.state.tolist() == [1e300]
    assert not np.shares_memory(info.value.state, e.states)


def test_replay_is_bit_exact():
    pot = quadratic_diagonal([1.0, 2.0])

    def take(n_steps):
        e = init_ensemble(pot, GAUSSIAN_1_OVER_M, 1000, seed=123)
        for _ in range(n_steps):
            e = step(e, 0.05)
        return e.states

    assert np.array_equal(take(5), take(5))


def _fresh_bit_generators(seed, purpose, step_index, b):
    """Newly built bit generators of block b of a slot: the Philox at the
    block's address after the three words it gave, and the SFC64 they seeded."""
    key = np.array([seed, 0], dtype=np.uint64)
    philox = Philox(key=key, counter=np.array([0, b, step_index, purpose], dtype=np.uint64))
    w0, w1, w2 = philox.random_raw(3).tolist()
    sfc64 = SFC64()
    sfc64.state = {
        "bit_generator": "SFC64",
        "state": {"state": [w0, w1, w2, 1]},
        "has_uint32": 0,
        "uinteger": 0,
    }
    sfc64.random_raw(12, output=False)  # numpy's sfc64_set_seed
    return philox, sfc64


def _fresh_block(seed, purpose, step_index, b, shape):
    """Block b of a slot, drawn by a Generator on newly built bit generators."""
    return Generator(_fresh_bit_generators(seed, purpose, step_index, b)[1]).standard_normal(shape)


def _state_words(bit_generator):
    """A bit generator's whole state, arrays as lists, comparable with ==."""

    def plain(v):
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        return v.tolist() if isinstance(v, np.ndarray) else v

    return plain(bit_generator.state)


class _Words(ISeedSequence):
    """A seed sequence that hands an SFC64 three given words."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, np.dtype(dtype)) == (3, np.uint64)
        return self.words.copy()


def test_block_seeding_is_numpys_own_sfc64_seeding():
    # the reference above sets and warms an SFC64 by hand; numpy's constructor,
    # fed the same three words, must reach the same state
    for seed, purpose, step_index, b in [(0, 0, 0, 0), (7, 1, 0, 0), (2**64 - 1, 1, 2**64 - 1, 5)]:
        _, sfc64 = _fresh_bit_generators(seed, purpose, step_index, b)
        counter = np.array([0, b, step_index, purpose], dtype=np.uint64)
        words = Philox(key=np.array([seed, 0], dtype=np.uint64), counter=counter).random_raw(3)
        assert _state_words(SFC64(_Words(words))) == _state_words(sfc64)


def test_step_into_out_matches_a_fresh_array(monkeypatch):
    # two-chain blocks: out is written block by block
    monkeypatch.setattr(chain_mod, "_BLOCK_NORMALS", 4)
    pot = quadratic_diagonal([1.0, 2.0])
    e = init_ensemble(pot, GAUSSIAN_1_OVER_M, 301, seed=5)
    before = e.states.copy()
    fresh = step(e, 0.02)
    buf = np.full_like(e.states, np.nan)
    into = step(e, 0.02, out=buf)
    assert into.states is buf
    assert np.array_equal(into.states, fresh.states)
    # the next step writes into the other buffer and reads this one
    again = step(into, 0.02, out=np.empty_like(buf))
    assert np.array_equal(again.states, step(fresh, 0.02).states)
    assert np.array_equal(e.states, before)
    # run alternates two buffers of its own and leaves the start untouched
    end, _ = run(e, StepPlan(h=0.02, k=3, epsilon=1.0, regime="strong"))
    ref = e
    for _ in range(3):
        ref = step(ref, 0.02)
    assert np.array_equal(end.states, ref.states)
    assert np.array_equal(e.states, before)


def test_step_rejects_a_bad_out():
    pot = quadratic_diagonal([1.0, 2.0])
    e = init_ensemble(pot, GAUSSIAN_1_OVER_M, 10, seed=5)
    wide = np.empty((10, 4))
    frozen = np.empty((10, 2))
    frozen.flags.writeable = False
    for bad in (
        np.empty((9, 2)),
        np.empty((10, 2), dtype=np.float32),
        np.empty((10, 2), order="F"),
        wide[:, :2],
        frozen,
    ):
        with pytest.raises(ValueError, match="C-contiguous float64"):
            step(e, 0.1, out=bad)
    with pytest.raises(ValueError, match="overlaps"):
        step(e, 0.1, out=e.states)
    big = np.empty((11, 2))
    e_view = chain_mod.Ensemble(big[:10], 0, 5, pot)
    with pytest.raises(ValueError, match="overlaps"):
        step(e_view, 0.1, out=big[1:])


@pytest.mark.parametrize("workers", [0, -3, "0", "x"], ids=["zero", "negative", "zero-text", "not-a-number"])
def test_explicit_worker_count_below_one_is_rejected(workers):
    """A count below one, or no count at all, is an error, not a quiet single worker."""
    pot = quadratic_diagonal([1.0, 2.0])
    e = init_ensemble(pot, GAUSSIAN_1_OVER_M, 10, seed=0)
    with pytest.raises(ValueError, match="workers must be a positive integer"):
        step(e, 0.1, workers=workers)


def test_a_worker_count_leaves_the_step_unchanged(monkeypatch):
    # the benchmark times step(e, h, workers=2) against workers=1; steps are
    # serial, so both return the states of step(e, h) on every block
    monkeypatch.setattr(chain_mod, "_BLOCK_NORMALS", 64)
    pot = quadratic_diagonal([1.0, 2.0])
    e = init_ensemble(pot, GAUSSIAN_1_OVER_M, 999, seed=9)
    serial = step(e, 0.02)
    for w in (1, 2, np.int64(3)):  # any count: an int or a numpy integer
        assert np.array_equal(step(e, 0.02, workers=w).states, serial.states)


def test_normals_follow_the_block_layout(monkeypatch):
    # block b of a slot is the stream of a fresh SFC64 seeded from the Philox
    # words at the block's address, and a block cut short by the end of the
    # ensemble holds its stream's first normals
    monkeypatch.setattr(chain_mod, "_BLOCK_NORMALS", 12)
    seed, step_index = 2024, 3
    for d in (1, 2, 3, 5):
        per = -(-12 // d)
        n = 3 * per + 1  # three full blocks and one chain of a fourth
        expected = np.concatenate([_fresh_block(seed, 1, step_index, b, (per, d)) for b in range(4)])[:n]
        for chains in (n, 2 * per + 1, 1):
            out = np.empty((chains, d))
            chain_mod._normals(seed, 1, step_index, out)
            assert np.array_equal(out, expected[:chains])
    with pytest.raises(ValueError, match="normals are written into C-contiguous rows only"):
        chain_mod._normals(seed, 1, step_index, np.empty((2, 4)).T)


def test_reused_generator_reads_the_words_of_a_fresh_one(monkeypatch):
    # each thread re-points one Philox and one SFC64 per block. Before every
    # call an earlier use leaves words behind: a buffered half-word in both
    # bit generators and unread words in the Philox buffer (9 normals at d = 3
    # span blocks too). None may reach the normals, and after the call both
    # bit generators hold exactly the state of fresh ones that drew the last block
    monkeypatch.setattr(chain_mod, "_BLOCK_NORMALS", 7)
    # (seed, purpose, step, lo, shape): an ensemble of lo + shape[0] chains is drawn and its chains from lo on checked
    slots = [(2024, 1, 3, 0, (7, 3)), (5, 0, 0, 4, (3, 2)), (2**64 - 1, 1, 9, 7, (11, 1))]
    slots.append((2024, 1, 3, 3, (7, 3)))  # the first slot from its second block on

    def leave_words_behind(stream):
        stream.normal.integers(2**32, dtype=np.uint32)
        Generator(stream.philox).integers(2**32, dtype=np.uint32)
        stream.philox.random_raw(1)
        assert stream.sfc64.state["has_uint32"] == 1
        philox = stream.philox.state
        assert philox["has_uint32"] == 1 and philox["buffer_pos"] < 4

    def draw_all():
        for seed, purpose, step_index, lo, shape in slots + slots[::-1]:
            if hasattr(chain_mod._STREAMS, "stream"):
                leave_words_behind(chain_mod._STREAMS.stream)
            whole = np.empty((lo + shape[0], shape[1]))
            chain_mod._normals(seed, purpose, step_index, whole)
            out = whole[lo:]
            per = -(-7 // shape[1])
            b0, n_blocks = lo // per, -(-shape[0] // per)
            blocks = [_fresh_block(seed, purpose, step_index, b0 + i, (per, shape[1])) for i in range(n_blocks)]
            assert np.array_equal(out, np.concatenate(blocks)[: shape[0]])
            philox, sfc64 = _fresh_bit_generators(seed, purpose, step_index, b0 + n_blocks - 1)
            Generator(sfc64).standard_normal(out[(n_blocks - 1) * per :].size)
            stream = chain_mod._STREAMS.stream
            assert _state_words(stream.philox) == _state_words(philox)
            assert _state_words(stream.sfc64) == _state_words(sfc64)
        return chain_mod._STREAMS.stream

    main_stream = draw_all()
    with ThreadPoolExecutor(max_workers=1) as pool:
        worker_stream = pool.submit(draw_all).result(timeout=60)
    assert worker_stream is not main_stream
    assert draw_all() is main_stream


def test_neighbouring_addresses_draw_uncorrelated_blocks():
    # Philox hashes each address into its block's SFC64 seed, so blocks whose
    # addresses differ in one counter word share no structure: over a full
    # block of 65,536 normals at d = 1 each sample correlation lies within
    # 5 SE (SE = 1/sqrt(n)) of 0. Seed and step were picked once, not tuned.
    seed, s = 13, 41
    per = chain_mod._BLOCK_NORMALS

    def block(seed, purpose, step_index, b=0):
        out = np.empty(((b + 1) * per, 1))
        chain_mod._normals(seed, purpose, step_index, out)
        return out[b * per :].ravel()

    pairs = {
        "steps s and s + 1": (block(seed, 1, s), block(seed, 1, s + 1)),
        "blocks b and b + 1": (block(seed, 1, s, 2), block(seed, 1, s, 3)),
        "init and step purposes": (block(seed, 0, s), block(seed, 1, s)),
    }
    for name, (x, y) in pairs.items():
        assert abs(np.corrcoef(x, y)[0, 1]) <= 5.0 / math.sqrt(per), name
    assert not np.array_equal(block(0, 1, s), block(2**64 - 1, 1, s))


def test_blocks_of_one_step_are_distinct_and_standard_normal(monkeypatch):
    # the seams of the layout: at d = 3, 10-chain blocks of one step share no
    # first normals, no block's stream overlaps another's (a repeated double
    # among 60k normals has chance about 2e-7), and all blocks pooled match
    # N(0, 1) to within 5 SE
    monkeypatch.setattr(chain_mod, "_BLOCK_NORMALS", 30)
    out = np.empty((20_000, 3))
    chain_mod._normals(41, 1, 6, out)
    firsts = out[::10]
    assert firsts.shape == (2_000, 3) and np.unique(firsts, axis=0).shape == firsts.shape
    assert np.unique(out).size == out.size
    pooled = out.ravel()
    assert abs(pooled.mean()) <= 5.0 / math.sqrt(pooled.size)
    assert abs(pooled.var(ddof=1) - 1.0) <= 5.0 * math.sqrt(2.0 / (pooled.size - 1))


def test_serial_steps_build_one_generator(monkeypatch):
    built = []

    def counting(cls):
        def build(*args, **kwargs):
            built.append((threading.get_ident(), cls.__name__))
            return cls(*args, **kwargs)

        return build

    monkeypatch.setattr(chain_mod, "Philox", counting(Philox))
    monkeypatch.setattr(chain_mod, "SFC64", counting(SFC64))
    monkeypatch.setattr(chain_mod, "_STREAMS", threading.local())  # no thread has one yet
    pot = quadratic_diagonal([1.0, 2.0])
    e = init_ensemble(pot, GAUSSIAN_1_OVER_M, 200, seed=8)
    for _ in range(10):
        e = step(e, 0.01)
    main = threading.get_ident()
    assert built == [(main, "Philox"), (main, "SFC64")]
    # a thread of the caller's builds one of each of its own, for its many blocks
    monkeypatch.setattr(chain_mod, "_BLOCK_NORMALS", 4)
    other = []
    worker = threading.Thread(target=lambda: other.extend([threading.get_ident(), step(e, 0.01)]))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and len(other) == 2
    assert built == [(main, "Philox"), (main, "SFC64"), (other[0], "Philox"), (other[0], "SFC64")]
    assert np.array_equal(other[1].states, step(e, 0.01).states)
    assert len(built) == 4  # the main thread's second step built nothing


# The first normals of the (seed 7, step purpose, step 0) slot. A change here
# changes every chain trajectory: record it in CHANGES.md and the version. The
# ziggurat stream is numpy's; a numpy release that changes it fails here first.
PINNED_NORMALS = [
    0.7812772323164622,
    0.930188938575702,
    -1.7565315558565668,
    -0.6965594398174813,
    1.293955048203942,
]


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_normal_stream_is_pinned(d):
    out = np.empty((5, d))
    chain_mod._normals(7, 1, 0, out)
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


@pytest.mark.parametrize("k, record_every", [(7, 1), (100, 3), (120, 50)])
def test_run_leaves_its_input_and_matches_single_steps_bit_for_bit(k, record_every):
    """run steps a copy of e, so e.states stay bit-identical; its rows and final states are those of single
    step calls into fresh arrays, recorded at each multiple of record_every and at the last step, bit for bit."""
    pot, h = quadratic_diagonal([1.0, 2.0]), 0.05
    e = init_ensemble(pot, GAUSSIAN_1_OVER_M, 300, seed=21)
    before = e.states.copy()
    final, rows = run(e, StepPlan(h=h, k=k, epsilon=0.5, regime="strong"), record_every)
    assert e.states.tobytes() == before.tobytes() and e.step_index == 0
    cur, expected = e, [chain_mod.trace_row(e)]
    for _ in range(k):
        cur = step(cur, h)
        if cur.step_index % record_every == 0 or cur.step_index == k:
            expected.append(chain_mod.trace_row(cur))
    assert [repr(r) for r in rows] == [repr(r) for r in expected]  # a float's repr round-trips its bits
    assert final.step_index == k and final.states.tobytes() == cur.states.tobytes()


def test_run_records_on_the_ensembles_own_step_index():
    """From step 130, record_every = 50 and k = 100 record steps 130, 150, 200 and 230: each multiple of
    record_every on the ensemble's own step index and the end of each stage, the rule langevin-kl run shares."""
    pot = quadratic_diagonal([1.0])
    e = dataclasses.replace(init_ensemble(pot, PointInit(np.ones(1)), 4, seed=2), step_index=130)
    final, rows = run(e, StepPlan(h=0.1, k=100, epsilon=0.5, regime="strong"), record_every=50)
    assert [r.step for r in rows] == [130, 150, 200, 230] and final.step_index == 230
    # a second stage records its own end too; each yield carries its stage's h and the steps since the last
    points = chain_mod._ensemble_steps(dataclasses.replace(e, states=e.states.copy()), [(0.1, 100), (0.05, 75)], 50)
    assert [(h, n, cur.step_index) for h, n, cur in points] == [
        (0.1, 20, 150), (0.1, 50, 200), (0.1, 30, 230), (0.05, 20, 250), (0.05, 50, 300), (0.05, 5, 305)
    ]


@pytest.mark.parametrize(
    "states", [np.full((3, 1), 1e70), np.array([[1e60], [1e70], [-1e69]])], ids=["one-point", "chain-1-first"]
)
def test_run_raises_the_divergence_of_single_steps(states):
    """A chain that overflows between two record points stops run with the DivergedError that single step calls
    raise: the same chain index, step index and last finite state. At h = 1e10 each step multiplies a state by
    about -1e10, so a start at 1e70 is near 1e300 at step 23 and overflows in the step from there. The only
    record point it passes, step 0, squares x, so the start stays well below 1e154."""
    pot, h = quadratic_diagonal([1.0]), 1e10
    e = dataclasses.replace(init_ensemble(pot, PointInit(np.zeros(1)), 3, seed=5), states=states)
    cur = e
    with pytest.raises(DivergedError) as single:
        for _ in range(50):
            cur = step(cur, h)
    with pytest.raises(DivergedError) as info:
        run(e, StepPlan(h=h, k=50, epsilon=0.5, regime="strong"), record_every=50)
    assert 0 < single.value.step_index < 50 and abs(single.value.state[0]) > 1e299
    assert (info.value.chain_index, info.value.step_index) == (single.value.chain_index, single.value.step_index)
    assert info.value.state.tobytes() == single.value.state.tobytes()
    assert str(info.value) == str(single.value)


def test_run_records_finite_rows_far_from_the_origin():
    """Chains at 1e140, 1e150 and -1e149 hold |x|^2 up to 1e300, where squaring each |x|^2 in the standard error
    would overflow: run records finite rows with no warning, each within 1e-14 of a 50-digit reference."""
    mp = pytest.importorskip("mpmath").mp
    pot = quadratic_diagonal([1.0])
    e = dataclasses.replace(
        init_ensemble(pot, PointInit(np.zeros(1)), 3, seed=5), states=np.array([[1e140], [1e150], [-1e149]])
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        final, rows = run(e, StepPlan(h=0.1, k=2, epsilon=0.5, regime="strong"))
    assert all(math.isfinite(r.second_moment_se) for r in rows)
    with mp.workdps(50):
        for row, states in ((rows[0], e.states), (rows[-1], final.states)):
            sq = [mp.mpf(float(x)) ** 2 for x in states[:, 0]]
            mean = mp.fsum(sq) / 3
            se = mp.sqrt(mp.fsum((s - mean) ** 2 for s in sq) / 2 / 3)
            assert abs(row.second_moment - mean) <= 1e-14 * mean
            assert abs(row.second_moment_se - se) <= 1e-14 * se


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


@pytest.mark.parametrize(
    "pot, init_a, init_b",
    [
        (huber(1.0), GaussianInit(mean=np.zeros(1), cov_diag=np.full(1, 4.0)), PointInit(np.full(1, 2.0))),
        (quadratic_diagonal([1.0, 2.0]), GAUSSIAN_1_OVER_M, GaussianInit(mean=np.ones(2), cov_diag=np.ones(2))),
    ],
    ids=["huber-gaussian-point", "diag-1-2-default-gaussian"],
)
def test_coupled_run_buffers_match_fresh_steps_bit_for_bit(pot, init_a, init_b):
    """coupled_run steps each ensemble into two buffers it reuses; its rms and se are those of steps into
    fresh arrays, bit for bit."""
    h, k, n, seed = 0.3, 25, 500, 11
    tr = coupled_run(pot, init_a, init_b, h=h, k=k, n=n, seed=seed)
    ea, eb = init_ensemble(pot, init_a, n, seed), init_ensemble(pot, init_b, n, seed)
    stats = [chain_mod._coupled_stats(ea, eb)]
    for _ in range(k):
        ea, eb = step(ea, h), step(eb, h)
        stats.append(chain_mod._coupled_stats(ea, eb))
    rms, se = np.array(stats).T
    assert tr.rms.tobytes() == rms.tobytes()
    assert tr.se.tobytes() == se.tobytes()


def test_coupled_run_requires_small_step():
    pot = huber(1.0)
    init = PointInit(np.zeros(1))
    with pytest.raises(ValueError, match="1/L"):
        coupled_run(pot, init, init, h=1.5, k=1, n=2, seed=0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: init_ensemble(huber(1.0), PointInit(np.zeros(1)), 0, 0), "chain count must be a positive integer"),
        (
            lambda: init_ensemble(huber(1.0), GaussianInit(mean=np.zeros(1), cov_diag=np.zeros(1)), 4, 0),
            r"init variances must be positive and finite, got 0\.0",
        ),
        (
            lambda: init_ensemble(huber(1.0), PointInit(np.zeros(2)), 4, 0),
            "dimension mismatch: init d=2, potential d=1",
        ),
        (
            lambda: init_ensemble(huber(1.0), GaussianInit(mean=np.full(1, np.nan), cov_diag=np.ones(1)), 4, 0),
            "init mean must be finite",
        ),
        (
            lambda: init_ensemble(huber(1.0), GaussianInit(mean=np.zeros(1), cov_diag=np.full(1, np.inf)), 4, 0),
            "init variances must be positive and finite, got inf",
        ),
        (lambda: init_ensemble(huber(1.0), PointInit(np.full(1, np.nan)), 4, 0), "init point must be finite"),
        (lambda: init_ensemble(huber(1.0), "gaussian", 4, 0), "unsupported init spec"),
        (
            lambda: coupled_run(huber(1.0), PointInit(np.zeros(1)), PointInit(np.ones(1)), h=0.5, k=0, n=2, seed=0),
            "step count must be a positive integer",
        ),
    ],
    ids=[
        "no-chains",
        "zero-variance",
        "point-length",
        "gaussian-mean-nan",
        "gaussian-variance-inf",
        "point-nan",
        "unsupported-init",
        "coupled-no-steps",
    ],
)
def test_chain_inputs_are_checked(call, message):
    with pytest.raises((ValueError, TypeError), match=message):
        call()
