import dataclasses
import inspect

import numpy as np
import pytest

from langevin_kl import cli, potentials
from langevin_kl.gaussian_oracle import target_law
from langevin_kl.potentials import (
    construct_potential,
    grad_u,
    huber,
    quadratic_diagonal,
    quadratic_full,
    u_value,
)


def all_kinds():
    return [
        quadratic_diagonal([1.0, 2.0]),
        quadratic_full([[2.0, 0.5], [0.5, 1.0]]),
        huber(1.0, dim=3),
    ]


_FD_STEP = 1e-5  # central-difference step of the gradient check


def probe_constants(p, n_probes: int, seed: int) -> dict:
    """Worst signed violations of the declared (m, L) and of the gradient on random probe pairs.

    Probes are drawn from N(0, s^2 I) with s = 3/sqrt(m) (s = 3 when m = 0) to
    cover the high-mass region. Checked per pair (x, y), with g = grad_u:

        m ||x-y||^2  <=  <g(x)-g(y), x-y>  <=  L ||x-y||^2
        <g(x)-g(y), x-y>  >=  ||g(x)-g(y)||^2 / L

    plus agreement of grad_u with central differences of u_value. A positive
    violation means the inequality failed by that amount.
    """
    rng = np.random.default_rng(seed)
    s = 3.0 / np.sqrt(p.m) if p.m > 0 else 3.0
    x = rng.normal(0.0, s, size=(n_probes, p.d))
    y = rng.normal(0.0, s, size=(n_probes, p.d))
    gx = grad_u(p, x)
    dxy = x - y
    dg = gx - grad_u(p, y)
    inner = np.sum(dg * dxy, axis=1)
    nn = np.sum(dxy * dxy, axis=1)
    eye = np.eye(p.d)
    up = u_value(p, x[:, None, :] + _FD_STEP * eye[None, :, :])
    um = u_value(p, x[:, None, :] - _FD_STEP * eye[None, :, :])
    fd = (np.atleast_2d(up) - np.atleast_2d(um)) / (2.0 * _FD_STEP)
    scale = np.maximum(1.0, np.max(np.abs(gx), axis=1))
    return {
        "lower": float(np.max(p.m * nn - inner)),
        "upper": float(np.max(inner - p.L * nn)),
        "cocoercivity": float(np.max(np.sum(dg * dg, axis=1) / p.L - inner)),
        "grad_rel_err": float(np.max(np.max(np.abs(fd - gx), axis=1) / scale)),
    }


def test_quadratic_diagonal_constants():
    p = quadratic_diagonal([1.0, 2.0])
    assert (p.m, p.L, p.d) == (1.0, 2.0, 2)


def test_huber_constants():
    p = huber(1.0, dim=1)
    assert (p.m, p.L, p.d) == (0.0, 1.0, 1)


def test_quadratic_full_scalar_matrix():
    p = quadratic_full([[2.0, 0.0], [0.0, 2.0]])
    assert (p.m, p.L, p.d) == (2.0, 2.0, 2)


def test_quadratic_full_uses_eigenvalues():
    p = quadratic_full([[2.0, 0.5], [0.5, 1.0]])
    w = np.linalg.eigvalsh(np.array([[2.0, 0.5], [0.5, 1.0]]))
    assert p.m == pytest.approx(w[0])
    assert p.L == pytest.approx(w[1])


@pytest.mark.parametrize(
    "kind,params,match",
    [
        ("quadratic-diagonal", {"diag": [1.0, -1.0]}, "positive"),
        ("quadratic-diagonal", {"diag": []}, "non-empty"),
        ("quadratic-full", {"matrix": [[1.0, 0.5], [0.3, 1.0]]}, "symmetric"),
        ("quadratic-full", {"matrix": [[1.0, 2.0], [2.0, 1.0]]}, "positive definite"),
        ("huber", {"delta": 0.0}, "delta"),
        ("huber", {"delta": -1.0}, "delta"),
    ],
)
def test_construction_errors_name_constraint(kind, params, match):
    with pytest.raises(ValueError, match=match):
        construct_potential(kind, **params)


def test_construct_unknown_kind():
    with pytest.raises(ValueError, match="unknown potential kind"):
        construct_potential("cauchy")


def test_config_keys_of_each_kind_are_its_constructors_parameters():
    """The config reads each kind by its constructor's parameter names, and no other kind."""
    config_kinds = cli._KIND_KEYS["potential"]
    assert config_kinds.keys() == potentials._CONSTRUCTORS.keys()
    for kind, make in potentials._CONSTRUCTORS.items():
        assert list(config_kinds[kind]) == list(inspect.signature(make).parameters), kind
    with pytest.raises(ValueError, match="unknown potential kind 'custom'"):
        construct_potential("custom", m=0.0, L=1.0, d=1)


def test_u_value_examples():
    assert u_value(quadratic_diagonal([1.0]), [2.0]) == pytest.approx(2.0)
    assert u_value(huber(1.0), [3.0]) == pytest.approx(2.5)


def test_u_and_grad_vanish_at_origin():
    for p in all_kinds():
        zero = np.zeros(p.d)
        assert u_value(p, zero) == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(grad_u(p, zero), 0.0, atol=1e-15)


def test_grad_examples():
    assert np.allclose(grad_u(quadratic_diagonal([1.0, 2.0]), [1.0, 1.0]), [1.0, 2.0])
    assert np.allclose(grad_u(huber(1.0), [-3.0]), [-1.0])


def test_dimension_mismatch():
    p = quadratic_diagonal([1.0, 2.0])
    with pytest.raises(ValueError, match="dimension mismatch"):
        u_value(p, [1.0])
    with pytest.raises(ValueError, match="dimension mismatch"):
        grad_u(p, [1.0, 2.0, 3.0])


def test_batched_evaluation_matches_pointwise():
    rng = np.random.default_rng(0)
    for p in all_kinds():
        xs = rng.normal(size=(7, p.d))
        u_batch = u_value(p, xs)
        g_batch = grad_u(p, xs)
        for i, x in enumerate(xs):
            assert u_batch[i] == pytest.approx(u_value(p, x), rel=1e-14)
            assert np.allclose(g_batch[i], grad_u(p, x), rtol=1e-14)


def test_declared_constants_hold_on_quadratic_probes():
    rep = probe_constants(quadratic_diagonal([1.0, 2.0]), 100, seed=0)
    assert max(rep["lower"], rep["upper"], rep["cocoercivity"]) <= 1e-9


def test_declared_constants_hold_on_huber_probes():
    rep = probe_constants(huber(1.0), 100, seed=1)
    assert max(rep["lower"], rep["upper"], rep["cocoercivity"]) <= 1e-9


def test_probes_flag_a_wrong_L():
    # plain 1-D quadratic with a = 1 but L declared as 0.5
    wrong = dataclasses.replace(quadratic_diagonal([1.0]), m=0.25, L=0.5)
    assert probe_constants(wrong, 100, seed=2)["upper"] > 0


def test_gradient_matches_central_differences():
    # relative error <= 1e-6 at step 1e-5 for every kind
    for i, p in enumerate(all_kinds()):
        rep = probe_constants(p, 100, seed=10 + i)
        assert rep["grad_rel_err"] <= 1e-6, p.kind


def test_monotonicity_and_cocoercivity_on_probes():
    for i, p in enumerate(all_kinds()):
        rep = probe_constants(p, 500, seed=20 + i)
        assert rep["lower"] <= 1e-9, p.kind
        assert rep["cocoercivity"] <= 1e-9, p.kind


@pytest.mark.parametrize("d", [1, 2, 3, 5, 300])
def test_quadratic_diagonal_gradient_is_bit_identical_to_the_broadcast(d):
    # the blocked row product must give x * diag bit for bit: row counts off
    # the block, no rows, either side of the row cut-off, contiguous and
    # strided inputs, 1-D and 3-D shapes
    rng = np.random.default_rng(d)
    diag = rng.uniform(0.1, 10.0, size=d)
    p = quadratic_diagonal(diag)
    for shape in [(d,), (1, d), (0, d), (2047, d), (2048, d), (4099, d), (20000, d), (7, 1001, d), (3, 5, d)]:
        x = rng.normal(size=shape)
        g = grad_u(p, x)
        assert g.shape == x.shape and np.array_equal(g, x * diag), shape
    x = rng.normal(size=(9001, 2 * d))[:, ::2]  # not contiguous
    assert np.array_equal(grad_u(p, x), x * diag)


@pytest.mark.parametrize("delta", [1.0, 0.3])
def test_huber_gradient_is_np_clip_bit_for_bit(delta):
    # signed zeros, the thresholds, infinities and NaN, in one and in three coordinates
    edges = [0.0, -0.0, delta, -delta, np.nextafter(delta, 0.0), np.nextafter(-delta, -1.0), np.inf, -np.inf, np.nan]
    x = np.array(edges + list(np.random.default_rng(5).normal(scale=2.0, size=7)))
    for p, pts in [(huber(delta), x[:, None]), (huber(delta, dim=3), np.stack([x, -x, x[::-1]], axis=1))]:
        g = grad_u(p, pts)
        assert g.shape == pts.shape
        assert g.tobytes() == np.clip(pts, -delta, delta).tobytes()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: quadratic_full([[1.0, 0.0]]), "matrix must be square and non-empty"),
        (lambda: quadratic_full(np.zeros((0, 0))), "matrix must be square and non-empty"),
        (lambda: huber(1.0, dim=0), "dimension must be a positive integer, got 0"),
        (lambda: huber(1.0, dim=2.5), "dimension must be a positive integer, got 2.5"),
        (lambda: huber(1.0, dim=2.0), "dimension must be a positive integer, got 2.0"),
    ],
    ids=["full-not-square", "full-empty", "huber-dim-0", "huber-dim-2.5", "huber-dim-float"],
)
def test_potential_inputs_are_checked(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_huber_dim_may_be_a_numpy_integer():
    assert huber(1.0, dim=np.int64(3)).d == 3


def test_a_0d_point_is_one_coordinate():
    """A bare number is the one coordinate of a point of a 1-D potential."""
    pot = quadratic_diagonal([2.0])
    assert u_value(pot, 3.0) == 9.0
    assert np.array_equal(grad_u(pot, np.float64(3.0)), [6.0])
    assert np.array_equal(grad_u(huber(1.0), 3.0), [1.0])


@pytest.mark.parametrize("gap, symmetric", [(1e-13, True), (1e-11, False)])
def test_the_potential_and_the_oracle_judge_symmetry_alike(gap, symmetric):
    """One tolerance, 1e-12 * max(1, max|A|), for a potential's matrix and the Gaussian oracle's."""
    A = np.array([[2.0, 0.5 + gap], [0.5, 1.0]])
    verdicts = []
    for build in (quadratic_full, target_law):
        try:
            build(A)
            verdicts.append(True)
        except ValueError as exc:
            assert str(exc) == "matrix must be symmetric"
            verdicts.append(False)
    assert verdicts == [symmetric, symmetric]
