import numpy as np
import pytest

from langevin_kl.potentials import (
    construct_potential,
    custom_potential,
    grad_u,
    huber,
    quadratic_diagonal,
    quadratic_full,
    u_value,
    validate_constants,
)


def all_kinds():
    return [
        quadratic_diagonal([1.0, 2.0]),
        quadratic_full([[2.0, 0.5], [0.5, 1.0]]),
        huber(1.0, dim=3),
        custom_potential(
            lambda x: 0.25 * np.sum(x**4, axis=-1) + 0.5 * np.sum(x * x, axis=-1),
            lambda x: x**3 + x,
            m=1.0,
            L=28.0,  # valid on the probe region ||x|| <~ 3
            d=2,
        ),
    ]


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


@pytest.mark.parametrize(
    "params, match",
    [
        ({"m": 2.0, "L": 1.0, "d": 1}, "need 0 <= m <= L"),
        ({"m": 0.0, "L": 1.0, "d": 0}, "dimension must be >= 1"),
        (
            {"m": 0.0, "L": 1.0, "d": 2, "grad_fn": lambda x: x[..., 0]},
            r"custom gradient returned shape \(3,\), expected \(3, 2\)",
        ),
    ],
    ids=["m-above-L", "d-below-1", "gradient-shape"],
)
def test_custom_potential_checks_its_inputs(params, match):
    """construct_potential("custom") refuses bad constants, and grad_u a gradient of the wrong shape."""
    params = {"u_fn": lambda x: 0.5 * np.sum(x * x, axis=-1), "grad_fn": lambda x: x, **params}
    with pytest.raises(ValueError, match=match):
        grad_u(construct_potential("custom", **params), np.zeros((3, 2)))


def test_construct_unknown_kind():
    with pytest.raises(ValueError, match="unknown potential kind"):
        construct_potential("cauchy")


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


def test_validate_constants_quadratic_clean():
    rep = validate_constants(quadratic_diagonal([1.0, 2.0]), 100, seed=0)
    assert rep.max_violation <= 1e-9


def test_validate_constants_huber_clean():
    rep = validate_constants(huber(1.0), 100, seed=1)
    assert rep.max_violation <= 1e-9


def test_validate_constants_flags_wrong_L():
    # plain 1-D quadratic with a = 1 but L declared as 0.5
    wrong = custom_potential(
        lambda x: 0.5 * np.sum(x * x, axis=-1), lambda x: x, m=0.25, L=0.5, d=1
    )
    rep = validate_constants(wrong, 100, seed=2)
    assert rep.max_violation > 0
    assert rep.upper_violation > 0


def test_gradient_matches_central_differences():
    # relative error <= 1e-6 at step 1e-5 for every built-in kind
    for i, p in enumerate(all_kinds()):
        rep = validate_constants(p, 100, seed=10 + i)
        assert rep.grad_max_rel_err <= 1e-6, p.kind


def test_monotonicity_and_cocoercivity_on_probes():
    for i, p in enumerate(all_kinds()[:3]):  # kinds with exact certified constants
        rep = validate_constants(p, 500, seed=20 + i)
        assert rep.lower_violation <= 1e-9, p.kind
        assert rep.cocoercivity_violation <= 1e-9, p.kind


def test_validate_constants_requires_probes():
    with pytest.raises(ValueError):
        validate_constants(quadratic_diagonal([1.0]), 0, seed=0)


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
