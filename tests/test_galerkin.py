from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sktspec.galerkin import (
    RhsAssembler,
    ic_coefficients,
    ic_field,
    project_initial,
    rhs_oracle,
)
from sktspec.model import ModelParams, coexistence_steady_state, preset, reactions
from sktspec.reference import build_tensors
from sktspec.spectral import (
    Basis,
    SpectralState,
    laplacian_eigenvalues,
    synthesize,
)


def random_state(rng, n, scale=0.3):
    width = n + 1
    decay = 1.0 / (1.0 + np.arange(width)) ** 2
    mu1 = scale * rng.normal(size=(width, width)) * np.outer(decay, decay)
    mu2 = scale * rng.normal(size=(width, width)) * np.outer(decay, decay)
    mu1[0, 0] += 0.8 * np.pi
    mu2[0, 0] += 0.8 * np.pi
    return SpectralState(mu1, mu2, t=0.0)


@pytest.mark.parametrize("name", ["case1", "case2"])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_rhs_matches_quadrature_oracle(name, n, rng):
    p = preset(name)
    asm = RhsAssembler.for_order(p, n)
    for _ in range(5):
        state = random_state(rng, n)
        d1, d2 = asm.rhs(state)
        o1, o2 = rhs_oracle(p, state, 4 * (n + 1))
        scale = max(np.abs(o1).max(), np.abs(o2).max(), 1.0)
        assert np.abs(d1 - o1).max() / scale < 1e-12
        assert np.abs(d2 - o2).max() / scale < 1e-12


def tensor_rhs(p, tensors, mu1, mu2):
    """The weak form by the triple-product tensors: the diagonal linear part
    minus the flux (stiff3) and reaction (mass3) contractions."""
    x1, x2 = mu1.ravel(), mu2.ravel()
    stiff, mass = tensors.contract_stiff, tensors.contract_mass
    eig = laplacian_eigenvalues(tensors.n)
    d1 = ((p.a1 - p.d1 * eig) * x1
          - p.alpha11 * stiff(x1, x1) - p.alpha12 * stiff(x2, x1) - p.b11 * stiff(x1, x2)
          - p.b1 * mass(x1, x1) + p.c1 * mass(x1, x2))
    d2 = ((p.a2 - p.d2 * eig) * x2
          - p.alpha21 * stiff(x1, x2) - p.alpha22 * stiff(x2, x2) - p.b22 * stiff(x2, x1)
          - p.c2 * mass(x2, x2) + p.b2 * mass(x2, x1))
    return d1.reshape(mu1.shape), d2.reshape(mu2.shape)


@pytest.mark.parametrize("name", ["case1", "case2"])
def test_rhs_matches_tensor_contraction(name, rng):
    p = preset(name)
    for n in range(9):
        asm = RhsAssembler.for_order(p, n)
        tensors = build_tensors(n)
        for _ in range(3):
            state = random_state(rng, n)
            d1, d2 = asm.rhs(state)
            t1, t2 = tensor_rhs(p, tensors, state.mu1, state.mu2)
            scale = max(np.abs(t1).max(), np.abs(t2).max())
            assert np.abs(d1 - t1).max() <= 1e-12 * scale, n
            assert np.abs(d2 - t2).max() <= 1e-12 * scale, n


@given(st.integers(0, 8), st.integers(0, 2**32 - 1), st.sampled_from(["case1", "case2"]))
def test_rhs_commutes_with_swapping_x_and_y(n, seed, name):
    p = preset(name)
    state = random_state(np.random.default_rng(seed), n)
    asm = RhsAssembler.for_order(p, n)
    d1, d2 = asm.rhs(state)
    s1, s2 = asm.rhs(SpectralState(state.mu1.T, state.mu2.T, 0.0))
    scale = max(np.abs(d1).max(), np.abs(d2).max())
    assert np.abs(s1 - d1.T).max() <= 1e-13 * scale
    assert np.abs(s2 - d2.T).max() <= 1e-13 * scale


def test_rhs_oracle_insensitive_to_extra_resolution(case1, rng):
    state = random_state(rng, 3)
    a1, a2 = rhs_oracle(case1, state, 16)
    b1, b2 = rhs_oracle(case1, state, 37)
    assert np.allclose(a1, b1, atol=1e-13)
    assert np.allclose(a2, b2, atol=1e-13)


def test_rhs_method_unpacks_rhs_flat(case2, rng):
    asm = RhsAssembler.for_order(case2, 3)
    state = random_state(rng, 3)
    d1, d2 = asm.rhs(state)
    # The means lie within a factor 2 of (u*, v*), so y - y* is exact.
    F, L = asm.rhs_flat(asm.relative(np.stack([state.mu1, state.mu2])[:, None]))
    assert np.array_equal(np.stack([d1, d2]), F[:, 0])
    assert L.shape == (2, 2, 1, 4, 4)


@pytest.mark.parametrize("name", ["case1", "case2"])
def test_mean_mode_block_is_the_reaction_jacobian(name, rng):
    # With a coexistence state, the block of mode (0, 0) is J at the mean:
    # here central differences of the quadratic reactions, exact to roundoff.
    p = preset(name)
    asm = RhsAssembler.for_order(p, 3)
    state = random_state(rng, 3)
    _, L = asm.derivative(np.stack([state.mu1, state.mu2])[:, None])
    u, v = state.mu1[0, 0] / np.pi, state.mu2[0, 0] / np.pi
    eps = 1e-4
    J = np.stack([(np.array(reactions(p, u + eps, v)) - reactions(p, u - eps, v)) / (2 * eps),
                  (np.array(reactions(p, u, v + eps)) - reactions(p, u, v - eps)) / (2 * eps)], axis=1)
    assert np.allclose(L[:, :, 0, 0, 0], J, rtol=1e-9, atol=1e-9)


def test_unshifted_copy_shares_the_tables_and_zeroes_the_mean_block(case1, rng):
    asm = RhsAssembler.for_order(case1, 3)
    plain = asm.unshifted()
    assert asm.reference is not None and plain.reference is None
    assert plain._C is asm._C and plain._eig is asm._eig
    state = random_state(rng, 3)
    y = np.stack([state.mu1, state.mu2])[:, None]
    F, L = asm.derivative(y)
    F_plain, L_plain = plain.rhs_flat(y)
    assert np.array_equal(F_plain, F)
    assert not L_plain[:, :, :, 0, 0].any() and L[:, :, :, 0, 0].all()
    assert np.array_equal(L_plain[..., 1:], L[..., 1:])
    # The means lie within a factor 2 of (u*, v*), so y - y* is exact.
    assert np.array_equal(asm.absolute(asm.relative(y)), y)


def test_rhs_flat_is_pure(case2):
    # rhs_flat returns its blocks: it sets no attribute and leaves y as it was.
    rng = np.random.default_rng(7)
    asm = RhsAssembler.for_order(case2, 4)
    y = 0.3 * rng.normal(size=(2, 3, 5, 5))
    y[:, :, 0, 0] += np.pi
    before, y_before = dict(vars(asm)), y.copy()
    asm.rhs_flat(y)
    assert vars(asm).keys() == before.keys()
    assert all(vars(asm)[key] is value for key, value in before.items())
    assert np.array_equal(y, y_before)


def params_strategy():
    """Valid parameter sets whose coexistence state exists: b1*c2 > c1*b2."""
    coeff = st.floats(0.0, 2.0)
    return st.builds(
        ModelParams,
        d1=st.floats(0.01, 2.0), d2=st.floats(0.01, 2.0),
        a1=st.floats(0.05, 2.0), b1=st.floats(1.0, 3.0), c1=st.floats(0.0, 0.9),
        a2=st.floats(0.05, 2.0), b2=st.floats(0.0, 0.9), c2=st.floats(1.0, 3.0),
        alpha11=coeff, alpha12=coeff, alpha21=coeff, alpha22=coeff, b11=coeff, b22=coeff,
    )


def constant_state(n, u, v):
    width = n + 1
    mu1 = np.zeros((width, width))
    mu2 = np.zeros((width, width))
    mu1[0, 0] = u * np.pi
    mu2[0, 0] = v * np.pi
    return SpectralState(mu1, mu2, 0.0)


def reaction_scale(p, u, v):
    """pi times the sum of the magnitudes of the reaction terms at (u, v)."""
    return np.pi * (abs(u) * (p.a1 + p.b1 * abs(u) + p.c1 * abs(v))
                    + abs(v) * (p.a2 + p.b2 * abs(u) + p.c2 * abs(v)))


@given(params_strategy(), st.integers(0, 8))
@example(preset("case1"), 8)
@example(preset("case2"), 8)
def test_homogeneous_equilibrium_is_a_fixed_point(p, n):
    eq = coexistence_steady_state(p)
    assert eq is not None
    d1, d2 = RhsAssembler.for_order(p, n).rhs(constant_state(n, *eq))
    tol = 1e-14 * reaction_scale(p, *eq)
    assert abs(d1[0, 0]) <= tol and abs(d2[0, 0]) <= tol
    d1[0, 0] = d2[0, 0] = 0.0
    assert not d1.any() and not d2.any()


def test_linear_regime_reduces_to_diagonal_decay(case1):
    # At infinitesimal amplitude the quadratic terms are O(eps^2) and the
    # derivative is the diagonal linear part.
    n = 5
    eps = 1e-8
    rng = np.random.default_rng(2)
    width = n + 1
    mu1 = eps * rng.normal(size=(width, width))
    mu2 = eps * rng.normal(size=(width, width))
    d1, d2 = RhsAssembler.for_order(case1, n).rhs(SpectralState(mu1, mu2, 0.0))
    eig = laplacian_eigenvalues(n).reshape(width, width)
    assert np.abs(d1 - (case1.a1 - case1.d1 * eig) * mu1).max() < 1e-13
    assert np.abs(d2 - (case1.a2 - case1.d2 * eig) * mu2).max() < 1e-13


transport = st.fixed_dictionaries({
    key: st.floats(0.01, 2.0) if key in ("d1", "d2") else st.floats(0.0, 2.0)
    for key in ("d1", "d2", "alpha11", "alpha12", "alpha21", "alpha22", "b11", "b22")
})


@given(params_strategy(), transport, st.integers(0, 8), st.integers(0, 2**32 - 1))
def test_mean_mode_sees_only_reactions(p, altered, n, seed):
    # Flux terms are orthogonal to the constant test mode, so the (0,0)
    # derivative is independent of every transport coefficient.
    state = random_state(np.random.default_rng(seed), n)
    base = RhsAssembler.for_order(p, n).rhs(state)
    other = RhsAssembler.for_order(replace(p, **altered), n).rhs(state)
    assert base[0][0, 0] == pytest.approx(other[0][0, 0], rel=1e-12, abs=1e-14)
    assert base[1][0, 0] == pytest.approx(other[1][0, 0], rel=1e-12, abs=1e-14)


@given(params_strategy(), st.integers(0, 8), st.floats(0.0, 5.0), st.floats(0.0, 5.0))
def test_mean_mode_value_constant_state(p, n, u, v):
    d1, d2 = RhsAssembler.for_order(p, n).rhs(constant_state(n, u, v))
    f, g = reactions(p, u, v)
    tol = 1e-15 * reaction_scale(p, u, v)
    assert d1[0, 0] == pytest.approx(f * np.pi, rel=1e-13, abs=tol)
    assert d2[0, 0] == pytest.approx(g * np.pi, rel=1e-13, abs=tol)
    # every other mode of a homogeneous state stays homogeneous
    d1[0, 0] = d2[0, 0] = 0.0
    assert not d1.any() and not d2.any()


@given(st.floats(0.0, 2.0))
def test_rhs_affine_in_cross_diffusion_weight(alpha):
    p = preset("case1")
    rng = np.random.default_rng(8)
    state = random_state(rng, 3)
    h = 0.25
    vals = []
    for a in (alpha, alpha + h, alpha + 2 * h):
        d1, d2 = RhsAssembler.for_order(replace(p, alpha11=a), 3).rhs(state)
        vals.append(np.concatenate([d1.ravel(), d2.ravel()]))
    second_diff = vals[2] - 2 * vals[1] + vals[0]
    scale = max(np.abs(vals[1]).max(), 1.0)
    assert np.abs(second_diff).max() < 1e-11 * scale


def test_assembler_rejects_order_mismatch(case1):
    asm = RhsAssembler.for_order(case1, 4)
    with pytest.raises(ValueError, match="order"):
        asm.rhs(SpectralState(np.zeros((3, 3)), np.zeros((3, 3)), 0.0))


def test_oracle_resolution_guard(case1):
    state = SpectralState(np.zeros((5, 5)), np.zeros((5, 5)), 0.0)
    with pytest.raises(ValueError, match="resolution"):
        rhs_oracle(case1, state, 19)


def test_ic_field_constant_and_alias():
    f = ic_field({"type": "constant", "value": 0.5}, 8)
    assert f.shape == (8, 8) and np.all(f == 0.5)
    g = ic_field({"type": "constant", "u": 0.25}, 4)
    assert np.all(g == 0.25)


def test_ic_field_cosine_and_gaussian():
    res = 32
    f = ic_field({"type": "cosine", "offset": 0.5,
                  "terms": [{"j": 1, "k": 0, "amp": 0.3}]}, res)
    from sktspec.spectral import midpoint_nodes

    x = midpoint_nodes(res)
    assert np.allclose(f, 0.5 + 0.3 * np.cos(x)[:, None], atol=1e-14)

    g = ic_field({"type": "gaussian", "cx": np.pi / 2, "cy": np.pi / 2,
                  "sigma": 0.5, "amp": 0.5, "offset": 0.2}, res)
    center = np.unravel_index(np.argmax(g), g.shape)
    assert abs(x[center[0]] - np.pi / 2) < np.pi / res
    assert g.min() >= 0.2
    assert g.max() <= 0.7 + 1e-12


def test_ic_field_passthrough_and_unknown():
    arr = np.ones((4, 4))
    assert ic_field(arr, 4) is arr
    with pytest.raises(ValueError, match="unknown initial-condition type"):
        ic_field({"type": "sawtooth"}, 8)


@pytest.mark.parametrize("ic, message", [
    ({"type": "constant", "value": float("nan")}, "value must be finite"),
    ({"type": "cosine", "offset": 0.5}, "terms must be a list"),
    ({"type": "cosine", "terms": [{"j": 1, "k": 0, "amp": "big"}]}, r"terms\[0\].amp must be a number"),
    ({"type": "gaussian", "cx": 1, "cy": 1, "sigma": -0.1, "amp": 1}, "sigma must be > 0"),
    (np.array([[0.5, np.inf]]), "non-finite"),
    ({"type": "cosine", "terms": [{"j": 1.5, "k": 0, "amp": 0.1}]}, r"terms\[0\].j must be an integer"),
    ({"type": "cosine", "terms": [{"j": True, "k": 0, "amp": 0.1}]}, r"terms\[0\].j must be an integer"),
    ({"type": "cosine", "terms": [{"j": 1, "k": 0.5, "amp": 0.1}]}, r"terms\[0\].k must be an integer"),
    ({"type": "cosine", "terms": [{"j": -1, "k": 0, "amp": 0.1}]}, r"terms\[0\].j must be >= 0, got -1"),
    ({"type": "cosine", "terms": [{"j": 1, "k": 0, "amp": 0.1}, {"j": 0, "k": -3.0, "amp": 0.1}]},
     r"terms\[1\].k must be >= 0, got -3.0"),
], ids=["nan-value", "no-terms", "text-amp", "negative-sigma", "inf-grid",
        "fractional-j", "bool-j", "fractional-k", "negative-j", "negative-k"])
def test_ic_field_rejects_bad_numbers(ic, message):
    with pytest.raises(ValueError, match=message):
        ic_field(ic, 8)


def test_ic_coefficients_exactness():
    n = 4
    mu = ic_coefficients({"type": "constant", "value": 0.5}, n)
    assert mu[0, 0] == pytest.approx(0.5 * np.pi)
    assert np.count_nonzero(mu) == 1

    eta = Basis(n).norm1d()
    mu = ic_coefficients({"type": "cosine", "offset": 0.2,
                          "terms": [{"j": 1, "k": 1, "amp": 0.1}]}, n)
    assert mu[0, 0] == pytest.approx(0.2 * np.pi)
    assert mu[1, 1] == pytest.approx(0.1 / (eta[1] * eta[1]))

    assert ic_coefficients({"type": "gaussian", "cx": 1.0, "cy": 1.0,
                            "sigma": 0.3, "amp": 0.1, "offset": 0.2}, n) is None
    assert ic_coefficients(np.ones((4, 4)), n) is None


def test_ic_coefficients_rejects_high_modes():
    with pytest.raises(ValueError, match="beyond truncation order"):
        ic_coefficients({"type": "cosine", "offset": 0.0,
                         "terms": [{"j": 7, "k": 0, "amp": 0.1}]}, 4)


def test_project_initial_descriptors():
    state, report = project_initial({"type": "constant", "value": 0.5},
                                    {"type": "cosine", "offset": 0.3,
                                     "terms": [{"j": 2, "k": 1, "amp": 0.1}]},
                                    n=4)
    assert state.t == 0.0 and state.n == 4
    assert state.mu1[0, 0] == pytest.approx(0.5 * np.pi)
    assert report.resolution == 20
    assert report.min_u == pytest.approx(0.5, abs=1e-12)
    # grid minimum of 0.3 + 0.1 cos(2x) cos(y); the midpoint nodes straddle
    # the true minimizer, so the reported value sits just above 0.2
    assert 0.2 <= report.min_v < 0.21
    d = report.to_dict()
    assert set(d) == {"min_u", "min_v", "resolution"}


def test_project_initial_band_limited_grid_round_trip(rng):
    n = 5
    target = random_state(rng, n)
    res = 4 * (n + 1)
    u, v = synthesize(target, res)
    if u.min() < 0 or v.min() < 0:
        shift = max(0.0, -min(u.min(), v.min())) + 0.1
        target.mu1[0, 0] += shift * np.pi
        target.mu2[0, 0] += shift * np.pi
        u, v = synthesize(target, res)
    state, _ = project_initial(u, v, n)
    assert np.abs(state.mu1 - target.mu1).max() < 1e-12
    assert np.abs(state.mu2 - target.mu2).max() < 1e-12


def test_project_initial_rejects_negative_data():
    ok = {"type": "constant", "value": 0.5}
    with pytest.raises(ValueError, match="initial field for u has negative"):
        project_initial({"type": "constant", "value": -0.1}, ok, n=4)
    with pytest.raises(ValueError, match="initial field for v has negative"):
        project_initial(ok, {"type": "cosine", "offset": 0.1,
                             "terms": [{"j": 1, "k": 0, "amp": 0.5}]}, n=4)


def test_projection_report_sees_truncation_undershoot():
    # A narrow positive gaussian overshoots below zero after truncation; the
    # report records it instead of failing.
    ic = {"type": "gaussian", "cx": np.pi / 2, "cy": np.pi / 2,
          "sigma": 0.25, "amp": 1.0, "offset": 0.0}
    state, report = project_initial(ic, {"type": "constant", "value": 0.5}, n=4)
    assert report.min_u < 0.0
    assert report.min_v == pytest.approx(0.5, abs=1e-12)
    assert state.n == 4
