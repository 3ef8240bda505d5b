import functools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sktspec.reference import build_tensors, quadrature_tables
from sktspec.spectral import (
    Basis,
    _midpoint_table,
    SpectralState,
    analyze,
    laplacian_eigenvalues,
    midpoint_nodes,
    synthesize,
)


@functools.lru_cache(maxsize=None)
def dense_tensors(n):
    """build_tensors(n) scattered into dense (coeff, field, test) arrays."""
    T = build_tensors(n)
    m = T.modes
    mass = np.zeros((m, m, m))
    stiff = np.zeros((m, m, m))
    mass[T.m_ia, T.m_ic, T.m_it] = T.m_val
    stiff[T.s_ia, T.s_ic, T.s_it] = T.s_val
    return mass, stiff


def entry(n, kind, coeff_mode, field_mode, test_mode):
    """One tensor entry by (j, k) mode pairs; kind is "mass" or "stiff"."""
    table = dense_tensors(n)[0 if kind == "mass" else 1]
    flat = [j * (n + 1) + k for j, k in (coeff_mode, field_mode, test_mode)]
    return float(table[tuple(flat)])


def count1d(n):
    # nonzero 1-D mass factors: diagonal pairs, off-diagonal sum/difference hits
    return (2 * n + 1) + n * n + n * (n - 1) // 2


def test_basis_orthonormal():
    n = 6
    res = 4 * (n + 1)
    nodes = midpoint_nodes(res)
    C = Basis(n).cos_table(nodes)
    gram = (np.pi / res) * (C @ C.T)
    assert np.abs(gram - np.eye(n + 1)).max() < 1e-13


def test_eigenvalues_layout():
    eig = laplacian_eigenvalues(2)
    assert eig.tolist() == [0, 1, 4, 1, 2, 5, 4, 5, 8]


def test_synthesize_constant_mode():
    n = 3
    mu = np.zeros((n + 1, n + 1))
    mu[0, 0] = np.pi  # constant field 1
    u, v = synthesize(SpectralState(mu, 2.0 * mu), 10)
    assert np.abs(u - 1.0).max() < 1e-14
    assert np.abs(v - 2.0).max() < 1e-14


@pytest.mark.parametrize("n, res", [(0, 4), (4, 20), (8, 36), (16, 68)])
def test_synthesize_cached_table_matches_a_fresh_one(rng, n, res):
    state = SpectralState(rng.normal(size=(n + 1, n + 1)), rng.normal(size=(n + 1, n + 1)))
    fresh = Basis(n).cos_table(midpoint_nodes(res))
    for _ in range(2):  # the first call builds the table, the second reuses it
        u, v = synthesize(state, res)
        assert np.array_equal(u, fresh.T @ state.mu1 @ fresh)
        assert np.array_equal(v, fresh.T @ state.mu2 @ fresh)
    table = _midpoint_table(n, res)
    assert table is _midpoint_table(n, res) and np.array_equal(table, fresh)
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1.0


def test_synthesis_resolution_guard():
    with pytest.raises(ValueError, match="too coarse"):
        synthesize(SpectralState.zeros(4), 4)
    synthesize(SpectralState.zeros(4), 5)
    with pytest.raises(ValueError, match="resolution too low"):
        analyze(np.zeros((8, 8)), 4)


@given(st.integers(0, 6), st.integers(0, 3))
def test_round_trip_band_limited(n, seed):
    rng = np.random.default_rng(seed)
    state = SpectralState(rng.normal(size=(n + 1, n + 1)), rng.normal(size=(n + 1, n + 1)))
    res = 2 * (n + 1)
    for mu, field in zip((state.mu1, state.mu2), synthesize(state, res)):
        back = analyze(field, n)
        assert np.abs(back - mu).max() < 1e-12 * max(1.0, np.abs(mu).max())


def test_state_shape_checks():
    with pytest.raises(ValueError):
        SpectralState(np.zeros((3, 3)), np.zeros((4, 4)))
    with pytest.raises(ValueError):
        SpectralState(np.zeros((3, 4)), np.zeros((3, 4)))


def test_known_tensor_entries():
    # all-constant triple: (1/sqrt(pi))^6 * pi^2
    assert entry(4, "mass", (0, 0), (0, 0), (0, 0)) == pytest.approx(1.0 / np.pi, rel=1e-14)
    # one constant factor: reduces to the orthonormality integral
    assert entry(4, "mass", (0, 0), (2, 3), (2, 3)) == pytest.approx(1.0 / np.pi, rel=1e-14)
    # gradient pairing with a constant coefficient: (j^2+k^2)/pi
    assert entry(4, "stiff", (0, 0), (2, 3), (2, 3)) == pytest.approx(13.0 / np.pi, rel=1e-13)
    # output mode (0,0) never receives stiffness (test gradient vanishes)
    assert entry(4, "stiff", (1, 1), (1, 1), (0, 0)) == 0.0


def test_mass_selection_rules():
    # nonzero requires j_c in {j_a + j_b, |j_a - j_b|} on each axis
    assert entry(4, "mass", (1, 0), (2, 0), (4, 0)) == 0.0
    assert entry(4, "mass", (1, 1), (1, 1), (1, 0)) == 0.0
    assert entry(4, "mass", (1, 0), (2, 0), (3, 0)) != 0.0
    assert entry(4, "mass", (1, 0), (2, 0), (1, 0)) != 0.0


def test_nnz_count_formula():
    for n in (2, 4, 6):
        T = build_tensors(n)
        assert T.mass_nnz == count1d(n) ** 2


def test_tensors_match_quadrature_dense():
    for n in (2, 3):
        mass_q, stiff_q = quadrature_tables(n)
        mass_d, stiff_d = dense_tensors(n)
        assert np.abs(mass_d - mass_q).max() < 1e-13
        assert np.abs(stiff_d - stiff_q).max() < 1e-12


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_stiffness_eigen_identity(ja, ka, jb, kb, jc, kc):
    # integrating grad phi_B . grad phi_C against phi_A ties the two tensors:
    # stiff = (eig_B + eig_C - eig_A) / 2 * mass
    A, B, C = (ja, ka), (jb, kb), (jc, kc)
    eig = lambda m: m[0] ** 2 + m[1] ** 2
    lhs = entry(4, "stiff", A, B, C)
    rhs = 0.5 * (eig(B) + eig(C) - eig(A)) * entry(4, "mass", A, B, C)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_contraction_against_dense(rng):
    n = 3
    T = build_tensors(n)
    m = (n + 1) ** 2
    mass_q, stiff_q = quadrature_tables(n)
    x = rng.normal(size=m)
    y = rng.normal(size=m)
    want_mass = np.einsum("act,a,c->t", mass_q, x, y)
    want_stiff = np.einsum("act,a,c->t", stiff_q, x, y)
    assert np.abs(T.contract_mass(x, y) - want_mass).max() < 1e-12
    assert np.abs(T.contract_stiff(x, y) - want_stiff).max() < 1e-11
