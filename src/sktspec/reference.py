"""Independent reference computations, used only by tests and scripts.

Nothing on the run path imports this module.  It holds second paths to
quantities the solver and the certificate compute another way:

- The triple products of the weak form,

      mass3 [(l,m), (lt,mt), (jt,kt)] = int phi_{l,m} phi_{lt,mt} phi_{jt,kt}
      stiff3[(l,m), (lt,mt), (jt,kt)] = int phi_{l,m} grad phi_{lt,mt} . grad phi_{jt,kt}

  Both factorize into 1-D integrals of cos*cos*cos (and cos*sin*sin for the
  derivative factor), which reduce to Kronecker deltas: the 1-D mass factor
  is nonzero only when the third index equals the sum or the absolute
  difference of the first two.  That selection rule keeps the tensors
  sparse, O(n^4) nonzeros.  build_tensors assembles them analytically and
  quadrature_tables densely by Gauss-Legendre quadrature; tests check
  galerkin.RhsAssembler, which evaluates the same integrals by synthesis on
  an exact quadrature grid, against the tensors, and the tensors against
  the quadrature.
- fd_reference, a flux-form finite-volume solver on the same domain, an
  independent discretization of the whole system.
- The certificate's three gradient quadratic forms written out term by term
  (form_coefficients, eval_psi_forms), against which lyapunov.discriminants
  is checked, and the cubic reaction budget phi_cubic built on
  lyapunov.phi_coefficients.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .lyapunov import LyapunovCert, phi_coefficients
from .model import ModelParams, flux_coeffs, reactions
from .spectral import DOMAIN_LENGTH, Basis

__all__ = [
    "TripleTensors",
    "build_tensors",
    "quadrature_tables",
    "fd_reference",
    "PsiForms",
    "form_coefficients",
    "eval_psi_forms",
    "phi_cubic",
]


# 1-D building blocks.  _pair_integral(m, c) = int_0^pi cos(m x) cos(c x) dx
# for nonnegative integers, i.e. pi, pi/2 or 0.

def _pair_integral(m: int, c: int) -> float:
    if m != c:
        return 0.0
    return np.pi if m == 0 else np.pi / 2.0


def _mass_factor_rows(n: int):
    """All nonzero (a, b, c, value) of the 1-D factor int C_a C_b C_c dx."""
    eta = Basis(n).norm1d()
    rows = []
    for a in range(n + 1):
        for b in range(n + 1):
            for c in {a + b, abs(a - b)}:
                if c > n:
                    continue
                third = 0.5 * (_pair_integral(a + b, c) + _pair_integral(abs(a - b), c))
                rows.append((a, b, c, eta[a] * eta[b] * eta[c] * third))
    return rows

def _deriv_factor_rows(n: int):
    """All nonzero (a, b, c, value) of int C_a C_b' C_c' dx.

    C_b' C_c' = b c eta_b eta_c sin(bx) sin(cx); the product reduces through
    sin sin = (cos(b-c) - cos(b+c)) / 2, so the factor is supported on
    a = |b - c| or a = b + c with b, c >= 1.
    """
    eta = Basis(n).norm1d()
    rows = []
    for b in range(1, n + 1):
        for c in range(1, n + 1):
            for a in {b + c, abs(b - c)}:
                if a > n:
                    continue
                third = 0.5 * (_pair_integral(abs(b - c), a) - _pair_integral(b + c, a))
                rows.append((a, b, c, b * c * eta[a] * eta[b] * eta[c] * third))
    return rows


def _rows_to_arrays(rows):
    a, b, c, v = (np.array(col) for col in zip(*rows))
    return a.astype(np.int64), b.astype(np.int64), c.astype(np.int64), v.astype(float)


class TripleTensors:
    """Sparse mass3/stiff3 in coordinate form over flattened mode indices.

    Index layout: mode (j, k) flattens to j*(n+1) + k.  For each tensor the
    first slot is the undifferentiated (coefficient) mode, the second the
    differentiated field mode (stiff3) or second factor (mass3), the third the
    test mode.  contract_* sums value * X[first] * Y[second] into the test slot.
    """

    def __init__(self, n, mass_coo, stiff_coo):
        self.n = n
        self.modes = (n + 1) ** 2
        self.m_ia, self.m_ic, self.m_it, self.m_val = mass_coo
        self.s_ia, self.s_ic, self.s_it, self.s_val = stiff_coo

    def contract_mass(self, x_flat: np.ndarray, y_flat: np.ndarray) -> np.ndarray:
        w = self.m_val * x_flat[self.m_ia] * y_flat[self.m_ic]
        return np.bincount(self.m_it, weights=w, minlength=self.modes)

    def contract_stiff(self, x_flat: np.ndarray, y_flat: np.ndarray) -> np.ndarray:
        w = self.s_val * x_flat[self.s_ia] * y_flat[self.s_ic]
        return np.bincount(self.s_it, weights=w, minlength=self.modes)

    @property
    def mass_nnz(self) -> int:
        return self.m_val.size


def _cross_product_coo(x_rows, y_rows, n):
    """COO arrays for the tensor product of two 1-D factor lists."""
    xa, xb, xc, xv = x_rows
    ya, yb, yc, yv = y_rows
    width = n + 1
    px, py = xa.size, ya.size
    rx = np.repeat(np.arange(px), py)
    ry = np.tile(np.arange(py), px)
    ia = xa[rx] * width + ya[ry]
    ic = xb[rx] * width + yb[ry]
    it = xc[rx] * width + yc[ry]
    val = xv[rx] * yv[ry]
    return ia, ic, it, val


def _coalesce(ia, ic, it, val, modes):
    """Sum duplicate (ia, ic, it) keys and drop exact zeros, sorted by key."""
    key = (ia * modes + ic) * modes + it
    uniq, inverse = np.unique(key, return_inverse=True)
    summed = np.bincount(inverse, weights=val, minlength=uniq.size)
    keep = summed != 0.0
    uniq, summed = uniq[keep], summed[keep]
    it_out = uniq % modes
    ic_out = (uniq // modes) % modes
    ia_out = uniq // (modes * modes)
    return ia_out, ic_out, it_out, summed


def build_tensors(n: int) -> TripleTensors:
    """Assemble mass3 and stiff3 analytically from the 1-D factor lists."""
    if n < 0:
        raise ValueError(f"basis order must be >= 0, got {n}")
    mass_rows = _rows_to_arrays(_mass_factor_rows(n))
    deriv_rows = _rows_to_arrays(_deriv_factor_rows(n)) if n >= 1 else None
    modes = (n + 1) ** 2

    mass_coo = _coalesce(*_cross_product_coo(mass_rows, mass_rows, n), modes)

    if deriv_rows is None:
        empty = (np.zeros(0, np.int64),) * 3 + (np.zeros(0),)
        return TripleTensors(n, mass_coo, empty)

    # grad . grad splits into x-derivative and y-derivative parts.
    dx = _cross_product_coo(deriv_rows, mass_rows, n)
    dy = _cross_product_coo(mass_rows, deriv_rows, n)
    stiff_coo = _coalesce(
        np.concatenate([dx[0], dy[0]]),
        np.concatenate([dx[1], dy[1]]),
        np.concatenate([dx[2], dy[2]]),
        np.concatenate([dx[3], dy[3]]),
        modes,
    )
    return TripleTensors(n, mass_coo, stiff_coo)


# Quadrature oracle: the same integrals by Gauss-Legendre quadrature, used by
# tests to cross-check the analytic assembly.  Integrands are trigonometric
# with frequency at most 3n per axis; the point count is generous.

def _gauss_nodes(n: int):
    t, w = np.polynomial.legendre.leggauss(max(3 * n + 2, 48))
    return (t + 1.0) * (DOMAIN_LENGTH / 2.0), w * (DOMAIN_LENGTH / 2.0)


def quadrature_tables(n: int):
    """Dense (modes, modes, modes) mass3/stiff3 by tensor-product quadrature.

    The 2-D Gauss-Legendre sum is evaluated through its 1-D factorization;
    intended for full-census tests.
    """
    basis = Basis(n)
    x, w = _gauss_nodes(n)
    C = basis.cos_table(x)
    D = basis.dcos_table(x)
    q3 = np.einsum("q,aq,bq,cq->abc", w, C, C, C)
    qd = np.einsum("q,aq,bq,cq->abc", w, C, D, D)
    modes = (n + 1) ** 2
    mass = np.einsum("ace,bdf->abcdef", q3, q3).reshape(modes, modes, modes)
    stiff = (
        np.einsum("ace,bdf->abcdef", qd, q3) + np.einsum("ace,bdf->abcdef", q3, qd)
    ).reshape(modes, modes, modes)
    return mass, stiff


def _fd_divergence(cu: np.ndarray, cv: np.ndarray, u: np.ndarray, v: np.ndarray, h: float):
    """div(cu*grad u + cv*grad v) on the midpoint grid with zero-flux faces."""
    fx = (0.5 * (cu[1:, :] + cu[:-1, :]) * (u[1:, :] - u[:-1, :])
          + 0.5 * (cv[1:, :] + cv[:-1, :]) * (v[1:, :] - v[:-1, :])) / h
    fy = (0.5 * (cu[:, 1:] + cu[:, :-1]) * (u[:, 1:] - u[:, :-1])
          + 0.5 * (cv[:, 1:] + cv[:, :-1]) * (v[:, 1:] - v[:, :-1])) / h
    div = np.zeros_like(u)
    div[:-1, :] += fx
    div[1:, :] -= fx
    div[:, :-1] += fy
    div[:, 1:] -= fy
    return div / h


def _fd_rhs(p: ModelParams, u: np.ndarray, v: np.ndarray, h: float):
    fc = flux_coeffs(p, u, v)
    f, g = reactions(p, u, v)
    du = _fd_divergence(fc.Pu, fc.Pv, u, v, h) + f
    dv = _fd_divergence(fc.Qu, fc.Qv, u, v, h) + g
    return du, dv


# The fd step bound keeps this margin below RK4's limit on the negative real
# axis, about -2.785 (Hairer & Wanner, Solving ODEs II, IV.2).
_FD_SAFETY = 0.9


def _fd_stability_dt(p: ModelParams, u: np.ndarray, v: np.ndarray, h: float) -> float:
    """RK4 step bound 0.9 * 2.785/8 * h^2 / max rho over the grid.

    The frozen-coefficient 5-point Neumann Laplacian has eigenvalues in
    [-8/h^2, 0]; rho = (Pu + Qv + sqrt((Pu - Qv)^2 + 4 Pv Qu))/2 is the
    spectral radius of the diffusion matrix [[Pu, Pv], [Qu, Qv]] (the abs
    keeps it finite if a field turns negative).
    """
    fc = flux_coeffs(p, u, v)
    rho = 0.5 * (fc.Pu + fc.Qv + np.sqrt(np.abs((fc.Pu - fc.Qv) ** 2 + 4.0 * fc.Pv * fc.Qu)))
    return _FD_SAFETY * 2.785 / 8.0 * h * h / float(np.max(rho))


def fd_reference(params: ModelParams, u0: np.ndarray, v0: np.ndarray, N: int,
                 t_end: float, dt: Optional[float] = None):
    """Flux-form finite-volume reference solution on an N x N midpoint grid.

    Second-order central differences with arithmetic-mean face coefficients,
    zero-flux boundary faces, explicit RK4 in time.  dt defaults to the
    _fd_stability_dt bound at the initial fields; every 25 steps the current
    fields are checked against RK4's limit (the bound without its margin).
    """
    if N < 16:
        raise ValueError(f"grid must be at least 16, got {N}")
    u = np.asarray(u0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    if u.shape != (N, N) or v.shape != (N, N):
        raise ValueError(f"initial fields must be ({N}, {N}), got {u.shape} and {v.shape}")
    if not t_end > 0:
        raise ValueError(f"t_end must be > 0, got {t_end}")
    h = np.pi / N
    bound = _fd_stability_dt(params, u, v, h)
    if dt is None:
        dt = bound
    elif dt > bound:
        raise ValueError(f"dt = {dt} violates the explicit stability bound {bound}")
    n_steps = max(1, math.ceil(t_end / dt - 1e-12))
    dt = t_end / n_steps

    for step in range(n_steps):
        if step % 25 == 0:
            if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
                raise RuntimeError(f"finite-volume state lost finiteness at step {step}")
            if _FD_SAFETY * dt > _fd_stability_dt(params, u, v, h):
                raise RuntimeError(
                    f"explicit stability bound violated mid-run at step {step} (flux growth)")
        k1u, k1v = _fd_rhs(params, u, v, h)
        k2u, k2v = _fd_rhs(params, u + 0.5 * dt * k1u, v + 0.5 * dt * k1v, h)
        k3u, k3v = _fd_rhs(params, u + 0.5 * dt * k2u, v + 0.5 * dt * k2v, h)
        k4u, k4v = _fd_rhs(params, u + dt * k3u, v + dt * k3v, h)
        u = u + (dt / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u)
        v = v + (dt / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
    return u, v


class PsiForms(NamedTuple):
    psi_u: object
    psi_v: object
    psi_d: object
    psi: object


def form_coefficients(p: ModelParams, cert: LyapunovCert):
    """(A, B, C) of the three gradient quadratic forms A|gu|^2 + B gu.gv + C|gv|^2."""
    lam, mu = cert.lam, cert.mu
    coeff_u = (p.alpha11 * lam,
               p.b11 * lam + (p.alpha11 + p.alpha21),
               p.b11 + p.alpha21 * mu)
    coeff_v = (p.alpha12 * lam + p.b22,
               (p.alpha12 + p.alpha22) + p.b22 * mu,
               p.alpha22 * mu)
    coeff_d = (p.d1 * lam, p.d1 + p.d2, p.d2 * mu)
    return {"u": coeff_u, "v": coeff_v, "d": coeff_d}


def eval_psi_forms(p: ModelParams, cert: LyapunovCert, u, v, gu, gv) -> PsiForms:
    """The three gradient quadratic forms and their density-weighted total.

    gu, gv are gradient vectors with the component axis last.  The total form
    psi is evaluated independently through the flux coefficients (flux dotted
    against the gradients of H_u and H_v), so the decomposition
    psi == u*psi_u + v*psi_v + psi_d is a nontrivial identity, not a tautology.
    """
    gu = np.asarray(gu, dtype=float)
    gv = np.asarray(gv, dtype=float)
    g2u = np.sum(gu * gu, axis=-1)
    guv = np.sum(gu * gv, axis=-1)
    g2v = np.sum(gv * gv, axis=-1)

    coeff = form_coefficients(p, cert)
    au, bu, cu = coeff["u"]
    av, bv, cv = coeff["v"]
    ad, bd, cd = coeff["d"]
    psi_u = au * g2u + bu * guv + cu * g2v
    psi_v = av * g2u + bv * guv + cv * g2v
    psi_d = ad * g2u + bd * guv + cd * g2v

    fc = flux_coeffs(p, u, v)
    flux_u = np.asarray(fc.Pu)[..., None] * gu + np.asarray(fc.Pv)[..., None] * gv
    flux_v = np.asarray(fc.Qu)[..., None] * gu + np.asarray(fc.Qv)[..., None] * gv
    grad_Hu = cert.lam * gu + gv
    grad_Hv = gu + cert.mu * gv
    psi = np.sum(flux_u * grad_Hu + flux_v * grad_Hv, axis=-1)
    return PsiForms(psi_u, psi_v, psi_d, psi)


def phi_cubic(p: ModelParams, cert: LyapunovCert, u, v):
    """The cubic form whose positivity makes H_u*f + H_v*g eventually negative."""
    c3, c2u, c2v, c0 = phi_coefficients(p, cert)
    return c3 * u**3 + c2u * u**2 * v + c2v * u * v**2 + c0 * v**3
