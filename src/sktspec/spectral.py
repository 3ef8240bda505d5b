"""Orthonormal cosine basis on [0, pi]^2, transforms, and triple-product tensors.

The basis functions are tensor products of 1-D normalized cosines,

    C_0(x) = 1/sqrt(pi),    C_a(x) = sqrt(2/pi) * cos(a x)  for a >= 1,
    phi_{j,k}(x, y) = C_j(x) * C_k(y),

which are orthonormal under the plain L2 inner product, satisfy zero-flux
boundary conditions exactly, and diagonalize the Laplacian:
-lap phi_{j,k} = (j^2 + k^2) phi_{j,k}.

The quadratic (flux and reaction) terms of the weak form are the triple
products

    mass3 [(l,m), (lt,mt), (jt,kt)] = int phi_{l,m} phi_{lt,mt} phi_{jt,kt}
    stiff3[(l,m), (lt,mt), (jt,kt)] = int phi_{l,m} grad phi_{lt,mt} . grad phi_{jt,kt}

Both factorize into 1-D integrals of cos*cos*cos (and cos*sin*sin for the
derivative factor), which reduce to Kronecker deltas: the 1-D mass factor is
nonzero only when the third index equals the sum or the absolute difference of
the first two.  That selection rule keeps the tensors sparse, O(n^4) nonzeros.
The solver does not use them: galerkin.RhsAssembler evaluates the same
integrals by synthesis on an exact quadrature grid.  build_tensors and the
quadrature oracle are kept as the independent reference that tests check the
solver against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DOMAIN_LENGTH",
    "Basis",
    "SpectralState",
    "TripleTensors",
    "midpoint_nodes",
    "laplacian_eigenvalues",
    "synthesize",
    "analyze",
    "build_tensors",
    "quadrature_oracle",
    "quadrature_tables",
]

DOMAIN_LENGTH = np.pi


def midpoint_nodes(resolution: int) -> np.ndarray:
    """Cell midpoints of a uniform grid on [0, pi]."""
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    return (np.arange(resolution) + 0.5) * (DOMAIN_LENGTH / resolution)


@dataclass(frozen=True)
class Basis:
    """Cosine basis truncated at order n (modes 0..n per axis)."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"basis order must be >= 0, got {self.n}")

    def norm1d(self) -> np.ndarray:
        """1-D normalization factors eta_a, a = 0..n."""
        eta = np.full(self.n + 1, np.sqrt(2.0 / np.pi))
        eta[0] = 1.0 / np.sqrt(np.pi)
        return eta

    def cos_table(self, nodes: np.ndarray) -> np.ndarray:
        """C[a, i] = eta_a * cos(a * nodes[i]), shape (n+1, len(nodes))."""
        a = np.arange(self.n + 1)[:, None]
        return self.norm1d()[:, None] * np.cos(a * np.asarray(nodes)[None, :])

    def dcos_table(self, nodes: np.ndarray) -> np.ndarray:
        """d/dx of cos_table: -a * eta_a * sin(a * nodes[i])."""
        a = np.arange(self.n + 1)[:, None]
        return -a * self.norm1d()[:, None] * np.sin(a * np.asarray(nodes)[None, :])

    def mode(self, j: int, k: int, x, y):
        """phi_{j,k} evaluated at broadcastable point arrays."""
        eta = self.norm1d()
        return eta[j] * np.cos(j * np.asarray(x)) * eta[k] * np.cos(k * np.asarray(y))

    def grad_mode(self, j: int, k: int, x, y):
        """(d/dx, d/dy) of phi_{j,k} at broadcastable point arrays."""
        eta = self.norm1d()
        x = np.asarray(x)
        y = np.asarray(y)
        gx = -j * eta[j] * np.sin(j * x) * eta[k] * np.cos(k * y)
        gy = eta[j] * np.cos(j * x) * (-k) * eta[k] * np.sin(k * y)
        return gx, gy


def laplacian_eigenvalues(n: int) -> np.ndarray:
    """Flat (n+1)^2 vector of j^2 + k^2 in row-major (j, k) order."""
    j = np.arange(n + 1)
    return (j[:, None] ** 2 + j[None, :] ** 2).ravel().astype(float)


@dataclass
class SpectralState:
    """Coefficient arrays of both species; mu[j, k] multiplies phi_{j,k}."""

    mu1: np.ndarray
    mu2: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.mu1 = np.asarray(self.mu1, dtype=float)
        self.mu2 = np.asarray(self.mu2, dtype=float)
        if self.mu1.shape != self.mu2.shape:
            raise ValueError(f"coefficient shapes differ: {self.mu1.shape} vs {self.mu2.shape}")
        if self.mu1.ndim != 2 or self.mu1.shape[0] != self.mu1.shape[1]:
            raise ValueError(f"coefficient arrays must be square, got {self.mu1.shape}")

    @property
    def n(self) -> int:
        return self.mu1.shape[0] - 1

    def copy(self) -> "SpectralState":
        return SpectralState(self.mu1.copy(), self.mu2.copy(), self.t)

    @classmethod
    def zeros(cls, n: int, t: float = 0.0) -> "SpectralState":
        return cls(np.zeros((n + 1, n + 1)), np.zeros((n + 1, n + 1)), t)


def synthesize(state: SpectralState, resolution: int):
    """Both species' fields on the midpoint grid; each indexed [ix, iy]."""
    if resolution < state.n + 1:
        raise ValueError(f"synthesis grid {resolution} too coarse for order {state.n}")
    table = Basis(state.n).cos_table(midpoint_nodes(resolution))
    return table.T @ state.mu1 @ table, table.T @ state.mu2 @ table


def analyze(field: np.ndarray, n: int) -> np.ndarray:
    """Coefficients of a gridded field against the order-n basis.

    Uses the midpoint rule, which is exact for integrands band-limited below
    twice the grid resolution; the resolution floor 2*(n+1) keeps the rule
    trustworthy for fields with moderate content above the truncation.
    """
    field = np.asarray(field, dtype=float)
    if field.ndim != 2 or field.shape[0] != field.shape[1]:
        raise ValueError(f"field must be square, got shape {field.shape}")
    resolution = field.shape[0]
    if resolution < 2 * (n + 1):
        raise ValueError(
            f"analysis resolution too low: {resolution} < 2*(n+1) = {2 * (n + 1)}"
        )
    table = Basis(n).cos_table(midpoint_nodes(resolution))
    cell = (DOMAIN_LENGTH / resolution) ** 2
    return cell * (table @ field @ table.T)


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

    @property
    def stiff_nnz(self) -> int:
        return self.s_val.size


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
# with frequency at most 3n per axis; the default point count is generous.

def _gauss_nodes(n: int, rule_points: int | None):
    m = rule_points if rule_points is not None else max(3 * n + 2, 48)
    t, w = np.polynomial.legendre.leggauss(m)
    return (t + 1.0) * (DOMAIN_LENGTH / 2.0), w * (DOMAIN_LENGTH / 2.0)


def quadrature_oracle(n, indices, kind="mass", rule_points=None) -> float:
    """One tensor entry by literal 2-D quadrature over a Gauss-Legendre grid.

    indices = ((l, m), (lt, mt), (jt, kt)); kind selects mass3 or stiff3.
    """
    (l, m), (lt, mt), (jt, kt) = indices
    basis = Basis(n)
    x, w = _gauss_nodes(n, rule_points)
    X, Y = np.meshgrid(x, x, indexing="ij")
    W = np.outer(w, w)
    coeff = basis.mode(l, m, X, Y)
    if kind == "mass":
        integrand = coeff * basis.mode(lt, mt, X, Y) * basis.mode(jt, kt, X, Y)
    elif kind == "stiff":
        bx, by = basis.grad_mode(lt, mt, X, Y)
        cx, cy = basis.grad_mode(jt, kt, X, Y)
        integrand = coeff * (bx * cx + by * cy)
    else:
        raise ValueError(f"kind must be 'mass' or 'stiff', got {kind!r}")
    return float(np.sum(W * integrand))


def quadrature_tables(n: int, rule_points: int | None = None):
    """Dense (modes, modes, modes) mass3/stiff3 by tensor-product quadrature.

    Same quadrature rule as quadrature_oracle, vectorized through the 1-D
    factorization of the quadrature sum; intended for full-census tests.
    """
    basis = Basis(n)
    x, w = _gauss_nodes(n, rule_points)
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

