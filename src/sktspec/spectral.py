"""Orthonormal cosine basis on [0, pi]^2 and its transforms.

The basis functions are tensor products of 1-D normalized cosines,

    C_0(x) = 1/sqrt(pi),    C_a(x) = sqrt(2/pi) * cos(a x)  for a >= 1,
    phi_{j,k}(x, y) = C_j(x) * C_k(y),

which are orthonormal under the plain L2 inner product, satisfy zero-flux
boundary conditions exactly, and diagonalize the Laplacian:
-lap phi_{j,k} = (j^2 + k^2) phi_{j,k}.

The quadratic (flux and reaction) terms of the weak form are triple
products of these modes.  galerkin.RhsAssembler evaluates them by synthesis
on an exact quadrature grid; reference.build_tensors assembles them as
sparse tensors and reference.quadrature_tables by Gauss-Legendre
quadrature, the independent reference that tests check the solver against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "DOMAIN_LENGTH",
    "Basis",
    "SpectralState",
    "midpoint_nodes",
    "laplacian_eigenvalues",
    "synthesize",
    "analyze",
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


@lru_cache(maxsize=64)
def _midpoint_table(n: int, resolution: int) -> np.ndarray:
    """Basis(n).cos_table(midpoint_nodes(resolution)), built once and read-only."""
    table = Basis(n).cos_table(midpoint_nodes(resolution))
    table.flags.writeable = False
    return table


def synthesize(state: SpectralState, resolution: int):
    """Both species' fields on the midpoint grid; each indexed [ix, iy]."""
    if resolution < state.n + 1:
        raise ValueError(f"synthesis grid {resolution} too coarse for order {state.n}")
    table = _midpoint_table(state.n, resolution)
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
    table = _midpoint_table(n, resolution)
    cell = (DOMAIN_LENGTH / resolution) ** 2
    return cell * (table @ field @ table.T)
