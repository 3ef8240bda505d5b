"""Projection of the cross-diffusion system onto the cosine basis.

The weak form against a test mode phi is

    <du/dt, phi> = -<P, grad phi> + <f, phi>,       P = Pu grad u + Pv grad v,

with the boundary term dropped by the zero-flux condition.  RhsAssembler
evaluates it as an exact linear part at the spatial mean plus a quadratic
part in the deviation, which it synthesizes, multiplies pointwise and
projects on a midpoint grid fine enough to integrate it exactly.  rhs_oracle
evaluates the whole weak form in one piece on a finer grid.  Tests check
RhsAssembler against it and against the triple-product tensors of
reference.build_tensors.
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass

import numpy as np

from .model import ModelParams, coexistence_steady_state, flux_coeffs, reactions
from .spectral import (
    Basis,
    SpectralState,
    analyze,
    laplacian_eigenvalues,
    midpoint_nodes,
    synthesize,
)

__all__ = [
    "RhsAssembler",
    "block_product",
    "ProjectionReport",
    "rhs_oracle",
    "project_initial",
    "check_ic",
    "ic_field",
    "ic_coefficients",
]


def block_product(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-mode 2x2 blocks M (shape (2, 2) + S) applied to a pair x (shape (2,) + S)."""
    return M[:, 0] * x[0] + M[:, 1] * x[1]


class RhsAssembler:
    """Binds parameters to the transform tables of one truncation order.

    The state splits into its mean (mode (0, 0)) and a zero-mean deviation.
    The mean gives the reactions pi*(f, g)(u_bar, v_bar) on mode (0, 0) and a
    2x2 linear block per mode, -(j^2 + k^2) A + J, with A the cross-diffusion
    matrix and J the reaction Jacobian at the mean (derivative and rhs_flat
    return them beside the derivative; the time stepper integrates these
    blocks exactly).  The part quadratic in the deviation is synthesized on the
    midpoint grid of R = floor(3n/2) + 1 points per axis, formed pointwise,
    and projected back.  Its integrands are trigonometric of degree at most 3n < 2R per
    axis, so the midpoint rule integrates them exactly (the 3/2 rule).  A
    homogeneous state has a zero deviation and so gets exact zeros off the
    mean mode.

    The reference state y* is pi*(u*, v*) on mode (0, 0), with (u*, v*) the
    coexistence state; reference holds its two coefficients as Python
    floats, or None where the parameters have no coexistence state (y* = 0)
    and on the copy that unshifted makes.  With a reference, the block of
    mode (0, 0) is J, so that a Lawson step of y - y* sees no nonlinear
    part at y*; without one, that block is zero.  derivative reads states y,
    and rhs_flat, the time stepper's call, reads deviations y - y*
    (relative makes them and absolute undoes them).
    """

    def __init__(self, params: ModelParams, n: int):
        params.validate()
        self.params = params
        self.n = n
        nodes = midpoint_nodes(3 * n // 2 + 1)
        basis = Basis(n)
        self._C = basis.cos_table(nodes)
        self._D = basis.dcos_table(nodes)
        self._cell = (np.pi / nodes.size) ** 2
        self._eig = laplacian_eigenvalues(n).reshape(n + 1, n + 1)
        # Per-species coefficients of the quadratic part, shaped to broadcast
        # over (species, member, grid, grid).
        p = params
        self._alpha = np.array([[p.alpha11, p.alpha12], [p.alpha21, p.alpha22]]).reshape(2, 2, 1, 1, 1)
        self._cross, self._self_rate, self._other_rate = np.array(
            [[p.b11, p.b22], [p.b1, p.c2], [p.c1, p.b2]]).reshape(3, 2, 1, 1, 1)
        star = coexistence_steady_state(p)
        self.reference = None if star is None else (np.pi * star[0], np.pi * star[1])

    @classmethod
    def for_order(cls, params: ModelParams, n: int) -> "RhsAssembler":
        return cls(params, n)

    def unshifted(self) -> "RhsAssembler":
        """This assembler without a reference state; it shares the tables."""
        plain = copy.copy(self)
        plain.reference = None
        return plain

    def _mean_terms(self, mu: np.ndarray, shift):
        """The linear blocks and the mean-mode reactions of a batch at its means.

        mu has shape (2, B, n+1, n+1), and member b's means (u_bar, v_bar)
        are (mu[:, b, 0, 0] + shift) / pi, shift a pair of floats or None for
        none.  Returns L of
        shape (2, 2, B, n+1, n+1), where L[:, :, b, j, k] is the block
        -(j^2 + k^2) A + J of member b at its (u_bar, v_bar), with A the
        cross-diffusion matrix and J the reaction Jacobian, so that the
        linear part of the derivative of species r is L[r, 0] mu1 + L[r, 1] mu2;
        the block of mode (0, 0) is J, or zero where there is no y*.  Also
        returns pi*(f, g)(u_bar, v_bar), shape (2, B).  The scalars, the
        shift included, are formed per member in Python floats: on one
        member that costs less than numpy scalars.
        """
        p = self.params
        u_ref, v_ref = shift or (0.0, 0.0)
        rows = []
        for u_mode, v_mode in zip(*mu[:, :, 0, 0].tolist()):
            u, v = (u_mode + u_ref) / np.pi, (v_mode + v_ref) / np.pi
            fc = flux_coeffs(p, u, v)
            f, g = reactions(p, u, v)
            rows.append((fc.Pu, fc.Pv, fc.Qu, fc.Qv,
                         p.a1 - 2.0 * p.b1 * u + p.c1 * v, p.c1 * u,
                         p.b2 * v, p.a2 + p.b2 * u - 2.0 * p.c2 * v,
                         np.pi * f, np.pi * g))
        terms = np.array(rows).T
        A = terms[:4].reshape(2, 2, -1, 1, 1)
        J = terms[4:8].reshape(2, 2, -1, 1, 1)
        L = J - A * self._eig
        if self.reference is None:
            L[..., 0, 0] = 0.0
        return L, terms[8:]

    def relative(self, y: np.ndarray) -> np.ndarray:
        """A new array holding y - y*: the input rhs_flat reads for the state y."""
        z = y.copy()
        if self.reference is not None:
            z[0, :, 0, 0] -= self.reference[0]
            z[1, :, 0, 0] -= self.reference[1]
        return z

    def absolute(self, z: np.ndarray) -> np.ndarray:
        """The states z + y* of deviations z, formed in place: relative undone."""
        if self.reference is not None:
            z[0, :, 0, 0] += self.reference[0]
            z[1, :, 0, 0] += self.reference[1]
        return z

    # perfbench/spans.py wraps this method by its name and calls the wrapper
    # as wrapper(assembler, z), so the name and the one-argument call stay.
    def rhs_flat(self, z: np.ndarray):
        """derivative at the states z + y* of a batch of deviations z = relative(y)."""
        return self.derivative(z, self.reference)

    def derivative(self, y: np.ndarray, shift=None):
        """Derivative F and linear blocks L of a species-leading batch y, shape (2, B, n+1, n+1).

        Member b's means are (y[:, b, 0, 0] + shift) / pi: y holds the
        states themselves when shift is None.  F has the shape of y, and each
        member's F is bit for bit the one it gets in a batch of one.  L, shape
        (2, 2, B, n+1, n+1), holds the blocks at each member's mean (see
        _mean_terms); the time stepper takes them as the next step's frozen
        linear part.  The linear part of F acts on the zero-mean deviation
        only, so the shift only places the means.  y is not changed.
        """
        C, D = self._C, self._D
        mu = y.copy()
        L, mean_reactions = self._mean_terms(mu, shift)
        mu[:, :, 0, 0] = 0.0

        # Linear part at the mean.
        out = block_product(L, mu)
        out[:, :, 0, 0] += mean_reactions

        # Quadratic part of the deviation, by the 3/2-rule grid: g holds
        # (u, v), gx and gy their derivatives, and species r is paired with
        # the other one through g[::-1].
        cm = C.T @ mu
        g = cm @ C
        gx = (D.T @ mu) @ C
        gy = cm @ D
        s = block_product(self._alpha, g)
        bg = self._cross * g
        px = s * gx + bg * gx[::-1]
        py = s * gy + bg * gy[::-1]
        r = g * (self._self_rate * g - self._other_rate * g[::-1])
        out -= self._cell * (D @ px @ C.T + C @ (py @ D.T + r @ C.T))
        return out, L

    def rhs(self, state: SpectralState):
        """(dmu1, dmu2) of one state: derivative on a batch of one."""
        if state.n != self.n:
            raise ValueError(f"state order {state.n} does not match assembler order {self.n}")
        F, _ = self.derivative(np.stack([state.mu1, state.mu2])[:, None])
        return F[0, 0], F[1, 0]


def rhs_oracle(params: ModelParams, state: SpectralState, resolution: int):
    """Grid-quadrature evaluation of the weak form, independent of the tensors.

    Synthesizes fields and gradients on the midpoint grid, builds the fluxes
    pointwise, and projects -P.grad(phi) + f*phi mode by mode.  The midpoint
    rule is exact for the band-limited integrands once resolution >= 4(n+1),
    so this matches rhs to roundoff.
    """
    n = state.n
    if resolution < 4 * (n + 1):
        raise ValueError(f"oracle resolution {resolution} below 4(n+1) = {4 * (n + 1)}")
    p = params
    basis = Basis(n)
    nodes = midpoint_nodes(resolution)
    C = basis.cos_table(nodes)
    D = basis.dcos_table(nodes)

    u = C.T @ state.mu1 @ C
    v = C.T @ state.mu2 @ C
    ux = D.T @ state.mu1 @ C
    uy = C.T @ state.mu1 @ D
    vx = D.T @ state.mu2 @ C
    vy = C.T @ state.mu2 @ D

    fc = flux_coeffs(p, u, v)
    Px, Py = fc.Pu * ux + fc.Pv * vx, fc.Pu * uy + fc.Pv * vy
    Qx, Qy = fc.Qu * ux + fc.Qv * vx, fc.Qu * uy + fc.Qv * vy
    f, g = reactions(p, u, v)

    cell = (np.pi / resolution) ** 2
    dmu1 = cell * (-(D @ Px @ C.T) - (C @ Py @ D.T) + C @ f @ C.T)
    dmu2 = cell * (-(D @ Qx @ C.T) - (C @ Qy @ D.T) + C @ g @ C.T)
    return dmu1, dmu2


def check_ic(ic):
    """Return ic unchanged, or raise ValueError naming its first bad number.

    Every number of a descriptor (and every value of a grid field) must be
    finite, a cosine term's wavenumbers j and k must be nonnegative integers,
    and a Gaussian's sigma must be positive.
    """
    if not isinstance(ic, dict):
        if not np.all(np.isfinite(np.asarray(ic, dtype=float))):
            raise ValueError("initial field has non-finite values")
        return ic
    kind = ic.get("type")
    if kind == "constant":
        numbers = {"value": ic["value"] if "value" in ic else ic.get("u")}
    elif kind == "cosine":
        numbers = {"offset": ic.get("offset", 0.0)}
        terms = ic.get("terms")
        if not (isinstance(terms, list) and all(isinstance(t, dict) for t in terms)):
            raise ValueError(f"cosine initial condition: terms must be a list of objects, got {terms!r}")
        for i, term in enumerate(terms):
            numbers.update({f"terms[{i}].{key}": term.get(key) for key in ("amp", "j", "k")})
    elif kind == "gaussian":
        numbers = {key: ic.get(key) for key in ("cx", "cy", "sigma", "amp")}
        numbers["offset"] = ic.get("offset", 0.0)
    else:
        raise ValueError(f"unknown initial-condition type {kind!r}")
    for key, raw in numbers.items():
        try:
            value = float(raw)
        except (TypeError, ValueError):
            raise ValueError(f"{kind} initial condition: {key} must be a number, got {raw!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{kind} initial condition: {key} must be finite, got {value}")
        if key.endswith((".j", ".k")) and (isinstance(raw, bool) or not value.is_integer()):
            raise ValueError(f"{kind} initial condition: {key} must be an integer, got {raw!r}")
        if key.endswith((".j", ".k")) and value < 0:
            raise ValueError(f"{kind} initial condition: {key} must be >= 0, got {raw!r}")
    if kind == "gaussian" and float(ic["sigma"]) <= 0.0:
        raise ValueError(f"gaussian initial condition: sigma must be > 0, got {float(ic['sigma'])}")
    return ic


def ic_field(ic, resolution: int) -> np.ndarray:
    """Evaluate an initial-condition descriptor (or pass through a grid field).

    Descriptors: {"type": "constant", "value": c} (key "u" accepted as an
    alias), {"type": "cosine", "offset": c, "terms": [{"j", "k", "amp"}]},
    {"type": "gaussian", "cx", "cy", "sigma", "amp", "offset"}.  Bad numbers
    are rejected by check_ic.
    """
    check_ic(ic)
    if isinstance(ic, np.ndarray):
        return ic
    if not isinstance(ic, dict):
        return np.asarray(ic, dtype=float)
    kind = ic["type"]
    x = midpoint_nodes(resolution)[:, None]
    y = midpoint_nodes(resolution)[None, :]
    if kind == "constant":
        value = float(ic["value"] if "value" in ic else ic["u"])
        return np.full((resolution, resolution), value)
    if kind == "cosine":
        field = np.full((resolution, resolution), float(ic.get("offset", 0.0)))
        for term in ic["terms"]:
            field = field + float(term["amp"]) * np.cos(int(term["j"]) * x) * np.cos(int(term["k"]) * y)
        return field
    r2 = (x - float(ic["cx"])) ** 2 + (y - float(ic["cy"])) ** 2  # gaussian
    return float(ic.get("offset", 0.0)) + float(ic["amp"]) * np.exp(-r2 / (2.0 * float(ic["sigma"]) ** 2))


def ic_coefficients(ic, n: int):
    """Exact coefficients for analytically representable descriptors, else None.

    Constant and cosine descriptors land exactly on basis modes; the Gaussian
    needs quadrature and returns None here.
    """
    if not isinstance(ic, dict):
        return None
    eta = Basis(n).norm1d()
    width = n + 1
    if ic.get("type") == "constant":
        mu = np.zeros((width, width))
        value = float(ic["value"] if "value" in ic else ic["u"])
        mu[0, 0] = value * np.pi
        return mu
    if ic.get("type") == "cosine":
        mu = np.zeros((width, width))
        mu[0, 0] = float(ic.get("offset", 0.0)) * np.pi
        for term in ic["terms"]:
            j, k = int(term["j"]), int(term["k"])
            if not (0 <= j <= n and 0 <= k <= n):
                raise ValueError(f"cosine term ({j}, {k}) beyond truncation order {n}")
            mu[j, k] += float(term["amp"]) / (eta[j] * eta[k])
        return mu
    return None


@dataclass(frozen=True)
class ProjectionReport:
    """Minima of the synthesized truncated fields (negativity is reported, not clipped)."""

    min_u: float
    min_v: float
    resolution: int

    def to_dict(self) -> dict:
        return asdict(self)


def _project_one(ic, n: int, resolution: int, label: str) -> np.ndarray:
    field = ic_field(ic, resolution)
    lo = float(field.min())
    # Tolerate synthesis roundoff at zero, nothing more.
    if lo < -1e-12 * max(1.0, float(np.abs(field).max())):
        raise ValueError(f"initial field for {label} has negative values (min = {lo})")
    exact = ic_coefficients(ic, n)
    return exact if exact is not None else analyze(field, n)


def project_initial(u0, v0, n: int):
    """Project initial data onto the order-n basis.

    Returns (state at t=0, ProjectionReport).  Grid fields are transformed by
    quadrature; constant/cosine descriptors are placed exactly on their modes;
    Gaussians are sampled at the diagnostic resolution 4(n+1) and transformed.
    """
    resolution = 4 * (n + 1)
    mu1 = _project_one(u0, n, resolution, "u")
    mu2 = _project_one(v0, n, resolution, "v")
    state = SpectralState(mu1, mu2, t=0.0)
    su, sv = synthesize(state, resolution)
    report = ProjectionReport(float(su.min()), float(sv.min()), resolution)
    return state, report
