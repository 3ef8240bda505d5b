"""Adaptive time integration, run orchestration, and cross-validation solvers.

The coefficient ODE system is advanced with an embedded Dormand-Prince 5(4)
pair: FSAL stage reuse, PI step-size control, and a weighted max-norm error
test err = max |e_i| / (atol + rtol*max(|y_i|, |y_new_i|)) <= 1.  Runs record
diagnostics on a fixed snapshot cadence and classify the outcome as
steady_state, t_max_reached, blow_up, or step_budget_exhausted.  A flux-form
finite-volume solver on the same domain provides an independent reference
discretization.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .galerkin import RhsAssembler, project_initial
from .lyapunov import LyapunovCert, PreconditionError, eval_H, eval_L, find_certificate
from .model import ModelParams, check_conditions, flux_coeffs, params_to_dict, reactions
from .spectral import SpectralState, synthesize

__all__ = [
    "RunConfig",
    "RunResult",
    "DiagnosticRecord",
    "StepUnderflow",
    "step_adaptive",
    "run",
    "diagnostics",
    "fd_reference",
    "write_snapshot",
    "read_snapshot",
    "save_run",
]

OUTCOME_STEADY = "steady_state"
OUTCOME_TMAX = "t_max_reached"
OUTCOME_BLOWUP = "blow_up"
OUTCOME_BUDGET = "step_budget_exhausted"

# Dormand-Prince 5(4) tableau; E = 5th-order weights minus embedded 4th-order.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

_UNDERFLOW_FLOOR = 1e-14
_FAC_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0
# PI exponents for a 5th-order error estimate.
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0


class StepUnderflow(RuntimeError):
    """Step size collapsed below the resolvable scale: stiffness or blow-up."""


def _error_norm(e: np.ndarray, y: np.ndarray, y_new: np.ndarray, rtol: float, atol: float) -> float:
    sc = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
    return float(np.max(np.abs(e) / sc))


def _attempt(fun, y: np.ndarray, dt: float, k1: Optional[np.ndarray]):
    """One trial step: returns (y_new, error vector, first stage, last stage)."""
    k = [None] * 7
    k[0] = fun(y) if k1 is None else k1
    for i in range(1, 7):
        yi = y + dt * sum(a * k[j] for j, a in enumerate(_DP_A[i]))
        k[i] = fun(yi)
    y_new = y + dt * sum(b * k[j] for j, b in enumerate(_DP_B) if b != 0.0)
    # FSAL: the 7th stage was evaluated at y_new itself.
    err_vec = dt * sum(e * k[j] for j, e in enumerate(_DP_E) if e != 0.0)
    return y_new, err_vec, k[0], k[6]


def _step_core(fun, t: float, y: np.ndarray, dt_try: float, rtol: float, atol: float,
               err_prev: Optional[float], dt_max: float, k1: Optional[np.ndarray]):
    """Advance one accepted step; returns (y_new, dt_used, dt_next, err, k_last)."""
    dt = min(dt_try, dt_max)
    rejected = False
    while True:
        if dt < _UNDERFLOW_FLOOR * max(1.0, abs(t)):
            raise StepUnderflow(f"step size {dt} underflowed at t = {t}")
        y_new, err_vec, k1, k_last = _attempt(fun, y, dt, k1)
        if not np.all(np.isfinite(y_new)):
            err = math.inf
        else:
            err = _error_norm(err_vec, y, y_new, rtol, atol)
        if err <= 1.0:
            break
        rejected = True
        shrink = max(0.1, _FAC_SAFETY * (err ** -0.2)) if math.isfinite(err) else 0.1
        dt *= min(shrink, 1.0)

    err_ctl = max(err, 1e-10)
    fac = _FAC_SAFETY * err_ctl ** (-_PI_ALPHA)
    if err_prev is not None:
        fac *= max(err_prev, 1e-10) ** _PI_BETA
    fac = min(_FAC_MAX if not rejected else 1.0, max(_FAC_MIN, fac))
    dt_next = min(dt * fac, dt_max)
    return y_new, dt, dt_next, err, k_last


def _pack(state: SpectralState) -> np.ndarray:
    return np.concatenate([state.mu1.ravel(), state.mu2.ravel()])


def _unpack(y: np.ndarray, n: int, t: float) -> SpectralState:
    w = n + 1
    m = w * w
    return SpectralState(y[:m].reshape(w, w).copy(), y[m:].reshape(w, w).copy(), t)


def step_adaptive(assembler: RhsAssembler, state: SpectralState, dt_suggest: float,
                  rtol: float, atol: float, err_prev: Optional[float] = None,
                  dt_max: float = math.inf):
    """One accepted embedded RK 5(4) step of the coefficient system.

    Returns (new state, dt_used, dt_next, err_est).  err_prev feeds the PI
    controller; callers chaining steps should pass the previous err_est.
    Raises StepUnderflow when the error control collapses the step.
    """
    if not (rtol > 0 and atol > 0):
        raise ValueError(f"tolerances must be positive, got rtol={rtol}, atol={atol}")
    if not dt_suggest > 0:
        raise ValueError(f"dt_suggest must be positive, got {dt_suggest}")
    y = _pack(state)
    y_new, dt_used, dt_next, err, _ = _step_core(
        assembler.rhs_flat, state.t, y, dt_suggest, rtol, atol, err_prev, dt_max, None)
    return _unpack(y_new, state.n, state.t + dt_used), dt_used, dt_next, err


@dataclass(frozen=True)
class RunConfig:
    n: int = 8
    t_max: float = 200.0
    rtol: float = 1e-7
    atol: float = 1e-10
    snapshot_dt: float = 1.0
    steady_tol: float = 1e-8
    blowup_threshold: float = 1e6
    max_steps: int = 200_000
    seed: int = 0

    def validate(self) -> "RunConfig":
        if self.n < 0:
            raise ValueError(f"truncation order must be >= 0, got {self.n}")
        for name in ("rtol", "atol", "steady_tol", "blowup_threshold"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not self.t_max > 0:
            raise ValueError(f"t_max must be > 0, got {self.t_max}")
        if not 0 < self.snapshot_dt <= self.t_max:
            raise ValueError(
                f"snapshot_dt must lie in (0, t_max], got {self.snapshot_dt} with t_max={self.t_max}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        return self

    def to_dict(self) -> dict:
        return {
            "n": self.n, "t_max": self.t_max, "rtol": self.rtol, "atol": self.atol,
            "snapshot_dt": self.snapshot_dt, "steady_tol": self.steady_tol,
            "blowup_threshold": self.blowup_threshold, "max_steps": self.max_steps,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class DiagnosticRecord:
    t: float
    mass_u: float
    mass_v: float
    min_u: float
    max_u: float
    min_v: float
    max_v: float
    max_H: float
    L_value: float
    rhs_norm: float

    def to_dict(self) -> dict:
        return {
            "t": self.t, "mass_u": self.mass_u, "mass_v": self.mass_v,
            "min_u": self.min_u, "max_u": self.max_u,
            "min_v": self.min_v, "max_v": self.max_v,
            "max_H": self.max_H, "L_value": self.L_value, "rhs_norm": self.rhs_norm,
        }


@dataclass
class RunResult:
    outcome: str
    final_state: SpectralState
    timeseries: list
    snapshots: list
    conditions: object
    cert: Optional[LyapunovCert]
    level: float
    projection: object
    config: RunConfig
    params: ModelParams
    n_steps: int = 0

    def summary(self) -> dict:
        last = self.timeseries[-1]
        return {
            "outcome": self.outcome,
            "final_time": self.final_state.t,
            "n_steps": self.n_steps,
            "final_diagnostics": last.to_dict(),
        }


def diagnostics(assembler: RhsAssembler, state: SpectralState,
                cert: Optional[LyapunovCert] = None, level: float = 0.0,
                resolution: Optional[int] = None) -> DiagnosticRecord:
    """Synthesized-field diagnostics at one instant.

    Masses come from the constant mode (mu_00 * pi); extrema, max_H, and the
    level-set functional L are read off the diagnostic grid (4(n+1) per axis
    by default); rhs_norm is the Frobenius norm over both coefficient arrays.
    """
    res = resolution if resolution is not None else 4 * (state.n + 1)
    u, v = synthesize(state, res)
    d1, d2 = assembler.rhs(state)
    rhs_norm = math.sqrt(float(np.sum(d1 * d1) + np.sum(d2 * d2)))
    if cert is not None:
        max_H = float(np.max(eval_H(cert, u, v).H))
        L_value = eval_L(cert, u, v, level, (np.pi / res) ** 2)
    else:
        max_H = 0.0
        L_value = 0.0
    return DiagnosticRecord(
        t=state.t,
        mass_u=float(state.mu1[0, 0] * np.pi),
        mass_v=float(state.mu2[0, 0] * np.pi),
        min_u=float(u.min()), max_u=float(u.max()),
        min_v=float(v.min()), max_v=float(v.max()),
        max_H=max_H, L_value=L_value, rhs_norm=rhs_norm,
    )


def _sup_bound(y: np.ndarray, m: int) -> float:
    # sup|field| <= (2/pi) * sum|mu| since every |phi_jk| <= 2/pi.
    return (2.0 / np.pi) * max(float(np.sum(np.abs(y[:m]))), float(np.sum(np.abs(y[m:]))))


def run(params: ModelParams, config: RunConfig, ic_u, ic_v) -> RunResult:
    """Integrate from projected initial data and classify the outcome.

    The condition report and (when the search applies) a certificate are
    attached to the result; the level for the L functional is the max of H
    over the initial fields.  Steady state requires the RHS norm to sit below
    steady_tol*(1 + state norm) at two consecutive snapshots.
    """
    config.validate()
    conditions = check_conditions(params)
    try:
        cert = find_certificate(params)
    except PreconditionError:
        cert = None

    state, projection = project_initial(ic_u, ic_v, config.n)
    assembler = RhsAssembler.for_order(params, config.n)
    res = 4 * (config.n + 1)
    m = (config.n + 1) ** 2

    if cert is not None:
        u0, v0 = synthesize(state, res)
        level = float(np.max(eval_H(cert, u0, v0).H))
    else:
        level = 0.0

    record = diagnostics(assembler, state, cert, level, res)
    timeseries = [record]
    snapshots = [state.copy()]
    streak = 1 if record.rhs_norm < config.steady_tol * (1.0 + _state_norm(state)) else 0

    targets = [i * config.snapshot_dt for i in range(1, int(config.t_max / config.snapshot_dt + 1e-9) + 1)]
    if not targets or targets[-1] < config.t_max - 1e-12 * config.t_max:
        targets.append(config.t_max)

    y = _pack(state)
    t = 0.0
    dt_next = min(0.01, config.snapshot_dt)
    err_prev = None
    k1 = None
    n_steps = 0
    outcome = OUTCOME_TMAX

    def finish(outc, yy, tt):
        return RunResult(outc, _unpack(yy, config.n, tt), timeseries, snapshots,
                         conditions, cert, level, projection, config, params, n_steps)

    for t_target in targets:
        while t < t_target - 1e-12 * max(1.0, t_target):
            if n_steps >= config.max_steps:
                return finish(OUTCOME_BUDGET, y, t)
            try:
                y_new, dt_used, dt_next, err_prev, k_last = _step_core(
                    assembler.rhs_flat, t, y, dt_next, config.rtol, config.atol,
                    err_prev, t_target - t, k1)
            except StepUnderflow:
                return finish(OUTCOME_BLOWUP, y, t)
            if not np.all(np.isfinite(y_new)):
                return finish(OUTCOME_BLOWUP, y, t)
            y, t, k1 = y_new, t + dt_used, k_last
            n_steps += 1
            if _sup_bound(y, m) > config.blowup_threshold:
                fields = synthesize(_unpack(y, config.n, t), res)
                if max(float(np.abs(fields[0]).max()), float(np.abs(fields[1]).max())) > config.blowup_threshold:
                    return finish(OUTCOME_BLOWUP, y, t)

        state = _unpack(y, config.n, t_target)
        record = diagnostics(assembler, state, cert, level, res)
        timeseries.append(record)
        snapshots.append(state.copy())
        if record.rhs_norm < config.steady_tol * (1.0 + _state_norm(state)):
            streak += 1
            if streak >= 2:
                return finish(OUTCOME_STEADY, y, t_target)
        else:
            streak = 0

    return finish(outcome, y, targets[-1] if targets else 0.0)


def _state_norm(state: SpectralState) -> float:
    return math.sqrt(float(np.sum(state.mu1**2) + np.sum(state.mu2**2)))


def _fd_divergence(cu: np.ndarray, cv: np.ndarray, u: np.ndarray, v: np.ndarray, h: float):
    """div(cu*grad u + cv*grad v) on the midpoint grid with zero-flux faces."""
    N = u.shape[0]
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


def _fd_stability_dt(p: ModelParams, u: np.ndarray, v: np.ndarray, h: float) -> float:
    fc = flux_coeffs(p, u, v)
    peak = max(float(np.max(fc.Pu)), float(np.max(fc.Qv)))
    return 0.2 * h * h / peak


def fd_reference(params: ModelParams, u0: np.ndarray, v0: np.ndarray, N: int,
                 t_end: float, dt: Optional[float] = None):
    """Flux-form finite-volume reference solution on an N x N midpoint grid.

    Second-order central differences with arithmetic-mean face coefficients,
    zero-flux boundary faces, explicit RK4 in time.  dt defaults to half the
    explicit stability estimate 0.2 h^2 / max(Pu, Qv) from the initial fields
    and is re-validated against the current fields during the run.
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
        dt = 0.5 * bound
    elif dt > bound:
        raise ValueError(f"dt = {dt} violates the explicit stability bound {bound}")
    n_steps = max(1, math.ceil(t_end / dt - 1e-12))
    dt = t_end / n_steps

    for step in range(n_steps):
        if step % 25 == 0:
            if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
                raise RuntimeError(f"finite-volume state lost finiteness at step {step}")
            if dt > _fd_stability_dt(params, u, v, h):
                raise RuntimeError(
                    f"explicit stability bound violated mid-run at step {step} (flux growth)")
        k1u, k1v = _fd_rhs(params, u, v, h)
        k2u, k2v = _fd_rhs(params, u + 0.5 * dt * k1u, v + 0.5 * dt * k1v, h)
        k3u, k3v = _fd_rhs(params, u + 0.5 * dt * k2u, v + 0.5 * dt * k2v, h)
        k4u, k4v = _fd_rhs(params, u + dt * k3u, v + dt * k3v, h)
        u = u + (dt / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u)
        v = v + (dt / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
    return u, v


def write_snapshot(path, t: float, n: int, field: np.ndarray) -> None:
    """Headered text grid; rows run over y, columns over x."""
    field = np.asarray(field)
    N = field.shape[0]
    with open(path, "w") as fh:
        fh.write(f"t={t!r} n={n} grid={N}\n")
        for iy in range(N):
            fh.write(" ".join("%.17g" % val for val in field[:, iy]))
            fh.write("\n")


def read_snapshot(path):
    """Inverse of write_snapshot: returns (t, n, field[ix, iy])."""
    with open(path) as fh:
        header = fh.readline().split()
        meta = dict(item.split("=", 1) for item in header)
        rows = np.loadtxt(fh, ndmin=2)
    return float(meta["t"]), int(meta["n"]), rows.T


def save_run(result: RunResult, out_dir, resolution: Optional[int] = None) -> dict:
    """Write per-snapshot grids plus a manifest JSON; returns the manifest.

    Output is deterministic: no timestamps, floats serialized by repr, files
    named by snapshot index.
    """
    res = resolution if resolution is not None else 4 * (result.config.n + 1)
    os.makedirs(out_dir, exist_ok=True)
    snapshot_entries = []
    for idx, state in enumerate(result.snapshots):
        u, v = synthesize(state, res)
        names = (f"u_{idx:04d}.txt", f"v_{idx:04d}.txt")
        write_snapshot(os.path.join(out_dir, names[0]), state.t, state.n, u)
        write_snapshot(os.path.join(out_dir, names[1]), state.t, state.n, v)
        snapshot_entries.append({"t": state.t, "u": names[0], "v": names[1]})

    manifest = {
        "params": params_to_dict(result.params),
        "config": result.config.to_dict(),
        "outcome": result.outcome,
        "n_steps": result.n_steps,
        "final_time": result.final_state.t,
        "level": result.level,
        "conditions": result.conditions.to_dict(),
        "certificate": result.cert.to_dict() if result.cert is not None else None,
        "projection": result.projection.to_dict(),
        "timeseries": [rec.to_dict() for rec in result.timeseries],
        "snapshots": snapshot_entries,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return manifest
