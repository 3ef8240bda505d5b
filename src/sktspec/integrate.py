"""Adaptive time integration and run orchestration.

The coefficient ODE system y' = F(y) is split as y' = L y + N(y), with L the
per-mode 2x2 linear blocks of RhsAssembler.linear_blocks frozen at the
spatial mean of each step's start (zero on the mean mode) and N = F - L y.
Each step is the integrating-factor ("Lawson") form of the embedded
Dormand-Prince 5(4) pair: every stage carries the exact block exponentials
exp(theta h L), so the stiff diffusion of high modes sets no stability limit
and the step is chosen by accuracy alone.  It keeps six rhs calls per
attempt with FSAL stage reuse, PI step-size control, and a weighted
max-norm error test err = max |e_i| / (atol + rtol*max(|y_i|, |y_new_i|)) <= 1.
A homogeneous state stays homogeneous exactly.  Runs record diagnostics on a
fixed snapshot cadence, classify the outcome as steady_state, t_max_reached,
blow_up (with the reason step_underflow or sup_threshold), or
step_budget_exhausted, and count accepted steps, rejected attempts and rhs
evaluations.  A run evaluates the rhs once at the initial state and then
only inside step attempts: every snapshot time is a step end, so the
diagnostics there read the derivative the stepper already holds, and
rhs_evals = 6 * (accepted + rejected) + 1.  save_run writes a run directory:
manifest.json and snapshots.npy, every snapshot's exact coefficients, which
load_snapshots reads back as states.  The flux-form finite-volume solver
that cross-checks these runs is reference.fd_reference.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction as Fr
from typing import Optional

import numpy as np

from .galerkin import RhsAssembler, project_initial
from .lyapunov import LyapunovCert, PreconditionError, eval_H, eval_L, find_certificate
from .model import ModelParams, check_conditions, params_to_dict
from .spectral import SpectralState, synthesize

__all__ = [
    "RunConfig",
    "RunResult",
    "DiagnosticRecord",
    "StepUnderflow",
    "step_adaptive",
    "run",
    "diagnostics",
    "save_run",
    "load_snapshots",
]

OUTCOME_STEADY = "steady_state"
OUTCOME_TMAX = "t_max_reached"
OUTCOME_BLOWUP = "blow_up"
OUTCOME_BUDGET = "step_budget_exhausted"
# Why a run ended in blow_up: the step size collapsed, or the fields exceeded
# the configured sup threshold.
REASON_UNDERFLOW = "step_underflow"
REASON_SUP = "sup_threshold"

# Dormand-Prince 5(4) tableau, exact; E = 5th-order weights minus embedded 4th-order.
_DP_C = (Fr(0), Fr(1, 5), Fr(3, 10), Fr(4, 5), Fr(8, 9), Fr(1), Fr(1))
_DP_A = (
    (),
    (Fr(1, 5),),
    (Fr(3, 40), Fr(9, 40)),
    (Fr(44, 45), Fr(-56, 15), Fr(32, 9)),
    (Fr(19372, 6561), Fr(-25360, 2187), Fr(64448, 6561), Fr(-212, 729)),
    (Fr(9017, 3168), Fr(-355, 33), Fr(46732, 5247), Fr(49, 176), Fr(-5103, 18656)),
    (Fr(35, 384), Fr(0), Fr(500, 1113), Fr(125, 192), Fr(-2187, 6784), Fr(11, 84)),
)
_DP_E = (Fr(71, 57600), Fr(0), Fr(-71, 16695), Fr(71, 1920), Fr(-17253, 339200),
         Fr(22, 525), Fr(-1, 40))


def _lawson_tableau():
    """The Lawson form of the tableau as one table of combinations.

    Stage k = 0..6 is Y_k = e^{c_k hL} y + h sum_{j<k} a_kj e^{(c_k - c_j) hL} N_j,
    with Y_0 = y and N_j = N(Y_j); Y_6 is the new state.  Row k = 1..6 of the
    table gives Y_k and row 7 the error estimate h sum_j e_j e^{(1 - c_j) hL} N_j
    (row 0 is unused).  Column 0 is y and column j + 1 is N_j.  Returns the
    distinct factors theta of hL, the index of each entry's factor, and its
    weight (the weights of N are multiplied by h at each attempt).
    """
    rows = [[(_DP_C[i], Fr(1))] + [(_DP_C[i] - _DP_C[j], a) for j, a in enumerate(_DP_A[i])]
            for i in range(1, 7)]
    rows.append([(Fr(0), Fr(0))] + [(1 - _DP_C[j], e) for j, e in enumerate(_DP_E)])
    thetas = sorted({theta for row in rows for theta, _ in row})
    index = np.zeros((8, 8), dtype=int)
    weight = np.zeros((8, 8))
    for i, row in enumerate(rows, start=1):
        for j, (theta, w) in enumerate(row):
            index[i, j] = thetas.index(theta)
            weight[i, j] = float(w)
    return np.array([float(theta) for theta in thetas])[:, None, None], index, weight


_THETA, _ROW_THETA, _ROW_WEIGHT = _lawson_tableau()

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


def _block_exp(L: np.ndarray, t) -> np.ndarray:
    """exp(t L) for an array of 2x2 blocks L = [[l11, l12], [l21, l22]], shape (2, 2) + S.

    With c = tr(L)/2 and K = L - cI, K^2 = sI for s = ((l11 - l22)/2)^2 + l12 l21,
    so exp(tL) = alpha I + beta K with, for the eigenvalues c +- sqrt(s),
    alpha = (e^{t lambda1} + e^{t lambda2})/2 and
    beta = (e^{t lambda1} - e^{t lambda2})/(lambda1 - lambda2).  Both are
    formed from e^{t lambda1} and expm1 for a real pair and from e^{tc}, cos
    and sin for a complex pair: nothing overflows unless exp(tL) itself does,
    and nothing cancels as the eigenvalues merge.  t >= 0 broadcasts against
    S; the result has shape (2, 2) + the broadcast shape.
    """
    (l11, l12), (l21, l22) = L
    k11 = 0.5 * (l11 - l22)
    s = k11 * k11 + l12 * l21
    real = s >= 0.0
    root = np.sqrt(np.abs(s))
    # e^{t lambda1} for a real pair, e^{tc} for a complex one
    grow = np.exp(t * (0.5 * (l11 + l22) + root * real))
    r = t * root
    # alpha/grow and beta/(t grow) are 1 + expm1(-2r)/2 and -expm1(-2r)/(2r)
    # for a real pair, cos(r) and sin(r)/r for a complex one, and 1 at r = 0.
    m = np.expm1(-2.0 * r)
    a = 1.0 + 0.5 * m
    b = -0.5 * m
    if not real.all():
        complex_pair = np.broadcast_to(~real, r.shape)
        np.cos(r, out=a, where=complex_pair)
        np.sin(r, out=b, where=complex_pair)
    alpha = grow * a
    beta = np.divide(b, r, out=np.ones_like(r), where=r > 0.0)
    beta *= grow
    beta *= t
    # In place: temporaries of this size cost more than the arithmetic.
    E = np.empty((2, 2) + alpha.shape)
    np.multiply(beta, k11, out=E[0, 0])
    np.subtract(alpha, E[0, 0], out=E[1, 1])
    E[0, 0] += alpha
    np.multiply(beta, l12, out=E[0, 1])
    np.multiply(beta, l21, out=E[1, 0])
    return E


def _apply(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-mode 2x2 blocks M (shape (2, 2, w, w)) applied to x (shape (2, w, w))."""
    return M[:, 0] * x[0] + M[:, 1] * x[1]


def _attempt(fun, L: np.ndarray, y: np.ndarray, n1: np.ndarray, h: float):
    """One Lawson trial step of size h on y' = L y + N(y).

    L has shape (2, 2, w, w); y and n1 = N(y) have shape (2, w, w).  Returns
    (y_new, error vector, F(y_new)), the last for the next step's first
    stage (FSAL).
    """
    E = _block_exp(L, h * _THETA)
    W = h * _ROW_WEIGHT
    W[:, 0] = _ROW_WEIGHT[:, 0]
    V = np.empty((8,) + y.shape)
    V[0], V[1] = y, n1

    def row(i, cols):
        return np.einsum("rsjab,j,jsab->rab", E[:, :, _ROW_THETA[i, cols]], W[i, cols], V[cols])

    for i in range(1, 7):
        Y = row(i, slice(0, i + 1))
        f = fun(Y.ravel())
        V[i + 1] = f.reshape(y.shape) - _apply(L, Y)
    # c_6 = 1 and row 6 holds the 5th-order weights, so Y_6 is the new state.
    return Y.ravel(), row(7, slice(1, 8)).ravel(), f


def _step_core(work: "_Work", t: float, y: np.ndarray, dt_try: float, rtol: float, atol: float,
               err_prev: Optional[float], dt_max: float, f1: np.ndarray):
    """Advance one accepted Lawson DP5 step; returns (y_new, dt_used, dt_next, err, F(y_new)).

    The linear part L is frozen at the mean of y for every attempt of the
    step; f1 = F(y), which a run carries over from the previous step (FSAL).
    """
    dt = min(dt_try, dt_max)
    L = work.assembler.linear_blocks(y)
    y2 = y.reshape(L.shape[1:])
    n1 = f1.reshape(y2.shape) - _apply(L, y2)
    rejected = False
    while True:
        if dt < _UNDERFLOW_FLOOR * max(1.0, abs(t)):
            raise StepUnderflow(f"step size {dt} underflowed at t = {t}")
        y_new, err_vec, f_new = _attempt(work.rhs, L, y2, n1, dt)
        if not np.all(np.isfinite(y_new)):
            err = math.inf
        else:
            err = _error_norm(err_vec, y, y_new, rtol, atol)
        if err <= 1.0:
            break
        rejected = True
        work.steps_rejected += 1
        shrink = max(0.1, _FAC_SAFETY * (err ** -0.2)) if math.isfinite(err) else 0.1
        dt *= min(shrink, 1.0)

    err_ctl = max(err, 1e-10)
    fac = _FAC_SAFETY * err_ctl ** (-_PI_ALPHA)
    if err_prev is not None:
        fac *= max(err_prev, 1e-10) ** _PI_BETA
    fac = min(_FAC_MAX if not rejected else 1.0, max(_FAC_MIN, fac))
    dt_next = min(dt * fac, dt_max)
    return y_new, dt, dt_next, err, f_new


class _Work:
    """An assembler's rhs with deterministic work counts."""

    def __init__(self, assembler: RhsAssembler):
        self.assembler = assembler
        self.rhs_evals = 0
        self.steps_rejected = 0

    def rhs(self, y: np.ndarray) -> np.ndarray:
        self.rhs_evals += 1
        return self.assembler.rhs_flat(y)


def _pack(state: SpectralState) -> np.ndarray:
    return np.concatenate([state.mu1.ravel(), state.mu2.ravel()])


def _unpack(y: np.ndarray, n: int, t: float) -> SpectralState:
    w = n + 1
    m = w * w
    return SpectralState(y[:m].reshape(w, w).copy(), y[m:].reshape(w, w).copy(), t)


def step_adaptive(assembler: RhsAssembler, state: SpectralState, dt_suggest: float,
                  rtol: float, atol: float, err_prev: Optional[float] = None,
                  dt_max: float = math.inf):
    """One accepted Lawson DP5 step of the coefficient system.

    Returns (new state, dt_used, dt_next, err_est).  err_prev feeds the PI
    controller; callers chaining steps should pass the previous err_est.
    Raises StepUnderflow when the error control collapses the step.
    """
    if not (rtol > 0 and atol > 0):
        raise ValueError(f"tolerances must be positive, got rtol={rtol}, atol={atol}")
    if not dt_suggest > 0:
        raise ValueError(f"dt_suggest must be positive, got {dt_suggest}")
    y = _pack(state)
    work = _Work(assembler)
    y_new, dt_used, dt_next, err, _ = _step_core(
        work, state.t, y, dt_suggest, rtol, atol, err_prev, dt_max, work.rhs(y))
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
    steps_rejected: int = 0
    rhs_evals: int = 0
    reason: Optional[str] = None

    def summary(self) -> dict:
        last = self.timeseries[-1]
        return {
            "outcome": self.outcome,
            "reason": self.reason,
            "final_time": self.final_state.t,
            "n_steps": self.n_steps,
            "steps_rejected": self.steps_rejected,
            "rhs_evals": self.rhs_evals,
            "final_diagnostics": last.to_dict(),
        }


def diagnostics(state: SpectralState, dy: np.ndarray,
                cert: Optional[LyapunovCert] = None, level: float = 0.0) -> DiagnosticRecord:
    """Synthesized-field diagnostics at one instant.

    dy is the packed derivative [dmu1.ravel(), dmu2.ravel()] of the state,
    which a run already holds from its stepper.  Masses come from the
    constant mode (mu_00 * pi); extrema, max_H, and the level-set functional
    L are read off the diagnostic grid of 4(n+1) points per axis; rhs_norm
    is the Frobenius norm of dy, summed per species.
    """
    res = 4 * (state.n + 1)
    u, v = synthesize(state, res)
    d1, d2 = np.split(dy, 2)
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

    # Snapshot targets start at the initial state.
    targets = [i * config.snapshot_dt for i in range(int(config.t_max / config.snapshot_dt + 1e-9) + 1)]
    if targets[-1] < config.t_max - 1e-12 * config.t_max:
        targets.append(config.t_max)

    work = _Work(assembler)
    y = _pack(state)
    # F(y), kept current by every step (FSAL); the diagnostics read it too.
    f = work.rhs(y)
    t = 0.0
    dt_next = min(0.01, config.snapshot_dt)
    err_prev = None
    n_steps = 0
    timeseries = []
    snapshots = []
    streak = 0

    def finish(outc, yy, tt, reason=None):
        return RunResult(outc, _unpack(yy, config.n, tt), timeseries, snapshots,
                         conditions, cert, level, projection, config, params, n_steps,
                         work.steps_rejected, work.rhs_evals, reason)

    for t_target in targets:
        while t < t_target - 1e-12 * max(1.0, t_target):
            if n_steps >= config.max_steps:
                return finish(OUTCOME_BUDGET, y, t)
            try:
                y, dt_used, dt_next, err_prev, f = _step_core(
                    work, t, y, dt_next, config.rtol, config.atol, err_prev, t_target - t, f)
            except StepUnderflow:
                return finish(OUTCOME_BLOWUP, y, t, REASON_UNDERFLOW)
            t += dt_used
            n_steps += 1
            if _sup_bound(y, m) > config.blowup_threshold:
                fields = synthesize(_unpack(y, config.n, t), res)
                if max(float(np.abs(fields[0]).max()), float(np.abs(fields[1]).max())) > config.blowup_threshold:
                    return finish(OUTCOME_BLOWUP, y, t, REASON_SUP)

        state = _unpack(y, config.n, t_target)
        record = diagnostics(state, f, cert, level)
        timeseries.append(record)
        snapshots.append(state)
        if record.rhs_norm < config.steady_tol * (1.0 + _state_norm(state)):
            streak += 1
            if streak >= 2:
                return finish(OUTCOME_STEADY, y, t_target)
        else:
            streak = 0

    return finish(OUTCOME_TMAX, y, targets[-1])


def _state_norm(state: SpectralState) -> float:
    return math.sqrt(float(np.sum(state.mu1**2) + np.sum(state.mu2**2)))


def save_run(result: RunResult, out_dir) -> dict:
    """Write snapshots.npy plus a manifest JSON; returns the manifest.

    snapshots.npy holds every snapshot's (mu1, mu2) as one float64 array of
    shape (snapshots, 2, n+1, n+1); manifest snapshot entry i gives the time
    of row i.  Output is deterministic: no timestamps, floats serialized by
    repr, and np.save writes a fixed header and the raw data.
    """
    os.makedirs(out_dir, exist_ok=True)
    np.save(os.path.join(out_dir, "snapshots.npy"),
            np.stack([(state.mu1, state.mu2) for state in result.snapshots]))

    manifest = {
        "params": params_to_dict(result.params),
        "config": result.config.to_dict(),
        "outcome": result.outcome,
        "reason": result.reason,
        "n_steps": result.n_steps,
        "steps_rejected": result.steps_rejected,
        "rhs_evals": result.rhs_evals,
        "final_time": result.final_state.t,
        "level": result.level,
        "conditions": result.conditions.to_dict(),
        "certificate": result.cert.to_dict() if result.cert is not None else None,
        "projection": result.projection.to_dict(),
        "timeseries": [rec.to_dict() for rec in result.timeseries],
        "snapshots": [{"t": state.t, "index": i} for i, state in enumerate(result.snapshots)],
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return manifest


def load_snapshots(run_dir) -> list:
    """The snapshot states of a run directory written by save_run, in order."""
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        entries = json.load(fh)["snapshots"]
    coeffs = np.load(os.path.join(run_dir, "snapshots.npy"))
    return [SpectralState(coeffs[e["index"], 0], coeffs[e["index"], 1], e["t"]) for e in entries]
