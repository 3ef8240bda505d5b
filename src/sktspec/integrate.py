"""Adaptive time integration and run orchestration.

The coefficient ODE system y' = F(y) is stepped as z' = L z + N(z) for the
deviation z = y - y* from a reference state y*: the coexistence state
pi*(u*, v*) on mode (0, 0), which Batch computes once for its parameters,
or y* = 0 where there is none.  No other module steps about y*:
RhsAssembler.rhs_flat reads states and returns F beside the per-mode 2x2
linear blocks, with the reaction Jacobian J on the mean mode.  L holds those
blocks, formed at the spatial mean of each step's start and frozen for the
step, and N = F - L z, which vanishes at y*.  Each step is the
integrating-factor ("Lawson") form of the embedded Dormand-Prince 5(4)
pair: every stage carries the exact block exponentials exp(theta h L), so
neither the stiff diffusion of high modes nor the mean mode's kinetics near
y* sets a stability limit, and the step is chosen by accuracy alone.  A
Lawson step is exact only where N = 0, and the shift puts that at the fixed
point the runs settle to (Hochbruck & Ostermann, Acta Numerica 19, 2010).
It keeps six rhs calls per attempt with FSAL stage reuse and a weighted
max-norm error test
err = max |e_i| / (atol + rtol*max(|y_i|, |y_new_i|)) <= 1, scaled by the
states y, not by z.  A homogeneous state stays homogeneous exactly, and so
does a species that is identically zero: y* lies off the set where that
species vanishes, and N would not be zero on it, so such a run steps with
y* = 0, as every run does where there is no coexistence state, and with a
zero mean-mode block (_unshifted_blocks).  The step size follows the PI
controller of DOPRI5 (Hairer, Norsett & Wanner, Solving ODEs I, II.4), with
the exponents 0.17 on err and 0.04 on the previous err: this stepper has no
stability limit for Gustafsson's damping gains to hold it at.

A Batch integrates runs that share parameters and a RunConfig in lockstep.
Each round makes one attempt for every running member, each with its own
time, step size, frozen L, reference state and controller state: one
block-exponential evaluation, one set of stage rows and six rhs calls on a
species-leading (2, B, n+1, n+1) state serve them all, and a member leaves
the batch when it finishes.  Every operation acts member by member, so a
run's output does not depend on the batch it ran in; run is a batch of one.

A run ends in one of four ways.  At set-up and after every accepted step,
_Member.advance makes the blow-up test (blow_up, reason sup_threshold),
records the snapshots reached (i * snapshot_dt, then t_max where no grid
time is within reach of it) and ends the run at steady_state,
t_max_reached or step_budget_exhausted, or begins the next step.  Initial
fields that fail the blow-up test make Batch.add raise ValueError: a run
that takes no step has not blown up.  The t = 0 record gives the level of
the L functional, the max of H over the initial fields.  After every
round, a member whose next attempt falls below the resolvable scale ends
in blow_up (reason step_underflow).
Each run counts accepted steps and rejected attempts, beside the range
dt_min..dt_max of its accepted steps.  It evaluates the rhs once at the
initial state and then only inside step attempts: every snapshot time is a
step end, so the diagnostics there read the derivative the stepper already
holds.  Its rhs_evals is therefore 6 * (accepted + rejected) + 1, whatever
the batch.  A step cut short to land on a
snapshot time, and accepted at its first attempt, leaves the controller's
proposal and error history as they were, so the snapshot cadence does not
throttle the step size.  save_run writes a run directory: manifest.json,
with RunResult.summary() less its final diagnostics, and snapshots.npy,
every snapshot's exact coefficients, which load_snapshots reads back as
states.  The flux-form finite-volume solver that cross-checks these runs is
reference.fd_reference.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from fractions import Fraction as Fr
from typing import Optional

import numpy as np

from .galerkin import RhsAssembler, block_product, project_initial
from .lyapunov import LyapunovCert, PreconditionError, eval_H, find_certificate, level_excess
from .model import ModelParams, check_conditions, coexistence_steady_state, params_to_dict
from .spectral import SpectralState, synthesize

__all__ = [
    "RunConfig",
    "RunResult",
    "DiagnosticRecord",
    "Batch",
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
    return np.array([float(theta) for theta in thetas]), index, weight


_THETA, _ROW_THETA, _ROW_WEIGHT = _lawson_tableau()

_UNDERFLOW_FLOOR = 1e-14
_FAC_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0
# PI exponents of DOPRI5 (Hairer, Norsett & Wanner, Solving ODEs I, II.4):
# fac = err^-(0.2 - 0.75 BETA) * err_prev^BETA with BETA = 0.04.
_PI_ALPHA = 0.17
_PI_BETA = 0.04


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
    # In place, into E's own slots where their values are no longer needed:
    # temporaries of this size cost more than the arithmetic.
    E = np.empty((2, 2) + np.broadcast_shapes(np.shape(t), root.shape))
    # e^{t lambda1} for a real pair, e^{tc} for a complex one
    grow = np.multiply(t, 0.5 * (l11 + l22) + root * real, out=E[1, 0])
    np.exp(grow, out=grow)
    r = np.multiply(t, root, out=E[0, 1])
    # alpha/grow and beta/(t grow) are 1 + expm1(-2r)/2 and -expm1(-2r)/(2r)
    # for a real pair, cos(r) and sin(r)/r for a complex one, and 1 at r = 0.
    beta = np.multiply(r, -2.0)
    np.expm1(beta, out=beta)
    alpha = np.multiply(beta, 0.5, out=E[1, 1])
    alpha += 1.0
    beta *= -0.5
    if not real.all():
        complex_pair = np.broadcast_to(~real, r.shape)
        np.cos(r, out=alpha, where=complex_pair)
        np.sin(r, out=beta, where=complex_pair)
    alpha *= grow
    positive = r > 0.0
    np.divide(beta, r, out=beta, where=positive)
    np.copyto(beta, 1.0, where=np.logical_not(positive, out=positive))
    beta *= grow
    beta *= t
    np.multiply(beta, l12, out=E[0, 1])
    np.multiply(beta, l21, out=E[1, 0])
    beta *= k11
    np.add(beta, alpha, out=E[0, 0])
    np.subtract(alpha, beta, out=E[1, 1])
    return E


def _unshifted_blocks(L: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """L with a zero mode (0, 0) block for each member b that has no reference state.

    ref, shape (2, B), holds each member's reference state y* on mode (0, 0),
    and zero where the member has none; L, shape (2, 2, B, w, w), comes from
    rhs_flat, which puts J on that block for every member.  L is changed in
    place and returned.
    """
    L[:, :, ~ref.any(axis=0), 0, 0] = 0.0
    return L


def _attempt(assembler: RhsAssembler, ref: np.ndarray, L: np.ndarray, y: np.ndarray, f: np.ndarray,
             h: np.ndarray):
    """One Lawson trial step of size h[b] on z' = L z + N(z), z = y - y*, for every member b.

    Members lie on axis 1 of y and of f = F(y), shape (2, B, w, w), on
    axis 2 of L, shape (2, 2, B, w, w), and on axis 1 of ref, shape (2, B),
    which holds each member's y* on mode (0, 0) (see _unshifted_blocks).
    The stages Z are deviations from y*, and the rhs is read at the stage
    states Z + y*.  Returns (y_new, error vector, F(y_new), the linear blocks
    of y_new): the first three shaped like y, the last like L, and the last
    two serve the next step (FSAL).
    """
    E = _block_exp(L, np.multiply.outer(_THETA, h)[:, :, None, None])
    W = h[:, None, None] * _ROW_WEIGHT
    W[:, :, 0] = _ROW_WEIGHT[:, 0]
    V = np.empty((8,) + y.shape)
    V[0] = y
    V[0, :, :, 0, 0] -= ref
    V[1] = f - block_product(L, V[0])

    def row(i, cols):
        return np.einsum("rsjbxy,bj,jsbxy->rbxy",
                         E[:, :, _ROW_THETA[i, cols]], W[:, i, cols], V[cols])

    for i in range(1, 7):
        Z = row(i, slice(0, i + 1))
        Y = Z.copy()
        Y[:, :, 0, 0] += ref
        f, L_new = assembler.rhs_flat(Y)
        V[i + 1] = f - block_product(L, Z)
    # c_6 = 1 and row 6 holds the 5th-order weights, so Y_6 is the new state.
    return Y, row(7, slice(1, 8)), f, _unshifted_blocks(L_new, ref)


def _error_norms(e: np.ndarray, y: np.ndarray, y_new: np.ndarray, rtol: float, atol: float) -> list:
    """Each member's weighted max-norm of e; inf where y_new is not finite."""
    with np.errstate(invalid="ignore"):
        sc = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = (np.abs(e) / sc).max(axis=(0, 2, 3))
    finite = np.isfinite(y_new).all(axis=(0, 2, 3))
    return [value if ok else math.inf for value, ok in zip(err.tolist(), finite.tolist())]


class _Control:
    """Step-size control of one member: PI controller, rejections, counts.

    dt_min and dt_max are the smallest and largest accepted step so far.
    """

    def __init__(self, t: float, dt_next: float):
        self.t = t
        self.dt_next = dt_next
        self.err_prev: Optional[float] = None
        self.err: Optional[float] = None
        self.n_steps = 0
        self.steps_rejected = 0
        self.dt_min = math.inf
        self.dt_max = 0.0

    def begin(self, reach: float) -> None:
        """Start a step that ends at most reach ahead; its first attempt tries dt_next.

        A step cut short to end at reach (a snapshot time) is a landing step.
        """
        self.landing = reach < self.dt_next
        self.dt = min(self.dt_next, reach)
        self.rejected = False

    def underflows(self) -> bool:
        """The next attempt would be below the resolvable scale: stiffness or blow-up."""
        return self.dt < _UNDERFLOW_FLOOR * max(1.0, abs(self.t))

    def settle(self, err: float) -> bool:
        """Accept the attempt of size dt (True) or shrink dt for another (False).

        A landing step accepted at its first attempt leaves the proposal
        dt_next and the PI history err_prev as they were: its length was set
        by the snapshot, not by the error, so it says nothing about the next
        step's size.  Every other accepted step proposes dt * fac.
        """
        self.err = err
        if not err <= 1.0:
            self.rejected = True
            self.steps_rejected += 1
            shrink = max(0.1, _FAC_SAFETY * (err ** -0.2)) if math.isfinite(err) else 0.1
            self.dt *= min(shrink, 1.0)
            return False
        if self.rejected or not self.landing:
            fac = _FAC_SAFETY * max(err, 1e-10) ** (-_PI_ALPHA)
            if self.err_prev is not None:
                fac *= max(self.err_prev, 1e-10) ** _PI_BETA
            self.dt_next = self.dt * min(_FAC_MAX if not self.rejected else 1.0, max(_FAC_MIN, fac))
            self.err_prev = err
        self.dt_min = min(self.dt_min, self.dt)
        self.dt_max = max(self.dt_max, self.dt)
        self.t += self.dt
        self.n_steps += 1
        return True


def _round(assembler: RhsAssembler, ref: np.ndarray, y: np.ndarray, f: np.ndarray, L: np.ndarray,
           controls: list, rtol: float, atol: float):
    """One lockstep round: an attempt of size c.dt for each member's control c.

    Settles every control and returns (y, f, L, accepted): accepted members
    carry their new state, its F and its linear blocks, and the others keep
    theirs for a shorter attempt.  ref is as in _attempt.
    """
    y_new, e, f_new, L_new = _attempt(assembler, ref, L, y, f, np.array([c.dt for c in controls]))
    accepted = [c.settle(err) for c, err in zip(controls, _error_norms(e, y, y_new, rtol, atol))]
    if all(accepted):
        return y_new, f_new, L_new, accepted
    mask = np.array(accepted)[:, None, None]
    return np.where(mask, y_new, y), np.where(mask, f_new, f), np.where(mask, L_new, L), accepted


def _reach_tol(t: float) -> float:
    """A state within this of the snapshot time t counts as having reached it."""
    return 1e-12 * max(1.0, t)


def _target_time(config: "RunConfig", i: int) -> float:
    """Snapshot target i: i * snapshot_dt while that is within reach of t_max, then t_max."""
    t = i * config.snapshot_dt
    return t if t <= config.t_max + _reach_tol(config.t_max) else config.t_max


def _pair_norm(a: np.ndarray, b: np.ndarray) -> float:
    """The Frobenius norm of the pair (a, b)."""
    return math.sqrt(float(np.sum(a * a) + np.sum(b * b)))


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
        for name, value in self.to_dict().items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.n < 0:
            raise ValueError(f"truncation order must be >= 0, got {self.n}")
        for name in ("t_max", "rtol", "atol", "steady_tol", "blowup_threshold"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        # A snapshot time within the reach tolerance of the one before counts as
        # reached without a step: the first, from t = 0, at snapshot_dt <= 1e-12,
        # and late ones wherever snapshot_dt < 1e-12 t_max.
        if not (_reach_tol(self.t_max) <= self.snapshot_dt <= self.t_max
                and self.snapshot_dt > _reach_tol(self.snapshot_dt)):
            raise ValueError(
                f"snapshot_dt must exceed {_reach_tol(0.0)} and lie in "
                f"[{_reach_tol(self.t_max)}, t_max], got {self.snapshot_dt} with t_max={self.t_max}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        return self

    def to_dict(self) -> dict:
        return asdict(self)


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
        # save_run calls this once per record; asdict's deep copy is ten times slower.
        return dict(vars(self))


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
    # The smallest and largest accepted step; None when no step was accepted.
    dt_min: Optional[float] = None
    dt_max: Optional[float] = None

    def summary(self) -> dict:
        return {
            "outcome": self.outcome,
            "reason": self.reason,
            "final_time": self.final_state.t,
            "n_steps": self.n_steps,
            "steps_rejected": self.steps_rejected,
            "rhs_evals": self.rhs_evals,
            "dt_min": self.dt_min,
            "dt_max": self.dt_max,
            "final_diagnostics": self.timeseries[-1].to_dict(),
        }


def diagnostics(state: SpectralState, dy: np.ndarray,
                cert: Optional[LyapunovCert] = None, level: float = 0.0) -> DiagnosticRecord:
    """Synthesized-field diagnostics at one instant.

    dy is the derivative of the state, shape (2, n+1, n+1), which a run
    already holds from its stepper.  Masses come from the constant mode
    (mu_00 * pi); extrema, max_H, and the level-set functional L are read
    off the diagnostic grid of 4(n+1) points per axis; rhs_norm is the
    Frobenius norm of dy, summed per species.
    """
    res = 4 * (state.n + 1)
    u, v = synthesize(state, res)
    rhs_norm = _pair_norm(*dy)
    if cert is not None:
        H = eval_H(cert, u, v).H
        max_H = float(np.max(H))
        L_value = level_excess(H, level, (np.pi / res) ** 2)
    else:
        max_H = L_value = 0.0
    return DiagnosticRecord(
        t=state.t,
        mass_u=float(state.mu1[0, 0] * np.pi),
        mass_v=float(state.mu2[0, 0] * np.pi),
        min_u=float(u.min()), max_u=float(u.max()),
        min_v=float(v.min()), max_v=float(v.max()),
        max_H=max_H, L_value=L_value, rhs_norm=rhs_norm,
    )


def _sup_bounds(y: np.ndarray) -> list:
    """Each member's bound on sup|field| over both species, y of shape (2, B, w, w).

    sup|field| <= (2/pi) * sum|mu| since every |phi_jk| <= 2/pi.
    """
    return ((2.0 / np.pi) * np.abs(y).sum(axis=(2, 3)).max(axis=0)).tolist()


def _field_sup(config: "RunConfig", y: np.ndarray, t: float) -> float:
    """sup|field| over both species of y, shape (2, n+1, n+1), on the diagnostic grid."""
    u, v = synthesize(SpectralState(y[0].copy(), y[1].copy(), t), 4 * (config.n + 1))
    return max(float(np.abs(u).max()), float(np.abs(v).max()))


class _Member(_Control):
    """One run of a batch: its step control, snapshot records and outcome.

    Methods get the batch, which holds what its members share (it is passed,
    not stored, so that no reference cycle keeps finished batches alive),
    and the member's state y and derivative f, each of shape (2, n+1, n+1).
    """

    def __init__(self, config: "RunConfig", projection):
        super().__init__(0.0, min(0.01, config.snapshot_dt))
        self.projection = projection
        # Set by the t = 0 record, whose L at level +inf is 0, as at max H.
        self.level = math.inf
        self.target = 0
        self.streak = 0
        self.timeseries: list = []
        self.snapshots: list = []
        self.result: Optional[RunResult] = None

    def finish(self, batch: "Batch", outcome: str, y: np.ndarray, t: float,
               reason: Optional[str] = None) -> None:
        self.result = RunResult(
            outcome=outcome, reason=reason, final_state=SpectralState(y[0].copy(), y[1].copy(), t),
            timeseries=self.timeseries, snapshots=self.snapshots, conditions=batch.conditions,
            cert=batch.cert, level=self.level, projection=self.projection, config=batch.config,
            params=batch.params, n_steps=self.n_steps, steps_rejected=self.steps_rejected,
            rhs_evals=1 + 6 * (self.n_steps + self.steps_rejected),
            dt_min=self.dt_min if self.n_steps else None, dt_max=self.dt_max if self.n_steps else None)

    def advance(self, batch: "Batch", y: np.ndarray, f: np.ndarray, sup_bound: float) -> None:
        """At set-up or after an accepted step: the blow-up test, the snapshots
        reached, then the next step or an outcome.

        sup_bound bounds sup|field| of y from its coefficients (_sup_bounds);
        only above the threshold are the fields synthesized.  Steady state
        requires the rhs norm to sit below steady_tol*(1 + state norm) at two
        consecutive snapshots; the run reaches t_max when it records a target
        within reach of t_max.  Whether the step begun here underflows,
        Batch.integrate tests after the round.
        """
        config = batch.config
        if sup_bound > config.blowup_threshold and _field_sup(config, y, self.t) > config.blowup_threshold:
            return self.finish(batch, OUTCOME_BLOWUP, y, self.t, REASON_SUP)
        while True:
            t_target = _target_time(config, self.target)
            if self.t < t_target - _reach_tol(t_target):
                if self.n_steps >= config.max_steps:
                    return self.finish(batch, OUTCOME_BUDGET, y, self.t)
                return self.begin(t_target - self.t)
            state = SpectralState(y[0].copy(), y[1].copy(), t_target)
            record = diagnostics(state, f, batch.cert, self.level)
            if self.target == 0:
                self.level = record.max_H
            self.timeseries.append(record)
            self.snapshots.append(state)
            if record.rhs_norm < config.steady_tol * (1.0 + _pair_norm(state.mu1, state.mu2)):
                self.streak += 1
                if self.streak >= 2:
                    return self.finish(batch, OUTCOME_STEADY, y, t_target)
            else:
                self.streak = 0
            if t_target >= config.t_max - _reach_tol(config.t_max):
                return self.finish(batch, OUTCOME_TMAX, y, t_target)
            self.target += 1


class Batch:
    """Runs that share parameters and a RunConfig, integrated in lockstep.

    The condition report, the certificate search, the rhs assembler and the
    coexistence state y* are made once for the batch.  add sets up one run
    and gives it its reference state: y*, or zero where there is no y* or a
    species is identically zero.  integrate steps every run to its outcome
    and returns the RunResults in the order of add.  Each round makes one
    Lawson DP5 attempt for every running member, and a member leaves the
    batch as it finishes.  A run's result is bit for bit the one it gets in
    a batch of one.  A certificate with a value that is not finite raises
    ValueError before any run is set up.
    """

    def __init__(self, params: ModelParams, config: RunConfig):
        self.params = params
        self.config = config.validate()
        self.conditions = check_conditions(params)
        try:
            self.cert = find_certificate(params)
        except PreconditionError:
            self.cert = None
        if self.cert is not None:
            self.cert.check_finite()
        self.assembler = RhsAssembler.for_order(params, config.n)
        star = coexistence_steady_state(params)
        self._star = (0.0, 0.0) if star is None else (np.pi * star[0], np.pi * star[1])
        self.members: list = []
        # Each member's (y, F(y), L, reference state) at the start, with a
        # member axis of length 1.
        self._starts: list = []

    # add and integrate silence numpy's floating-point warnings: an overflow
    # takes its designed path, an infinite error norm and a rejection.
    @np.errstate(over="ignore", invalid="ignore")
    def add(self, ic_u, ic_v) -> None:
        """Set up one run: project the initial pair, evaluate its first rhs,
        make the blow-up test and record its first snapshot.

        The level for the L functional is the max of H over the initial
        fields.  Bad initial data raises ValueError and leaves the batch as
        it was; so do initial fields above blowup_threshold, since a run
        that takes no step has not blown up.
        """
        state, projection = project_initial(ic_u, ic_v, self.config.n)
        y = np.stack([state.mu1, state.mu2])[:, None]
        # A species that is identically zero stays so only in unshifted steps.
        ref = np.array(self._star if y[0].any() and y[1].any() else (0.0, 0.0)).reshape(2, 1)
        # F(y) and L, kept current by every step (FSAL); the diagnostics read F too.
        f, L = self.assembler.rhs_flat(y)
        _unshifted_blocks(L, ref)
        member = _Member(self.config, projection)
        member.advance(self, y[:, 0], f[:, 0], _sup_bounds(y)[0])
        if member.result is not None:
            raise ValueError(
                f"initial fields reach sup |u|, |v| = {_field_sup(self.config, y[:, 0], 0.0)}, "
                f"above blowup_threshold {self.config.blowup_threshold}")
        self.members.append(member)
        self._starts.append((y, f, L, ref))

    @np.errstate(over="ignore", invalid="ignore")
    def integrate(self) -> list:
        """Step every member to its outcome; returns the results in the order of add."""
        pending = [(m, start) for m, start in zip(self.members, self._starts) if m.result is None]
        live = [m for m, _ in pending]
        if live:
            ys, fs, Ls, refs = zip(*(start for _, start in pending))
            y, f, L = np.concatenate(ys, axis=1), np.concatenate(fs, axis=1), np.concatenate(Ls, axis=2)
            ref = np.concatenate(refs, axis=1)
        while live:
            y, f, L, accepted = _round(self.assembler, ref, y, f, L, live,
                                       self.config.rtol, self.config.atol)
            bounds = _sup_bounds(y)
            for b, (m, ok) in enumerate(zip(live, accepted)):
                if ok:
                    m.advance(self, y[:, b], f[:, b], bounds[b])
                # The next attempt, a step's first or a shrunk retry, underflows.
                if m.result is None and m.underflows():
                    m.finish(self, OUTCOME_BLOWUP, y[:, b], m.t, REASON_UNDERFLOW)
            if any(m.result is not None for m in live):
                keep = [b for b, m in enumerate(live) if m.result is None]
                live = [live[b] for b in keep]
                y, f, L, ref = y[:, keep], f[:, keep], L[:, :, keep], ref[:, keep]
        return [m.result for m in self.members]


def run(params: ModelParams, config: RunConfig, ic_u, ic_v) -> RunResult:
    """Integrate from projected initial data and classify the outcome: a batch of one.

    The condition report and (when the search applies) a certificate are
    attached to the result.
    """
    batch = Batch(params, config)
    batch.add(ic_u, ic_v)
    return batch.integrate()[0]


def save_run(result: RunResult, out_dir) -> dict:
    """Write snapshots.npy plus a manifest JSON; returns the manifest.

    snapshots.npy holds every snapshot's (mu1, mu2) as one float64 array of
    shape (snapshots, 2, n+1, n+1); manifest snapshot entry i gives the time
    of row i.  Output is deterministic: no timestamps, floats serialized by
    repr, and np.save writes a fixed header and the raw data.  A manifest
    that is not strict JSON (a non-finite value) raises ValueError before
    anything is written.
    """
    summary = result.summary()
    del summary["final_diagnostics"]
    manifest = {
        "params": params_to_dict(result.params),
        "config": result.config.to_dict(),
        **summary,
        "level": result.level,
        "conditions": result.conditions.to_dict(),
        "certificate": result.cert.to_dict() if result.cert is not None else None,
        "projection": result.projection.to_dict(),
        "timeseries": [rec.to_dict() for rec in result.timeseries],
        "snapshots": [{"t": state.t, "index": i} for i, state in enumerate(result.snapshots)],
    }
    text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
    os.makedirs(out_dir, exist_ok=True)
    np.save(os.path.join(out_dir, "snapshots.npy"),
            np.stack([(state.mu1, state.mu2) for state in result.snapshots]))
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        fh.write(text + "\n")
    return manifest


def load_snapshots(run_dir) -> list:
    """The snapshot states of a run directory written by save_run, in order."""
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        entries = json.load(fh)["snapshots"]
    coeffs = np.load(os.path.join(run_dir, "snapshots.npy"))
    return [SpectralState(coeffs[e["index"], 0], coeffs[e["index"], 1], e["t"]) for e in entries]
