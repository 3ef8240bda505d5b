import json
import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from sktspec.cli import SWEEP_SHAPES
from sktspec.galerkin import RhsAssembler, block_product, project_initial
from sktspec.integrate import (
    _ROW_THETA,
    _ROW_WEIGHT,
    _THETA,
    Batch,
    RunConfig,
    _attempt,
    _block_exp,
    _Control,
    _round,
    _sup_bounds,
    diagnostics,
    load_snapshots,
    run,
    save_run,
)
from sktspec.lyapunov import LyapunovCert, eval_H, find_certificate, level_excess
from sktspec.model import PRESETS, coexistence_steady_state, params_from_dict, preset
from sktspec.reference import fd_reference
from sktspec.spectral import SpectralState, synthesize

PURE_DIFFUSION = dict(d1=1.0, d2=1.0, a1=0.0, b1=1e-300, c1=0.0,
                      a2=0.0, b2=0.0, c2=1e-300,
                      alpha11=0.0, alpha12=0.0, alpha21=0.0, alpha22=0.0,
                      b11=0.0, b22=0.0)

# Mutual amplification with negligible saturation: a constant state explodes
# in finite time.
DIVERGENT = dict(d1=0.01, d2=0.01, a1=1.0, b1=0.01, c1=2.0,
                 a2=1.0, b2=2.0, c2=0.01,
                 alpha11=0.0, alpha12=0.0, alpha21=0.0, alpha22=0.0,
                 b11=0.0, b22=0.0)

# case1 with every alpha_ij = 0.1 and b11 = b22 = 1.9: det A < 0 at the
# coexistence state, and the certificate search does not apply.
ILL_POSED = dict(PRESETS["case1"], alpha11=0.1, alpha12=0.1, alpha21=0.1, alpha22=0.1,
                 b11=1.9, b22=1.9)


def constant_state(n, u, v):
    width = n + 1
    mu1 = np.zeros((width, width))
    mu2 = np.zeros((width, width))
    mu1[0, 0] = u * np.pi
    mu2[0, 0] = v * np.pi
    return SpectralState(mu1, mu2, 0.0)


class StepUnderflow(RuntimeError):
    """The error control collapsed the step below the resolvable scale."""


def step(asm, state, dt, rtol, atol, dt_max=math.inf):
    """One accepted step from state through the batched stepper, as a batch of one.

    The first attempt tries dt (capped at dt_max).  Returns (new state,
    dt_used, dt_next, the last attempt's error estimate); raises
    StepUnderflow where a run would end in blow_up with the reason
    step_underflow.
    """
    y = np.stack([state.mu1, state.mu2])[:, None]
    f, L = asm.derivative(y)
    control = _Control(state.t, dt)
    control.begin(dt_max)
    accepted = [False]
    while not accepted[0]:
        if control.underflows():
            raise StepUnderflow(f"step size {control.dt} underflowed at t = {control.t}")
        y, f, L, accepted = _round(asm, y, f, L, [control], rtol, atol)
    return SpectralState(y[0, 0], y[1, 0], control.t), control.dt, control.dt_next, control.err


def test_step_near_fixed_point_is_inert(case1):
    eq = coexistence_steady_state(case1)
    state = constant_state(3, *eq)
    asm = RhsAssembler.for_order(case1, 3)
    new, dt_used, dt_next, err = step(asm, state, 10.0, 1e-7, 1e-10, dt_max=0.5)
    assert dt_used == 0.5
    assert dt_next == 10.0
    assert new.t == 0.5
    assert np.abs(new.mu1 - state.mu1).max() < 1e-12
    assert err < 1e-6


def test_landing_step_leaves_the_controller_alone():
    def fac(err, err_prev, cap=5.0):
        return min(cap, max(0.2, 0.9 * err ** -0.17 * err_prev ** 0.04))

    # A step cut short to land at reach 0.25, accepted at once: the proposal
    # and the PI history stay as they were.
    c = _Control(0.0, 0.4)
    c.err_prev = 0.3
    c.begin(0.25)
    assert c.settle(1e-6)
    assert (c.t, c.dt, c.dt_next, c.err_prev, c.err) == (0.25, 0.25, 0.4, 0.3, 1e-6)

    # A step that is not cut short proposes dt * fac, uncapped by its reach.
    c = _Control(0.0, 0.4)
    c.err_prev = 0.3
    c.begin(0.4)
    assert c.settle(1e-6)
    assert c.dt_next == 0.4 * fac(1e-6, 0.3) == 2.0
    assert c.err_prev == 1e-6

    # A landing step that was rejected first updates both, with fac <= 1.
    c = _Control(0.0, 0.4)
    c.err_prev = 0.3
    c.begin(0.25)
    assert not c.settle(2.0)
    shrunk = c.dt
    assert shrunk == 0.25 * 0.9 * 2.0 ** -0.2
    assert c.settle(0.5)
    assert c.dt_next == shrunk * fac(0.5, 0.3, cap=1.0)
    assert (c.t, c.err_prev, c.steps_rejected, c.n_steps) == (shrunk, 0.5, 1, 1)
    assert c.dt_min == c.dt_max == shrunk


@pytest.mark.parametrize("err, err_prev", [(1e-6, 0.3), (0.02, 0.05), (0.5, 0.3), (1.0, 1e-3), (0.9, None)])
def test_accepted_step_proposes_the_dopri5_factor(err, err_prev):
    # DOPRI5's PI gains: err^-(0.2 - 0.75 * 0.04) * err_prev^0.04, safety 0.9,
    # the factor clamped to [0.2, 5]; the first step has no err_prev.
    c = _Control(1.0, 0.3)
    c.err_prev = err_prev
    c.begin(1.0)
    assert c.settle(err)
    fac = 0.9 * err ** -0.17 * (1.0 if err_prev is None else err_prev ** 0.04)
    assert c.dt_next == 0.3 * min(5.0, max(0.2, fac))
    assert (c.t, c.err_prev, c.n_steps) == (1.3, err, 1)


def test_step_at_equilibrium_is_not_stability_limited(case2):
    # The top mode of n = 16 decays faster than 1e3 per unit time, so an
    # explicit step of dt = 1 is unstable; with that mode integrated exactly
    # the perturbation vanishes and the step is accepted whole.
    eq = coexistence_steady_state(case2)
    state = constant_state(16, *eq)
    asm = RhsAssembler.for_order(case2, 16)
    perturbed = state.copy()
    perturbed.mu1[16, 16] = 1e-6
    new, dt_used, _, err = step(asm, perturbed, 1.0, 1e-7, 1e-10, dt_max=1.0)
    assert dt_used == 1.0 and err <= 1.0
    assert np.abs(new.mu1 - state.mu1).max() < 1e-12
    assert np.abs(new.mu2 - state.mu2).max() < 1e-12


def expm_taylor(M):
    """exp(M) of one 2x2 matrix: a 30-term Taylor series of M / 2^k, squared k
    times, in extended precision where the platform has it."""
    norm = float(np.abs(M).sum(axis=1).max())
    k = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0 else 0
    A = np.asarray(M, dtype=np.longdouble) / 2**k
    term = total = np.eye(2, dtype=np.longdouble)
    for i in range(1, 30):
        term = term @ A / i
        total = total + term
    for _ in range(k):
        total = total @ total
    return total.astype(float)


def blocks_with(c, k11, l12, l21):
    """Stack blocks c I + [[k11, l12], [l21, -k11]] along a last axis (s = k11^2 + l12 l21)."""
    c, k11, l12, l21 = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (c, k11, l12, l21)))
    return np.array([[c + k11, l12], [l21, c - k11]])


def block_families(rng, size=60):
    c = rng.uniform(-3.0, 1.0, size)
    k = rng.uniform(-2.0, 2.0, size)
    b = rng.uniform(0.1, 2.0, size) * rng.choice([-1.0, 1.0], size)
    gap = rng.uniform(0.05, 3.0, size)
    # dyadic c and k keep (l11 - l22)/2 and k^2 exact, so s is exactly 0
    c_dyadic = rng.integers(-24, 9, size) / 8.0
    k_dyadic = rng.integers(-16, 17, size) / 8.0
    tiny = 1e-9 * rng.uniform(-1.0, 1.0, size)
    return {
        "real": blocks_with(c, k, b, (gap - k * k) / b),
        "complex": blocks_with(c, k, b, (-gap - k * k) / b),
        "coincident": blocks_with(c_dyadic, k_dyadic, np.ones(size), -k_dyadic * k_dyadic),
        "jordan": blocks_with(c, 0.0, b, 0.0),
        "scalar": blocks_with(c, 0.0, 0.0, 0.0),
        "near_coincident": blocks_with(c, k, b, (tiny - k * k) / b),
    }


@pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 3.0])
def test_block_exp_matches_taylor_reference(t):
    for family, L in block_families(np.random.default_rng(5)).items():
        if family == "coincident":
            k11 = 0.5 * (L[0, 0] - L[1, 1])
            assert np.all(k11 * k11 + L[0, 1] * L[1, 0] == 0.0)
        E = _block_exp(L, t)
        for i in range(L.shape[-1]):
            ref = expm_taylor(t * L[:, :, i])
            assert np.abs(E[:, :, i] - ref).max() <= 1e-13 * np.abs(ref).max(), (family, i)


def block_exp_out_of_place(L, t):
    """_block_exp's arithmetic with a fresh array for every intermediate."""
    (l11, l12), (l21, l22) = L
    k11 = 0.5 * (l11 - l22)
    s = k11 * k11 + l12 * l21
    real = s >= 0.0
    root = np.sqrt(np.abs(s))
    grow = np.exp(t * (0.5 * (l11 + l22) + root * real))
    r = t * root
    m = np.expm1(-2.0 * r)
    a = np.where(real, 1.0 + 0.5 * m, np.cos(r))
    b = np.where(real, -0.5 * m, np.sin(r))
    alpha = grow * a
    beta = np.where(r > 0.0, b / np.where(r > 0.0, r, 1.0), 1.0) * grow * t
    return np.array([[alpha + beta * k11, beta * l12], [beta * l21, alpha - beta * k11]])


def test_block_exp_in_place_keeps_the_bits():
    # Every family at once, with the (theta, member) factors of a round.
    families = np.concatenate(list(block_families(np.random.default_rng(6), size=24).values()), axis=-1)
    L = families.reshape(2, 2, 3, 6, 8)  # members on axis 2, as in a round
    t = np.multiply.outer(np.linspace(0.0, 1.0, 14), [0.01, 0.3, 2.0])[:, :, None, None]
    assert np.array_equal(_block_exp(L, t), block_exp_out_of_place(L, t))
    assert np.array_equal(_block_exp(L[..., 0, 0], 0.7), block_exp_out_of_place(L[..., 0, 0], 0.7))


def test_block_exp_is_finite_and_quiet_for_stiff_blocks():
    # h |lambda| about 1e4: eigenvalues -1e4 and -0.5, -1e4 +- 30i, and -1e4
    # twice (a Jordan block), each conjugated by a fixed well-conditioned V.
    V = np.array([[1.0, 0.3], [0.2, 1.0]])
    real = V @ np.diag([-1e4, -0.5]) @ np.linalg.inv(V)
    cplx = V @ np.array([[-1e4, 30.0], [-30.0, -1e4]]) @ np.linalg.inv(V)
    jordan = V @ np.array([[-1e4, 1.0], [0.0, -1e4]]) @ np.linalg.inv(V)
    L = np.stack([real, cplx, jordan], axis=-1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            E = _block_exp(L, 1.0)
    assert np.all(np.isfinite(E))
    lam, vec = np.linalg.eig(real)
    ref = (vec * np.exp(lam)) @ np.linalg.inv(vec)
    assert np.abs(E[:, :, 0] - ref).max() <= 1e-10 * np.abs(ref).max()
    assert not E[:, :, 1:].any()  # e^{-1e4} underflows to 0


def test_step_underflow_on_divergent_rhs(case1):
    asm = RhsAssembler.for_order(case1, 2)
    state = constant_state(2, 1e160, 1e160)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StepUnderflow):
            step(asm, state, 1.0, 1e-7, 1e-10)


def test_rejection_shrinks_step(case2, rng):
    asm = RhsAssembler.for_order(case2, 4)
    width = 5
    mu1 = 0.2 * rng.normal(size=(width, width))
    mu2 = 0.2 * rng.normal(size=(width, width))
    mu1[0, 0] += np.pi
    mu2[0, 0] += np.pi
    state = SpectralState(mu1, mu2, 0.0)
    new, dt_used, dt_next, err = step(asm, state, 50.0, 1e-10, 1e-12)
    assert dt_used < 50.0
    assert err <= 1.0
    assert new.t == dt_used


def integrate_fixed(asm, state, dt, n_steps, rtol=1e6, atol=1e6):
    # Tolerances so loose that every step is accepted at exactly dt.
    for _ in range(n_steps):
        state, used, _, _ = step(asm, state, dt, rtol, atol, dt_max=dt)
        assert used == dt
    return state


def test_fifth_order_convergence(case1, rng):
    n = 2
    asm = RhsAssembler.for_order(case1, n)
    width = n + 1
    mu1 = 0.1 * rng.normal(size=(width, width))
    mu2 = 0.1 * rng.normal(size=(width, width))
    mu1[0, 0] += 0.8 * np.pi
    mu2[0, 0] += 0.6 * np.pi
    start = SpectralState(mu1, mu2, 0.0)

    T = 0.25
    ref = start
    while ref.t < T - 1e-15:
        ref, _, _, _ = step(asm, ref, T - ref.t, 1e-12, 1e-14, dt_max=T - ref.t)
    ref_y = np.concatenate([ref.mu1.ravel(), ref.mu2.ravel()])

    errs = []
    for k in (8, 16, 32):
        end = integrate_fixed(asm, start, T / k, k)
        y = np.concatenate([end.mu1.ravel(), end.mu2.ravel()])
        errs.append(np.abs(y - ref_y).max())
    slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for slope in slopes:
        assert 4.3 < slope < 5.9, (slopes, errs)


def test_case2_gaussian_work_count(case2):
    # The run of the ROADMAP's work-count table.  A step cut short to land
    # on a snapshot time leaves the step-size proposal alone; when it capped
    # the next proposal instead, this run took 296 steps, and 175 under
    # Gustafsson's PI gains 0.14 and 0.08 instead of DOPRI5's.
    config = RunConfig(n=8)
    ic = {"type": "gaussian", "cx": 1.55, "cy": 1.6, "sigma": 0.5, "amp": 0.5, "offset": 0.2}
    result = run(case2, config, ic, ic)
    assert result.outcome == "steady_state" and result.reason is None
    assert result.n_steps <= 160
    assert result.rhs_evals == 6 * (result.n_steps + result.steps_rejected) + 1
    assert 0 < result.dt_min <= result.dt_max <= config.snapshot_dt


def test_case1_sweep_work_count(case1):
    # The nine cells of sweep case1 at n = 8, as the sweep batches them.
    # Under Gustafsson's PI gains they took 985 accepted steps.
    labels = sorted(SWEEP_SHAPES)
    batch = Batch(case1, RunConfig(n=8))
    for lu in labels:
        for lv in labels:
            batch.add(SWEEP_SHAPES[lu], SWEEP_SHAPES[lv])
    results = batch.integrate()
    assert [r.outcome for r in results] == ["steady_state"] * 9
    assert sum(r.n_steps for r in results) <= 800
    assert sum(r.steps_rejected for r in results) <= 6
    for r in results:
        assert r.rhs_evals == 6 * (r.n_steps + r.steps_rejected) + 1


def test_case2_settles_in_few_steps(case2):
    # Work-count guard: explicit Dormand-Prince needed 4962 accepted steps
    # here, held by the stability limit of the stiffest mode.
    result = run(case2, RunConfig(n=8), SWEEP_SHAPES["C"], SWEEP_SHAPES["C"])
    assert result.outcome == "steady_state" and result.reason is None
    assert result.n_steps <= 400
    u, v = synthesize(result.final_state, 36)
    assert max(np.abs(u - 1.05).max(), np.abs(v - 0.8).max()) < 1e-3
    # Six rhs calls per attempt and one for the initial state; the
    # diagnostics records reuse the stepper's derivative.
    attempts = result.n_steps + result.steps_rejected
    assert result.rhs_evals == 6 * attempts + 1


@pytest.mark.parametrize("name, config, shape", [
    ("case1", RunConfig(n=4, t_max=3.0, snapshot_dt=0.5), "A"),
    ("case2", RunConfig(n=4), "C"),
], ids=["case1", "case2"])
def test_timeseries_matches_fresh_rhs_at_each_snapshot(name, config, shape):
    p = preset(name)
    result = run(p, config, SWEEP_SHAPES[shape], SWEEP_SHAPES[shape])
    assert len(result.timeseries) == len(result.snapshots) > 2
    asm = RhsAssembler.for_order(p, config.n)
    for record, state in zip(result.timeseries, result.snapshots):
        assert record == diagnostics(state, asm.rhs(state), result.cert, result.level)


# Dormand-Prince 5(4): nodes, stage weights, 5th-order minus 4th-order weights.
DP_C = [0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0]
DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
DP_E = [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]


def lawson_dp5_reference(asm, L, y, h, y_star):
    """One Lawson DP5 step of z = y - y_star, mode by mode: Z_i = e^{c_i hL} z +
    h sum_j a_ij e^{(c_i - c_j) hL} N_j with N_j = F(Z_j + y_star) - L Z_j, new
    state Z_6 + y_star, error h sum_j e_j e^{(1 - c_j) hL} N_j."""
    w = y.shape[1]
    modes = [(j, k) for j in range(w) for k in range(w)]

    def nonlinear(Z):
        Y = Z + y_star
        F = np.array(asm.rhs(SpectralState(Y[0], Y[1], 0.0)))
        return F - np.einsum("rsjk,sjk->rjk", L, Z), F

    def factor(theta, j, k):
        return expm_taylor(theta * h * L[:, :, j, k])

    z = y - y_star
    N = [nonlinear(z)[0]]
    for i in range(1, 7):
        Z = np.zeros_like(z)
        for j, k in modes:
            Z[:, j, k] = factor(DP_C[i], j, k) @ z[:, j, k]
            for s in range(i):
                Z[:, j, k] += h * DP_A[i][s] * (factor(DP_C[i] - DP_C[s], j, k) @ N[s][:, j, k])
        n_i, F = nonlinear(Z)
        N.append(n_i)
    err = np.zeros_like(z)
    for j, k in modes:
        for s in range(7):
            err[:, j, k] += h * DP_E[s] * (factor(1.0 - DP_C[s], j, k) @ N[s][:, j, k])
    return Z + y_star, err, F


@pytest.mark.parametrize("h", [0.1, 0.5])
def test_attempt_matches_plain_lawson_dp5(case2, rng, h):
    # Pins every factor of the tableau, the error row's e^{(1 - c_j) hL}
    # included: the step's accuracy alone does not see a wrong error row.
    n = 2
    asm = RhsAssembler.for_order(case2, n)
    state = constant_state(n, *coexistence_steady_state(case2))
    y_star = np.stack([state.mu1, state.mu2])
    y = y_star[:, None] + 0.05 * rng.normal(size=(2, 1, n + 1, n + 1))  # a batch of one
    f, L = asm.derivative(y)
    ref_y, ref_err, ref_f = lawson_dp5_reference(asm, L[:, :, 0], y[:, 0], h, y_star)
    y_new, err, f, L_new = _attempt(asm, L, y, f, np.array([h]))
    assert np.array_equal(L_new, asm.derivative(y_new)[1])
    for got, want, tol in ((y_new, ref_y, 1e-12), (f, ref_f, 1e-12), (err, ref_err, 1e-6)):
        got, want = got.ravel(), want.ravel()
        assert np.abs(got - want).max() <= tol * np.abs(want).max()


@pytest.mark.parametrize("name", ["case1", "case2"])
def test_attempt_from_the_coexistence_state_stays_there(name):
    # About y* the mean mode's nonlinear part is zero, so the Lawson step is
    # exact there whatever its size; unshifted, one step of h = 50 moved the
    # state by 5e-9 of its size and estimated an error of 1e-8.
    n = 4
    p = preset(name)
    asm = RhsAssembler.for_order(p, n)
    state = constant_state(n, *coexistence_steady_state(p))
    y = np.stack([state.mu1, state.mu2])[:, None]
    f, L = asm.derivative(y)
    y_new, err, _, _ = _attempt(asm, L, y, f, np.array([50.0]))
    assert np.abs(y_new - y).max() <= 1e-14 * np.abs(y).max()
    assert np.abs(err).max() <= 1e-14


def unshifted_attempt(asm, L, y, f, h):
    """_attempt's formula without a reference state: the stages are states Y and N = F - L Y."""
    E = _block_exp(L, np.multiply.outer(_THETA, h)[:, :, None, None])
    W = h[:, None, None] * _ROW_WEIGHT
    W[:, :, 0] = _ROW_WEIGHT[:, 0]
    V = np.empty((8,) + y.shape)
    V[0] = y
    V[1] = f - block_product(L, y)

    def row(i, cols):
        return np.einsum("rsjbxy,bj,jsbxy->rbxy", E[:, :, _ROW_THETA[i, cols]], W[:, i, cols], V[cols])

    for i in range(1, 7):
        Y = row(i, slice(0, i + 1))
        f, L_new = asm.derivative(Y)
        V[i + 1] = f - block_product(L, Y)
    return Y, row(7, slice(1, 8)), f, L_new


@pytest.mark.parametrize("unshifted", [False, True])
def test_attempt_without_a_reference_state_is_unshifted(case1, rng, unshifted):
    # a2 = -1 leaves case1 no coexistence state, and unshifted() drops it:
    # either way no shift, and the mean mode's block stays zero.
    if unshifted:
        asm = RhsAssembler.for_order(case1, 3).unshifted()
    else:
        p = replace(case1, a2=-1.0)
        assert coexistence_steady_state(p) is None
        asm = RhsAssembler.for_order(p, 3)
    n = 3
    y = 0.1 * rng.normal(size=(2, 2, n + 1, n + 1))
    y[:, :, 0, 0] += 0.5 * np.pi
    f, L = asm.derivative(y)
    assert asm.reference is None and np.array_equal(asm.relative(y), y)
    assert not L[:, :, :, 0, 0].any()
    h = np.array([0.05, 0.2])
    for got, want in zip(_attempt(asm, L, y, f, h), unshifted_attempt(asm, L, y, f, h)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("members", [1, 3, 9])
def test_batched_rhs_equals_member_calls(case2, n, members):
    rng = np.random.default_rng([n, members])
    asm = RhsAssembler.for_order(case2, n)
    y = 0.3 * rng.normal(size=(2, members, n + 1, n + 1))
    y[:, :, 0, 0] += np.pi
    batched, blocks = asm.rhs_flat(y)
    for b in range(members):
        alone, alone_blocks = asm.rhs_flat(y[:, b:b + 1])
        assert np.array_equal(batched[:, b:b + 1], alone)
        assert np.array_equal(blocks[:, :, b:b + 1], alone_blocks)


def assert_same_run(got, want, tmp_path):
    """Equal counts and outcome, and byte-equal run directories."""
    assert (got.outcome, got.reason, got.n_steps, got.steps_rejected, got.rhs_evals) == (
        want.outcome, want.reason, want.n_steps, want.steps_rejected, want.rhs_evals)
    save_run(got, tmp_path / "batch")
    save_run(want, tmp_path / "alone")
    for name in ("manifest.json", "snapshots.npy"):
        assert (tmp_path / "batch" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()


@pytest.mark.parametrize("name", ["case1", "case2"])
def test_nine_cell_batch_equals_batches_of_one(name, tmp_path):
    p = preset(name)
    config = RunConfig(n=4)
    labels = sorted(SWEEP_SHAPES)
    pairs = [(SWEEP_SHAPES[lu], SWEEP_SHAPES[lv]) for lu in labels for lv in labels]
    batch = Batch(p, config)
    for ic_u, ic_v in pairs:
        batch.add(ic_u, ic_v)
    together = batch.integrate()
    assert len(together) == 9
    for i, ((ic_u, ic_v), result) in enumerate(zip(pairs, together)):
        assert_same_run(result, run(p, config, ic_u, ic_v), tmp_path / str(i))


def test_members_leave_a_mixed_batch_independently(tmp_path):
    # Under mutual amplification, the constant 1.0 exceeds the sup threshold
    # at t ~ 0.41, the fixed point 0.0 settles after two snapshots, and the
    # constant 0.01 grows too slowly to blow up before t_max: they leave at
    # different rounds by different outcomes.
    p = params_from_dict(DIVERGENT)
    config = RunConfig(n=2, t_max=3.0)
    ics = [({"type": "constant", "value": c}, {"type": "constant", "value": c})
           for c in (1.0, 0.0, 0.01)]
    batch = Batch(p, config)
    for ic_u, ic_v in ics:
        batch.add(ic_u, ic_v)
    with np.errstate(over="ignore", invalid="ignore"):
        together = batch.integrate()
        alone = [run(p, config, ic_u, ic_v) for ic_u, ic_v in ics]
    assert [(r.outcome, r.reason) for r in together] == [
        ("blow_up", "sup_threshold"), ("steady_state", None), ("t_max_reached", None)]
    assert len({r.n_steps + r.steps_rejected for r in together}) == 3
    for i, (got, want) in enumerate(zip(together, alone)):
        assert_same_run(got, want, tmp_path / str(i))


COSINE = {"type": "cosine", "offset": 0.5, "terms": [{"j": 1, "k": 1, "amp": 0.2}]}
ZERO = {"type": "constant", "value": 0.0}


@pytest.mark.parametrize("zero_u, steps, t_end", [(False, 37, 16.0), (True, 98, 53.0)])
def test_a_species_that_starts_at_zero_stays_there(case1, zero_u, steps, t_end):
    # {v = 0} is invariant, but y* lies off it, and stepped about y* the
    # mean of v took N_v = lambda pi v* and grew toward coexistence
    # (t = 55, 286 steps, v up to 0.64).  Stepped unshifted, the run keeps
    # the zero species at 0 bit for bit and settles at the semi-trivial
    # state: the work counts and end times are those of the stepper before
    # the shift, whose snapshots this run matches byte for byte.
    ic_u, ic_v = (ZERO, COSINE) if zero_u else (COSINE, ZERO)
    result = run(case1, RunConfig(n=8), ic_u, ic_v)
    assert (result.outcome, result.n_steps, result.steps_rejected, result.final_state.t) == (
        "steady_state", steps, 0, t_end)
    zero, alive = (1, 0) if not zero_u else (0, 1)
    for state in result.snapshots + [result.final_state]:
        pair = (state.mu1, state.mu2)
        assert not pair[zero].any()
    level = case1.a1 / case1.b1 if not zero_u else case1.a2 / case1.c2
    assert abs((result.final_state.mu1, result.final_state.mu2)[alive][0, 0] / np.pi - level) < 1e-7


def test_a_batch_steps_zero_species_runs_apart(case1, tmp_path):
    # Runs with a species at zero step unshifted in their own lockstep
    # group; each run is still bit for bit its batch of one.
    config = RunConfig(n=4)
    ics = [(COSINE, ZERO), (SWEEP_SHAPES["C"], SWEEP_SHAPES["A"]), (ZERO, COSINE)]
    batch = Batch(case1, config)
    for ic_u, ic_v in ics:
        batch.add(ic_u, ic_v)
    assert [start[0] for start in batch._starts] == [batch._unshifted, batch.assembler, batch._unshifted]
    together = batch.integrate()
    for i, ((ic_u, ic_v), got) in enumerate(zip(ics, together)):
        assert_same_run(got, run(case1, config, ic_u, ic_v), tmp_path / str(i))


def test_add_refuses_initial_fields_above_the_blowup_threshold(case1, tmp_path):
    # A run that takes no step has not blown up: set-up makes the blow-up
    # test, raises, and leaves the batch as it was.
    batch = Batch(case1, RunConfig(n=4, t_max=3.0))
    batch.add(SWEEP_SHAPES["C"], SWEEP_SHAPES["A"])
    (member,) = batch.members
    huge = {"type": "constant", "value": 1e7}
    with pytest.raises(ValueError, match=r"initial fields reach sup .* above blowup_threshold 1000000\.0"):
        batch.add(huge, huge)
    assert batch.members == [member] and len(batch._starts) == 1
    (result,) = batch.integrate()
    assert_same_run(result, run(case1, batch.config, SWEEP_SHAPES["C"], SWEEP_SHAPES["A"]), tmp_path)


def test_step_underflow_ends_members_of_a_mixed_batch(tmp_path):
    # The 1.0 member underflows at the first attempt of a step, after 0
    # rejections; the 0.05 member underflows at t ~ 2.4 after one rejection;
    # the 0.0 member sits at a fixed point.
    p = params_from_dict(DIVERGENT)
    config = RunConfig(n=2, t_max=5.0, blowup_threshold=1e300)
    ics = [({"type": "constant", "value": c}, {"type": "constant", "value": c})
           for c in (1.0, 0.0, 0.05)]
    batch = Batch(p, config)
    for ic_u, ic_v in ics:
        batch.add(ic_u, ic_v)
    with np.errstate(over="ignore", invalid="ignore"):
        together = batch.integrate()
        alone = [run(p, config, ic_u, ic_v) for ic_u, ic_v in ics]
    assert [(r.outcome, r.reason) for r in together] == [
        ("blow_up", "step_underflow"), ("steady_state", None), ("blow_up", "step_underflow")]
    assert [r.steps_rejected for r in together] == [0, 0, 1]
    assert together[0].final_state.t < together[2].final_state.t < config.t_max
    for i, (got, want) in enumerate(zip(together, alone)):
        assert_same_run(got, want, tmp_path / str(i))


def test_run_reaches_steady_state(case1):
    config = RunConfig(n=4, t_max=100.0)
    result = run(case1, config, {"type": "constant", "value": 0.5},
                 {"type": "constant", "value": 0.5})
    assert result.outcome == "steady_state"
    eq = coexistence_steady_state(case1)
    assert result.final_state.mu1[0, 0] / np.pi == pytest.approx(eq[0], abs=1e-6)
    assert result.final_state.mu2[0, 0] / np.pi == pytest.approx(eq[1], abs=1e-6)
    assert result.cert is not None and result.cert.feasible
    assert result.conditions.theorem_2_2_applies
    # level is the max of H over the initial fields
    assert result.level == pytest.approx(float(eval_H(result.cert, 0.5, 0.5).H), rel=1e-9)
    assert result.timeseries[0].t == 0.0
    assert len(result.timeseries) == len(result.snapshots)
    assert result.n_steps > 0


@pytest.mark.parametrize("values", [PRESETS["case1"], ILL_POSED], ids=["case1", "ill-posed"])
def test_level_is_max_H_of_the_t0_record(values):
    p = params_from_dict(values)
    n = 4
    ic_v = {"type": "cosine", "offset": 0.205, "terms": [{"j": 1, "k": 1, "amp": 0.01}]}
    result = run(p, RunConfig(n=n, t_max=0.5, snapshot_dt=0.25), SWEEP_SHAPES["C"], ic_v)
    first = result.timeseries[0]
    assert result.level == first.max_H
    assert first.L_value == 0.0
    if result.cert is None:
        assert values is ILL_POSED and result.level == 0.0
    else:
        u, v = synthesize(result.snapshots[0], 4 * (n + 1))
        assert result.level == float(np.max(eval_H(result.cert, u, v).H))


def test_steady_state_is_sound_under_restart(case1):
    config = RunConfig(n=4, t_max=100.0)
    first = run(case1, config, {"type": "constant", "value": 0.5},
                {"type": "constant", "value": 0.5})
    assert first.outcome == "steady_state"
    res = 4 * (config.n + 1)
    u, v = synthesize(first.final_state, res)
    again = run(case1, RunConfig(n=4, t_max=10.0), u, v)
    assert again.outcome == "steady_state"
    assert again.final_state.t <= 2.0
    drift = abs(again.final_state.mu1[0, 0] - first.final_state.mu1[0, 0]) * np.pi
    assert drift < 10 * config.steady_tol


def test_mass_conservation_without_reactions():
    p = params_from_dict(dict(PURE_DIFFUSION, alpha11=0.5, alpha12=0.1,
                              alpha21=0.2, alpha22=0.4, b11=0.3, b22=0.2))
    ic_u = {"type": "cosine", "offset": 0.6,
            "terms": [{"j": 1, "k": 1, "amp": 0.2}, {"j": 2, "k": 0, "amp": 0.1}]}
    ic_v = {"type": "gaussian", "cx": 1.2, "cy": 2.0, "sigma": 0.6,
            "amp": 0.4, "offset": 0.3}
    result = run(p, RunConfig(n=6, t_max=5.0), ic_u, ic_v)
    assert result.outcome in ("steady_state", "t_max_reached")
    mass_u = [rec.mass_u for rec in result.timeseries]
    mass_v = [rec.mass_v for rec in result.timeseries]
    assert max(abs(m - mass_u[0]) for m in mass_u) < 1e-8
    assert max(abs(m - mass_v[0]) for m in mass_v) < 1e-8


def test_low_mass_gaussian_approaches_equilibrium_level_from_below(case1):
    # Sweep shape C for both species: the grid max of H drops below its
    # equilibrium value H(u*, v*) during the transient, then climbs back at
    # the slowest linear decay rate.  Acceptance criterion 9 allows this
    # climb; pin it so that an integrator change cannot alter it silently.
    result = run(case1, RunConfig(n=8), SWEEP_SHAPES["C"], SWEEP_SHAPES["C"])
    assert result.outcome == "steady_state"
    h_star = float(eval_H(result.cert, *coexistence_steady_state(case1)).H)
    max_H = [rec.max_H for rec in result.timeseries]
    assert min(max_H) < h_star - 1e-2
    assert max_H[-1] == pytest.approx(h_star, abs=1e-6)
    t_end = result.timeseries[-1].t
    tail = [rec.max_H for rec in result.timeseries if rec.t >= 0.5 * t_end]
    assert len(tail) >= 2
    for earlier, later in zip(tail, tail[1:]):
        assert later >= earlier - 1e-6, (earlier, later)


def test_run_blow_up_outcome():
    p = params_from_dict(DIVERGENT)
    with np.errstate(over="ignore", invalid="ignore"):
        result = run(p, RunConfig(n=2, t_max=5.0), {"type": "constant", "value": 1.0},
                     {"type": "constant", "value": 1.0})
    assert result.outcome == "blow_up"
    assert result.reason == "sup_threshold"
    assert result.final_state.t < 5.0
    assert result.cert is None


def test_run_blow_up_reason_step_underflow():
    # With the sup threshold out of reach, the step collapses at the
    # finite-time singularity instead.
    p = params_from_dict(DIVERGENT)
    with np.errstate(over="ignore", invalid="ignore"):
        result = run(p, RunConfig(n=2, t_max=5.0, blowup_threshold=1e300),
                     {"type": "constant", "value": 1.0}, {"type": "constant", "value": 1.0})
    assert result.outcome == "blow_up"
    assert result.reason == "step_underflow"
    assert result.final_state.t < 5.0


def test_run_step_budget_outcome(case1):
    config = RunConfig(n=4, t_max=50.0, max_steps=3)
    result = run(case1, config, {"type": "cosine", "offset": 0.5,
                                 "terms": [{"j": 1, "k": 1, "amp": 0.2}]},
                 {"type": "constant", "value": 0.4})
    assert result.outcome == "step_budget_exhausted"
    assert result.reason is None
    assert result.n_steps == 3


def test_run_config_validation():
    with pytest.raises(ValueError, match="t_max"):
        RunConfig(t_max=0.0).validate()
    with pytest.raises(ValueError, match="snapshot_dt"):
        RunConfig(t_max=1.0, snapshot_dt=2.0).validate()
    with pytest.raises(ValueError, match="rtol"):
        RunConfig(rtol=0.0).validate()
    with pytest.raises(ValueError, match="max_steps"):
        RunConfig(max_steps=0).validate()
    with pytest.raises(ValueError, match="truncation"):
        RunConfig(n=-1).validate()
    for name in ("t_max", "rtol", "atol", "snapshot_dt", "steady_tol", "blowup_threshold"):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                RunConfig(**{name: value}).validate()
    # Below the reach tolerance 1e-12 every snapshot time counts as reached
    # at t = 0, and the run would record the initial state eleven times.
    with pytest.raises(ValueError, match="snapshot_dt"):
        RunConfig(t_max=1e-14, snapshot_dt=1e-15).validate()
    # At snapshot_dt = 1e-12 the first snapshot time lies within the reach
    # tolerance of t = 0: it would record the initial state, labelled 1e-12.
    with pytest.raises(ValueError, match="snapshot_dt must exceed 1e-12"):
        RunConfig(t_max=1e-12, snapshot_dt=1e-12).validate()
    # At t_max = 1e12 the tolerance is 1.0, which the default snapshot_dt meets.
    RunConfig(t_max=1e12).validate()


def test_t_max_within_reach_of_the_last_grid_time_adds_no_snapshot(case1):
    # A snapshot at t_max would count as reached without a step and record
    # the state of the last grid time, labelled 2e-12.
    result = run(case1, RunConfig(n=2, t_max=2e-12, snapshot_dt=1.5e-12),
                 SWEEP_SHAPES["C"], SWEEP_SHAPES["A"])
    assert (result.outcome, result.n_steps) == ("t_max_reached", 1)
    assert [rec.t for rec in result.timeseries] == [0.0, 1.5e-12]
    # The grid time 3 * snapshot_dt = 1.0000000001 lies beyond the reach of
    # t_max = 1: the run ends at t_max, not past it.
    result = run(case1, RunConfig(n=2, t_max=1.0, snapshot_dt=(1 / 3) * (1 + 1e-10)),
                 SWEEP_SHAPES["C"], SWEEP_SHAPES["A"])
    assert result.outcome == "t_max_reached"
    assert result.final_state.t == 1.0
    assert result.timeseries[-1].t == 1.0
    # 3 * 0.1 = 0.30000000000000004 lies within reach of t_max = 0.3, so the
    # run ends at that grid time and keeps its bits.
    result = run(case1, RunConfig(n=2, t_max=0.3, snapshot_dt=0.1),
                 SWEEP_SHAPES["C"], SWEEP_SHAPES["A"])
    assert result.outcome == "t_max_reached"
    assert result.final_state.t == 0.30000000000000004
    assert [rec.t for rec in result.timeseries] == [i * 0.1 for i in range(4)]


def test_snapshot_schedule_is_computed_on_demand(case1):
    # 10^12 snapshot times would not fit in memory; the budget ends the run
    # long before the first of them is needed.
    start = time.perf_counter()
    batch = Batch(case1, RunConfig(t_max=1e12, max_steps=50))
    batch.add(SWEEP_SHAPES["C"], SWEEP_SHAPES["A"])
    (result,) = batch.integrate()
    assert time.perf_counter() - start < 1.0
    assert (result.outcome, result.n_steps) == ("step_budget_exhausted", 50)
    # i * snapshot_dt, then t_max where the grid stops short of it
    result = run(case1, RunConfig(n=2, t_max=0.5, snapshot_dt=0.07),
                 SWEEP_SHAPES["C"], SWEEP_SHAPES["A"])
    assert result.outcome == "t_max_reached"
    assert [rec.t for rec in result.timeseries] == [i * 0.07 for i in range(8)] + [0.5]


def test_diagnostics_reference_values(case1):
    asm = RhsAssembler.for_order(case1, 4)
    cert = LyapunovCert(lam=2.0, mu=1.0, K=math.sqrt(2.0))
    state = constant_state(4, 1.0, 1.0)
    rec = diagnostics(state, asm.rhs(state), cert, level=0.0)
    assert rec.max_H == pytest.approx(2.5, rel=1e-12)
    assert rec.mass_u == pytest.approx(np.pi**2, rel=1e-12)
    assert rec.mass_v == pytest.approx(np.pi**2, rel=1e-12)
    assert rec.min_u == pytest.approx(1.0, rel=1e-12)
    assert rec.max_v == pytest.approx(1.0, rel=1e-12)
    assert rec.L_value == pytest.approx(0.5 * 2.5**2 * np.pi**2, rel=1e-10)
    assert rec.rhs_norm > 0

    zero = constant_state(4, 0.0, 0.0)
    empty = diagnostics(zero, asm.rhs(zero))
    assert empty.max_H == 0.0 and empty.L_value == 0.0
    assert empty.rhs_norm == 0.0 and empty.mass_u == 0.0
    assert set(rec.to_dict()) == {
        "t", "mass_u", "mass_v", "min_u", "max_u", "min_v", "max_v",
        "max_H", "L_value", "rhs_norm",
    }


@pytest.mark.parametrize("name", ["case1", "case2"])
def test_diagnostics_L_value_is_eval_L(name, rng):
    # diagnostics evaluates H once for max_H and L; level_excess of H gives the same bits.
    p = preset(name)
    cert = find_certificate(p)
    n = 6
    res = 4 * (n + 1)
    asm = RhsAssembler.for_order(p, n)
    for _ in range(5):
        state = constant_state(n, *coexistence_steady_state(p))
        state.mu1 += 0.3 * rng.normal(size=state.mu1.shape)
        state.mu2 += 0.3 * rng.normal(size=state.mu2.shape)
        u, v = synthesize(state, res)
        level = float(np.median(eval_H(cert, u, v).H))
        rec = diagnostics(state, asm.rhs(state), cert, level)
        assert rec.L_value > 0.0
        assert rec.L_value == level_excess(eval_H(cert, u, v).H, level, (np.pi / res) ** 2)
        assert rec.max_H == float(np.max(eval_H(cert, u, v).H))


@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("members", [1, 3, 9])
def test_round_sup_bounds_equal_member_bounds(n, members):
    # One reduction per round gives each member's bound, bit for bit.
    rng = np.random.default_rng([n, members, 7])
    y = rng.normal(size=(2, members, n + 1, n + 1)) * 10.0 ** rng.uniform(-8, 8, (2, members, 1, 1))
    bounds = _sup_bounds(y)
    for b in range(members):
        alone = (2.0 / np.pi) * max(float(np.sum(np.abs(y[0, b]))), float(np.sum(np.abs(y[1, b]))))
        assert bounds[b] == alone


def test_fd_reference_heat_equation():
    p = params_from_dict(PURE_DIFFUSION)
    N = 64
    x = (np.arange(N) + 0.5) * np.pi / N
    u0 = 1.0 + 0.5 * np.cos(x)[:, None] * np.ones(N)[None, :]
    v0 = np.full((N, N), 1.0)
    u, v = fd_reference(p, u0, v0, N, t_end=1.0)
    exact = 1.0 + 0.5 * math.exp(-1.0) * np.cos(x)[:, None] * np.ones(N)[None, :]
    assert np.abs(u - exact).max() < 1e-4
    assert np.abs(v - 1.0).max() < 1e-12


def test_fd_reference_guards():
    p = params_from_dict(PURE_DIFFUSION)
    ones = np.ones((32, 32))
    with pytest.raises(ValueError, match="at least 16"):
        fd_reference(p, np.ones((8, 8)), np.ones((8, 8)), 8, 1.0)
    with pytest.raises(ValueError, match="initial fields"):
        fd_reference(p, np.ones((16, 16)), ones, 32, 1.0)
    with pytest.raises(ValueError, match="t_end"):
        fd_reference(p, ones, ones, 32, 0.0)
    with pytest.raises(ValueError, match="stability"):
        fd_reference(p, ones, ones, 32, 1.0, dt=1.0)


def test_fd_reference_constant_state_is_fixed(case1):
    eq = coexistence_steady_state(case1)
    N = 16
    u0 = np.full((N, N), eq[0])
    v0 = np.full((N, N), eq[1])
    u, v = fd_reference(case1, u0, v0, N, t_end=0.5)
    assert np.abs(u - eq[0]).max() < 1e-12
    assert np.abs(v - eq[1]).max() < 1e-12


def test_fd_reference_bound_covers_cross_diffusion(rng):
    # Cross-diffusion b11 = b22 = 0.09 at u = v ~ 1 nearly doubles the
    # spectral radius of [[Pu, Pv], [Qu, Qv]] over max(Pu, Qv) = 0.1 and keeps
    # the system parabolic (det > 0).
    p = params_from_dict(dict(PURE_DIFFUSION, d1=0.1, d2=0.1, b11=0.09, b22=0.09))
    N = 16
    h = np.pi / N
    u0 = 1.0 + 0.01 * rng.standard_normal((N, N))
    v0 = 1.0 + 0.01 * rng.standard_normal((N, N))
    rho = 0.1 + 0.09 * np.sqrt(u0 * v0)
    assert rho.max() / 0.1 > 1.85
    # At the old limit 0.2 h^2 / max(Pu, Qv), RK4's amplification on the
    # stiffest grid mode, z = -8 dt rho / h^2, exceeds 1: that step is unstable.
    old_dt = 0.2 * h * h / 0.1
    z = -8.0 * old_dt * rho.max() / (h * h)
    assert 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24 > 1.4
    with pytest.raises(ValueError, match="stability"):
        fd_reference(p, u0, v0, N, t_end=50 * old_dt, dt=old_dt)
    # The default dt is stable: the perturbation shrinks, the mean stays.
    u, v = fd_reference(p, u0, v0, N, t_end=50 * old_dt)
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(v))
    assert np.ptp(u) < 0.5 * np.ptp(u0) and np.ptp(v) < 0.5 * np.ptp(v0)
    assert abs(u.mean() - u0.mean()) < 1e-12 and abs(v.mean() - v0.mean()) < 1e-12


def test_snapshot_round_trip(case1, tmp_path):
    result = run(case1, RunConfig(n=3, t_max=1.0, snapshot_dt=0.25),
                 SWEEP_SHAPES["C"], SWEEP_SHAPES["A"])
    save_run(result, tmp_path)
    loaded = load_snapshots(tmp_path)
    assert len(loaded) == len(result.snapshots) == 5
    for back, state in zip(loaded, result.snapshots):
        assert back.t == state.t
        assert np.array_equal(back.mu1, state.mu1)
        assert np.array_equal(back.mu2, state.mu2)


def test_save_run_manifest_and_determinism(case1, tmp_path):
    config = RunConfig(n=2, t_max=2.0)
    result = run(case1, config, {"type": "constant", "value": 0.52},
                 {"type": "constant", "value": 0.2})
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    manifest = save_run(result, out1)
    save_run(result, out2)

    assert set(manifest) == {
        "params", "config", "outcome", "reason", "n_steps", "steps_rejected",
        "rhs_evals", "dt_min", "dt_max", "final_time", "level", "conditions", "certificate",
        "projection", "timeseries", "snapshots",
    }
    assert manifest["reason"] is None
    assert manifest["steps_rejected"] == result.steps_rejected
    assert (manifest["dt_min"], manifest["dt_max"]) == (result.dt_min, result.dt_max)
    assert manifest["rhs_evals"] == result.rhs_evals > 6 * result.n_steps
    assert manifest["outcome"] == result.outcome
    assert manifest["snapshots"] == [{"t": s.t, "index": i} for i, s in enumerate(result.snapshots)]
    assert sorted(p.name for p in out1.iterdir()) == ["manifest.json", "snapshots.npy"]

    on_disk = json.loads((out1 / "manifest.json").read_text())
    assert on_disk == manifest
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()
    assert (out1 / "snapshots.npy").read_bytes() == (out2 / "snapshots.npy").read_bytes()

    # fields of the saved states agree with direct synthesis of the run's states
    res = 4 * (config.n + 1)
    saved = synthesize(load_snapshots(out1)[0], res)
    direct = synthesize(result.snapshots[0], res)
    assert np.array_equal(saved[0], direct[0]) and np.array_equal(saved[1], direct[1])


def test_save_run_refuses_a_non_finite_manifest_before_writing(case1, tmp_path):
    # An overflowing discriminant is inf or nan, which strict JSON refuses.
    result = run(case1, RunConfig(n=2, t_max=1.0), {"type": "constant", "value": 0.5},
                 {"type": "constant", "value": 0.3})
    result.cert = replace(result.cert, delta_v=math.nan)
    with pytest.raises(ValueError, match="JSON"):
        save_run(result, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_saved_snapshots_give_the_manifest_extrema(case1, tmp_path):
    config = RunConfig(n=4, t_max=2.0, snapshot_dt=0.5)
    result = run(case1, config, SWEEP_SHAPES["C"], SWEEP_SHAPES["B"])
    manifest = save_run(result, tmp_path)
    states = load_snapshots(tmp_path)
    assert len(states) == len(manifest["timeseries"]) == 5
    for state, record in zip(states, manifest["timeseries"]):
        u, v = synthesize(state, 4 * (config.n + 1))
        assert state.t == record["t"]
        assert (float(u.min()), float(u.max())) == (record["min_u"], record["max_u"])
        assert (float(v.min()), float(v.max())) == (record["min_v"], record["max_v"])


def test_run_summary_shape(case1):
    result = run(case1, RunConfig(n=2, t_max=1.0),
                 {"type": "constant", "value": 0.5},
                 {"type": "constant", "value": 0.3})
    s = result.summary()
    assert s["outcome"] == result.outcome
    assert s["final_time"] == result.final_state.t
    assert s["n_steps"] == result.n_steps
    assert (s["dt_min"], s["dt_max"]) == (result.dt_min, result.dt_max)
    assert s["final_diagnostics"] == result.timeseries[-1].to_dict()


def test_refinement_consistency_band_limited(case1):
    # Band-limited ICs are represented exactly at both orders, so the two
    # trajectories discretize the same projected system up to the (tiny)
    # mode-8+ content the nonlinearity generates.
    ic_u = {"type": "cosine", "offset": 0.5, "terms": [{"j": 1, "k": 1, "amp": 0.2}]}
    ic_v = {"type": "cosine", "offset": 0.3, "terms": [{"j": 2, "k": 0, "amp": 0.1}]}
    fields = {}
    for n in (8, 12):
        result = run(case1, RunConfig(n=n, t_max=5.0, steady_tol=1e-14), ic_u, ic_v)
        assert result.outcome == "t_max_reached"
        assert result.final_state.t == pytest.approx(5.0, abs=1e-12)
        fields[n] = synthesize(result.final_state, 64)
    for coarse, fine in zip(fields[8], fields[12]):
        rel = np.linalg.norm(coarse - fine) / np.linalg.norm(fine)
        assert rel < 1e-4
