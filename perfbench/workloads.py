"""The four benchmark workloads: inputs from a seed, one pass, correctness checks.

Every workload drives public sktspec functions, looked up through their
modules at call time so that `spans.Tracer` sees the calls.  The program only
receives the generated inputs; the pinned answers below stay here.

    sweep-case1    `sktspec sweep case1` (3x3 stock shapes, thread pool, save_run)
    settle-case2   one case2 run from a jittered Gaussian to steady state
    highorder-n16  one case1 run at n = 16 to t = 0.5
    screen-params  check_conditions + find_certificate + check_reaction_sign
                   over seeded parameter sets, no stepper
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from sktspec import cli, galerkin, integrate, lyapunov, model

# Pinned coexistence equilibria (u*, v*) of the presets, as in the
# acceptance suite; runs that settle must end within STEADY_TOL of them.
EQUILIBRIA = {"case1": (0.520513, 0.205128), "case2": (1.05, 0.8)}
STEADY_TOL = 1e-3
# rhs at the final state against the quadrature oracle, relative to its max.
ORACLE_RTOL = 1e-12
# Level of the reaction-sign sample, the CLI's `certify` default.
SIGN_LEVEL = 100.0
# Seeded shift of the Gaussian centre; small, so that every seed takes
# nearly the same number of steps.
CENTRE_JITTER = 0.05
# Share of screen-params sets that meet cond_1_7, so a certificate exists.
FEASIBLE_SHARE = 0.3


class Checks:
    """Correctness verdicts of one benchmark run: attempted, failed, why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


@dataclass
class PassRecord:
    """What one pass did: read back from its outputs by the workload's check,
    then timed and counted by run.py."""

    runs: int = 0
    steps_accepted: int = 0
    snapshots: int = 0
    t_integrated: float = 0.0
    digests: dict = field(default_factory=dict)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rhs_evals: int = 0
    subnormal_calls: int = 0
    steps_rejected: float = 0.0


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(name.encode()), seed])


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _deviation(manifest: dict, equilibrium) -> float:
    """Sup-distance of the final snapshot from a homogeneous state."""
    last = manifest["timeseries"][-1]
    u_star, v_star = equilibrium
    return max(abs(last["max_u"] - u_star), abs(last["min_u"] - u_star),
               abs(last["max_v"] - v_star), abs(last["min_v"] - v_star))


def _read_manifest(path):
    with open(path, "rb") as fh:
        data = fh.read()
    return json.loads(data), _digest(data)


def _tally(record: PassRecord, manifest: dict) -> None:
    record.runs += 1
    record.steps_accepted += manifest["n_steps"]
    record.snapshots += len(manifest["timeseries"])
    record.t_integrated += manifest["final_time"]


def _probe_run(case: str, n: int, ic_u, ic_v) -> dict:
    """Set-up of one run as a fresh CLI process pays it, up to the first step."""
    p = model.resolve_params(case)
    t0 = time.perf_counter()
    assembler = galerkin.RhsAssembler.for_order(p, n)
    for_order_s = time.perf_counter() - t0
    galerkin.project_initial(ic_u, ic_v, n)
    info = {"for_order_s": for_order_s, "modes": (n + 1) ** 2}
    # Tensor sizes feed the computed flop and byte counts; an rhs that does
    # not use the sparse tensors reports none.
    tensors = getattr(assembler, "tensors", None)
    for family, prefix in (("stiff", "s_"), ("mass", "m_")):
        arrays = [getattr(tensors, prefix + key, None) for key in ("ia", "ic", "it", "val")]
        if any(a is None for a in arrays):
            return info
        info[family + "_nnz"] = int(arrays[3].size)
        info[family + "_bytes"] = int(sum(a.nbytes for a in arrays))
    return info


def _gaussian(rng: np.random.Generator) -> dict:
    dx, dy = rng.uniform(-CENTRE_JITTER, CENTRE_JITTER, 2)
    shape = dict(cli.SWEEP_SHAPES["C"])
    shape["cx"] = float(shape["cx"] + dx)
    shape["cy"] = float(shape["cy"] + dy)
    return shape


class SweepCase1:
    """`sktspec sweep case1`: nine runs on the sweep thread pool."""

    name = "sweep-case1"
    why = "the user-facing sweep: thread pool, save_run, many diagnostics per second of stepping"
    uses_pool = True

    def __init__(self, seed: int, size: str):
        self.n = 8 if size == "full" else 4
        self.case = "case1"

    def probe(self) -> dict:
        shape = cli.SWEEP_SHAPES[sorted(cli.SWEEP_SHAPES)[0]]
        return _probe_run(self.case, self.n, shape, shape)

    def _sweep(self, out_dir, *extra) -> int:
        argv = ["sweep", self.case, "--n", str(self.n), "--out", out_dir, *extra]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def warm(self, out_dir) -> None:
        self._sweep(out_dir, "--tmax", "0.2", "--snapshot-dt", "0.1")

    def run_pass(self, out_dir):
        return self._sweep(out_dir)

    def check(self, exit_code, out_dir, checks: Checks) -> PassRecord:
        record = PassRecord()
        checks.add(exit_code == 0, f"{self.name}: sweep exit code {exit_code}")
        sweep, record.digests["sweep_manifest"] = _read_manifest(
            os.path.join(out_dir, "sweep_manifest.json"))
        expected = len(cli.SWEEP_SHAPES) ** 2
        checks.add(len(sweep["runs"]) == expected,
                   f"{self.name}: {len(sweep['runs'])} of {expected} runs finished")
        for entry in sweep["runs"]:
            label = entry["out_dir"]
            manifest, record.digests[label] = _read_manifest(
                os.path.join(out_dir, label, "manifest.json"))
            _tally(record, manifest)
            dev = _deviation(manifest, EQUILIBRIA[self.case])
            checks.add(manifest["outcome"] == integrate.OUTCOME_STEADY and dev < STEADY_TOL,
                       f"{self.name} {label}: {manifest['outcome']}, deviation {dev:.3e}")
        return record


class _SingleRun:
    """One `integrate.run` + `save_run` from a jittered Gaussian (shape C)."""

    case = ""
    uses_pool = False

    def __init__(self, seed: int, size: str):
        self.size = size
        self.ic = _gaussian(_rng(self.name, seed))

    def config(self):
        raise NotImplementedError

    def probe(self) -> dict:
        return _probe_run(self.case, self.config().n, self.ic, self.ic)

    def warm(self, out_dir) -> None:
        p = model.resolve_params(self.case)
        config = integrate.RunConfig(n=self.config().n, t_max=0.1, snapshot_dt=0.1)
        integrate.save_run(integrate.run(p, config, self.ic, self.ic), out_dir)

    def run_pass(self, out_dir):
        p = model.resolve_params(self.case)
        result = integrate.run(p, self.config(), self.ic, self.ic)
        integrate.save_run(result, out_dir)
        return result

    def check(self, result, out_dir, checks: Checks) -> PassRecord:
        record = PassRecord()
        manifest, record.digests["run"] = _read_manifest(os.path.join(out_dir, "manifest.json"))
        _tally(record, manifest)
        self.check_result(result, manifest, checks)
        return record


class SettleCase2(_SingleRun):
    """case2 to steady state: the stability-limited stepper."""

    name = "settle-case2"
    why = "stability-limited stepping to steady state, with subnormal coefficients late in the run"
    case = "case2"

    def config(self):
        return integrate.RunConfig(n=8 if self.size == "full" else 4)

    def check_result(self, result, manifest, checks: Checks) -> None:
        dev = _deviation(manifest, EQUILIBRIA[self.case])
        checks.add(result.outcome == integrate.OUTCOME_STEADY and dev < STEADY_TOL,
                   f"{self.name}: {result.outcome}, deviation {dev:.3e}")


class HighOrderN16(_SingleRun):
    """case1 at n = 16 to a fixed horizon: the n^4 sparse-tensor rhs."""

    name = "highorder-n16"
    why = "high truncation order, where the rhs cost and the tensor build dominate"
    case = "case1"

    def config(self):
        if self.size == "full":
            return integrate.RunConfig(n=16, t_max=0.5, snapshot_dt=0.25)
        return integrate.RunConfig(n=6, t_max=0.5, snapshot_dt=0.25)

    def check_result(self, result, manifest, checks: Checks) -> None:
        state = result.final_state
        finite = bool(np.all(np.isfinite(state.mu1)) and np.all(np.isfinite(state.mu2)))
        checks.add(result.outcome == integrate.OUTCOME_TMAX and finite,
                   f"{self.name}: {result.outcome}, finite final state {finite}")
        if not finite:
            return
        p = model.resolve_params(self.case)
        d1, d2 = galerkin.RhsAssembler.for_order(p, state.n).rhs(state)
        o1, o2 = galerkin.rhs_oracle(p, state, 4 * (state.n + 1))
        scale = max(float(np.abs(o1).max()), float(np.abs(o2).max()))
        err = max(float(np.abs(d1 - o1).max()), float(np.abs(d2 - o2).max()))
        checks.add(err <= ORACLE_RTOL * scale,
                   f"{self.name}: rhs vs oracle at the final state {err:.3e} (scale {scale:.3e})")


class ScreenParams:
    """Seeded parameter sets through check_conditions, find_certificate and
    check_reaction_sign (feasible sets only): the check + certify path."""

    name = "screen-params"
    why = "condition checks and certificate search with no stepper and no rhs"
    uses_pool = False

    def __init__(self, seed: int, size: str):
        count = 2000 if size == "full" else 40
        feasible = round(FEASIBLE_SHARE * count)
        rng = _rng(self.name, seed)
        picked = {True: [], False: []}
        while len(picked[True]) < feasible or len(picked[False]) < count - feasible:
            draw = np.hstack([rng.uniform(0.0, 2.0, (8 * count, 4)),
                              rng.uniform(0.01, 2.0, (8 * count, 2))])
            a11, a12, a21, a22, b11, b22 = draw.T
            # Both certificate preconditions hold, and the cond_1_7 product
            # is not a near tie, so every set reaches a clear verdict.
            margin = (a11 - a21) * (a22 - a12) - b11 * b22
            keep = (a11 > a21) & (a22 > a12) & (np.abs(margin) >= 1e-6)
            picked[True].extend(draw[keep & (margin > 0)])
            picked[False].extend(draw[keep & (margin < 0)])
        # A fixed share of feasible sets, in seeded order, so that the work
        # of a pass does not depend on how many sets a seed happens to make
        # feasible.
        rows = np.array(picked[True][:feasible] + picked[False][:count - feasible])
        self.rows = rows[rng.permutation(count)]
        self.sets = None

    def _params(self, row):
        a11, a12, a21, a22, b11, b22 = (float(x) for x in row)
        values = dict(model.PRESETS["case1"])
        values.update(alpha11=a11, alpha12=a12, alpha21=a21, alpha22=a22, b11=b11, b22=b22)
        return model.params_from_dict(values)

    def probe(self) -> dict:
        self._params(self.rows[0])
        return {}

    def warm(self, out_dir) -> None:
        self.sets = [self._params(row) for row in self.rows]
        self._screen(self.sets[:20])

    def run_pass(self, out_dir):
        return self._screen(self.sets)

    @staticmethod
    def _screen(sets):
        out = []
        for p in sets:
            report = model.check_conditions(p)
            cert = lyapunov.find_certificate(p)
            sign = None
            if cert is not None:
                sign = lyapunov.check_reaction_sign(p, cert, SIGN_LEVEL)
            out.append((report.cond_1_7.holds, cert, sign))
        return out

    def check(self, rows, out_dir, checks: Checks) -> PassRecord:
        record = PassRecord()
        summary = []
        for i, (cond_1_7, cert, sign) in enumerate(rows):
            feasible = cert is not None
            ok = feasible == cond_1_7
            if feasible:
                ok = ok and 0.0 <= sign.violation_fraction <= 1.0 and math.isfinite(sign.max_violation)
                summary.append((i, cert.lam, cert.mu, cert.K, sign.n_evaluated,
                                sign.violation_fraction, sign.max_violation))
            checks.add(ok, f"{self.name} set {i}: certificate {feasible}, cond_1_7 {cond_1_7}")
        record.digests["screen"] = _digest(repr(summary).encode())
        return record


WORKLOADS = {cls.name: cls for cls in (SweepCase1, SettleCase2, HighOrderN16, ScreenParams)}


def make(name: str, seed: int, size: str = "full"):
    """The workload `name` with inputs drawn from `seed`; size "tiny" is for the self-test."""
    return WORKLOADS[name](seed, size)
