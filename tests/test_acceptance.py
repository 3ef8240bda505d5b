"""The ten acceptance criteria, one test each, one PASS/FAIL line each.

Every test prints `PASS criterion N: ...` (or FAIL) with its elapsed time and
enforces the stated runtime budget.  Tolerances and seeds are fixed here and
nowhere else; these are the contract, the rest of the suite is support.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from sktspec.cli import main as cli_main
from sktspec.galerkin import RhsAssembler, rhs_oracle
from sktspec.integrate import RunConfig, run
from sktspec.lyapunov import (
    LyapunovCert,
    PreconditionError,
    certificate_for,
    check_reaction_sign,
    eval_H,
    find_certificate,
)
from sktspec.model import coexistence_steady_state, params_from_dict, preset
from sktspec.reference import build_tensors, fd_reference, quadrature_tables
from sktspec.spectral import SpectralState, midpoint_nodes, synthesize

EQUILIBRIA = {"case1": (0.520513, 0.205128), "case2": (1.05, 0.8)}


@contextmanager
def criterion(num, description, budget, fixture_s=0.0):
    # fixture_s: time already spent in a fixture the criterion reads; it
    # counts toward the reported time and the budget.
    t0 = time.perf_counter() - fixture_s
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {description} ({time.perf_counter() - t0:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion {num}: {description} ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {num} exceeded {budget}s: {elapsed:.2f}s"


def test_criterion_01_condition_reproduction(capsys):
    with criterion(1, "check prints 0.04 < 0.06 and 0.9 < 1 with cond_2_1(iv) true", 1.0):
        assert cli_main(["check", "case1"]) == 0
        case1 = json.loads(capsys.readouterr().out)
        assert cli_main(["check", "case2"]) == 0
        case2 = json.loads(capsys.readouterr().out)

        assert case1["cond_1_6"]["iii"] == {"holds": False, "lhs": 0.04, "rhs": 0.06}
        assert case1["cond_2_1"]["iv"] is True
        assert case2["cond_1_6"]["iii"] == {"holds": False, "lhs": 0.9, "rhs": 1.0}
        assert case2["cond_2_1"]["iv"] is True


def test_criterion_02_certificate_iff_cross_product():
    with criterion(2, "find_certificate <=> cond_1_7 on 1000 random sets", 10.0):
        rng = np.random.default_rng(20260818)
        base = preset("case1")
        checked = 0
        while checked < 1000:
            a11, a12, a21, a22 = rng.uniform(0.0, 2.0, 4)
            b11, b22 = rng.uniform(0.01, 2.0, 2)
            lhs = (a11 - a21) * (a22 - a12)
            rhs = b11 * b22
            if abs(lhs - rhs) < 1e-6:
                continue
            checked += 1
            p = params_from_dict({
                "d1": base.d1, "d2": base.d2, "a1": base.a1, "b1": base.b1,
                "c1": base.c1, "a2": base.a2, "b2": base.b2, "c2": base.c2,
                "alpha11": a11, "alpha12": a12, "alpha21": a21, "alpha22": a22,
                "b11": b11, "b22": b22,
            })
            expected = a11 > a21 and a22 > a12 and lhs > rhs
            try:
                got = find_certificate(p) is not None
            except PreconditionError:
                got = False
            assert got == expected, (a11, a12, a21, a22, b11, b22)


def test_criterion_03_tensor_exactness():
    with criterion(3, "mass3/stiff3 census vs Gauss quadrature at n <= 6", 30.0):
        for n in (2, 4, 6):
            t = build_tensors(n)
            m = t.modes
            mass = np.zeros((m, m, m))
            stiff = np.zeros((m, m, m))
            mass[t.m_ia, t.m_ic, t.m_it] = t.m_val
            stiff[t.s_ia, t.s_ic, t.s_it] = t.s_val
            dense_mass, dense_stiff = quadrature_tables(n)
            assert np.abs(mass - dense_mass).max() <= 1e-12
            assert np.abs(stiff - dense_stiff).max() <= 1e-12

        # cosine triple-product selection rule: the x and y factors vanish
        # unless one wavenumber equals the sum or difference of the others
        n = 6
        t = build_tensors(n)
        width = n + 1
        ja, ka = np.divmod(t.m_ia, width)
        jc, kc = np.divmod(t.m_ic, width)
        jt, kt = np.divmod(t.m_it, width)

        def admissible(a, b, c):
            return (c == a + b) | (c == np.abs(a - b))

        assert np.all(admissible(ja, jc, jt) & admissible(ka, kc, kt))


def test_criterion_04_rhs_oracle_equivalence():
    with criterion(4, "rhs vs quadrature oracle <= 1e-9 relative", 30.0):
        rng = np.random.default_rng(41)
        for name in ("case1", "case2"):
            p = preset(name)
            for n in (2, 4, 6):
                asm = RhsAssembler.for_order(p, n)
                width = n + 1
                decay = 1.0 / (1.0 + np.arange(width)) ** 2
                for _ in range(20):
                    mu1 = 0.3 * rng.normal(size=(width, width)) * np.outer(decay, decay)
                    mu2 = 0.3 * rng.normal(size=(width, width)) * np.outer(decay, decay)
                    mu1[0, 0] += 0.8 * np.pi
                    mu2[0, 0] += 0.8 * np.pi
                    state = SpectralState(mu1, mu2, 0.0)
                    d1, d2 = asm.rhs(state)
                    o1, o2 = rhs_oracle(p, state, 4 * (n + 1))
                    scale = max(np.abs(o1).max(), np.abs(o2).max())
                    assert np.abs(d1 - o1).max() <= 1e-9 * scale
                    assert np.abs(d2 - o2).max() <= 1e-9 * scale


def test_criterion_05_mass_conservation():
    with criterion(5, "masses constant to 1e-8 with reactions zeroed", 30.0):
        p = params_from_dict({
            "d1": 0.05, "d2": 0.08, "a1": 0.0, "b1": 1e-300, "c1": 0.0,
            "a2": 0.0, "b2": 0.0, "c2": 1e-300,
            "alpha11": 0.4, "alpha12": 0.1, "alpha21": 0.15, "alpha22": 0.5,
            "b11": 0.2, "b22": 0.1,
        })
        ics = [
            ({"type": "cosine", "offset": 0.5, "terms": [{"j": 1, "k": 1, "amp": 0.3}]},
             {"type": "constant", "value": 0.4}),
            ({"type": "cosine", "offset": 0.5, "terms": [{"j": 2, "k": 0, "amp": 0.3}]},
             {"type": "cosine", "offset": 0.6, "terms": [{"j": 1, "k": 2, "amp": 0.2}]}),
            ({"type": "gaussian", "cx": np.pi / 2, "cy": np.pi / 2, "sigma": 0.5,
              "amp": 0.5, "offset": 0.2},
             {"type": "gaussian", "cx": 1.0, "cy": 2.0, "sigma": 0.7,
              "amp": 0.3, "offset": 0.3}),
        ]
        for ic_u, ic_v in ics:
            result = run(p, RunConfig(n=8, t_max=10.0), ic_u, ic_v)
            assert result.outcome in ("steady_state", "t_max_reached")
            mass_u = [rec.mass_u for rec in result.timeseries]
            mass_v = [rec.mass_v for rec in result.timeseries]
            assert max(abs(m - mass_u[0]) for m in mass_u) <= 1e-8
            assert max(abs(m - mass_v[0]) for m in mass_v) <= 1e-8


def test_criterion_06_linear_decay_rate():
    with criterion(6, "single-mode decay rate (j^2+k^2) d1 to 1e-3 relative", 5.0):
        d1 = 0.3
        j, k = 2, 1
        p = params_from_dict({
            "d1": d1, "d2": 0.2, "a1": 0.0, "b1": 1e-300, "c1": 0.0,
            "a2": 0.0, "b2": 0.0, "c2": 1e-300,
            "alpha11": 0.0, "alpha12": 0.0, "alpha21": 0.0, "alpha22": 0.0,
            "b11": 0.0, "b22": 0.0,
        })
        result = run(p, RunConfig(n=8, t_max=2.0, snapshot_dt=0.25),
                     {"type": "cosine", "offset": 1.0,
                      "terms": [{"j": j, "k": k, "amp": 0.5}]},
                     {"type": "constant", "value": 1.0})
        times = np.array([s.t for s in result.snapshots])
        coeffs = np.array([s.mu1[j, k] for s in result.snapshots])
        assert np.all(coeffs > 0)
        slope = np.polyfit(times, np.log(coeffs), 1)[0]
        rate = (j**2 + k**2) * d1
        assert abs(-slope - rate) <= 1e-3 * rate, (-slope, rate)


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    out = {}
    t0 = time.perf_counter()
    for name in ("case1", "case2"):
        out_dir = tmp_path_factory.mktemp(f"sweep_{name}")
        code = cli_main(["sweep", name, "--out", str(out_dir)])
        manifest = json.loads((out_dir / "sweep_manifest.json").read_text())
        runs = []
        for entry in manifest["runs"]:
            sub = json.loads((out_dir / entry["out_dir"] / "manifest.json").read_text())
            runs.append(sub)
        out[name] = {"exit": code, "manifest": manifest, "runs": runs}
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_07_homogenization_sweeps(sweeps):
    with criterion(7, "9/9 steady_state with sup-deviation < 1e-3 (both cases)", 300.0,
                   sweeps["elapsed"]):
        for name in ("case1", "case2"):
            data = sweeps[name]
            assert data["exit"] == 0
            assert len(data["runs"]) == 9
            u_star, v_star = EQUILIBRIA[name]
            for manifest in data["runs"]:
                assert manifest["outcome"] == "steady_state"
                last = manifest["timeseries"][-1]
                dev = max(abs(last["max_u"] - u_star), abs(last["min_u"] - u_star),
                          abs(last["max_v"] - v_star), abs(last["min_v"] - v_star))
                assert dev < 1e-3, (name, manifest["snapshots"][-1], dev)
        assert sweeps["elapsed"] < 300.0, sweeps["elapsed"]


def test_criterion_08_cross_discretization():
    with criterion(8, "spectral n=16 vs finite-volume N=64 within 1e-2 at t=1", 120.0):
        p = preset("case1")
        N = 64
        x = midpoint_nodes(N)
        u0 = 0.5 + 0.3 * np.cos(x)[:, None] * np.cos(x)[None, :]
        v0 = 0.5 + 0.3 * np.cos(2 * x)[:, None] * np.ones(N)[None, :]

        result = run(p, RunConfig(n=16, t_max=1.0),
                     {"type": "cosine", "offset": 0.5,
                      "terms": [{"j": 1, "k": 1, "amp": 0.3}]},
                     {"type": "cosine", "offset": 0.5,
                      "terms": [{"j": 2, "k": 0, "amp": 0.3}]})
        assert result.final_state.t == 1.0
        us, vs = synthesize(result.final_state, N)
        uf, vf = fd_reference(p, u0, v0, N, t_end=1.0)
        rel_u = np.linalg.norm(us - uf) / np.linalg.norm(us)
        rel_v = np.linalg.norm(vs - vf) / np.linalg.norm(vs)
        assert rel_u <= 1e-2, rel_u
        assert rel_v <= 1e-2, rel_v


def test_criterion_09_lyapunov_trend(sweeps):
    # The certificate bounds H by its initial level and drives it toward the
    # equilibrium level H* = H(u*, v*); it does not make the grid max of H
    # monotone.  Runs from low-mass data dip below H* and climb back from below.
    with criterion(9, "case1 runs: max_H <= initial level; on the final half it does not "
                      "rise above max(previous, H(u*, v*)) (1e-6 slack)", 300.0,
                   sweeps["elapsed"]):
        equilibrium = coexistence_steady_state(preset("case1"))
        assert np.allclose(equilibrium, EQUILIBRIA["case1"], rtol=0.0, atol=1e-6)
        for manifest in sweeps["case1"]["runs"]:
            weights = manifest["certificate"]
            assert weights is not None
            cert = LyapunovCert(lam=weights["lambda"], mu=weights["mu"], K=weights["K"])
            h_star = float(eval_H(cert, *equilibrium).H)
            series = manifest["timeseries"]
            for rec in series:
                assert rec["max_H"] <= manifest["level"] + 1e-6, (rec["t"], rec["max_H"])
            t_end = series[-1]["t"]
            tail = [rec["max_H"] for rec in series if rec["t"] >= 0.5 * t_end]
            assert len(tail) >= 2
            for earlier, later in zip(tail, tail[1:]):
                assert later <= max(earlier, h_star) + 1e-6, (earlier, later, h_star)
        assert sweeps["elapsed"] < 300.0, sweeps["elapsed"]


def test_criterion_10_sign_condition_sampler():
    with criterion(10, "zero sign violations for the synthetic set at C0=100", 1.0):
        p = params_from_dict({
            "d1": 0.1, "d2": 0.1, "a1": 1.0, "b1": 1.0, "c1": -0.1,
            "a2": 0.3, "b2": -0.1, "c2": 1.0,
            "alpha11": 0.0, "alpha12": 0.0, "alpha21": 0.0, "alpha22": 0.0,
            "b11": 0.0, "b22": 0.0,
        })
        cert = certificate_for(p, 1.02, 1.02)
        report = check_reaction_sign(p, cert, 100.0, samples=10_000, seed=0)
        assert report.n_evaluated > 0
        assert report.violation_fraction == 0.0
        assert report.max_violation == 0.0
