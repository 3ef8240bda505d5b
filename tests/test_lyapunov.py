import math
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sktspec.lyapunov import (
    LyapunovCert,
    PreconditionError,
    certificate_for,
    check_reaction_sign,
    discriminants,
    eval_H,
    find_certificate,
    level_excess,
    phi_coefficients,
    window_bounds,
)
from sktspec.model import PRESETS, params_from_dict, reactions
from sktspec.reference import eval_psi_forms, form_coefficients, phi_cubic

BASE = dict(d1=0.1, d2=0.2, a1=1.0, b1=1.0, c1=0.5, a2=0.3, b2=0.5, c2=1.0,
            alpha11=1.0, alpha12=0.1, alpha21=0.2, alpha22=1.0, b11=0.1, b22=0.1)


def make(**overrides):
    d = dict(BASE)
    d.update(overrides)
    return params_from_dict(d)


def test_eval_H_values():
    cert = LyapunovCert(lam=2.0, mu=1.0, K=math.sqrt(2.0))
    H, Hu, Hv, Huu, Huv, Hvv = eval_H(cert, 1.0, 1.0)
    assert H == pytest.approx(2.5)
    assert (Hu, Hv) == (3.0, 2.0)
    assert (Huu, Huv, Hvv) == (2.0, 1.0, 1.0)


def test_eval_H_broadcasts(rng):
    cert = LyapunovCert(lam=1.5, mu=2.0, K=math.sqrt(3.0))
    u = rng.uniform(0, 2, size=(4, 5))
    v = rng.uniform(0, 2, size=(4, 5))
    out = eval_H(cert, u, v)
    assert out.H.shape == (4, 5)
    assert np.all(out.H >= 0)  # positive definite since lam*mu > 1


@given(st.floats(1.01, 10), st.floats(0.05, 20))
def test_H_positive_definite_when_K_above_one(K, lam):
    mu = K * K / lam
    cert = LyapunovCert(lam=lam, mu=mu, K=K)
    rng = np.random.default_rng(0)
    u = rng.uniform(-5, 5, 256)
    v = rng.uniform(-5, 5, 256)
    H = eval_H(cert, u, v).H
    nonzero = (u != 0) | (v != 0)
    assert np.all(H[nonzero] > 0)


def test_discriminants_boundary_value(case1):
    # lam = 1 at the degenerate coupling K = 1
    cert = LyapunovCert(lam=1.0, mu=1.0, K=1.0)
    du, dv, dd = discriminants(case1, cert)
    assert du == pytest.approx((0.12 - 0.04) ** 2, rel=1e-12)
    assert dd == pytest.approx((0.01 + 0.1) ** 2 - 4 * 0.01 * 0.1, rel=1e-12)


def test_find_certificate_case1(case1):
    cert = find_certificate(case1)
    assert cert is not None and cert.feasible
    assert cert.K == pytest.approx(2.0)
    assert cert.lam == pytest.approx(0.593051, rel=1e-4)
    assert cert.mu == pytest.approx(6.74478, rel=1e-4)
    assert cert.delta_u < 0 and cert.delta_v < 0
    assert cert.lam * cert.mu == pytest.approx(cert.K**2, rel=1e-12)
    assert cert.K > 1 and cert.lam > 0 and cert.mu > 0


def test_find_certificate_case2(case2):
    cert = find_certificate(case2)
    assert cert is not None and cert.delta_u < 0 and cert.delta_v < 0
    du, dv, dd = discriminants(case2, cert)
    assert (du, dv, dd) == (cert.delta_u, cert.delta_v, cert.delta_d)


def test_find_certificate_infeasible():
    # A1*A2 = 0.01 << b11*b22 = 1
    p = make(alpha11=0.3, alpha21=0.2, alpha22=0.2, alpha12=0.1, b11=1.0, b22=1.0)
    assert find_certificate(p) is None


def test_find_certificate_underflowing_mu_window(case1):
    # b22 * mu < alpha22 ~ 1e-220 puts the mu window bound below the double
    # range: it rounds to 0, and no weight fits under it.
    p = replace(case1, alpha12=0.0, alpha21=1.55e-5, alpha22=2.08e-220, b11=0.0, b22=3.55e289)
    assert find_certificate(p) is None


def test_find_certificate_preconditions():
    with pytest.raises(PreconditionError, match="alpha11"):
        find_certificate(make(alpha11=0.1, alpha21=0.2))
    with pytest.raises(PreconditionError, match="alpha22"):
        find_certificate(make(alpha22=0.1, alpha12=0.2))
    with pytest.raises(ValueError, match="k_max"):
        find_certificate(make(), k_max=1.0)


@pytest.mark.parametrize("k_max", [math.inf, 1e200])
def test_find_certificate_rejects_unbounded_k_max(k_max):
    with pytest.raises(ValueError, match="k_max"):
        find_certificate(make(), k_max=k_max)


def test_degenerate_gradient_weights_give_balanced_cert():
    p = make(b11=0.0, b22=0.0)
    cert = find_certificate(p)
    assert cert is not None and cert.feasible
    assert cert.lam == cert.mu == cert.K
    assert cert.window_lambda_hi == math.inf and cert.window_mu_hi == math.inf


# One parameter set per corner of the search, with every certificate field.
# Field order: lam, mu, K, delta_u, delta_v, delta_d, window_lambda_hi,
# window_mu_hi (feasible is True except for the fallback).
SEARCH_CORNERS = {
    # no grid point carries negative discriminants; the dense sweep does
    "dense-sweep": (dict(alpha22=1.0, alpha12=1e-4, alpha21=1e-4, b22=1.0), (
        1.3402094332336367, 1.0085702199771132, 1.1626243257784739,
        -0.00017290174120575163, -6.55054147052083e-05, -0.018135625831348062,
        1.3444491183619391, 1.0117607811360272)),
    # neither sweep does; the window fallback keeps positive discriminants
    "fallback": (dict(alpha22=2.0, alpha12=1e-3, alpha21=1e-3, b22=0.5), (
        1.1547005383792515, 3.464101615137755, 2.0,
        0.047261871339628635, 0.04726187133962851, -0.23000000000000004,
        1.435946222565531, 4.307838667696593)),
    "grid": (dict(alpha22=2.0, alpha12=1e-3, alpha21=1e-3, b22=0.7), (
        1.3662601021279464, 2.9277002188455996, 2.0,
        -0.021460832461294894, -0.021460832461294894, -0.23000000000000004,
        1.435946222565531, 3.0770276197832813)),
    # lam window near 1e200 and narrow: lo * hi overflows, so the weight is
    # the window midpoint, not the geometric mean
    "overflowing-mean": (dict(alpha22=1.0, alpha12=0.9, alpha21=1e-3, b11=1e-200, b22=1.0), (
        1.999e+200, 2.0010005002501248e-200, 2.0,
        -0.024, -10.790000000000001, -0.23000000000000004,
        2.153919333848297e+200, 3.386335345030997)),
}


@pytest.mark.parametrize("corner", sorted(SEARCH_CORNERS))
def test_search_corners_are_pinned(corner):
    overrides, expected = SEARCH_CORNERS[corner]
    p = make(**{"alpha11": 2.0, "b11": 1.5, **overrides})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cert = find_certificate(p)
    assert cert == LyapunovCert(*expected, feasible=corner != "fallback")
    assert (cert.delta_u > 0) == (corner == "fallback")
    # Plain floats on every path: numpy scalars would warn where floats overflow quietly.
    assert all(type(value) is float for value in astuple(cert)[:-1])


def test_window_bounds_match_stored(case1):
    cert = find_certificate(case1)
    hi_l, hi_m = window_bounds(case1, cert.K**2)
    assert cert.window_lambda_hi == pytest.approx(hi_l)
    assert cert.window_mu_hi == pytest.approx(hi_m)
    assert 0 < cert.lam < hi_l
    assert 0 < cert.mu < hi_m


def _random_params(rng):
    a = rng.uniform(0.0, 2.0, 4)
    b = rng.uniform(0.01, 2.0, 2)
    return make(alpha11=a[0], alpha12=a[1], alpha21=a[2], alpha22=a[3],
                b11=b[0], b22=b[1])


def test_success_iff_cross_product_condition():
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 300:
        p = _random_params(rng)
        lhs = (p.alpha11 - p.alpha21) * (p.alpha22 - p.alpha12)
        rhs = p.b11 * p.b22
        if abs(lhs - rhs) < 1e-6:
            continue
        checked += 1
        expect = p.alpha11 > p.alpha21 and p.alpha22 > p.alpha12 and lhs > rhs
        try:
            got = find_certificate(p) is not None
        except PreconditionError:
            got = False
        assert got == expect


def test_returned_certs_satisfy_invariants():
    # discriminant negativity holds away from the documented narrow-band corner
    rng = np.random.default_rng(7)
    seen = 0
    while seen < 200:
        p = _random_params(rng)
        try:
            cert = find_certificate(p)
        except PreconditionError:
            continue
        if cert is None:
            continue
        seen += 1
        assert cert.lam > 0 and cert.mu > 0 and cert.K > 1
        assert cert.lam * cert.mu == pytest.approx(cert.K**2, rel=1e-12)
        assert cert.lam < cert.window_lambda_hi
        assert cert.mu < cert.window_mu_hi
        assert cert.delta_u < 0 and cert.delta_v < 0


def test_psi_decomposition_machine_precision(case1, rng):
    cert = find_certificate(case1)
    u = 10.0 ** rng.uniform(-2, 2, 500)
    v = 10.0 ** rng.uniform(-2, 2, 500)
    gu = rng.normal(size=(500, 2))
    gv = rng.normal(size=(500, 2))
    forms = eval_psi_forms(case1, cert, u, v, gu, gv)
    direct = u * forms.psi_u + v * forms.psi_v + forms.psi_d
    scale = np.maximum(np.abs(direct), 1.0)
    assert np.abs(direct - forms.psi).max() / scale.max() < 1e-12


def test_form_discriminants_match_closed_form():
    # B^2 - 4AC of each form, written out in sktspec.reference, against
    # lyapunov's closed-form discriminants (delta_u, delta_v, delta_d).
    rng = np.random.default_rng(5)
    for _ in range(500):
        p = _random_params(rng)
        lam = 10.0 ** rng.uniform(-2, 2)
        K = rng.uniform(1.0, 3.0)
        cert = LyapunovCert(lam=lam, mu=K * K / lam, K=K)
        coeff = form_coefficients(p, cert)
        for form, delta in zip("uvd", discriminants(p, cert)):
            A, B, C = coeff[form]
            assert abs(B * B - 4 * A * C - delta) <= 1e-12 * max(B * B, 4 * abs(A * C))


@given(st.floats(1.1, 2.0))
def test_quadratic_form_lower_bound(K):
    # A|gu|^2 + B gu.gv + C|gv|^2 >= -(D/(8C))|gu|^2 - (D/(8A))|gv|^2, D = B^2-4AC
    p = params_from_dict(dict(BASE))
    cert = find_certificate(p, k_max=K)
    if cert is None:
        return
    rng = np.random.default_rng(3)
    gu = rng.normal(size=(200, 2))
    gv = rng.normal(size=(200, 2))
    for A, B, C in form_coefficients(p, cert).values():
        if not (A > 0 and C > 0):
            continue
        D = B * B - 4 * A * C
        lhs = (A * np.sum(gu * gu, -1) + B * np.sum(gu * gv, -1) + C * np.sum(gv * gv, -1))
        bound = -(D / (8 * C)) * np.sum(gu * gu, -1) - (D / (8 * A)) * np.sum(gv * gv, -1)
        assert np.all(lhs >= bound - 1e-10 * np.abs(bound).max())


def test_phi_coefficients_synthetic():
    p = make(b1=1.0, c2=1.0, c1=-0.1, b2=-0.1)
    cert = certificate_for(p, 1.02, 1.02)
    assert phi_coefficients(p, cert) == pytest.approx((1.02, 1.202, 1.202, 1.02))
    # all-positive coefficients make the cubic positive on the open quadrant
    assert phi_cubic(p, cert, 0.5, 2.0) > 0


def test_reaction_sign_synthetic_regime():
    p = make(b1=1.0, c2=1.0, c1=-0.1, b2=-0.1, a1=1.0, a2=0.3)
    cert = certificate_for(p, 1.02, 1.02)
    rep = check_reaction_sign(p, cert, 100.0, samples=10_000, seed=0)
    assert rep.violation_fraction == 0.0
    assert rep.max_violation == 0.0
    assert rep.n_evaluated > 0
    # deterministic under the seed
    rep2 = check_reaction_sign(p, cert, 100.0, samples=10_000, seed=0)
    assert rep.to_dict() == rep2.to_dict()


def test_reaction_sign_empty_region():
    p = make()
    cert = certificate_for(p, 1.5, 1.5)
    rep = check_reaction_sign(p, cert, 1e12, samples=100, seed=0)
    assert rep.n_evaluated == 0
    assert rep.violation_fraction == 0.0 and rep.max_violation == 0.0


def test_reaction_sign_counts_violations(case2):
    cert = find_certificate(case2)
    rep = check_reaction_sign(case2, cert, 100.0, samples=10_000, seed=0)
    # Case 2's mixed-sign cubic leaves a violating cone; the report records it
    assert 0.0 < rep.violation_fraction < 0.5
    assert rep.max_violation > 0.0


def _fresh_sign_report(p, cert, level, samples, seed):
    # Reference sampler: a fresh draw per call, every quantity evaluated on
    # every point.
    rng = np.random.default_rng(seed)
    u = 10.0 ** rng.uniform(-3.0, 3.0, size=samples)
    v = 10.0 ** rng.uniform(-3.0, 3.0, size=samples)
    H, Hu, Hv, _, _, _ = eval_H(cert, u, v)
    mask = H > level
    n_eval = int(np.count_nonzero(mask))
    f, g = reactions(p, u[mask], v[mask])
    value = Hu[mask] * f + Hv[mask] * g
    bad = value[value > 0.0]
    return {
        "phi_coeffs": list(phi_coefficients(p, cert)),
        "violation_fraction": bad.size / n_eval if n_eval else 0.0,
        "max_violation": float(bad.max()) if bad.size else 0.0,
        "level": level,
        "n_samples": samples,
        "n_evaluated": n_eval,
        "seed": seed,
    }


def _assert_sign_report_matches(p, cert, level, samples, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = check_reaction_sign(p, cert, level, samples=samples, seed=seed)
    with np.errstate(all="ignore"):
        assert got.to_dict() == _fresh_sign_report(p, cert, level, samples, seed)


def _screened_sets(count, seed):
    # Drawn as the screen-params benchmark draws them: case1 kinetics,
    # cross-diffusion weights in [0, 2), b11 and b22 in [0.01, 2), both
    # certificate preconditions holding; half of the sets meet cond_1_7.
    rng = np.random.default_rng(seed)
    picked = {True: [], False: []}
    while min(len(sets) for sets in picked.values()) < count // 2:
        a11, a12, a21, a22 = rng.uniform(0.0, 2.0, 4)
        b11, b22 = rng.uniform(0.01, 2.0, 2)
        if a11 > a21 and a22 > a12:
            picked[(a11 - a21) * (a22 - a12) > b11 * b22].append(params_from_dict(dict(
                PRESETS["case1"], alpha11=a11, alpha12=a12, alpha21=a21, alpha22=a22, b11=b11, b22=b22)))
    return picked[True][:count // 2] + picked[False][:count // 2]


def test_reaction_sign_matches_a_fresh_draw(case1, case2):
    for samples, seed in [(10_000, 0), (100, 3), (2_000, 7), (1, 3)]:
        for p in (case1, case2):
            for level in (100.0, -1.0, 1e12):
                _assert_sign_report_matches(p, find_certificate(p), level, samples, seed)
    # Reactions near the top of the double range overflow Phi to inf, and to nan
    # where two infinite terms cancel.
    for overrides, has_nan in ((dict(a1=1e300, b1=1e300), False), (dict(c1=-1e300, b2=1e300), True)):
        p = params_from_dict(dict(PRESETS["case1"], **overrides))
        cert = find_certificate(p)
        _assert_sign_report_matches(p, cert, 100.0, 10_000, 0)
        with np.errstate(all="ignore"):
            u, v = 10.0 ** np.random.default_rng(0).uniform(-3.0, 3.0, size=(2, 10_000))
            _, Hu, Hv, _, _, _ = eval_H(cert, u, v)
            f, g = reactions(p, u, v)
            phi = Hu * f + Hv * g
        assert np.isinf(phi).any() and np.isnan(phi).any() == has_nan
    # Sets without a certificate are sampled with fixed weights.
    for p in _screened_sets(50, seed=16):
        cert = find_certificate(p) or certificate_for(p, 2.0, 2.0)
        for level in (100.0, -1.0):
            _assert_sign_report_matches(p, cert, level, 10_000, 0)


def test_eval_L_examples():
    # L = level_excess of H over the fields; H is 0 at u = v = 0 and 3 at u = v = 1.
    cert = LyapunovCert(lam=2.0, mu=2.0, K=2.0)
    grid = np.ones((8, 8))
    cell = np.pi**2 / 64
    H_zero = eval_H(cert, 0 * grid, 0 * grid).H
    assert level_excess(H_zero, 1.0, cell) == 0.0
    assert level_excess(eval_H(cert, grid, grid).H, 1.0, cell) == pytest.approx(2 * np.pi**2, rel=1e-12)
    assert level_excess(H_zero, -1.0, cell) == pytest.approx(np.pi**2 / 2, rel=1e-12)


@given(st.floats(-2, 6), st.floats(0, 4))
def test_eval_L_nonincreasing_in_level(c_lo, gap):
    cert = LyapunovCert(lam=1.5, mu=1.5, K=1.5)
    rng = np.random.default_rng(11)
    u = rng.uniform(0, 2, size=(6, 6))
    v = rng.uniform(0, 2, size=(6, 6))
    cell = np.pi**2 / 36
    H = eval_H(cert, u, v).H
    hi = level_excess(H, c_lo, cell)
    lo = level_excess(H, c_lo + gap, cell)
    assert lo <= hi + 1e-15
    assert lo >= 0.0 and hi >= 0.0


def test_cert_json_keys(case1):
    cert = find_certificate(case1)
    d = cert.to_dict()
    assert set(d) == {"lambda", "mu", "K", "delta_u", "delta_v", "delta_d", "feasible"}
    assert d["lambda"] == cert.lam
