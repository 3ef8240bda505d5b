import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sktspec.model import (
    PARAM_KEYS,
    PRESETS,
    ModelParams,
    ParamsError,
    check_conditions,
    coexistence_steady_state,
    flux_coeffs,
    load_params_file,
    params_from_dict,
    params_to_dict,
    preset,
    reactions,
    resolve_params,
)

TABLE_CASE1 = dict(d1=0.01, d2=0.1, a1=1.0, b1=2.0, c1=0.2, a2=0.3, b2=1.0, c2=4.0,
                   alpha11=0.1, alpha12=0.12, alpha21=0.06, alpha22=0.8,
                   b11=0.12, b22=0.06)
TABLE_CASE2 = dict(d1=0.25, d2=0.5, a1=0.2, b1=0.8, c1=0.8, a2=0.3, b2=0.4, c2=0.9,
                   alpha11=1.2, alpha12=0.25, alpha21=0.3, alpha22=0.75,
                   b11=0.1, b22=1.0)


def test_preset_values_are_exact():
    assert params_to_dict(preset("case1")) == TABLE_CASE1
    assert params_to_dict(preset("case2")) == TABLE_CASE2


def test_preset_unknown_name():
    with pytest.raises(ParamsError, match="case3"):
        preset("case3")


def test_params_from_dict_rejects_unknown_key():
    d = dict(TABLE_CASE1)
    d["alpha13"] = 1.0
    with pytest.raises(ParamsError, match="alpha13"):
        params_from_dict(d)


def test_params_from_dict_rejects_missing_key():
    d = dict(TABLE_CASE1)
    del d["b22"]
    with pytest.raises(ParamsError, match="b22"):
        params_from_dict(d)


def test_params_from_dict_rejects_non_numeric():
    d = dict(TABLE_CASE1)
    d["d1"] = True
    with pytest.raises(ParamsError, match="d1"):
        params_from_dict(d)


@pytest.mark.parametrize("key,value", [
    ("d1", 0.0), ("d2", -0.5), ("b1", 0.0), ("c2", -1.0),
    ("alpha11", -0.1), ("b11", -0.01), ("d1", math.nan), ("a1", math.inf),
])
def test_validate_rejects_bad_values(key, value):
    d = dict(TABLE_CASE1)
    d[key] = value
    with pytest.raises(ParamsError, match=key):
        params_from_dict(d)


def test_validate_reports_non_finite_before_sign():
    d = dict(TABLE_CASE1)
    d["d1"] = math.nan
    with pytest.raises(ParamsError, match="d1 must be finite"):
        params_from_dict(d)


def test_params_file_roundtrip(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(TABLE_CASE2))
    p = load_params_file(path)
    assert p == preset("case2")
    assert resolve_params(str(path)) == p
    assert resolve_params("case1") == preset("case1")


def test_flux_coeffs_pointwise(case1):
    fc = flux_coeffs(case1, 2.0, 3.0)
    assert fc.Pu == pytest.approx(0.01 + 0.1 * 2.0 + 0.12 * 3.0)
    assert fc.Pv == pytest.approx(0.12 * 2.0)
    assert fc.Qu == pytest.approx(0.06 * 3.0)
    assert fc.Qv == pytest.approx(0.1 + 0.06 * 2.0 + 0.8 * 3.0)


def test_reactions_pointwise(case1):
    f, g = reactions(case1, 2.0, 3.0)
    assert f == pytest.approx(2.0 * (1.0 - 2.0 * 2.0 + 0.2 * 3.0))
    assert g == pytest.approx(3.0 * (0.3 + 1.0 * 2.0 - 4.0 * 3.0))


def test_coexistence_steady_state_case1(case1):
    u, v = coexistence_steady_state(case1)
    assert u == pytest.approx(0.520513, abs=5e-7)
    assert v == pytest.approx(0.205128, abs=5e-7)


def test_coexistence_steady_state_case2(case2):
    u, v = coexistence_steady_state(case2)
    assert u == pytest.approx(1.05, abs=1e-12)
    assert v == pytest.approx(0.8, abs=1e-12)


def test_coexistence_absent_when_degenerate():
    d = dict(TABLE_CASE1)
    d.update(b1=1.0, c2=1.0, c1=1.0, b2=1.0)  # determinant zero
    assert coexistence_steady_state(params_from_dict(d)) is None
    d.update(b1=1.0, c2=1.0, c1=2.0, b2=3.0, a1=1.0, a2=0.3)
    p = params_from_dict(d)
    eq = coexistence_steady_state(p)
    if eq is not None:
        assert eq[0] > 0 and eq[1] > 0


@given(st.floats(0.1, 5), st.floats(0.1, 5), st.floats(-2, 2), st.floats(-2, 2),
       st.floats(0.1, 3), st.floats(0.1, 3))
def test_equilibrium_solves_reaction_system(b1, c2, c1, b2, a1, a2):
    d = dict(TABLE_CASE1)
    d.update(b1=b1, c2=c2, c1=c1, b2=b2, a1=a1, a2=a2)
    p = params_from_dict(d)
    eq = coexistence_steady_state(p)
    if eq is None:
        return
    f, g = reactions(p, eq[0], eq[1])
    assert abs(f) < 1e-9 * (1 + abs(eq[0]))
    assert abs(g) < 1e-9 * (1 + abs(eq[1]))


def test_conditions_case1_values(case1):
    r = check_conditions(case1)
    assert r.cond_1_6_i.holds and r.cond_1_6_i.lhs == 0.08
    assert r.cond_1_6_ii.holds and (r.cond_1_6_ii.lhs, r.cond_1_6_ii.rhs) == (0.68, 0.12)
    assert not r.cond_1_6_iii.holds
    assert (r.cond_1_6_iii.lhs, r.cond_1_6_iii.rhs) == (0.04, 0.06)
    assert not r.cond_1_6
    assert r.cond_1_7.holds and (r.cond_1_7.lhs, r.cond_1_7.rhs) == (0.0272, 0.0072)
    assert r.cond_1_8 and r.cond_1_8_value == 0.08
    assert (r.V1, r.V2) == (-0.02, 0.56)
    assert not (r.cond_1_9_i or r.cond_1_9_ii or r.cond_1_9_iii)
    assert r.cond_2_1_iv and not (r.cond_2_1_i or r.cond_2_1_ii or r.cond_2_1_iii)
    assert r.cond_2_1 and r.theorem_2_2_applies


def test_conditions_case2_values(case2):
    r = check_conditions(case2)
    assert not r.cond_1_6_iii.holds
    assert (r.cond_1_6_iii.lhs, r.cond_1_6_iii.rhs) == (0.9, 1.0)
    assert not r.cond_1_6
    assert r.cond_1_7.holds and (r.cond_1_7.lhs, r.cond_1_7.rhs) == (0.45, 0.1)
    assert (r.V1, r.V2) == (-0.1, 0.4)
    assert r.cond_2_1_iv and r.cond_2_1 and r.theorem_2_2_applies


def test_condition_report_json_shape(case1):
    d = check_conditions(case1).to_dict()
    assert set(d) == {"cond_1_6", "cond_1_7", "cond_1_8", "V1", "V2",
                      "cond_1_9", "cond_2_1", "theorem_2_2_applies"}
    assert set(d["cond_1_6"]) == {"i", "ii", "iii", "holds"}
    assert set(d["cond_2_1"]) == {"i", "ii", "iii", "iv", "holds"}
    json.dumps(d)  # serializable


@given(st.lists(st.floats(0.0, 2.0), min_size=4, max_size=4),
       st.floats(0.01, 2.0), st.floats(0.01, 2.0))
def test_condition_report_internal_consistency(alphas, b11, b22):
    d = dict(TABLE_CASE1)
    d.update(alpha11=alphas[0], alpha12=alphas[1], alpha21=alphas[2], alpha22=alphas[3],
             b11=b11, b22=b22)
    r = check_conditions(params_from_dict(d))
    assert r.cond_1_6 == (r.cond_1_6_i.holds and r.cond_1_6_ii.holds and r.cond_1_6_iii.holds)
    assert r.cond_2_1 == (r.cond_2_1_i or r.cond_2_1_ii or r.cond_2_1_iii or r.cond_2_1_iv)
    assert r.theorem_2_2_applies == r.cond_2_1
    assert r.cond_1_8 == r.cond_1_6_i.holds
    # V values agree with the inequality sides they are built from
    assert r.V1 == pytest.approx(r.cond_1_6_iii.lhs - r.cond_1_6_iii.rhs, abs=1e-15)


def test_exact_decimal_reporting():
    # differences of short decimals print as short decimals
    p = preset("case1")
    r = check_conditions(p)
    assert repr(r.cond_1_6_iii.lhs) == "0.04"
    assert repr(r.V1) == "-0.02"


def test_param_keys_complete():
    assert set(PARAM_KEYS) == set(TABLE_CASE1)
    assert set(PRESETS) == {"case1", "case2"}


def _reference_conditions(p):
    """The condition groups evaluated in Fraction arithmetic, in to_dict shape."""
    def q(x):
        return Fraction(repr(x))

    f = float  # raises OverflowError beyond the double range

    def side(holds, lhs, rhs):
        return {"holds": holds, "lhs": f(lhs), "rhs": f(rhs)}

    d1, d2 = q(p.d1), q(p.d2)
    a11, a12, a21, a22 = q(p.alpha11), q(p.alpha12), q(p.alpha21), q(p.alpha22)
    b11, b22 = q(p.b11), q(p.b22)
    diag = a11 * a22 + a12 * a21 - b11 * b22
    A1, A2 = a11 - a21, a22 - a12
    V1, V2 = A1 - b22, A2 - b11
    c17 = A1 > 0 and A2 > 0 and A1 * A2 > b11 * b22
    c21 = {
        "i": (V1 == 0 and V2 > 0) or (V2 == 0 and V1 > 0),
        "ii": A1 > b22 and A2 > b11,
        "iii": d1 > d2 and A1 > b22 and A2 < b11 and c17,
        "iv": d1 < d2 and A1 < b22 and A2 > b11 and c17,
    }
    c21["holds"] = any(c21.values())
    c16 = {"i": side(diag >= 0, diag, 0), "ii": side(A2 > b11, A2, b11),
           "iii": side(A1 > b22, A1, b22)}
    c16["holds"] = all(c16[k]["holds"] for k in ("i", "ii", "iii"))
    return {
        "cond_1_6": c16,
        "cond_1_7": side(c17, A1 * A2, b11 * b22),
        "cond_1_8": {"holds": diag >= 0, "value": f(diag)},
        "V1": f(V1),
        "V2": f(V2),
        "cond_1_9": {
            "i": (V1 == 0 and V2 != 0) or (V2 == 0 and V1 != 0),
            "ii": V1 * V2 > 0,
            "iii": (d1 - d2) * (V2 - V1) * (A1 * A2 - b11 * b22) > 0,
        },
        "cond_2_1": c21,
        "theorem_2_2_applies": c21["holds"],
    }


def _bits(value):
    # float.hex tells -0.0 from 0.0 and every other pair of distinct doubles.
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    if isinstance(value, float):
        return value.hex()
    return value


# Short decimals make the ties (V1 == 0, A1*A2 == b11*b22) common; the log
# draw and the subnormal range span the whole double range.
_coefficient = st.one_of(
    st.integers(0, 150).map(lambda k: k / 100),
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-300, 299)),
    st.floats(0.0, 1e300),
    st.floats(0.0, 2.5e-308),
)
_positive = _coefficient.filter(lambda x: x > 0)


@given(d1=_positive, d2=_positive, alpha11=_coefficient, alpha12=_coefficient,
       alpha21=_coefficient, alpha22=_coefficient, b11=_coefficient, b22=_coefficient)
@example(d1=0.01, d2=0.1, alpha11=0.1, alpha12=0.12, alpha21=0.06, alpha22=0.8,
         b11=0.12, b22=0.04)                                   # V1 == 0
@example(d1=0.2, d2=0.1, alpha11=0.1, alpha12=0.2, alpha21=0.06, alpha22=0.5,
         b11=0.12, b22=0.1)                                    # A1*A2 == b11*b22
@example(d1=5e-324, d2=1.0, alpha11=0.0, alpha12=0.0, alpha21=5e-324, alpha22=5e-324,
         b11=1e-320, b22=5e-324)                               # -0.0 products
@example(d1=5e-324, d2=1e300, alpha11=1e-320, alpha12=0.06, alpha21=1e300, alpha22=0.06,
         b11=1e300, b22=5e-324)                                # overflow
@settings(max_examples=300)
def test_conditions_match_fraction_reference(d1, d2, alpha11, alpha12, alpha21, alpha22,
                                             b11, b22):
    values = dict(TABLE_CASE1, d1=d1, d2=d2, alpha11=alpha11, alpha12=alpha12,
                  alpha21=alpha21, alpha22=alpha22, b11=b11, b22=b22)
    p = params_from_dict(values)
    try:
        expected = _reference_conditions(p)
    except OverflowError:
        with pytest.raises(OverflowError):
            check_conditions(p)
        return
    assert _bits(check_conditions(p).to_dict()) == _bits(expected)
