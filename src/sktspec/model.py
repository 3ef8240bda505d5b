"""Parameter record and closed-form structure checks for the cross-diffusion system.

Two species u (prey) and v (predator) interact through nonlinear fluxes on the
square [0, pi]^2 with zero-flux boundaries:

    du/dt = div[ (d1 + alpha11*u + alpha12*v) grad u + b11*u grad v ] + u*(a1 - b1*u + c1*v)
    dv/dt = div[ b22*v grad u + (d2 + alpha21*u + alpha22*v) grad v ] + v*(a2 + b2*u - c2*v)

This module holds the parameter dataclass, pointwise flux/reaction evaluation,
the coexistence equilibrium, and the inequality groups that gate boundedness
and homogenization.  Condition identifiers (cond_1_6 ... cond_2_1) follow the
standard numbering for this model family and are part of the JSON interface.
"""

from __future__ import annotations

import decimal
import json
import math
from dataclasses import asdict, dataclass, fields
from decimal import Decimal
from typing import NamedTuple

__all__ = [
    "PARAM_KEYS",
    "PRESETS",
    "ModelParams",
    "ParamsError",
    "FluxCoeffs",
    "Inequality",
    "ConditionReport",
    "preset",
    "params_from_dict",
    "params_to_dict",
    "load_params_file",
    "resolve_params",
    "flux_coeffs",
    "reactions",
    "check_conditions",
    "coexistence_steady_state",
]

# Canonical key order for the parameter file format (flat JSON object).
PARAM_KEYS = (
    "d1", "d2",
    "a1", "b1", "c1",
    "a2", "b2", "c2",
    "alpha11", "alpha12", "alpha21", "alpha22",
    "b11", "b22",
)


class ParamsError(ValueError):
    """Raised when a parameter set fails parsing or validation."""


class FluxCoeffs(NamedTuple):
    """Pointwise diffusion-flux coefficients.

    The u flux is Pu*grad(u) + Pv*grad(v), the v flux is Qu*grad(u) + Qv*grad(v).
    """

    Pu: object
    Pv: object
    Qu: object
    Qv: object


@dataclass(frozen=True)
class ModelParams:
    """All fourteen model coefficients.

    d1, d2 are linear diffusion rates (> 0); a1, a2 intrinsic growth rates;
    b1, c2 (> 0) intra-species saturation; c1, b2 interaction coefficients of
    either sign; alpha11/alpha22 self-diffusion, alpha12/alpha21 cross-pressure
    and b11/b22 cross-diffusion weights (all >= 0).

    Validation is explicit: constructors used at API boundaries (presets, file
    loading, condition checks, runs) call :meth:`validate`; direct construction
    leaves the caller responsible.
    """

    d1: float
    d2: float
    a1: float
    b1: float
    c1: float
    a2: float
    b2: float
    c2: float
    alpha11: float
    alpha12: float
    alpha21: float
    alpha22: float
    b11: float
    b22: float

    def validate(self) -> "ModelParams":
        for key in PARAM_KEYS:
            value = getattr(self, key)
            if not math.isfinite(value):
                raise ParamsError(f"{key} must be finite, got {value!r}")
        if not self.d1 > 0:
            raise ParamsError(f"d1 must be > 0, got {self.d1!r}")
        if not self.d2 > 0:
            raise ParamsError(f"d2 must be > 0, got {self.d2!r}")
        if not self.b1 > 0:
            raise ParamsError(f"b1 must be > 0, got {self.b1!r}")
        if not self.c2 > 0:
            raise ParamsError(f"c2 must be > 0, got {self.c2!r}")
        for key in ("alpha11", "alpha12", "alpha21", "alpha22", "b11", "b22"):
            if not getattr(self, key) >= 0:
                raise ParamsError(f"{key} must be >= 0, got {getattr(self, key)!r}")
        return self


assert tuple(f.name for f in fields(ModelParams)) == PARAM_KEYS

# Two reference parameter sets used throughout the tests and the CLI presets.
PRESETS: dict[str, dict[str, float]] = {
    "case1": {
        "d1": 0.01, "d2": 0.1,
        "a1": 1.0, "b1": 2.0, "c1": 0.2,
        "a2": 0.3, "b2": 1.0, "c2": 4.0,
        "alpha11": 0.1, "alpha12": 0.12, "alpha21": 0.06, "alpha22": 0.8,
        "b11": 0.12, "b22": 0.06,
    },
    "case2": {
        "d1": 0.25, "d2": 0.5,
        "a1": 0.2, "b1": 0.8, "c1": 0.8,
        "a2": 0.3, "b2": 0.4, "c2": 0.9,
        "alpha11": 1.2, "alpha12": 0.25, "alpha21": 0.3, "alpha22": 0.75,
        "b11": 0.1, "b22": 1.0,
    },
}


def preset(name: str) -> ModelParams:
    """Return a named built-in parameter set ("case1" or "case2")."""
    try:
        values = PRESETS[name]
    except KeyError:
        raise ParamsError(f"unknown preset {name!r}; available: {sorted(PRESETS)}") from None
    return ModelParams(**values).validate()


def params_from_dict(data: dict) -> ModelParams:
    """Build validated params from a flat mapping with exactly the canonical keys."""
    if not isinstance(data, dict):
        raise ParamsError(f"parameter file must hold a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(PARAM_KEYS))
    if unknown:
        raise ParamsError(f"unknown parameter key {unknown[0]!r}")
    missing = [k for k in PARAM_KEYS if k not in data]
    if missing:
        raise ParamsError(f"missing parameter key {missing[0]!r}")
    values = {}
    for key in PARAM_KEYS:
        value = data[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParamsError(f"parameter {key!r} must be a number, got {value!r}")
        values[key] = float(value)
    return ModelParams(**values).validate()


def params_to_dict(p: ModelParams) -> dict[str, float]:
    """Flat dict in canonical key order (inverse of params_from_dict)."""
    return {key: getattr(p, key) for key in PARAM_KEYS}


def load_params_file(path) -> ModelParams:
    """Load and validate a parameter JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParamsError(f"invalid JSON in {path}: {exc}") from exc
    return params_from_dict(data)


def resolve_params(source: str) -> ModelParams:
    """Accept a preset name or a parameter file path."""
    if source in PRESETS:
        return preset(source)
    return load_params_file(source)


def flux_coeffs(p: ModelParams, u, v) -> FluxCoeffs:
    """Pointwise flux coefficients; u, v may be scalars or arrays."""
    return FluxCoeffs(
        Pu=p.d1 + p.alpha11 * u + p.alpha12 * v,
        Pv=p.b11 * u,
        Qu=p.b22 * v,
        Qv=p.d2 + p.alpha21 * u + p.alpha22 * v,
    )


def reactions(p: ModelParams, u, v):
    """Reaction terms f(u, v) and g(u, v); u, v may be scalars or arrays."""
    f = u * (p.a1 - p.b1 * u + p.c1 * v)
    g = v * (p.a2 + p.b2 * u - p.c2 * v)
    return f, g


def coexistence_steady_state(p: ModelParams):
    """Positive spatially homogeneous equilibrium, or None.

    Solves b1*u - c1*v = a1, -b2*u + c2*v = a2 by the 2x2 closed form; absent
    when the determinant vanishes or either component is non-positive.
    """
    det = p.b1 * p.c2 - p.c1 * p.b2
    if det == 0.0:
        return None
    u = (p.a1 * p.c2 + p.c1 * p.a2) / det
    v = (p.a2 * p.b1 + p.a1 * p.b2) / det
    if not (u > 0.0 and v > 0.0):
        return None
    return (u, v)


@dataclass(frozen=True)
class Inequality:
    """One checked inequality with its two sides (as exact-decimal floats)."""

    holds: bool
    lhs: float
    rhs: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of every closed-form condition group for one parameter set."""

    cond_1_6_i: Inequality
    cond_1_6_ii: Inequality
    cond_1_6_iii: Inequality
    cond_1_6: bool
    cond_1_7: Inequality
    V1: float
    V2: float
    cond_1_9_i: bool
    cond_1_9_ii: bool
    cond_1_9_iii: bool
    cond_2_1_i: bool
    cond_2_1_ii: bool
    cond_2_1_iii: bool
    cond_2_1_iv: bool
    cond_2_1: bool

    # (1.8) is the diagonal dominance of (1.6)(i); Theorem 2.2 applies iff (2.1) holds.
    @property
    def cond_1_8(self) -> bool:
        return self.cond_1_6_i.holds

    @property
    def cond_1_8_value(self) -> float:
        return self.cond_1_6_i.lhs

    @property
    def theorem_2_2_applies(self) -> bool:
        return self.cond_2_1

    def to_dict(self) -> dict:
        return {
            "cond_1_6": {
                "i": self.cond_1_6_i.to_dict(),
                "ii": self.cond_1_6_ii.to_dict(),
                "iii": self.cond_1_6_iii.to_dict(),
                "holds": self.cond_1_6,
            },
            "cond_1_7": self.cond_1_7.to_dict(),
            "cond_1_8": {"holds": self.cond_1_8, "value": self.cond_1_8_value},
            "V1": self.V1,
            "V2": self.V2,
            "cond_1_9": {
                "i": self.cond_1_9_i,
                "ii": self.cond_1_9_ii,
                "iii": self.cond_1_9_iii,
            },
            "cond_2_1": {
                "i": self.cond_2_1_i,
                "ii": self.cond_2_1_ii,
                "iii": self.cond_2_1_iii,
                "iv": self.cond_2_1_iv,
                "holds": self.cond_2_1,
            },
            "theorem_2_2_applies": self.theorem_2_2_applies,
        }


# +, - and * of finite decimals never round in this context, and an
# operation that would round, overflow or be invalid raises instead.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.InvalidOperation, decimal.Overflow],
)


def _exact(x: float) -> Decimal:
    # repr() recovers the shortest decimal that round-trips the double, so
    # values entered as short decimals compare the way they were written:
    # 0.1 - 0.06 is exactly 0.04 here, and V1 == 0 is decidable.
    return Decimal(repr(float(x)))


def _float(x: Decimal) -> float:
    # Correctly rounded.  An exact zero is 0.0 whatever its decimal sign
    # (-0.0 input, a negative times zero); a negative value that rounds to
    # zero stays -0.0.  A value beyond the double range raises, as
    # float(Fraction) does, instead of turning into an infinity.
    if not x:
        return 0.0
    value = float(x)
    if math.isinf(value):
        raise OverflowError(
            f"condition value of order 1e{x.adjusted()} is beyond the double range")
    return value


def check_conditions(p: ModelParams) -> ConditionReport:
    """Evaluate every condition group with exact decimal arithmetic.

    Strict and non-strict comparisons are taken literally; there is no epsilon
    slack, so equality edge cases (V1 == 0 and friends) are decided exactly on
    the supplied decimal values.
    """
    p.validate()
    with decimal.localcontext(_EXACT):
        d1, d2 = _exact(p.d1), _exact(p.d2)
        a11, a12 = _exact(p.alpha11), _exact(p.alpha12)
        a21, a22 = _exact(p.alpha21), _exact(p.alpha22)
        b11, b22 = _exact(p.b11), _exact(p.b22)

        diag_dominance = a11 * a22 + a12 * a21 - b11 * b22
        A1 = a11 - a21          # self minus cross pressure, u equation
        A2 = a22 - a12          # self minus cross pressure, v equation
        V1 = A1 - b22
        V2 = A2 - b11

        c16_i = Inequality(diag_dominance >= 0, _float(diag_dominance), 0.0)
        c16_ii = Inequality(A2 > b11, _float(A2), _float(b11))
        c16_iii = Inequality(A1 > b22, _float(A1), _float(b22))
        c16 = c16_i.holds and c16_ii.holds and c16_iii.holds

        c17 = Inequality(
            A1 > 0 and A2 > 0 and A1 * A2 > b11 * b22,
            _float(A1 * A2),
            _float(b11 * b22),
        )

        c19_i = (V1 == 0 and V2 != 0) or (V2 == 0 and V1 != 0)
        c19_ii = V1 * V2 > 0
        c19_iii = (d1 - d2) * (V2 - V1) * (A1 * A2 - b11 * b22) > 0

        c21_i = (V1 == 0 and V2 > 0) or (V2 == 0 and V1 > 0)
        c21_ii = A1 > b22 and A2 > b11
        c21_iii = d1 > d2 and A1 > b22 and A2 < b11 and c17.holds
        c21_iv = d1 < d2 and A1 < b22 and A2 > b11 and c17.holds
        c21 = c21_i or c21_ii or c21_iii or c21_iv

    return ConditionReport(
        cond_1_6_i=c16_i,
        cond_1_6_ii=c16_ii,
        cond_1_6_iii=c16_iii,
        cond_1_6=c16,
        cond_1_7=c17,
        V1=_float(V1),
        V2=_float(V2),
        cond_1_9_i=c19_i,
        cond_1_9_ii=c19_ii,
        cond_1_9_iii=c19_iii,
        cond_2_1_i=c21_i,
        cond_2_1_ii=c21_ii,
        cond_2_1_iii=c21_iii,
        cond_2_1_iv=c21_iv,
        cond_2_1=c21,
    )
