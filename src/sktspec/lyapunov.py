"""Quadratic energy certificates for boundedness of the cross-diffusion system.

The certificate is a strictly convex quadratic density

    H(u, v) = (lam/2) u^2 + u v + (mu/2) v^2,     lam * mu = K^2,  K > 1,

whose gradient flux, contracted against the diffusion matrix, splits into
three quadratic forms in (grad u, grad v): a u-weighted form, a v-weighted
form, and a constant-diffusion form.  Negativity of the form discriminants
(delta_u, delta_v) certifies pointwise dissipation of H along the flow; the
admissible (lam, mu) windows shrink as K -> 1 and open up under the
cross-product condition cond_1_7.  This module computes the discriminants in
closed form; the forms themselves, written out term by term, live in
sktspec.reference as the tests' second path.  The reaction side is handled
separately by a sampled sign check of H_u*f + H_v*g on superlevel sets of H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .model import ModelParams, reactions

__all__ = [
    "LyapunovCert",
    "PreconditionError",
    "SignReport",
    "eval_H",
    "discriminants",
    "window_bounds",
    "certificate_for",
    "find_certificate",
    "phi_coefficients",
    "check_reaction_sign",
    "level_excess",
]


class PreconditionError(ValueError):
    """A certificate search precondition failed (reported distinctly)."""


def _check_finite(name: str, fields: dict) -> None:
    """Raise ValueError naming the first of fields (numbers or lists) that is not finite."""
    for key, value in fields.items():
        values = value if isinstance(value, list) else [value]
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{name} field {key} is not finite ({value}): "
                             "the parameters overflow it")


@dataclass(frozen=True)
class LyapunovCert:
    """Certificate weights and their diagnostic discriminants.

    lam and mu are the u^2 and v^2 weights of H (JSON keys "lambda"/"mu"),
    K the coupling constant with lam*mu = K^2.  window_lambda_hi/window_mu_hi
    are the admissibility upper bounds at this K (inf when the corresponding
    cross-diffusion weight vanishes).
    """

    lam: float
    mu: float
    K: float
    delta_u: float = 0.0
    delta_v: float = 0.0
    delta_d: float = 0.0
    window_lambda_hi: float = math.inf
    window_mu_hi: float = math.inf
    feasible: bool = False

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "mu": self.mu,
            "K": self.K,
            "delta_u": self.delta_u,
            "delta_v": self.delta_v,
            "delta_d": self.delta_d,
            "feasible": self.feasible,
        }

    def check_finite(self) -> None:
        """Raise ValueError naming the first value of to_dict that is not finite.

        Weights near the top of the double range overflow the discriminants;
        such a certificate certifies nothing and has no JSON form.
        """
        _check_finite("certificate", self.to_dict())


class HDerivatives(NamedTuple):
    H: object
    Hu: object
    Hv: object
    Huu: float
    Huv: float
    Hvv: float


def _H(cert: LyapunovCert, u, v):
    return 0.5 * cert.lam * u * u + u * v + 0.5 * cert.mu * v * v


def _grad_H(cert: LyapunovCert, u, v):
    return cert.lam * u + v, u + cert.mu * v


def eval_H(cert: LyapunovCert, u, v) -> HDerivatives:
    """H and its first/second partials at (u, v); broadcasts over arrays."""
    return HDerivatives(_H(cert, u, v), *_grad_H(cert, u, v), cert.lam, 1.0, cert.mu)


def discriminants(p: ModelParams, cert: LyapunovCert):
    """Discriminant values of the three gradient quadratic forms."""
    return _discriminants(p, cert.lam, cert.mu, cert.K)


def _discriminants(p: ModelParams, lam: float, mu: float, K: float):
    # Squares are products: float ** 2 raises OverflowError where x * x gives inf.
    ksq = K * K
    eps = ksq - 1.0
    su = p.b11 * lam - p.alpha11 + p.alpha21
    sv = mu * p.b22 - p.alpha22 + p.alpha12
    sd = p.d1 + p.d2
    delta_u = su * su - 4.0 * p.alpha11 * p.alpha21 * eps
    delta_v = sv * sv - 4.0 * p.alpha12 * p.alpha22 * eps
    delta_d = sd * sd - 4.0 * ksq * p.d1 * p.d2
    return delta_u, delta_v, delta_d


def _weight_window(diff: float, prod: float, b: float, eps: float):
    """(lo, hi) of one weight at eps = K^2 - 1: the window bound hi, and the band
    (lo, hi) where (b*w - diff)^2 - 4*prod*eps < 0 (lo None if it is empty).

    With b = 0 the weight drops out: hi is +inf and the band is all or nothing.
    """
    s = math.sqrt(max(prod * eps, 0.0))
    if b > 0:
        return (None if s == 0.0 else max((diff - 2.0 * s) / b, 0.0)), (diff + 2.0 * s) / b
    return (0.0 if diff * diff < 4.0 * prod * eps else None), math.inf


def _windows(p: ModelParams, ksq: float):
    """_weight_window of lam and of mu at K^2 = ksq."""
    eps = ksq - 1.0
    return (_weight_window(p.alpha11 - p.alpha21, p.alpha11 * p.alpha21, p.b11, eps),
            _weight_window(p.alpha22 - p.alpha12, p.alpha12 * p.alpha22, p.b22, eps))


def window_bounds(p: ModelParams, ksq: float):
    """Admissibility upper bounds for (lam, mu) at coupling K^2 = ksq; a vanishing
    cross-diffusion weight leaves the corresponding window unbounded (+inf)."""
    (_, hi_l), (_, hi_m) = _windows(p, ksq)
    return hi_l, hi_m


def certificate_for(p: ModelParams, lam: float, mu: float) -> LyapunovCert:
    """Assemble a certificate from explicit weights (no search)."""
    K = math.sqrt(lam * mu)
    hi_l, hi_m = window_bounds(p, lam * mu)
    du, dv, dd = _discriminants(p, lam, mu, K)
    return LyapunovCert(lam, mu, K, du, dv, dd, hi_l, hi_m, feasible=(K > 1 and du < 0 and dv < 0))


def _pick_weight(lo: float, hi: float, K: float) -> float:
    """A weight strictly inside (lo, hi) if there is one, biased toward the geometric mean.

    Finite two-sided windows use the geometric mean clipped 10% inside each
    bound; half-open windows fall back to K (the balanced choice lam = mu).
    Where rounding puts that on a bound (lo * hi over- or underflows), the
    midpoint of (lo, min(hi, 4 max(lo, K))) is used instead.
    """
    if lo == 0.0 and hi == math.inf:
        return K
    if hi == math.inf:
        w = max(K, lo / 0.81)
    elif lo == 0.0:
        w = min(K, 0.9 * hi)
    else:
        w = math.sqrt(lo * hi)
        clip_lo, clip_hi = lo / 0.9, 0.9 * hi
        if clip_lo <= clip_hi:
            w = min(max(w, clip_lo), clip_hi)
    return w if lo < w < hi else 0.5 * (lo + min(hi, 4.0 * max(lo, K)))


def _try_certificate(p: ModelParams, ksq: float, require_negative: bool) -> Optional[LyapunovCert]:
    """Certificate at fixed K^2, or None when no admissible weight exists."""
    K = math.sqrt(ksq)
    (lo_l, hi_l), (lo_m, hi_m) = _windows(p, ksq)
    if not require_negative:
        lo_l = lo_m = 0.0
    elif lo_l is None or lo_m is None:
        return None
    if hi_m == 0.0:  # the mu window bound underflowed: no mu fits under it
        return None

    # Couple the mu band back into lam through lam * mu = K^2.
    lam_lo = max(lo_l, ksq / hi_m if hi_m < math.inf else 0.0)
    lam_hi = min(hi_l, ksq / lo_m if lo_m > 0.0 else math.inf)
    lam = _pick_weight(lam_lo, lam_hi, K)
    if not lam_lo < lam < lam_hi:  # also rejects an empty window
        return None
    mu = ksq / lam
    du, dv, dd = _discriminants(p, lam, mu, K)
    if require_negative and not (du < 0 and dv < 0):
        return None
    return LyapunovCert(lam, mu, K, du, dv, dd, hi_l, hi_m, feasible=bool(du < 0 and dv < 0))


# Steps 10^-k, k = 0..40, of find_certificate's geometric K^2 grid 1 + 10^-k (k_max^2 - 1).
_K_GRID_STEPS = tuple(10.0 ** (-k) for k in range(41))


def _search_order(span: float):
    """(K^2, require_negative) in search order: the grid, a 400-point denser
    sweep built only once the grid has failed, then the grid with the fallback."""
    grid = [1.0 + step * span for step in _K_GRID_STEPS]
    grid = [ksq for ksq in grid if ksq > 1.0]
    yield from ((ksq, True) for ksq in grid)
    yield from ((1.0 + eps, True) for eps in np.geomspace(span, 1e-15, 400).tolist())
    yield from ((ksq, False) for ksq in grid)


def find_certificate(p: ModelParams, k_max: float = 2.0) -> Optional[LyapunovCert]:
    """Search for certificate weights over K in (1, k_max].

    Success is decided by the K -> 1 limit of the admissibility windows: their
    product exceeds K^2 in the limit exactly when cond_1_7 holds (vanishing
    cross-diffusion weights leave the product unbounded, hence always
    feasible).  On success the search walks a geometric K grid refining toward
    1 and returns the largest K carrying weights with negative discriminants;
    parameter corners where the discriminant bands cannot meet lam * mu = K^2
    below k_max fall back to the window-consistent weight choice, returned
    with feasible False.
    """
    if not k_max > 1:
        raise ValueError(f"k_max must exceed 1, got {k_max}")
    if not math.isfinite(k_max * k_max):
        raise ValueError(f"k_max must be finite with a finite square, got {k_max}")
    if not p.alpha11 > p.alpha21:
        raise PreconditionError(
            f"certificate search requires alpha11 > alpha21 (got {p.alpha11} <= {p.alpha21})"
        )
    if not p.alpha22 > p.alpha12:
        raise PreconditionError(
            f"certificate search requires alpha22 > alpha12 (got {p.alpha22} <= {p.alpha12})"
        )

    if p.b11 > 0 and p.b22 > 0 and \
            not (p.alpha11 - p.alpha21) * (p.alpha22 - p.alpha12) > p.b11 * p.b22:
        return None

    for ksq, require_negative in _search_order(k_max**2 - 1.0):
        cert = _try_certificate(p, ksq, require_negative)
        if cert is not None:
            return cert
    return None


def phi_coefficients(p: ModelParams, cert: LyapunovCert):
    """Coefficients (u^3, u^2 v, u v^2, v^3) of the cubic reaction budget."""
    return (
        cert.lam * p.b1,
        -cert.lam * p.c1 + p.b1 - p.b2,
        -p.c1 + p.c2 - cert.mu * p.b2,
        cert.mu * p.c2,
    )


@dataclass(frozen=True)
class SignReport:
    """Sampled sign check of H_u*f + H_v*g on a superlevel set of H."""

    level: float
    n_samples: int
    n_evaluated: int
    violation_fraction: float
    max_violation: float
    phi_coeffs: tuple
    seed: int

    def to_dict(self) -> dict:
        return {
            "phi_coeffs": list(self.phi_coeffs),
            "violation_fraction": self.violation_fraction,
            "max_violation": self.max_violation,
            "level": self.level,
            "n_samples": self.n_samples,
            "n_evaluated": self.n_evaluated,
            "seed": self.seed,
        }

    def check_finite(self) -> None:
        """Raise ValueError naming the first value of to_dict that is not finite.

        Coefficients near the top of the double range overflow the sampled
        values; such a report has no JSON form.
        """
        _check_finite("sign report", self.to_dict())


def check_reaction_sign(p: ModelParams, cert: LyapunovCert, level: float,
                        samples: int = 10_000, seed: int = 0) -> SignReport:
    """Sample H_u*f + H_v*g over {H > level} in the positive quadrant.

    Points are log-spaced over [1e-3, 1e3]^2; points below the level are
    excluded from the statistics.  This is a report, not a gate: violations
    are counted and the worst positive value recorded.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    # One (2, samples) draw is the stream of a u draw followed by a v draw.
    uv = 10.0 ** np.random.default_rng(seed).uniform(-3.0, 3.0, size=(2, samples))
    # Huge coefficients overflow Phi to inf, or to nan where infs cancel; an
    # inf counts as a violation and a nan does not.
    with np.errstate(over="ignore", invalid="ignore"):
        above = _H(cert, uv[0], uv[1]) > level
        u, v = uv.compress(above, axis=1)
        Hu, Hv = _grad_H(cert, u, v)
        f, g = reactions(p, u, v)
        value = Hu * f + Hv * g
    n_eval = u.size
    violating = value > 0.0
    return SignReport(
        level=level,
        n_samples=samples,
        n_evaluated=n_eval,
        violation_fraction=int(np.count_nonzero(violating)) / n_eval if n_eval else 0.0,
        # Every violation is > 0, so the initial 0.0 is the value when there is none.
        max_violation=float(value.max(where=violating, initial=0.0)),
        phi_coeffs=phi_coefficients(p, cert),
        seed=seed,
    )


def level_excess(H: np.ndarray, level: float, cell_area: float) -> float:
    """Midpoint-rule value of (1/2) * integral of [(H - level)_+]^2 from gridded H."""
    excess = np.maximum(H - level, 0.0)
    return float(0.5 * np.sum(excess * excess) * cell_area)
