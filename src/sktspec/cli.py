"""Command-line front end: condition checks, certificate search, runs, sweeps.

Subcommands
    check    print the condition report JSON (exit 0 when the homogenization
             conditions apply, 2 when not, 1 on bad input)
    certify  search for certificate weights (exit 0 feasible, 2 infeasible)
    run      integrate one initial condition; write manifest.json + snapshots.npy
             (exit 0 steady/t_max, 3 blow-up, 4 step budget, 1 bad config)
    sweep    the nine-initial-condition grid, integrated together in lockstep
             (worst run decides the exit code)

All JSON output is deterministic and strict: no timestamps, repr-round-trip
floats, sorted keys, and no NaN or infinity (a missing value is null).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .galerkin import check_ic
from .integrate import (
    OUTCOME_BLOWUP,
    OUTCOME_BUDGET,
    OUTCOME_STEADY,
    OUTCOME_TMAX,
    Batch,
    RunConfig,
    run,
    save_run,
)
from .lyapunov import PreconditionError, check_reaction_sign, find_certificate
from .model import (
    ModelParams,
    ParamsError,
    check_conditions,
    coexistence_steady_state,
    params_to_dict,
    resolve_params,
)
from .spectral import synthesize

__all__ = ["main", "parse_ic", "SWEEP_SHAPES"]

# Stand-ins for the nine-simulation initial densities: two offset cosine
# bumps and one Gaussian bump, all nonnegative.
SWEEP_SHAPES = {
    "A": {"type": "cosine", "offset": 0.5, "terms": [{"j": 1, "k": 1, "amp": 0.3}]},
    "B": {"type": "cosine", "offset": 0.5, "terms": [{"j": 2, "k": 0, "amp": 0.3}]},
    "C": {"type": "gaussian", "cx": np.pi / 2, "cy": np.pi / 2,
          "sigma": 0.5, "amp": 0.5, "offset": 0.2},
}

_RUN_EXIT = {OUTCOME_STEADY: 0, OUTCOME_TMAX: 0, OUTCOME_BLOWUP: 3, OUTCOME_BUDGET: 4}
_DEFAULT_SIGN_LEVEL = 100.0


def parse_ic(text: str):
    """Parse one --ic descriptor.

    Forms: "constant:U[,V]" (a pair when two values are given),
    "cosine:OFFSET,AMP,J,K", "gaussian:CX,CY,SIGMA,AMP,OFFSET", or
    "@file.json" holding either a descriptor or {"u": ..., "v": ...}.
    Returns a single descriptor dict or a (u_desc, v_desc) tuple; a
    non-finite number, a wavenumber that is not a nonnegative integer or a
    sigma <= 0 raises ValueError (see check_ic).
    """
    parsed = _parse_ic_text(text)
    for ic in parsed if isinstance(parsed, tuple) else (parsed,):
        check_ic(ic)
    return parsed


# Values of each --ic form, named as the README spells them.
_IC_FIELDS = {"constant": ("U", "V"), "cosine": ("OFFSET", "AMP", "J", "K"),
              "gaussian": ("CX", "CY", "SIGMA", "AMP", "OFFSET")}


def _parse_ic_text(text: str):
    if text.startswith("@"):
        with open(text[1:]) as fh:
            data = json.load(fh)
        if isinstance(data, dict) and set(data) == {"u", "v"}:
            return data["u"], data["v"]
        return data
    kind, _, argstr = text.partition(":")
    if kind not in _IC_FIELDS:
        raise ValueError(f"unknown initial-condition form {kind!r}")
    names = _IC_FIELDS[kind]
    texts = argstr.split(",") if argstr else []
    args = {}
    for name, value in zip(names, texts):
        try:
            args[name] = float(value)
        except ValueError:
            raise ValueError(f"{kind} initial condition: {name} must be a number, got {value!r}") from None
    if not (len(texts) == len(names) or kind == "constant" and len(texts) == 1):
        form = "U[,V]" if kind == "constant" else ",".join(names)
        raise ValueError(f"{kind} takes {form}, got {len(texts)} values")
    if kind == "constant":
        if "V" in args:
            return {"type": "constant", "value": args["U"]}, {"type": "constant", "value": args["V"]}
        return {"type": "constant", "value": args["U"]}
    if kind == "cosine":
        return {"type": "cosine", "offset": args["OFFSET"],
                "terms": [{"j": args["J"], "k": args["K"], "amp": args["AMP"]}]}
    return {"type": "gaussian", "cx": args["CX"], "cy": args["CY"],
            "sigma": args["SIGMA"], "amp": args["AMP"], "offset": args["OFFSET"]}


def _resolve_ics(ic_args):
    """One or two --ic flags resolve to a (u, v) descriptor pair."""
    if not ic_args:
        c = {"type": "constant", "value": 0.5}
        return c, c
    parsed = [parse_ic(a) for a in ic_args]
    if len(parsed) == 1:
        if isinstance(parsed[0], tuple):
            return parsed[0]
        return parsed[0], parsed[0]
    if len(parsed) == 2:
        out = []
        for item in parsed:
            if isinstance(item, tuple):
                raise ValueError("two --ic flags must each describe one species")
            out.append(item)
        return out[0], out[1]
    raise ValueError(f"at most two --ic flags, got {len(parsed)}")


def _params_from_args(args) -> ModelParams:
    if args.source is None:
        raise ParamsError("no parameter source: give a preset name or a parameter file")
    return resolve_params(args.source)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))


def cmd_check(args) -> int:
    p = _params_from_args(args)
    report = check_conditions(p)
    payload = {"params": params_to_dict(p)}
    payload.update(report.to_dict())
    _emit(payload)
    return 0 if report.theorem_2_2_applies else 2


def cmd_certify(args) -> int:
    p = _params_from_args(args)
    try:
        cert = find_certificate(p, k_max=args.kmax)
    except PreconditionError as exc:
        _emit({"feasible": False, "reason": str(exc)})
        return 2
    if cert is None:
        _emit({"feasible": False,
               "reason": f"no admissible coupling in (1, {args.kmax}]: "
                         "window product never exceeds K^2"})
        return 2
    cert.check_finite()
    sign = check_reaction_sign(p, cert, _DEFAULT_SIGN_LEVEL, seed=args.seed)
    sign.check_finite()
    payload = cert.to_dict()
    payload.update({
        "phi_coeffs": list(sign.phi_coeffs),
        "violation_fraction": sign.violation_fraction,
        "max_violation": sign.max_violation,
    })
    _emit(payload)
    return 0 if cert.feasible else 2


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        n=args.n, t_max=args.tmax, rtol=args.rtol, atol=args.atol,
        snapshot_dt=args.snapshot_dt,
    ).validate()


def cmd_run(args) -> int:
    p = _params_from_args(args)
    config = _config_from_args(args)
    ic_u, ic_v = _resolve_ics(args.ic)
    result = run(p, config, ic_u, ic_v)
    save_run(result, args.out)
    _emit({**result.summary(), "out_dir": args.out})
    return _RUN_EXIT[result.outcome]


def _sweep_deviation(result, equilibrium) -> float | None:
    if equilibrium is None:
        return None
    res = 4 * (result.config.n + 1)
    u, v = synthesize(result.final_state, res)
    return max(float(np.abs(u - equilibrium[0]).max()),
               float(np.abs(v - equilibrium[1]).max()))


def cmd_sweep(args) -> int:
    p = _params_from_args(args)
    config = _config_from_args(args)
    labels = sorted(SWEEP_SHAPES)
    pairs = [(lu, lv) for lu in labels for lv in labels]
    equilibrium = coexistence_steady_state(p)

    # One batch shares the condition report, the certificate and the
    # assembler; a cell whose set-up or save fails is recorded and the
    # others go on.
    batch = Batch(p, config)
    errors = {}
    cells = []
    for lu, lv in pairs:
        try:
            batch.add(SWEEP_SHAPES[lu], SWEEP_SHAPES[lv])
            cells.append((lu, lv))
        except Exception as exc:
            errors[lu, lv] = str(exc)
    rows = []
    for (lu, lv), result in zip(cells, batch.integrate()):
        try:  # partial results stay on disk
            save_run(result, os.path.join(args.out, f"u{lu}_v{lv}"))
            rows.append(((lu, lv), result, _sweep_deviation(result, equilibrium)))
        except Exception as exc:
            errors[lu, lv] = str(exc)
    failures = [{"u_ic": lu, "v_ic": lv, "error": errors[lu, lv]}
                for lu, lv in pairs if (lu, lv) in errors]

    summary = []
    print(f"{'u_ic':>4} {'v_ic':>4} {'outcome':>22} {'max_deviation':>14} {'t_end':>8}")
    for (lu, lv), result, dev in rows:
        dev_text = "n/a" if dev is None else f"{dev:.6e}"
        print(f"{lu:>4} {lv:>4} {result.outcome:>22} {dev_text:>14} {result.final_state.t:>8.2f}")
        summary.append({"u_ic": lu, "v_ic": lv, "outcome": result.outcome,
                        "max_deviation": dev, "t_end": result.final_state.t,
                        "out_dir": f"u{lu}_v{lv}"})
    for fail in failures:
        print(f"{fail['u_ic']:>4} {fail['v_ic']:>4} {'failed':>22} {fail['error']}")

    # Serialized first, so that a value strict JSON refuses leaves no partial file.
    text = json.dumps({"params": params_to_dict(p), "config": config.to_dict(), "runs": summary,
                       "failures": failures}, indent=2, sort_keys=True, allow_nan=False)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "sweep_manifest.json"), "w") as fh:
        fh.write(text + "\n")

    if failures:
        return 1
    outcomes = {result.outcome for _, result, _ in rows}
    if OUTCOME_BLOWUP in outcomes:
        return 3
    if OUTCOME_BUDGET in outcomes:
        return 4
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sktspec",
        description="Cross-diffusion competition system: condition checks, "
                    "certificates, and spectral simulations on [0, pi]^2.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(sp):
        sp.add_argument("source", nargs="?", default=None,
                        help="preset name (case1/case2) or parameter JSON file")

    def add_run_options(sp):
        sp.add_argument("--n", type=int, default=RunConfig.n, help="truncation order")
        sp.add_argument("--tmax", type=float, default=RunConfig.t_max)
        sp.add_argument("--rtol", type=float, default=RunConfig.rtol)
        sp.add_argument("--atol", type=float, default=RunConfig.atol)
        sp.add_argument("--snapshot-dt", type=float, default=RunConfig.snapshot_dt, dest="snapshot_dt")
        sp.add_argument("--out", default="sktspec_out", help="output directory")

    sp = sub.add_parser("check", help="evaluate the inequality conditions")
    add_source(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("certify", help="search for certificate weights")
    add_source(sp)
    sp.add_argument("--kmax", type=float, default=2.0)
    sp.add_argument("--seed", type=int, default=0,
                    help="seed of the reaction-sign sampler")
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("run", help="integrate one initial condition")
    add_source(sp)
    add_run_options(sp)
    sp.add_argument("--ic", action="append", default=None,
                    help="initial condition (repeat for separate u and v)")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("sweep", help="run the 3x3 initial-condition grid")
    add_source(sp)
    add_run_options(sp)
    sp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
