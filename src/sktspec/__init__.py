"""Spectral Galerkin solver and boundedness certificates for a two-species
cross-diffusion system on [0, pi]^2 with zero-flux boundaries."""

from .galerkin import RhsAssembler, project_initial, rhs_oracle
from .integrate import (
    Batch,
    DiagnosticRecord,
    RunConfig,
    RunResult,
    diagnostics,
    load_snapshots,
    run,
    save_run,
)
from .lyapunov import (
    LyapunovCert,
    PreconditionError,
    SignReport,
    check_reaction_sign,
    eval_H,
    find_certificate,
)
from .model import (
    ConditionReport,
    ModelParams,
    ParamsError,
    check_conditions,
    coexistence_steady_state,
    flux_coeffs,
    preset,
    reactions,
    resolve_params,
)
from .spectral import (
    Basis,
    SpectralState,
    analyze,
    synthesize,
)

__all__ = [
    "Basis",
    "Batch",
    "ConditionReport",
    "DiagnosticRecord",
    "LyapunovCert",
    "ModelParams",
    "ParamsError",
    "PreconditionError",
    "RhsAssembler",
    "RunConfig",
    "RunResult",
    "SignReport",
    "SpectralState",
    "analyze",
    "check_conditions",
    "check_reaction_sign",
    "coexistence_steady_state",
    "diagnostics",
    "eval_H",
    "find_certificate",
    "flux_coeffs",
    "load_snapshots",
    "preset",
    "project_initial",
    "reactions",
    "resolve_params",
    "rhs_oracle",
    "run",
    "save_run",
    "synthesize",
]
