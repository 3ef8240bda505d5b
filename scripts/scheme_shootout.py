"""Cross-validate the spectral integrator against the finite-volume reference.

Same case1 problem, same band-limited initial data, integrated to t=1 by
two unrelated discretizations: the cosine-Galerkin ODE system under the
adaptive embedded stepper, and flux-form finite volumes under fixed-step
RK4.  Spectral solutions are synthesized on the FV cell centers (both use
midpoint nodes, so the grids align exactly) and compared in relative L2.
Disagreement that shrinks with N but not with n points at the reference;
the reverse points at the Galerkin side.

Usage: python3 scripts/scheme_shootout.py [--t-end 1.0]
"""

import argparse
import time

import numpy as np

from sktspec.galerkin import ic_field
from sktspec.integrate import RunConfig, run
from sktspec.model import preset
from sktspec.reference import fd_reference
from sktspec.spectral import synthesize

IC_U = {"type": "cosine", "offset": 0.5, "terms": [{"j": 1, "k": 1, "amp": 0.2}]}
IC_V = {"type": "cosine", "offset": 0.3, "terms": [{"j": 2, "k": 0, "amp": 0.1}]}


def rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--t-end", type=float, default=1.0)
    ap.add_argument("--orders", type=int, nargs="+", default=[8, 12, 16])
    ap.add_argument("--cells", type=int, nargs="+", default=[32, 64, 96])
    args = ap.parse_args(argv)

    p = preset("case1")

    spectral = {}
    for n in args.orders:
        t0 = time.perf_counter()
        config = RunConfig(n=n, t_max=args.t_end, snapshot_dt=min(1.0, args.t_end), steady_tol=1e-14)
        result = run(p, config, IC_U, IC_V)
        el = time.perf_counter() - t0
        assert result.outcome == "t_max_reached", result.outcome
        spectral[n] = (result, el)
        print(f"spectral n={n:2d}: {result.n_steps:4d} steps  {el:6.2f}s")

    fv = {}
    for N in args.cells:
        # ic_field samples on midpoint nodes, which are exactly the FV cell centers
        u0 = ic_field(IC_U, N)
        v0 = ic_field(IC_V, N)
        t0 = time.perf_counter()
        uN, vN = fd_reference(p, u0, v0, N, args.t_end)
        el = time.perf_counter() - t0
        fv[N] = (uN, vN, el)
        print(f"fv      N={N:3d}: {el:6.2f}s")

    print()
    header = "rel L2 (u | v)   " + "".join(f"N={N:<14d}" for N in args.cells)
    print(header)
    for n in args.orders:
        result, _ = spectral[n]
        cells = []
        for N in args.cells:
            us, vs = synthesize(result.final_state, N)
            uN, vN, _ = fv[N]
            cells.append(f"{rel_l2(us, uN):.1e} | {rel_l2(vs, vN):.1e}")
        print(f"n={n:<2d}              " + "  ".join(cells))

    # pairwise agreement inside each family bounds its own discretization error
    n_hi = max(args.orders)
    N_hi = max(args.cells)
    us_hi, vs_hi = synthesize(spectral[n_hi][0].final_state, N_hi)
    print()
    for n in args.orders:
        if n == n_hi:
            continue
        us, vs = synthesize(spectral[n][0].final_state, N_hi)
        print(f"spectral n={n} vs n={n_hi}:  u {rel_l2(us, us_hi):.1e}  v {rel_l2(vs, vs_hi):.1e}")
    print(f"fv N={N_hi} vs spectral n={n_hi}:  "
          f"u {rel_l2(fv[N_hi][0], us_hi):.1e}  v {rel_l2(fv[N_hi][1], vs_hi):.1e}")


if __name__ == "__main__":
    main()
