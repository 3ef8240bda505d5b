"""Census of what a fixed set of sktspec commands writes, to show whether outputs kept their bytes.

Runs the command line of the sktspec under --src, in process, on a fixed
set: both sweeps, the case2 Gaussian run at n = 8, 16 and 32, ten edge-case
runs (a large constant, an ill-posed set, a short run whose snapshot grid
stops short of t_max, one whose grid misses t_max by rounding, a
tight-tolerance run at n = 12, stiff kinetics with and without a
coexistence state, runs whose v or u starts at zero, and one whose v
starts at zero on a set where v would decay), and check and certify on
both presets and on the ill-posed set.  Prints one JSON object:
the SHA-256 of every file the commands write, each run's outcome, reason,
final time and counters, and each command's exit code and the SHA-256 of
its stdout, with the output directory masked as <out>.

--against OTHER.json compares with an earlier census.  It lists the files
and commands that differ, and for each run whose files or counters differ
it gives the largest coefficient difference over the largest coefficient
at the snapshot times both runs share.  That needs the other census's
outputs, kept with --out.  The exit code is 1 when anything differs.

Usage: python3 scripts/output_census.py [--src SRC] [--out DIR] [--only NAME ...] [--against OTHER.json]

Two checkouts, A the parent of B:
    python3 A/scripts/output_census.py --src A/src --out parent-out > parent.json
    python3 B/scripts/output_census.py --src B/src --against parent.json
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

GAUSSIAN = "gaussian:1.55,1.6,0.5,0.5,0.2"
# case1 with every alpha_ij = 0.1 and b11 = b22 = 1.9: det A < 0 at the
# coexistence state, so the problem is ill-posed there.
ILL_POSED = dict(alpha11=0.1, alpha12=0.1, alpha21=0.1, alpha22=0.1, b11=1.9, b22=1.9)
ILL_POSED_FILE = "ill_posed.json"
# case1 with c2 = 1e14: a reaction time scale far below every other one.
STIFF = dict(c2=1e14)
STIFF_FILE = "stiff.json"
# The same with a2 = -1, which leaves no coexistence state.
STIFF_NO_COEXISTENCE = dict(c2=1e14, a2=-1.0)
STIFF_NO_COEXISTENCE_FILE = "stiff_no_coexistence.json"
# case1 with a2 = 0.1 and b2 = -0.5: no coexistence state, and at u = a1/b1 the
# growth rate a2 + b2 u of v is negative, so the mean-mode Jacobian entries of
# v are negative and a zero that changes sign shows in the bytes.
DECAYING_V = dict(a2=0.1, b2=-0.5)
DECAYING_V_FILE = "decaying_v.json"
# The parameter files the commands read from <out>, each case1 with its overrides.
PARAM_FILES = {ILL_POSED_FILE: ILL_POSED, STIFF_FILE: STIFF,
               STIFF_NO_COEXISTENCE_FILE: STIFF_NO_COEXISTENCE, DECAYING_V_FILE: DECAYING_V}

# Each command's argv; run and sweep write to <out>/<name>.
COMMANDS = {
    "sweep-case1": ["sweep", "case1"],
    "sweep-case2": ["sweep", "case2"],
    "run-case2-n8": ["run", "case2", "--n", "8", "--ic", GAUSSIAN],
    "run-case2-n16": ["run", "case2", "--n", "16", "--ic", GAUSSIAN],
    "run-case2-n32": ["run", "case2", "--n", "32", "--ic", GAUSSIAN],
    "run-case1-constant": ["run", "case1", "--ic", "constant:1e7"],
    "run-ill-posed": ["run", ILL_POSED_FILE, "--ic", "constant:0.52", "--ic", "cosine:0.205,0.01,1,1"],
    "run-case1-short": ["run", "case1", "--n", "4", "--tmax", "0.5", "--snapshot-dt", "0.07",
                        "--ic", "gaussian:1.5,1.5,0.5,0.5,0.2"],
    "run-case1-rounded-grid": ["run", "case1", "--n", "4", "--tmax", "1",
                               "--snapshot-dt", "0.33333333336666665",
                               "--ic", "gaussian:1.5,1.5,0.5,0.5,0.2"],
    "run-case1-tight": ["run", "case1", "--n", "12", "--rtol", "1e-9", "--tmax", "3",
                        "--ic", "cosine:0.5,0.3,2,1"],
    "run-stiff": ["run", STIFF_FILE, "--ic", "cosine:0.5,0.2,1,1"],
    "run-stiff-no-coexistence": ["run", STIFF_NO_COEXISTENCE_FILE, "--ic", "cosine:0.5,0.2,1,1"],
    "run-case1-v-zero": ["run", "case1", "--ic", "cosine:0.5,0.2,1,1", "--ic", "constant:0"],
    "run-case1-u-zero": ["run", "case1", "--ic", "constant:0", "--ic", "cosine:0.5,0.2,1,1"],
    "run-decaying-v-zero": ["run", DECAYING_V_FILE, "--ic", "cosine:0.5,0.2,1,1", "--ic", "constant:0"],
    **{f"{command}-{source}": [command, source if source != "ill-posed" else ILL_POSED_FILE]
       for command in ("check", "certify") for source in ("case1", "case2", "ill-posed")},
}

# The manifest fields that say how a run ended and what it cost.
RUN_FIELDS = ("outcome", "reason", "final_time", "n_steps", "steps_rejected", "rhs_evals",
              "dt_min", "dt_max")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def take_census(out: Path, names) -> dict:
    """Run the named commands into out; their exit codes, stdout digests, files and runs."""
    from sktspec.cli import main
    from sktspec.model import PRESETS

    for file_name, overrides in PARAM_FILES.items():
        (out / file_name).write_text(json.dumps(dict(PRESETS["case1"], **overrides)))
    census = {"commands": {}, "files": {}, "runs": {}}
    for name in names:
        argv = [str(out / a) if a in PARAM_FILES else a for a in COMMANDS[name]]
        if argv[0] in ("run", "sweep"):
            argv += ["--out", str(out / name)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        census["commands"][name] = {
            "argv": [a.replace(str(out), "<out>") for a in argv],
            "exit": code,
            "stdout_sha256": sha256(stdout.getvalue().replace(str(out), "<out>").encode()),
        }
        for path in sorted((out / name).rglob("*")):
            if path.is_file():
                census["files"][path.relative_to(out).as_posix()] = sha256(path.read_bytes())
            if path.name == "manifest.json":
                manifest = json.loads(path.read_text())
                if "outcome" in manifest:
                    census["runs"][path.parent.relative_to(out).as_posix()] = {
                        key: manifest.get(key) for key in RUN_FIELDS}
    return census


def _snapshots(run_dir: Path) -> dict:
    """A run directory's snapshot coefficients by time."""
    entries = json.loads((run_dir / "manifest.json").read_text())["snapshots"]
    coeffs = np.load(run_dir / "snapshots.npy")
    return {entry["t"]: coeffs[entry["index"]] for entry in entries}


def coefficient_difference(run_dir: Path, other_dir: Path):
    """max |a - b| over max |b| at the snapshot times both runs share; None when they share none."""
    a, b = _snapshots(run_dir), _snapshots(other_dir)
    shared = sorted(a.keys() & b.keys())
    if not shared:
        return None
    diff = max(float(np.abs(a[t] - b[t]).max()) for t in shared)
    scale = max(float(np.abs(b[t]).max()) for t in shared)
    return diff / scale if scale > 0.0 else diff


def _differing(mine: dict, other: dict) -> list:
    return sorted(key for key in mine.keys() | other.keys() if mine.get(key) != other.get(key))


def compare(census: dict, out: Path, other: dict) -> dict:
    """What differs between census (outputs in out) and other."""
    files = _differing(census["files"], other["files"])
    changed_dirs = {Path(f).parent.as_posix() for f in files}
    kept = other.get("out_dir")
    runs = {}
    for run in sorted(census["runs"].keys() | other["runs"].keys()):
        mine, theirs = census["runs"].get(run, {}), other["runs"].get(run, {})
        if run not in changed_dirs and mine == theirs:
            continue
        entry = {"counters": {key: [mine.get(key), theirs.get(key)] for key in _differing(mine, theirs)}}
        if mine and theirs and kept is not None:
            entry["max_rel_coeff_diff"] = coefficient_difference(out / run, Path(kept) / run)
        runs[run] = entry
    return {"files": files, "commands": _differing(census["commands"], other["commands"]), "runs": runs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                    help="directory holding the sktspec package to run (default: this checkout's)")
    ap.add_argument("--out", default=None,
                    help="keep the outputs in this new or empty directory (default: a temporary one)")
    ap.add_argument("--only", nargs="+", choices=list(COMMANDS), default=list(COMMANDS),
                    help="run only these commands")
    ap.add_argument("--against", default=None, help="an earlier census to compare with")
    args = ap.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import sktspec
    if src not in Path(sktspec.__file__).resolve().parents:
        raise SystemExit(f"sktspec was imported from {sktspec.__file__}, not from {src}")
    other = json.loads(Path(args.against).read_text()) if args.against else None

    with contextlib.ExitStack() as stack:
        if args.out is None:
            out = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        else:
            out = Path(args.out).resolve()
            out.mkdir(parents=True, exist_ok=True)
            if any(out.iterdir()):
                raise SystemExit(f"--out {out} is not empty")
        census = {"src": str(src), "out_dir": None if args.out is None else str(out),
                  **take_census(out, args.only)}
        if other is not None:
            census["differences"] = compare(census, out, other)
    print(json.dumps(census, indent=2, sort_keys=True))
    differences = census.get("differences", {})
    return 1 if any(differences.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
