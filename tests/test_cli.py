import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from sktspec import cli
from sktspec.cli import SWEEP_SHAPES, main, parse_ic
from sktspec.model import PRESETS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_params(tmp_path, name, **overrides):
    values = dict(PRESETS["case1"])
    values.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(values))
    return str(path)


def test_run_path_does_not_import_the_references(subprocess_env):
    # sktspec.reference holds test-only second paths; a fresh interpreter
    # that loads the package and the command line must not load it.
    code = "import sys, sktspec, sktspec.cli; print('sktspec.reference' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=subprocess_env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "False"


def test_check_case1_golden_values(capsys):
    code, out, _ = run_cli(capsys, "check", "case1")
    assert code == 0
    data = json.loads(out)
    assert data["cond_1_6"]["iii"] == {"holds": False, "lhs": 0.04, "rhs": 0.06}
    assert data["cond_1_7"]["holds"] is True
    assert data["cond_1_7"]["lhs"] == pytest.approx(0.0272)
    assert data["cond_2_1"]["iv"] is True
    assert data["theorem_2_2_applies"] is True
    assert data["params"]["d1"] == 0.01


def test_check_case2_golden_values(capsys):
    code, out, _ = run_cli(capsys, "check", "case2")
    assert code == 0
    data = json.loads(out)
    assert data["cond_1_6"]["iii"] == {"holds": False, "lhs": 0.9, "rhs": 1.0}
    assert data["cond_1_7"]["lhs"] == pytest.approx(0.45)
    assert data["cond_2_1"]["iv"] is True


def test_check_exit_two_when_theorem_fails(capsys, tmp_path):
    # reversing the linear diffusion ordering breaks cond_2_1
    path = write_params(tmp_path, "rev.json", d1=0.5)
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 2
    assert json.loads(out)["theorem_2_2_applies"] is False


def test_check_rejects_bad_values(capsys, tmp_path):
    path = write_params(tmp_path, "bad.json", b1=-1.0)
    code, _, err = run_cli(capsys, "check", path)
    assert code == 1
    assert "b1" in err


def test_check_requires_a_source(capsys):
    code, _, err = run_cli(capsys, "check")
    assert code == 1
    assert "parameter source" in err


def test_check_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "check", str(tmp_path / "nope.json"))
    assert code == 1
    assert "nope.json" in err


@pytest.mark.parametrize("argv", [
    ["check", "{missing}"],
    ["certify", "{missing}"],
    ["run", "{missing}", "--out", "{out}"],
    ["sweep", "{missing}", "--out", "{out}"],
    ["run", "case1", "--ic", "@{missing}", "--out", "{out}"],
    ["run", "case1", "--ic", "cosine:0.5,0.3,1.5,1", "--out", "{out}"],
    ["run", "case1", "--ic", "cosine:0.5,0.3,-1,0", "--out", "{out}"],
    ["run", "case1", "--ic", "constant:1,,2", "--out", "{out}"],
    ["sweep", "case1", "--snapshot-dt", "0", "--out", "{out}"],
    ["certify", "case1", "--kmax", "inf"],
    ["certify", "case1", "--kmax", "1e200"],
    ["check", "{huge}"],
    ["certify", "{huge}"],
    ["sweep", "{huge}", "--n", "2", "--out", "{out}"],
    ["run", "case1", "--atol", "inf", "--tmax", "3", "--out", "{out}"],
    ["sweep", "case1", "--rtol", "inf", "--tmax", "3", "--out", "{out}"],
    ["run", "case1", "--tmax", "inf", "--out", "{out}"],
    ["run", "case1", "--tmax", "1e-12", "--snapshot-dt", "1e-12", "--out", "{out}"],
    ["run", "case1", "--ic", "constant:1e7", "--out", "{out}"],
], ids=["check", "certify", "run", "sweep", "run-ic-file", "run-ic-fractional-j", "run-ic-negative-j",
        "run-ic-empty-value", "sweep-snapshot-dt", "certify-kmax-inf", "certify-kmax-1e200", "check-huge",
        "certify-huge", "sweep-huge", "run-atol-inf", "sweep-rtol-inf", "run-tmax-inf",
        "run-tiny-horizon", "run-above-blowup-threshold"])
def test_bad_input_exits_one_with_an_error_line(capsys, tmp_path, argv):
    # huge.json has condition sides beyond the double range.
    paths = {"missing": tmp_path / "nope.json", "out": tmp_path / "out",
             "huge": write_params(tmp_path, "huge.json", alpha11=1e300, alpha22=1e300)}
    code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 1
    assert err.startswith("error:")
    assert out == ""
    assert not paths["out"].exists()


def test_check_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "check", "case2")
    _, second, _ = run_cli(capsys, "check", "case2")
    assert first == second


def test_certify_case1(capsys):
    code, out, _ = run_cli(capsys, "certify", "case1")
    assert code == 0
    data = json.loads(out)
    assert data["feasible"] is True
    assert data["lambda"] == pytest.approx(0.593051, rel=1e-4)
    assert data["mu"] == pytest.approx(6.74478, rel=1e-4)
    assert data["K"] == pytest.approx(2.0)
    assert data["delta_u"] < 0 and data["delta_v"] < 0
    assert len(data["phi_coeffs"]) == 4
    assert 0.0 <= data["violation_fraction"] <= 1.0
    assert data["max_violation"] >= 0.0


def test_certify_infeasible_exit_two(capsys, tmp_path):
    path = write_params(tmp_path, "weak.json", alpha11=0.3, alpha21=0.2,
                        alpha12=0.1, alpha22=0.2, b11=1.0, b22=1.0)
    code, out, _ = run_cli(capsys, "certify", path)
    assert code == 2
    data = json.loads(out)
    assert data["feasible"] is False
    assert "window product" in data["reason"]


# A window-fallback certificate keeps positive discriminants; a mu window
# bound that underflows to 0 leaves no certificate at all.
@pytest.mark.parametrize("overrides, has_weights", [
    (dict(alpha11=2.0, alpha22=2.0, alpha12=1e-3, alpha21=1e-3, b11=1.5, b22=0.5), True),
    (dict(alpha12=0.0, alpha21=1.55e-5, alpha22=2.08e-220, b11=0.0, b22=3.55e289), False),
], ids=["fallback", "mu-window-underflow"])
def test_certify_without_negative_discriminants_exit_two(capsys, tmp_path, overrides, has_weights):
    code, out, _ = run_cli(capsys, "certify", write_params(tmp_path, "p.json", **overrides))
    assert code == 2
    data = json.loads(out)
    assert data["feasible"] is False
    assert ("lambda" in data) == has_weights
    if has_weights:
        assert data["delta_u"] > 0 and data["delta_v"] > 0


def test_certify_precondition_exit_two(capsys, tmp_path):
    path = write_params(tmp_path, "pre.json", alpha11=0.1, alpha21=0.2)
    code, out, _ = run_cli(capsys, "certify", path)
    assert code == 2
    data = json.loads(out)
    assert data["feasible"] is False
    assert "alpha11" in data["reason"]


def test_run_writes_manifest(capsys, tmp_path):
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "run", "case1", "--n", "2", "--tmax", "1.0",
                           "--ic", "constant:0.5", "--out", str(out_dir))
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "t_max_reached"
    assert payload["reason"] is None
    assert payload["final_time"] == 1.0
    assert payload["out_dir"] == str(out_dir)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["outcome"] == "t_max_reached"
    assert payload["steps_rejected"] == manifest["steps_rejected"]
    assert payload["rhs_evals"] == manifest["rhs_evals"]
    assert payload["final_diagnostics"] == manifest["timeseries"][-1]
    coeffs = np.load(out_dir / "snapshots.npy")
    assert coeffs.shape == (len(manifest["timeseries"]), 2, 3, 3)
    assert coeffs.dtype == np.float64
    assert not list(out_dir.glob("*.txt"))


def test_run_separate_species_ics(capsys, tmp_path):
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "run", "case1", "--n", "2", "--tmax", "1.0",
                           "--ic", "cosine:0.5,0.2,1,1", "--ic", "constant:0.4",
                           "--out", str(out_dir))
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["projection"]["min_v"] == pytest.approx(0.4, abs=1e-12)
    assert manifest["projection"]["min_u"] < 0.4


def test_run_ic_file(capsys, tmp_path):
    ic_path = tmp_path / "ic.json"
    ic_path.write_text(json.dumps({
        "u": {"type": "constant", "value": 0.6},
        "v": {"type": "constant", "value": 0.2},
    }))
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "run", "case1", "--n", "2", "--tmax", "1.0",
                           "--ic", f"@{ic_path}", "--out", str(out_dir))
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["timeseries"][0]["mass_u"] == pytest.approx(0.6 * np.pi**2)
    assert manifest["timeseries"][0]["mass_v"] == pytest.approx(0.2 * np.pi**2)


def test_run_rejects_bad_config(capsys, tmp_path):
    code, _, err = run_cli(capsys, "run", "case1", "--tmax", "0.0",
                           "--out", str(tmp_path / "x"))
    assert code == 1
    assert "t_max" in err


def test_run_rejects_three_ic_flags(capsys, tmp_path):
    code, _, err = run_cli(capsys, "run", "case1", "--n", "2", "--tmax", "1.0",
                           "--ic", "constant:0.5", "--ic", "constant:0.5",
                           "--ic", "constant:0.5", "--out", str(tmp_path / "x"))
    assert code == 1
    assert "at most two" in err


def test_run_blow_up_exit_three(capsys, tmp_path):
    path = write_params(tmp_path, "explode.json",
                        d1=0.01, d2=0.01, a1=1.0, b1=0.01, c1=2.0,
                        a2=1.0, b2=2.0, c2=0.01,
                        alpha11=0.0, alpha12=0.0, alpha21=0.0, alpha22=0.0,
                        b11=0.0, b22=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, _ = run_cli(capsys, "run", path, "--n", "2", "--tmax", "5.0",
                               "--ic", "constant:1.0,1.0",
                               "--out", str(tmp_path / "boom"))
    assert code == 3
    assert json.loads(out)["outcome"] == "blow_up"
    assert json.loads(out)["reason"] == "sup_threshold"
    manifest = json.loads((tmp_path / "boom" / "manifest.json").read_text())
    assert manifest["reason"] == "sup_threshold"


# Cross-diffusion weights near the top of the double range: the certificate
# search returns a certificate whose delta_v overflows to nan.
OVERFLOWING_CERTIFICATE = dict(
    alpha11=0.7710126704252611, alpha12=1.455789144048386e+177,
    alpha21=0.2878604785018568, alpha22=9.308571825720153e+179,
    b11=1.6092561998361057, b22=2.7903718447422057e+179)


@pytest.mark.parametrize("command", ["certify", "run", "sweep"])
def test_overflowing_certificate_fails_before_any_step(capsys, tmp_path, command, monkeypatch):
    path = write_params(tmp_path, "overflow.json", **OVERFLOWING_CERTIFICATE)
    stepped = []
    monkeypatch.setattr(cli.Batch, "integrate", lambda self: stepped.append(self) or [])
    argv = [command, path] + ([] if command == "certify" else ["--out", str(tmp_path / "out")])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: certificate field delta_v is not finite (nan): the parameters overflow it\n"
    assert not stepped
    assert not (tmp_path / "out").exists()


# case1 with reactions near the top of the double range: the sign sample's
# values overflow to inf (first set, whose largest violation stays finite),
# or to inf and nan (second set, whose largest violation is inf).
@pytest.mark.parametrize("overrides, code, err", [
    (dict(a1=1e300, b1=1e300), 0, ""),
    (dict(c1=-1e300, b2=1e300), 1,
     "error: sign report field max_violation is not finite (inf): the parameters overflow it\n"),
], ids=["finite-report", "infinite-violation"])
def test_certify_overflowing_sample_keeps_stderr_clean(capfd, tmp_path, overrides, code, err):
    path = write_params(tmp_path, "overflow.json", **overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = main(["certify", path])
    captured = capfd.readouterr()
    assert (got, captured.err) == (code, err)
    if code == 0:
        json.loads(captured.out)
    else:
        assert captured.out == ""


def strict_json(text):
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


# case1 with c2 = 1e14: the kinetic time scale is below what the stepper
# resolves, so the attempts overflow and are rejected until the step underflows.
@pytest.mark.parametrize("argv", [
    ["run", "--ic", "cosine:0.5,0.2,1,1"],
    ["sweep", "--n", "2"],
], ids=lambda argv: argv[0])
def test_overflowing_steps_keep_stderr_clean(capfd, tmp_path, argv):
    command, *options = argv
    path = write_params(tmp_path, "fast.json", c2=1e14)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, path, *options, "--out", str(tmp_path / "out")])
    captured = capfd.readouterr()
    assert (code, captured.err) == (3, "")
    if command == "run":
        assert strict_json(captured.out)["reason"] == "step_underflow"


def test_run_reruns_are_byte_identical(capsys, tmp_path):
    args = ("run", "case1", "--n", "2", "--tmax", "2.0", "--ic", "constant:0.5")
    code1, out1, _ = run_cli(capsys, *args, "--out", str(tmp_path / "a"))
    code2, out2, _ = run_cli(capsys, *args, "--out", str(tmp_path / "b"))
    assert code1 == code2 == 0
    m1 = (tmp_path / "a" / "manifest.json").read_bytes()
    m2 = (tmp_path / "b" / "manifest.json").read_bytes()
    assert m1 == m2


def test_sweep_small_grid(capsys, tmp_path):
    out_dir = tmp_path / "sweep"
    code, out, _ = run_cli(capsys, "sweep", "case1", "--n", "2", "--tmax", "2.0",
                           "--out", str(out_dir))
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 10  # header + nine runs
    manifest = json.loads((out_dir / "sweep_manifest.json").read_text())
    assert len(manifest["runs"]) == 9
    labels = sorted(SWEEP_SHAPES)
    seen = {(r["u_ic"], r["v_ic"]) for r in manifest["runs"]}
    assert seen == {(a, b) for a in labels for b in labels}
    for entry in manifest["runs"]:
        assert entry["outcome"] in ("steady_state", "t_max_reached")
        sub = out_dir / entry["out_dir"]
        assert (sub / "manifest.json").exists()


def test_parse_ic_forms(tmp_path):
    assert parse_ic("constant:0.5") == {"type": "constant", "value": 0.5}
    u, v = parse_ic("constant:0.3,0.7")
    assert u["value"] == 0.3 and v["value"] == 0.7
    cos = parse_ic("cosine:0.5,0.2,1,2")
    assert cos == {"type": "cosine", "offset": 0.5,
                   "terms": [{"j": 1, "k": 2, "amp": 0.2}]}
    gau = parse_ic("gaussian:1.0,2.0,0.5,0.4,0.1")
    assert gau["type"] == "gaussian" and gau["sigma"] == 0.5

    desc = {"type": "constant", "value": 0.9}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(desc))
    assert parse_ic(f"@{path}") == desc

    pair_path = tmp_path / "pair.json"
    pair_path.write_text(json.dumps({"u": desc, "v": desc}))
    assert parse_ic(f"@{pair_path}") == (desc, desc)


MALFORMED_IC = [
    ("constant:", r"constant takes U\[,V\], got 0 values"),
    ("constant:1,2,3", "got 3 values"),
    ("cosine:0.5,0.2", "cosine takes OFFSET,AMP,J,K"),
    ("cosine:0.5,0.3,1.5,1", r"terms\[0\]\.j must be an integer"),
    ("cosine:0.5,0.3,1,0.5", r"terms\[0\]\.k must be an integer"),
    ("gaussian:1,2,3", "gaussian takes CX,CY,SIGMA,AMP,OFFSET"),
    ("sawtooth:1", "unknown initial-condition form"),
    ("constant:1,,2", "V must be a number, got ''"),
    ("cosine:0.5,big,1,1", "AMP must be a number, got 'big'"),
    ("gaussian:1,2,x,0.3,0.2", "SIGMA must be a number"),
    ("cosine:0.5,0.3,-1,0", r"terms\[0\]\.j must be >= 0"),
    ("cosine:0.5,0.3,1,-2", r"terms\[0\]\.k must be >= 0"),
]


@pytest.mark.parametrize("bad, message", MALFORMED_IC, ids=[bad for bad, _ in MALFORMED_IC])
def test_parse_ic_rejects_malformed(bad, message):
    with pytest.raises(ValueError, match=message):
        parse_ic(bad)


def run_with_ic(capsys, tmp_path, *ics):
    out_dir = tmp_path / "out"
    flags = [arg for ic in ics for arg in ("--ic", ic)]
    code, _, err = run_cli(capsys, "run", "case1", "--n", "2", "--tmax", "1.0",
                           *flags, "--out", str(out_dir))
    return code, err, out_dir


def test_run_rejects_nan_in_ic(capsys, tmp_path):
    code, err, out_dir = run_with_ic(capsys, tmp_path, "gaussian:1.5,1.5,0.5,nan,0.2")
    assert code == 1
    assert "amp must be finite" in err
    assert not (out_dir / "manifest.json").exists()


def test_run_rejects_zero_sigma(capsys, tmp_path):
    code, err, _ = run_with_ic(capsys, tmp_path, "gaussian:1.5,1.5,0,0.3,0.2")
    assert code == 1
    assert "sigma must be > 0" in err


def test_run_rejects_infinite_constant(capsys, tmp_path):
    code, err, _ = run_with_ic(capsys, tmp_path, "constant:inf")
    assert code == 1
    assert "value must be finite" in err


def test_run_rejects_bad_ic_file(capsys, tmp_path):
    # json.load accepts the bare NaN token, so the check must see file input too
    ic_path = tmp_path / "ic.json"
    ic_path.write_text('{"u": {"type": "constant", "value": 0.5}, '
                       '"v": {"type": "cosine", "offset": 0.5, '
                       '"terms": [{"j": 1, "k": 0, "amp": NaN}]}}')
    code, err, _ = run_with_ic(capsys, tmp_path, f"@{ic_path}")
    assert code == 1
    assert "terms[0].amp must be finite" in err


def test_sweep_manifest_is_strict_json_without_equilibrium(capsys, tmp_path):
    # b1*c2 == c1*b2: no coexistence state, so no deviation to report
    path = write_params(tmp_path, "degenerate.json", b1=1.0, c1=1.0, b2=1.0, c2=1.0)
    out_dir = tmp_path / "sweep"
    code, out, _ = run_cli(capsys, "sweep", path, "--n", "2", "--tmax", "1.0",
                           "--out", str(out_dir))
    assert code == 0
    text = (out_dir / "sweep_manifest.json").read_text()

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    manifest = json.loads(text, parse_constant=reject)
    assert [r["max_deviation"] for r in manifest["runs"]] == [None] * 9
    for entry in manifest["runs"]:
        json.loads((out_dir / entry["out_dir"] / "manifest.json").read_text(),
                   parse_constant=reject)


def test_sweep_manifest_that_is_not_strict_json_is_not_written(capsys, tmp_path, monkeypatch):
    # A deviation that is not finite has no JSON form.  The sweep manifest is
    # serialized before its file is opened, so no truncated file is left.
    monkeypatch.setattr(cli, "coexistence_steady_state", lambda p: (np.nan, np.nan))
    out_dir = tmp_path / "sweep"
    code, _, err = run_cli(capsys, "sweep", "case1", "--n", "2", "--tmax", "1.0", "--out", str(out_dir))
    assert code == 1
    assert err.startswith("error:") and "JSON" in err
    assert not (out_dir / "sweep_manifest.json").exists()


def test_sweep_records_failed_cells(capsys, tmp_path, monkeypatch):
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    args = ("sweep", "case1", "--n", "2", "--tmax", "1.0")
    code, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "clean"))
    assert code == 0
    clean = json.loads((tmp_path / "clean" / "sweep_manifest.json").read_text())
    assert clean["failures"] == []

    real_add = cli.Batch.add

    def failing_add(batch, ic_u, ic_v):
        if ic_u is SWEEP_SHAPES["B"] and ic_v is SWEEP_SHAPES["C"]:
            raise RuntimeError("cell B/C failed on purpose")
        return real_add(batch, ic_u, ic_v)

    monkeypatch.setattr(cli.Batch, "add", failing_add)
    out_dir = tmp_path / "sweep"
    code, out, _ = run_cli(capsys, *args, "--out", str(out_dir))
    assert code == 1
    assert "cell B/C failed on purpose" in out
    manifest = json.loads((out_dir / "sweep_manifest.json").read_text(), parse_constant=reject)
    assert len(manifest["runs"]) == 8
    assert ("B", "C") not in {(r["u_ic"], r["v_ic"]) for r in manifest["runs"]}
    assert manifest["failures"] == [
        {"u_ic": "B", "v_ic": "C", "error": "cell B/C failed on purpose"}]


def test_sweep_records_failed_saves(capsys, tmp_path, monkeypatch):
    real_save = cli.save_run

    def failing_save(result, out_dir):
        if out_dir.endswith("uA_vB"):
            raise OSError("cannot write uA_vB")
        return real_save(result, out_dir)

    monkeypatch.setattr(cli, "save_run", failing_save)
    out_dir = tmp_path / "sweep"
    code, out, _ = run_cli(capsys, "sweep", "case1", "--n", "2", "--tmax", "1.0", "--out", str(out_dir))
    assert code == 1
    manifest = json.loads((out_dir / "sweep_manifest.json").read_text())
    assert manifest["failures"] == [{"u_ic": "A", "v_ic": "B", "error": "cannot write uA_vB"}]
    assert len(manifest["runs"]) == 8
    for entry in manifest["runs"]:
        assert (out_dir / entry["out_dir"] / "manifest.json").is_file()


def test_sweep_rerun_is_byte_identical(capsys, tmp_path):
    for name in ("a", "b"):
        code, _, _ = run_cli(capsys, "sweep", "case1", "--n", "2", "--tmax", "2",
                             "--out", str(tmp_path / name))
        assert code == 0
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert len(files) == 1 + 2 * 9
    assert files == sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
    for rel in files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel
