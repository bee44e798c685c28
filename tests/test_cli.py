import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from indicyl import cli, curvature, indicial, spectra

HYP_WITH_CODAZZI = """\
b1 0
codazzi 2
scalar 1 2.1 3
oneform 1 1.3 4
tt 1 3.0 2
tt 2 5.2 8
"""

HYP_RHS = """\
b1 0
codazzi 0
scalar 1 2.5 4
oneform 1 2.2 2
tt 1 4.1 6
"""


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def test_roots_sphere_window(capsys):
    code, out = run_cli(["roots", "--sphere", "--jmax", "4", "--window=-2,2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    values = sorted({(r["re"], r["im"]) for r in doc["roots"]})
    assert values == [(-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)]


def test_roots_torus_dims(capsys):
    code, out = run_cli(["roots", "--torus", "6.0,6.0,6.0", "--jmax", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["kernel_dim_at_zero"] == 14
    assert doc["cokernel_dim_at_zero"] == 14


def test_roots_hyperbolic(tmp_path, capsys):
    path = tmp_path / "spec.txt"
    path.write_text(HYP_WITH_CODAZZI)
    code, out = run_cli(["roots", "--hyperbolic", str(path), "--jmax", "9"], capsys)
    assert code == 0
    doc = json.loads(out)
    res = {round(r["re"], 9) for r in doc["roots"]}
    mu, nu = 2.1, 1.3
    assert round(math.sqrt(mu + 2 + 2 * math.sqrt(1 + mu / 3)), 9) in res
    assert round(math.sqrt(nu + 4), 9) in res
    assert round(math.sqrt(nu), 9) in res


def test_exit_code_2_on_bad_spec(capsys):
    code, _ = run_cli(["roots", "--sphere", "--torus", "1,1,1"], capsys)
    assert code == 2
    code, _ = run_cli(["roots", "--lens", "4,2,1", "--jmax", "2"], capsys)
    assert code == 2  # non-coprime rotation parameters


def test_exit_code_3_on_missing_file(capsys):
    code, _ = run_cli(["roots", "--hyperbolic", "/nonexistent/file.txt"], capsys)
    assert code == 3


def test_exit_code_3_on_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("b1 0\ncodazzi 0\ntt 1 2.0 1\n")
    code, _ = run_cli(["roots", "--hyperbolic", str(path)], capsys)
    assert code == 3


@pytest.mark.parametrize(
    "content,lineno",
    [
        (b"b1\ncodazzi 0\n", 1),
        (b"b1 x\ncodazzi 0\n", 1),
        (b"b1 0 7\ncodazzi 0\n", 1),
        (b"b1 0\ncodazzi 0\nscalar 0 1.0 1.5\n", 3),
        (b"b1 0\ncodazzi 0\nscalar 1 nan 1\n", 3),
        (b"b1 0\ncodazzi 0\nscalar 1 1e400 1\n", 3),
        (b"b1 0\ncodazzi 0\noneform -5 2.0 1\n", 3),
        (b"b1 0\ncodazzi 0\nscalar 1 2.0 1 \xff\n", None),
        (None, None),
    ],
    ids=[
        "header-without-value",
        "header-not-integer",
        "header-extra-token",
        "fractional-multiplicity",
        "nan-eigenvalue",
        "overflowing-eigenvalue",
        "negative-j",
        "not-utf8",
        "directory",
    ],
)
def test_exit_code_3_on_malformed_file(tmp_path, capsys, content, lineno):
    # Every parse failure is one error line and exit 3, never a traceback.
    path = tmp_path / "spec.txt"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code = cli.main(["roots", "--hyperbolic", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    if lineno is not None:
        assert f"{path}:{lineno}: " in captured.err


def test_gap_sphere(capsys):
    code, out = run_cli(["gap", "--sphere", "--jmax", "4"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["window"] == [0.0, 2.0]
    assert doc["gap_above_conformal_killing"] == 2.0


def test_gap_lens(capsys):
    code, out = run_cli(["gap", "--lens", "2,1,1", "--jmax", "4"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["window"] == [0.0, 2.0]


def test_ks_both_ways(tmp_path, capsys):
    with_c = tmp_path / "c.txt"
    with_c.write_text(HYP_WITH_CODAZZI)
    code, out = run_cli(["ks", "--hyperbolic", str(with_c)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["h2plus_vanishes"] is False
    assert doc["cokernel_dim_at_zero"] == 5

    rhs = tmp_path / "r.txt"
    rhs.write_text(HYP_RHS)
    code, out = run_cli(["ks", "--hyperbolic", str(rhs)], capsys)
    doc = json.loads(out)
    assert doc["h2plus_vanishes"] is True
    assert doc["cokernel_dim_at_zero"] == 1


def test_lens_table(capsys):
    code, out = run_cli(["lens", "--lens", "2,1,1", "--jmax", "5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["multiplicities"] == [[0, 1], [1, 0], [2, 9], [3, 0], [4, 25], [5, 0]]


def test_lens_rejects_negative_jmax(capsys):
    code, out = run_cli(["lens", "--lens", "2,1,1", "--jmax", "-3"], capsys)
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "--torus", "6,6,6", "--jmax", str(cli.JMAX_CEILING)],
        ["lens", "--lens", "2,1,1", "--jmax", str(cli.JMAX_CEILING)],
        ["lens", "--lens", f"{cli.LENS_ORDER_CEILING},1,3", "--jmax", "0"],
        ["roots", "--lens", f"{cli.LENS_ORDER_CEILING},1,3", "--jmax", "0"],
        # p * (jmax + 1)^2 equal to the work ceiling.
        ["lens", "--lens", "1000,1,3", "--jmax", "99"],
    ],
    ids=["roots-jmax", "lens-jmax", "lens-order", "roots-lens-order", "lens-work"],
)
def test_inputs_at_the_ceilings_run(argv, capsys):
    assert cli.LENS_WORK_CEILING == 1000 * 100**2
    code, out = run_cli(argv, capsys)
    assert code == 0 and json.loads(out)["j_max"] == int(argv[-1])


@pytest.mark.parametrize(
    "argv,message",
    [
        (["roots", "--sphere", "--jmax", "1001"], "--jmax must be at most 1000, got 1001"),
        (["gap", "--sphere", "--jmax", "100000000"], "--jmax must be at most 1000, got 100000000"),
        (["lens", "--lens", "2,1,1", "--jmax", "1001"], "--jmax must be at most 1000, got 1001"),
        (["roots", "--lens", "100003,1,2", "--jmax", "10"], "--lens order p must be at most 10000, got 100003"),
        (["lens", "--lens", "10001,1,3", "--jmax", "0"], "--lens order p must be at most 10000, got 10001"),
        (["lens", "--lens", "1001,1,3", "--jmax", "99"], "--lens order p times (--jmax + 1)^2 must be at most"),
        (["gap", "--lens", "1000,1,3", "--jmax", "100"], "--lens order p times (--jmax + 1)^2 must be at most"),
    ],
)
def test_inputs_above_the_ceilings_exit_2(argv, message, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert message in captured.err


def test_killing_dim_flag_is_gone():
    with pytest.raises(SystemExit) as info:
        cli.main(["roots", "--sphere", "--killing-dim", "2"])
    assert info.value.code == 2


def test_gap_wrong_window_exits_1(monkeypatch, capsys):
    root = indicial.IndicialRoot(
        value=complex(3.0),
        case_tag=indicial.CaseTag.CASE2,
        origin_kind=spectra.OperatorKind.DIVFREE_TT_ROUGH,
        origin_j=2,
        origin_eigenvalue=6.0,
    )
    bad = indicial.RootCatalog(spectra.CrossSectionSpec.sphere(), (root,), 2, 0, 0, math.inf)
    monkeypatch.setattr(indicial, "assemble_catalog", lambda cs, j_max: bad)
    code = cli.main(["gap", "--sphere", "--jmax", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert "computed bound 3.0" in err


@pytest.mark.parametrize("side", ["inf", "nan", "0"])
def test_torus_rejects_bad_side_with_exit_2(side, capsys):
    code = cli.main(["roots", "--torus", f"1,{side},1", "--jmax", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "torus side L2 must be a positive finite number" in captured.err


@pytest.mark.parametrize("torus,side", [("2e5,1,1", "L1"), ("1,1,1e300", "L3")])
def test_torus_rejects_too_long_side_with_exit_2(torus, side, capsys):
    code = cli.main(["roots", "--torus", torus, "--jmax", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"torus side {side} = " in captured.err and "too long" in captured.err


def test_long_torus_box_grows_with_levels(capsys):
    # The cutoff starts at the lowest eigenvalue (2 pi / 1e5)^2, so the box
    # holds a handful of lattice points, not the ~3e13 of a cutoff of 1.
    code, out = run_cli(["roots", "--torus", "1e5,1e5,1e5", "--jmax", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["kernel_dim_at_zero"] == 14
    assert sorted({r["j"] for r in doc["roots"]}) == [0, 1, 2]


def test_short_triple_exits_2(capsys):
    code = cli.main(["roots", "--torus", "1,1", "--jmax", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--torus expects three comma-separated values" in captured.err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["roots", "--lens", "3,1,1.5"], "--lens part '1.5' is not an integer"),
        (["gap", "--lens", "3,,1"], "--lens part '' is not an integer"),
        (["roots", "--torus", "1,x,1"], "--torus part 'x' is not a number"),
        (["roots", "--sphere", "--window", "a,2"], "--window part 'a' is not a number"),
    ],
)
def test_unparsable_part_exits_2_naming_the_flag(argv, message, capsys):
    code = cli.main(argv + ["--jmax", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["linearization", "--eps", "0.5"], "--eps must satisfy 0 < eps < 0.1, got 0.5"),
        (["linearization", "--eps", "0.1"], "--eps must satisfy 0 < eps < 0.1, got 0.1"),
        (["linearization", "--eps", "0"], "--eps must satisfy 0 < eps < 0.1, got 0.0"),
        (["linearization", "--eps", "5e-324"], "--eps must satisfy 0 < eps < 0.1, got 5e-324"),
        (["linearization", "--eps=-1e-4"], "--eps must satisfy 0 < eps < 0.1, got -0.0001"),
        (["linearization", "--eps", "nan"], "--eps must satisfy 0 < eps < 0.1, got nan"),
        (["linearization", "--eps", "inf"], "--eps must satisfy 0 < eps < 0.1, got inf"),
        (["linearization", "--seed", "-3"], "--seed must be nonnegative, got -3"),
        (["identities", "--seed", "-1"], "--seed must be nonnegative, got -1"),
    ],
)
def test_verify_rejects_bad_eps_and_seed_before_any_work(argv, message, monkeypatch, capsys):
    def refuse(**kwargs):
        raise AssertionError("suite started on a bad flag")

    monkeypatch.setattr(cli, "run_linearization", refuse)
    monkeypatch.setattr(cli, "run_identities", refuse)
    code = cli.main(["verify"] + argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_reversed_window_exits_2(capsys):
    code = cli.main(["roots", "--sphere", "--jmax", "4", "--window", "2,1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "needs a < b" in captured.err


def test_curvature_defect_exits_1(monkeypatch, capsys):
    shortcut = curvature._ricci_contraction_shortcut
    monkeypatch.setattr(curvature, "_ricci_contraction_shortcut", lambda M: shortcut(M) + 1e-3)
    code = cli.main(["verify", "linearization", "--N", "8"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "shortcut by 1.000e-03" in captured.err


@pytest.mark.parametrize("n", ["2", "4"])
def test_verify_linearization_rejects_coarse_grid(n, capsys):
    # The battery's time frequencies go up to 3, beyond what 2 or 4 samples hold.
    code = cli.main(["verify", "linearization", "--N", n])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: --N must be at least 8 for the linearization suite, got {n}\n"


def test_json_deterministic(capsys):
    _, out1 = run_cli(["roots", "--sphere", "--jmax", "5"], capsys)
    _, out2 = run_cli(["roots", "--sphere", "--jmax", "5"], capsys)
    assert out1 == out2


def test_csv_matches_json(capsys):
    _, jout = run_cli(["roots", "--sphere", "--jmax", "3"], capsys)
    _, cout = run_cli(["roots", "--sphere", "--jmax", "3", "--format", "csv"], capsys)
    doc = json.loads(jout)
    lines = cout.strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "re"
    assert len(lines) - 1 == len(doc["roots"])
    first = dict(zip(header, lines[1].split(",")))
    assert float(first["re"]) == doc["roots"][0]["re"]
    assert first["origin_kind"] == doc["roots"][0]["origin_kind"]


def test_verify_identities_exit_zero(capsys):
    code, out = run_cli(["verify", "identities", "--N", "8", "--seed", "7"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert len(doc["results"]) == 11


def test_verify_identities_rejects_bad_n(capsys):
    code, _ = run_cli(["verify", "identities", "--N", "12"], capsys)
    assert code == 2


def test_verify_oracle(capsys):
    code, out = run_cli(["verify", "oracle", "--jmax", "10"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    names = {r["check"] for r in doc["results"]}
    assert "flat_pencil_zero_mode_dimension_14" in names


def test_verify_oracle_rejects_negative_jmax(capsys):
    code = cli.main(["verify", "oracle", "--jmax", "-5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--jmax must be nonnegative" in captured.err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "roots.json"
    code, out = run_cli(["roots", "--sphere", "--jmax", "2", "--out", str(target)], capsys)
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "roots"


def run_python(*args, env=None, preexec_fn=None):
    """A fresh interpreter on the package under test, also when only
    pytest's pythonpath finds it; env, if given, replaces os.environ, and
    preexec_fn runs in the child before it starts."""
    env = dict(os.environ if env is None else env)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, preexec_fn=preexec_fn
    )


def test_console_script_entrypoint():
    proc = run_python("-m", "indicyl.cli", "gap", "--sphere", "--jmax", "3")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["window"] == [0.0, 2.0]


_NUMPY_PROBE = """
import sys
from indicyl import cli
code = cli.main(sys.argv[1:])
print(code, "numpy" in sys.modules)
"""

# Stands for the spectrum file that each test writes.
HYP_FILE = "{hyperbolic}"


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "--sphere", "--jmax", "6"],
        ["roots", "--lens", "5,1,2", "--jmax", "6"],
        ["roots", "--torus", "3.1,4.7,5.9", "--jmax", "40"],
        ["roots", "--hyperbolic", HYP_FILE, "--jmax", "9"],
        ["gap", "--sphere", "--jmax", "6"],
        ["ks", "--hyperbolic", HYP_FILE],
        ["lens", "--lens", "7,2,3", "--jmax", "10"],
    ],
    ids=["roots-sphere", "roots-lens", "roots-torus", "roots-hyperbolic", "gap", "ks", "lens"],
)
def test_closed_form_commands_load_no_numpy(argv, tmp_path):
    spectrum = tmp_path / "spec.txt"
    spectrum.write_text(HYP_WITH_CODAZZI)
    argv = [str(spectrum) if a == HYP_FILE else a for a in argv]
    proc = run_python("-c", _NUMPY_PROBE, *argv, "--out", str(tmp_path / "out.json"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 False\n"
    assert json.loads((tmp_path / "out.json").read_text())["command"] == argv[0]


def test_verification_modules_load_on_access():
    proc = run_python(
        "-c",
        """
import sys
import indicyl
assert "numpy" not in sys.modules
assert {"curvature", "fields", "oracle"} <= set(dir(indicyl))
error = indicyl.curvature.CurvatureDefectError
from indicyl import oracle
assert oracle is sys.modules["indicyl.oracle"] and "numpy" in sys.modules
assert issubclass(error, indicyl.indicial.VerificationError)
try:
    indicyl.no_such_module
except AttributeError:
    print("ok")
""",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


@pytest.mark.parametrize(
    "value,text",
    [
        (np.int64(3), "3"),
        (np.float64(-0.0), "0.0"),
        (np.float32(0.5), "0.5"),
        (np.float64("nan"), '"nan"'),
        (np.float64("inf"), '"inf"'),
        (np.float64("-inf"), '"-inf"'),
    ],
)
def test_json_numpy_scalars(value, text):
    assert cli._json(value) == text
    assert cli._json([value, {"x": value}]) == f'[{text},{{"x":{text}}}]'


def test_root_record_roundtrip(capsys):
    _, out = run_cli(["roots", "--sphere", "--jmax", "6"], capsys)
    doc = json.loads(out)
    redumped = json.loads(json.dumps(doc))
    assert redumped == doc
    for rec in doc["roots"]:
        assert isinstance(rec["re"], float) and isinstance(rec["im"], float)
        assert rec["case"] in range(6)


def test_linearization_stdout_independent_of_blas_threads():
    argv = ("-m", "indicyl.cli", "verify", "linearization", "--N", "8")
    free = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    default = run_python(*argv, env=free)
    single = run_python(*argv, env=dict(free, OPENBLAS_NUM_THREADS="1"))
    assert default.returncode == single.returncode == 0, default.stderr + single.stderr
    assert default.stdout == single.stdout


def test_identities_stdout_independent_of_blas_threads():
    argv = ("-m", "indicyl.cli", "verify", "identities", "--N", "16")
    free = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    default = run_python(*argv, env=free)
    single = run_python(*argv, env=dict(free, OPENBLAS_NUM_THREADS="1"))
    assert default.returncode == single.returncode == 0, default.stderr + single.stderr
    assert default.stdout == single.stdout


# verify linearization --N 8 runs the curvature engine's pointwise stages
# inline (the grid is below the slab size) and only its FFTs on several
# CPUs; the 16^4 battery case runs the stages on slabs too.
ENGINE_16 = (
    "from indicyl import curvature as C\n"
    "ht = C.linearization_battery()[0]\n"
    "print(repr(C.fd_linearization_errors(ht, [1e-4], shape=(16,) * 4)))\n"
)


@pytest.mark.parametrize(
    "argv",
    [("-m", "indicyl.cli", "verify", "linearization", "--N", "8"), ("-c", ENGINE_16)],
    ids=["cli-N8", "battery-16"],
)
def test_linearization_stdout_independent_of_cpu_count(argv):
    def one_cpu():
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    default = run_python(*argv)
    pinned = run_python(*argv, preexec_fn=one_cpu)
    assert default.returncode == pinned.returncode == 0, default.stderr + pinned.stderr
    assert default.stdout == pinned.stdout


# sha256 of the stdout of closed-form commands: a refactor that changes a
# printed byte fails here.  The LAPACK-backed verify suites are left out:
# their last bits can vary by CPU.
PINNED_SPECTRUM = """\
b1 2
codazzi 1
scalar 1 0.7 2
scalar 2 2.5 4
oneform 1 0.9 3
oneform 2 5.5 1
tt 1 3.0 1
tt 2 4.1 6
tt 3 7.25 2
"""


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            "roots --sphere --jmax 30",
            "8c68e72fd8e03830c70a7a04edcef517b9ba480ed1deb150a06006a2b4c7baa0",
        ),
        (
            "roots --lens 7,2,3 --jmax 20 --format csv",
            "312764dad17de6e67d63a8d77fcdfefa9732eb61148a075e73c03f51ddc47b08",
        ),
        (
            "gap --lens 5,1,2 --jmax 12",
            "425d4f24770f1a59ef27e9b7749035b5bdceeb0a779c6d7daf0c790b6acdb443",
        ),
        (
            "roots --torus 3.1,4.7,5.9 --jmax 60",
            "0624f2761a35da1d8214afebad2f3cb39bb98e027f5ccc94c943e193ad2c8928",
        ),
        (
            "lens --lens 12,1,5 --jmax 40",
            "49b52cdba7a231bc9dd6ccc490e24ad8c04a9081042694d14e6d04080bd2af48",
        ),
        (
            "roots --hyperbolic spectrum.txt --jmax 2",
            "a8103c7eabd81fd2b49f38b1d53f8c7598aa6135b527f77021dec56e875976e9",
        ),
        (
            "ks --hyperbolic spectrum.txt",
            "202de77b4505e99eb2590f659e237df0b4e876598f0300eb825bf0a1873d61d3",
        ),
    ],
)
def test_closed_form_stdout_is_pinned(argv, digest, tmp_path, monkeypatch, capsys):
    # The file name is printed, so the spectrum sits at a fixed relative path.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spectrum.txt").write_text(PINNED_SPECTRUM)
    code = cli.main(argv.split())
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
