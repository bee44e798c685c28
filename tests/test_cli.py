import hashlib
import hmac
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from indicyl import cli, curvature, forks, indicial, spectra, verify

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


# Codazzi tensors listed at a j above the --jmax of the runs below: their
# roots +-i still count at real part 0, and F2's tt 4.0 line is the first one
# cut, with roots +-1 +-i.
CODAZZI_LATE = {
    "F1": ("b1 0\ncodazzi 2\ntt 5 3.0 2\ntt 6 4.0 1\n", 1 + 2 * 2),
    "F2": ("b1 0\ncodazzi 1\ntt 5 3.0 1\ntt 6 4.0 1\ntt 7 100.0 1\n", 1 + 2 * 1),
}


@pytest.mark.parametrize("jmax", range(8))
@pytest.mark.parametrize("name", sorted(CODAZZI_LATE))
def test_roots_and_ks_agree_on_the_dimension_at_zero(name, jmax, tmp_path, capsys):
    text, dim = CODAZZI_LATE[name]
    path = tmp_path / "spec.txt"
    path.write_text(text)
    flags = ["--hyperbolic", str(path), "--jmax", str(jmax)]
    code, out = run_cli(["roots", *flags], capsys)
    assert code == 0
    roots = json.loads(out)
    code, out = run_cli(["ks", *flags], capsys)
    assert code == 0
    assert roots["kernel_dim_at_zero"] == json.loads(out)["cokernel_dim_at_zero"] == dim
    assert {(r["re"], r["im"], r["j"]) for r in roots["roots"] if r["re"] == 0.0} == {
        (0.0, -1.0, 5), (0.0, 0.0, 0), (0.0, 1.0, 5)
    }
    if name == "F2":
        # Up to j_max 5 the tt 4.0 line is cut; from 6 on only the largest
        # eigenvalue 100 bounds what the file leaves out.
        expected = 1.0 if jmax <= 5 else math.sqrt(100.0 - 3.0)
        assert roots["complete_below_re"] == pytest.approx(expected, abs=1e-12)


def test_negative_zero_eigenvalue_prints_as_zero(tmp_path, capsys):
    path = tmp_path / "spec.txt"
    path.write_text("b1 0\ncodazzi 0\nscalar 0 -0.0 1\n")
    code, out = run_cli(["roots", "--hyperbolic", str(path), "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[1] == "0,0,0,scalar,0,0,both,omega_only,false,true,1"
    code, out = run_cli(["roots", "--hyperbolic", str(path)], capsys)
    assert code == 0
    # The file's path is echoed as "source" and may itself contain "-0".
    source = json.dumps(json.loads(out)["cross_section"]["source"])
    printed = out.replace(source, "")
    assert source in out and '"eigenvalue":0.0,' in printed and "-0" not in printed


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
        (b"b1 2\ncodazzi 0\noneform 0 0.0 1\n", 3),
        (b"b1 0\ncodazzi 0\ntt 1 2.5 1\n", 3),
        (b"b1 0\ncodazzi 0\nscalar 1 2.0 -1\n", 3),
        (b"b1 0\ncodazzi 0\nscalar 1 -1.0 1\n", 3),
        (b"b1 0\ncodazzi 0\nscalar 1 2.0 1\nscalar 2 2.0 1\n", 4),
        (b"b1 0\ncodazzi 0\nvector 1 1.0 1\n", 3),
        (b"b1 0\ncodazzi 0\nscalar 1 1.0\n", 3),
        (b"codazzi 0\nscalar 1 1.0 1\n", None),
        (b"b1 -1\ncodazzi 0\n", None),
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
        "harmonic-oneforms-against-b1",
        "tt-below-3",
        "negative-multiplicity",
        "negative-eigenvalue",
        "eigenvalues-not-increasing",
        "unknown-kind",
        "three-fields",
        "without-b1",
        "negative-b1",
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


@pytest.mark.parametrize(
    "content,lineno",
    [
        # Keeping the last value would report b1 = 2.
        ("b1 0\nb1 2\ncodazzi 0\n", 2),
        # Keeping the last value would print "H2+ nonzero" from codazzi 1.
        ("b1 1\ncodazzi 0\ncodazzi 1\ntt 0 3.0 1\n", 3),
    ],
    ids=["b1", "codazzi"],
)
def test_repeated_header_exits_3_naming_its_line(tmp_path, capsys, content, lineno):
    path = tmp_path / "spec.txt"
    path.write_text(content)
    code = cli.main(["ks", "--hyperbolic", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}:{lineno}: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["roots", "gap", "ks"])
def test_empty_hyperbolic_path_exits_2_naming_the_flag(command, capsys):
    code = cli.main([command, "--hyperbolic", ""])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: --hyperbolic needs a file path, got an empty string\n"


def _refuse_open(*args, **kwargs):
    raise AssertionError("spectrum file opened")


@pytest.mark.parametrize("kind", ["directory", "device"])
def test_hyperbolic_path_not_a_regular_file_exits_3_before_any_read(kind, tmp_path, monkeypatch, capsys):
    # stat alone refuses the path: the loader never opens it.
    path = str(tmp_path) if kind == "directory" else os.devnull
    monkeypatch.setattr(spectra, "open", _refuse_open, raising=False)
    code = cli.main(["roots", "--hyperbolic", path])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == f"error: {path}: not a regular file\n"


def test_hyperbolic_file_above_the_ceiling_exits_3(tmp_path, monkeypatch, capsys):
    path = tmp_path / "spectrum.txt"
    path.write_text(HYP_WITH_CODAZZI)
    size = path.stat().st_size
    monkeypatch.setattr(spectra, "SPECTRUM_FILE_CEILING", size)
    assert cli.main(["roots", "--hyperbolic", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(spectra, "SPECTRUM_FILE_CEILING", size - 1)
    monkeypatch.setattr(spectra, "open", _refuse_open, raising=False)
    assert cli.main(["roots", "--hyperbolic", str(path)]) == 3
    want = f"error: {path}: {size} bytes or more, above the spectrum file ceiling of {size - 1} bytes\n"
    assert capsys.readouterr().err == want


class _OsWith(types.SimpleNamespace):
    """The os module with the given functions replaced."""

    def __getattr__(self, name):
        return getattr(os, name)


def test_hyperbolic_file_longer_than_its_stat_size_is_read_bounded(tmp_path, monkeypatch, capsys):
    # A file that fstat reports as empty, as some kernel files do, is still
    # read at most one byte past the ceiling.
    path = tmp_path / "spectrum.txt"
    path.write_text(HYP_WITH_CODAZZI)
    empty = os.stat_result((0o100644,) + (0,) * 9)
    monkeypatch.setattr(spectra, "os", _OsWith(fstat=lambda fd: empty))
    monkeypatch.setattr(spectra, "SPECTRUM_FILE_CEILING", 10)
    assert cli.main(["roots", "--hyperbolic", str(path)]) == 3
    want = f"error: {path}: 11 bytes or more, above the spectrum file ceiling of 10 bytes\n"
    assert capsys.readouterr().err == want


def test_hyperbolic_fifo_swapped_in_after_a_path_check_exits_3_without_blocking(tmp_path, monkeypatch):
    # A check by path name would still see the regular file that was there
    # a moment before; the loader must check what it opened, and opening a
    # FIFO must not wait for a writer.  The call runs on a daemon thread, so
    # that a loader that blocks fails this test instead of hanging it.
    fifo = tmp_path / "spectrum.txt"
    os.mkfifo(fifo)
    regular = os.stat_result((0o100644, 0, 0, 0, 0, 0, len(HYP_WITH_CODAZZI), 0, 0, 0))
    monkeypatch.setattr(spectra, "os", _OsWith(stat=lambda *args, **kwargs: regular))
    outcome = []

    def load():
        try:
            spectra.load_hyperbolic_spectrum(fifo)
        except spectra.SpectrumError as e:
            outcome.append(str(e))

    thread = threading.Thread(target=load, daemon=True)
    thread.start()
    thread.join(5)
    try:
        assert not thread.is_alive(), "the loader blocked on a FIFO"
    finally:
        if thread.is_alive():  # release it: a writer end lets the open return
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    assert outcome == [f"{fifo}: not a regular file"]


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


def _tolerance_edge(lowest: float, side: float) -> float:
    """The last float on the given side of lowest (side -inf or inf) that
    the loader takes for lowest: |lam - lowest| <= _EIG_TOL."""
    inside = lowest + math.copysign(spectra._EIG_TOL, side)
    while abs(inside - lowest) > spectra._EIG_TOL:
        inside = math.nextafter(inside, lowest)
    while abs(math.nextafter(inside, side) - lowest) <= spectra._EIG_TOL:
        inside = math.nextafter(inside, side)
    return inside


def _codazzi_edge():
    """The last float above 3 that the loader counts as a Codazzi
    eigenvalue (|lam - 3| <= _EIG_TOL), and the next float."""
    inside = _tolerance_edge(3.0, math.inf)
    return inside, math.nextafter(inside, 4.0)


# A tt line a rounding error above 3, up to _EIG_TOL, is a Codazzi line:
# its roots are +-i, as at 3.0, so roots and ks count 1 + 2 codazzi at real
# part 0 and gap reads the next root, 1.14.  One float further it is no
# Codazzi line: the loader refuses it beside codazzi 2, and beside codazzi 0
# its roots +-beta +- i, beta about 1e-6, leave real part 0 and set the gap.
@pytest.mark.parametrize("side", ["1e-13", "inside", "outside"])
def test_borderline_codazzi_line_on_both_sides_of_the_tolerance(side, tmp_path, capsys):
    inside, outside = _codazzi_edge()
    lam = {"1e-13": 3.0000000000001, "inside": inside, "outside": outside}[side]
    path = tmp_path / "spec.txt"
    flags = ["--hyperbolic", str(path), "--jmax", "9"]
    path.write_text(HYP_WITH_CODAZZI.replace("tt 1 3.0 2", f"tt 1 {lam!r} 2"))
    if side == "outside":
        assert run_cli(["ks", *flags[:2]], capsys)[0] == 3
        path.write_text(HYP_WITH_CODAZZI.replace("tt 1 3.0 2", f"tt 1 {lam!r} 2").replace("codazzi 2", "codazzi 0"))
    dim, gap = (1, math.sqrt(lam - 3.0)) if side == "outside" else (5, 1.1401754250991381)
    docs = {}
    for command in ("roots", "ks", "gap"):
        code, out = run_cli([command, *(flags[:2] if command == "ks" else flags)], capsys)
        assert code == 0
        docs[command] = json.loads(out)
    assert docs["roots"]["kernel_dim_at_zero"] == docs["roots"]["cokernel_dim_at_zero"] == dim
    assert docs["ks"]["cokernel_dim_at_zero"] == dim
    assert docs["gap"]["gap"] == gap
    tt = sorted((r["re"], r["im"]) for r in docs["roots"]["roots"] if r["j"] == 1 and r["origin_kind"] == "tt")
    beta = math.sqrt(lam - 3.0) if side == "outside" else 0.0
    assert tt == sorted({(s * beta, t) for s in (-1.0, 1.0) for t in (-1.0, 1.0)})


def _near(value: float, side: float, ulps: int) -> float:
    """value moved ulps floats toward side."""
    for _ in range(ulps):
        value = math.nextafter(value, side)
    return value


@st.composite
def _lowest_line(draw, lowest: float) -> float:
    """An eigenvalue a few ulps from lowest, or a few ulps inside or outside
    _EIG_TOL of it, on either side."""
    side, ulps = draw(st.sampled_from([-math.inf, math.inf])), draw(st.integers(0, 3))
    edge = _tolerance_edge(lowest, side)
    return draw(st.sampled_from([_near(lowest, side, ulps), _near(edge, lowest, ulps), _near(edge, side, ulps + 1)]))


@st.composite
def _borderline_spectrum(draw):
    """A spectrum file whose lowest scalar, co-closed and TT lines, each
    present or not, sit at the edges of _EIG_TOL from 0, 0 and 3, with
    higher lines after them.  Multiplicities and headers mostly agree with
    the loader's rules, so that most files load."""
    b1, codazzi = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    lines = []
    for kind, lowest, mult, higher in (("scalar", 0.0, 1, 2.1), ("oneform", 0.0, b1, 1.3), ("tt", 3.0, codazzi, 5.2)):
        if draw(st.booleans()):
            lam = draw(_lowest_line(lowest))
            if abs(lam - lowest) > spectra._EIG_TOL or draw(st.integers(0, 4)) == 0:
                mult = draw(st.integers(0, 3))
            lines.append(f"{kind} {draw(st.integers(0, 3))} {lam!r} {mult}")
        lines.append(f"{kind} {draw(st.integers(0, 3))} {higher!r} {draw(st.integers(1, 4))}")
    if not any(line.startswith("tt") and abs(float(line.split()[2]) - 3.0) <= spectra._EIG_TOL for line in lines):
        codazzi = draw(st.sampled_from([0, 0, 0, codazzi]))
    return b1, codazzi, "\n".join([f"b1 {b1}", f"codazzi {codazzi}", *lines]) + "\n"


# Whatever the file, roots and ks exit 0 or 3 (a file the loader refuses),
# and on exit 0 both count 1 + b1 + 2 codazzi at real part 0 at every
# --jmax: the constants, the harmonic 1-forms and each Codazzi tensor's
# pair of roots +-i, and no root of a line just outside a tolerance.
@settings(max_examples=60, deadline=None)
@given(_borderline_spectrum())
def test_borderline_lowest_lines_keep_the_count_at_real_part_0(spectrum):
    import contextlib
    import io
    import tempfile

    b1, codazzi, text = spectrum
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spectrum.txt")
        with open(path, "w") as f:
            f.write(text)
        for jmax in range(5):
            for command, key in (("roots", "kernel_dim_at_zero"), ("ks", "cokernel_dim_at_zero")):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main([command, "--hyperbolic", path, "--jmax", str(jmax)])
                assert code in (0, 3), (command, jmax, text, err.getvalue())
                if code == 0:
                    assert json.loads(out.getvalue())[key] == 1 + b1 + 2 * codazzi, (command, jmax, text)
                else:
                    assert out.getvalue() == "" and err.getvalue().startswith("error: "), (command, text)


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


@pytest.mark.parametrize("mult", [0, 5])
@pytest.mark.parametrize("command", ["roots", "ks"])
def test_scalar_constants_multiplicity_other_than_one_exits_3(command, mult, tmp_path, capsys):
    path = tmp_path / "const.txt"
    path.write_text(f"b1 0\ncodazzi 0\nscalar 0 0.0 {mult}\n")
    code = cli.main([command, "--hyperbolic", str(path)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith(f"error: {path}:3: scalar eigenvalue 0 has multiplicity {mult}")


def test_lens_table(capsys):
    code, out = run_cli(["lens", "--lens", "2,1,1", "--jmax", "5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["multiplicities"] == [[0, 1], [1, 0], [2, 9], [3, 0], [4, 25], [5, 0]]


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "--sphere", "--jmax", "-2"],
        ["gap", "--torus", "6,6,6", "--jmax", "-2"],
        ["ks", "--hyperbolic", "spectrum.txt", "--jmax", "-1"],
        ["lens", "--lens", "2,1,1", "--jmax", "-3"],
        ["verify", "identities", "--jmax", "-5"],
        ["verify", "linearization", "--N", "8", "--jmax", "-5"],
        ["verify", "oracle", "--jmax", "-5"],
    ],
    ids=["roots", "gap", "ks", "lens", "identities", "linearization", "oracle"],
)
def test_negative_jmax_exits_2_naming_the_flag(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spectrum.txt").write_text(HYP_RHS)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: --jmax must be nonnegative, got {argv[-1]}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "--torus", "6,6,6", "--jmax", str(cli.JMAX_CEILING)],
        ["lens", "--lens", "2,1,1", "--jmax", str(cli.JMAX_CEILING)],
        ["lens", "--lens", f"{cli.LENS_ORDER_CEILING},1,3", "--jmax", "0"],
        ["roots", "--lens", f"{cli.LENS_ORDER_CEILING},1,3", "--jmax", "0"],
        # Both ceilings at once: the most work a lens table can ask for.
        ["lens", "--lens", f"{cli.LENS_ORDER_CEILING},1,3", "--jmax", str(cli.JMAX_CEILING)],
    ],
    ids=["roots-jmax", "lens-jmax", "lens-order", "roots-lens-order", "lens-work"],
)
def test_inputs_at_the_ceilings_run(argv, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 0 and json.loads(out)["j_max"] == int(argv[-1])


@pytest.mark.parametrize(
    "argv,message",
    [
        (["roots", "--sphere", "--jmax", "1001"], "--jmax must be at most 1000, got 1001"),
        (["gap", "--sphere", "--jmax", "100000000"], "--jmax must be at most 1000, got 100000000"),
        (["lens", "--lens", "2,1,1", "--jmax", "1001"], "--jmax must be at most 1000, got 1001"),
        (
            ["roots", "--lens", "1000000007,1,2", "--jmax", "10"],
            "--lens order p must be at most 1000000000, got 1000000007",
        ),
        (
            ["lens", "--lens", "1000000001,1,3", "--jmax", "0"],
            "--lens order p must be at most 1000000000, got 1000000001",
        ),
        (
            ["gap", "--lens", "1000000001,1,3", "--jmax", "1000"],
            "--lens order p must be at most 1000000000, got 1000000001",
        ),
        (
            ["roots", "--lens", f"{10**19 + 1},1,3", "--jmax", "0"],
            "--lens order p must be at most 1000000000, got 10000000000000000001",
        ),
    ],
)
def test_inputs_above_the_ceilings_exit_2(argv, message, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "command,lens,message",
    [
        ("roots", "0,1,1", "--lens 0,1,1: group order must be >= 1, got 0"),
        ("lens", "0,1,1", "--lens 0,1,1: group order must be >= 1, got 0"),
        ("roots", "6,2,1", "--lens 6,2,1: rotation parameter 2 not coprime to order 6; action would not be free"),
        ("lens", "6,2,1", "--lens 6,2,1: rotation parameter 2 not coprime to order 6; action would not be free"),
        ("lens", "", "--lens expects three comma-separated values"),
        ("roots", "", "--lens expects three comma-separated values"),
        ("gap", "", "--lens expects three comma-separated values"),
    ],
    ids=[
        "order-0-roots",
        "order-0-lens",
        "not-coprime-roots",
        "not-coprime-lens",
        "empty-lens",
        "empty-roots",
        "empty-gap",
    ],
)
def test_bad_lens_group_exits_2_naming_the_flag(command, lens, message, capsys):
    code = cli.main([command, "--lens", lens, "--jmax", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_empty_lens_next_to_sphere_is_not_ignored(capsys):
    # An empty --lens is still a given --lens, so it is parsed, not dropped
    # in favour of the round sphere.
    code = cli.main(["roots", "--sphere", "--lens", "", "--jmax", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --lens expects three comma-separated values\n"


def test_stray_value_error_is_not_a_usage_error(monkeypatch):
    # Every bad input is reported by its own check; a ValueError that gets
    # past them is a bug and must surface, not become exit 2.
    def broken(args):
        raise ValueError("internal")

    help_line, _, add_arguments = cli._SUBCOMMANDS["roots"]
    monkeypatch.setitem(cli._SUBCOMMANDS, "roots", (help_line, broken, add_arguments))
    with pytest.raises(ValueError, match="internal"):
        cli.main(["roots", "--sphere", "--jmax", "2"])


def test_killing_dim_flag_is_gone():
    with pytest.raises(SystemExit) as info:
        cli.main(["roots", "--sphere", "--killing-dim", "2"])
    assert info.value.code == 2


def test_gap_without_nonzero_roots_is_inf(tmp_path, capsys):
    # Only the constant scalar mode: every root sits at real part 0.
    path = tmp_path / "constants.txt"
    path.write_text("b1 0\ncodazzi 0\nscalar 0 0.0 1\n")
    code, out = run_cli(["gap", "--hyperbolic", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["gap"] == doc["gap_above_conformal_killing"] == "inf"
    assert '"gap":"inf"' in out


@pytest.mark.parametrize("jmax", ["0", "1"])
def test_gap_sphere_below_the_window_exits_2(jmax, capsys):
    code = cli.main(["gap", "--sphere", "--jmax", jmax])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: --jmax {jmax} lists no root outside {{0, +-1}}; increase --jmax\n"


def test_gap_wrong_window_exits_1(monkeypatch, capsys):
    root = indicial.IndicialRoot(
        value=complex(3.0),
        case_tag=indicial.CaseTag.CASE2,
        origin_kind=spectra.OperatorKind.DIVFREE_TT_ROUGH,
        origin_j=2,
        origin_eigenvalue=6.0,
    )
    bad = indicial.RootCatalog(spectra.Sphere(), (root,), 2, 0, math.inf)
    monkeypatch.setattr(indicial, "assemble_catalog", lambda geo, j_max: bad)
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


@pytest.mark.parametrize("command", ["roots", "gap"])
def test_bad_torus_exits_2_naming_the_flag(command, capsys):
    code = cli.main([command, "--torus", "1,1,inf", "--jmax", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: --torus 1,1,inf: torus side L3 must be a positive finite number, got inf\n"
    )


@pytest.mark.parametrize("torus,side", [("2e5,1,1", "L1"), ("1,1,1e300", "L3")])
def test_torus_rejects_too_long_side_with_exit_2(torus, side, capsys):
    code = cli.main(["roots", "--torus", torus, "--jmax", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"torus side {side} = " in captured.err and "too long" in captured.err


@pytest.mark.parametrize("torus,side", [("1e-300,1e-300,1e-300", "L1"), ("1,1,5e-324", "L3")])
def test_torus_rejects_too_short_side_with_exit_2(torus, side, capsys):
    # (2 pi / L)^2 would overflow the float range: a traceback before.
    code = cli.main(["gap", "--torus", torus, "--jmax", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"torus side {side} = " in captured.err and "too short" in captured.err


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
        (["identities", "--N", "1"], "--N must be a power of two from 2 to 32, got 1"),
        (["identities", "--N", "12"], "--N must be a power of two from 2 to 32, got 12"),
        (["linearization", "--N", "64"], "--N must be a power of two from 8 to 32, got 64"),
        (["linearization", "--N", "12"], "--N must be a power of two from 8 to 32, got 12"),
    ],
)
def test_verify_rejects_bad_eps_and_seed_before_any_work(argv, message, monkeypatch, capsys):
    def refuse(**kwargs):
        raise AssertionError("suite started on a bad flag")

    monkeypatch.setattr(verify, "run_linearization", refuse)
    monkeypatch.setattr(verify, "run_identities", refuse)
    code = cli.main(["verify"] + argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_reversed_window_exits_2(capsys):
    code = cli.main(["roots", "--sphere", "--jmax", "4", "--window", "2,1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "needs a < b" in captured.err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["ks", "--sphere"], "ks requires --hyperbolic FILE"),
        (["roots", "--sphere", "--window", "1,2,3"], "--window expects two comma-separated numbers"),
    ],
)
def test_bad_command_flags_exit_2(argv, message, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_curvature_defect_exits_1(monkeypatch, capsys):
    shortcut = curvature._ricci_contraction_shortcut
    monkeypatch.setattr(curvature, "_ricci_contraction_shortcut", lambda M: shortcut(M) + 1e-3)
    code = cli.main(["verify", "linearization", "--N", "8"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "shortcut by 1.000e-03" in captured.err


@pytest.mark.parametrize("at", [True, False], ids=["at", "below"])
def test_halving_ratio_threshold(monkeypatch, at):
    # The first case passes when its error at eps is at least
    # _HALVING_RATIO times its error at eps / 2, and fails just below.
    halved = 2.0**-24
    first = verify._HALVING_RATIO * halved
    if not at:
        first = math.nextafter(first, 0.0)
    monkeypatch.setattr(
        curvature, "fd_battery_errors", lambda cases, shape: [[first, halved]] + [[0.0]] * (len(cases) - 1)
    )
    report, ok = verify.run_linearization(n=8)
    ratio = verify._HALVING_RATIO
    assert report[0]["convergence_ratio"] == (ratio if at else math.nextafter(ratio, 0.0))
    assert report[0]["pass"] is ok is at


@pytest.mark.parametrize("above", [False, True], ids=["at", "above"])
def test_fd_tolerance_boundary(monkeypatch, above):
    # A case passes when its relative error is at most _FD_TOL, and fails at
    # the next float above; the first case's halving ratio is 4 either way.
    assert verify._FD_TOL == 1e-6
    error = math.nextafter(verify._FD_TOL, 1.0) if above else verify._FD_TOL
    monkeypatch.setattr(
        curvature, "fd_battery_errors", lambda cases, shape: [[error, error / 4]] + [[error]] * (len(cases) - 1)
    )
    report, ok = verify.run_linearization(n=8)
    assert all(row["tolerance"] == verify._FD_TOL for row in report)
    assert [row["pass"] for row in report] == [not above] * len(report)
    assert ok is not above


def test_battery_failure_reads_the_same_on_any_process_count(monkeypatch, capsys):
    # With no shortcut tolerance every case fails; the error of case 0 is
    # printed and the exit code is 1, however many processes run the cases.
    monkeypatch.setattr(curvature, "_DEFECT_TOL", 0.0)
    outcomes = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(forks, "_processes", lambda: workers)
        code = cli.main(["verify", "linearization", "--N", "8"])
        outcomes.append((code, capsys.readouterr()))
    assert outcomes[0][0] == 1 and outcomes[0][1].out == ""
    assert "double-epsilon contraction disagrees" in outcomes[0][1].err
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]


@pytest.mark.parametrize("seed", [7, 123])
def test_battery_report_is_the_same_on_any_process_count(monkeypatch, seed):
    reports = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(forks, "_processes", lambda: workers)
        reports.append(json.dumps(verify.run_linearization(n=8, seed=seed)))
    assert reports[1] == reports[0] and reports[2] == reports[0]


@pytest.mark.parametrize("seed", ["7", "123"])
def test_identities_report_is_the_same_on_any_process_count(monkeypatch, capsys, no_child_left, seed):
    # The suite's three input families run in processes i mod W; each
    # residual is computed whole in one of them.
    outputs = []
    for workers in (1, 2, 3, 4):
        monkeypatch.setattr(forks, "_processes", lambda: workers)
        code = cli.main(["verify", "identities", "--N", "8", "--seed", seed])
        outputs.append((code, capsys.readouterr()))
    assert outputs[0][0] == 0 and outputs[0][1].out and outputs[0][1].err == ""
    assert all(output == outputs[0] for output in outputs[1:])


@pytest.mark.parametrize("n", ["2", "4"])
def test_verify_linearization_rejects_coarse_grid(n, capsys):
    # The battery's time frequencies go up to 3, beyond what 2 or 4 samples hold.
    code = cli.main(["verify", "linearization", "--N", n])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: --N must be a power of two from 8 to 32, got {n}\n"


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


def test_oracle_runs_every_sweep_point(monkeypatch):
    # An empty sweep would pass with mismatch 0, so count the solves: 147
    # mixed-system and 147 co-closed points, and 274 TT branch ODEs (two per
    # eigenvalue, one where beta = 0), then 9 nonzero lattice vectors and
    # k = 0, whose pencils companion_roots solves too: 568 + 10 in all.
    from indicyl import oracle

    calls = {"companion_roots": 0, "flat_mode_pencil": 0}
    for name in calls:
        def counted(*args, _fn=getattr(oracle, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counted)
    report, ok = verify.run_oracle()
    assert ok
    assert [row["check"] for row in report] == [
        "mixed_system_matrix_vs_closed_form",
        "tt_branch_ode_vs_closed_form",
        "coclosed_mixed_ode_vs_closed_form",
        "flat_pencil_vs_closed_form",
        "flat_pencil_zero_mode_dimension_14",
    ]
    assert calls == {"companion_roots": 578, "flat_mode_pencil": 10}


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "roots.json"
    code, out = run_cli(["roots", "--sphere", "--jmax", "2", "--out", str(target)], capsys)
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "roots"


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "--sphere", "--jmax", "1"],
        ["gap", "--sphere"],
        ["ks", "--sphere"],
        ["lens", "--lens", "5,1,2"],
        ["verify", "oracle"],
    ],
    ids=lambda argv: argv[0],
)
def test_empty_out_exits_2_naming_the_flag(argv, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("work started on an empty --out")

    monkeypatch.setattr(verify, "run_oracle", refuse)
    monkeypatch.setattr(indicial, "assemble_catalog", refuse)
    monkeypatch.setattr(spectra, "lens_scalar_multiplicity", refuse)
    for flags in (["--out", ""], ["--out="]):
        code = cli.main(argv + flags)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: --out needs a file path, got an empty string\n"


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


# numpy serves only the numeric verification modules, and indicyl.verify
# only the verify command; dataclasses (and the inspect it imports) and the
# json package would add to the start-up of every closed-form command.
_NUMPY_PROBE = """
import sys
from indicyl import cli
code = cli.main(sys.argv[1:])
print(code, sorted({"numpy", "indicyl.verify", "dataclasses", "inspect", "json"} & set(sys.modules)))
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
    assert proc.stdout == "0 []\n"
    assert json.loads((tmp_path / "out.json").read_text())["command"] == argv[0]


def test_cli_start_up_loads_no_pickle_or_multiprocessing():
    # Only the verify suites fork and pickle, through the forks module that
    # they load on demand, like indicyl.verify itself.  The closed-form value
    # types are named tuples, so start-up imports no dataclasses and no
    # inspect either, and strings are encoded by _json alone, without the
    # json package.
    probe = (
        "import sys, indicyl.cli; "
        'print(sorted({"pickle", "multiprocessing", "indicyl.forks", "indicyl.verify", "dataclasses", "inspect", '
        '"json"} & set(sys.modules)))'
    )
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_verify_oracle_loads_no_numpy_random_and_no_curvature(tmp_path):
    # The oracle suite draws no random input and runs no curvature engine;
    # numpy.random alone would add 2.7 MB.
    probe = (
        "import sys\n"
        "from indicyl import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        'print(code, sorted({"numpy.random", "indicyl.curvature", "indicyl.verify"} & set(sys.modules)))'
    )
    proc = run_python("-c", probe, "verify", "oracle", "--out", str(tmp_path / "out.json"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 ['indicyl.verify']\n"
    assert json.loads((tmp_path / "out.json").read_text())["pass"] is True


# Runs the command in argv, with a forked worker even on one CPU, and
# prints for the command's process and for each worker as it exits:
# whether numpy.ma and _hashlib are loaded and libcrypto is mapped.
_LEAN_PROBE = """
import os, sys
from indicyl import cli, forks
def report(who):
    maps = open("/proc/self/maps").read() if os.path.exists("/proc/self/maps") else ""
    return f"{who} {'numpy.ma' in sys.modules} {'_hashlib' in sys.modules} {'libcrypto' in maps}\\n"
exit_ = os._exit
def reported_exit(code):
    os.write(1, report("worker").encode())
    exit_(code)
os._exit = reported_exit
forks._processes = lambda: 2
code = cli.main(sys.argv[1:])
print(code, report("command"), end="")
"""


@pytest.mark.parametrize("suite", ["identities", "linearization"])
def test_verify_suites_load_no_numpy_ma(suite, tmp_path):
    # np.unique and np.union1d import numpy.ma (1.3 MB); the identity
    # suite's summation plans and the battery's sampling form their sorted
    # integer sets without them.  numpy.random imports secrets, whose hmac
    # would load _hashlib and map OpenSSL's libcrypto (3.4 MB); the suites
    # import numpy.random with _hashlib masked, and the worker forked after
    # that inherits the lean process.
    proc = run_python("-c", _LEAN_PROBE, "verify", suite, "--N", "8", "--out", str(tmp_path / "out.json"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "worker False False False\n0 command False False False\n"
    assert json.loads((tmp_path / "out.json").read_text())["pass"] is True


def test_hashlib_works_after_a_verify_suite():
    # The mask is lifted after numpy.random is imported, and the fallback
    # hashlib and hmac leave sys.modules: later imports load them in full.
    _hashlib = pytest.importorskip("_hashlib")
    probe = (
        "import sys\n"
        "from indicyl import cli\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "import _hashlib, hashlib, hmac\n"
        "print(hashlib.sha256(b'm').hexdigest(), hmac.new(b'k', b'm', 'sha256').hexdigest(),\n"
        "      hashlib.sha256 is _hashlib.openssl_sha256)"
    )
    proc = run_python("-c", probe, "verify", "identities", "--N", "8", "--out", os.devnull)
    assert proc.returncode == 0, proc.stderr
    sha = hashlib.sha256(b"m").hexdigest()
    mac = hmac.new(b"k", b"m", "sha256").hexdigest()
    assert proc.stdout == f"{sha} {mac} {hashlib.sha256 is _hashlib.openssl_sha256}\n"


def test_linearization_runs_with_warnings_as_errors():
    # Forking a process with threads warns on Python 3.12+; a worker's
    # stray output would show in stdout or stderr.
    proc = run_python("-W", "error", "-m", "indicyl.cli", "verify", "linearization", "--N", "8")
    assert proc.returncode == 0 and proc.stderr == ""
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == PINNED_LINEARIZATION_N8


def test_identities_runs_with_warnings_as_errors():
    # hashlib and hmac, imported without _hashlib under numpy.random, take
    # their builtin fallbacks without a warning or a logged error.
    proc = run_python("-W", "error", "-m", "indicyl.cli", "verify", "identities", "--N", "8")
    assert proc.returncode == 0 and proc.stderr == ""
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == PINNED_IDENTITIES_N8


def _running(pid: int) -> bool:
    """Whether the process pid exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


# Announces each forked worker's pid on stdout, with two processes on any
# machine; the probes below then run a battery or an identity suite.
_ANNOUNCED_FORK = """
import os
from indicyl import forks
fork = os.fork
def announced_fork():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid
os.fork = announced_fork
forks._processes = lambda: 2
"""

# A battery whose worker has about 20 cases of 16^4 to do.
ORPHAN_BATTERY = _ANNOUNCED_FORK + """
from indicyl import curvature as C, verify
C.fd_battery_errors([(ht, [1e-4]) for ht in verify.linearization_battery()] * 4, (16,) * 4)
"""

# A band-15 identity suite whose worker, running identity 9, sleeps 0.2 s
# per slab view (one cyl_killing call each), 31 of them, so that it would
# outlive its parent by seconds if it ran to its end.
ORPHAN_SUITE = _ANNOUNCED_FORK + """
import time
from indicyl import fields as F
cyl_killing = F.cyl_killing
def slow_cyl_killing(w):
    time.sleep(0.2)
    return cyl_killing(w)
F.cyl_killing = slow_cyl_killing
F.identity_suite(band=15, seed=5)
"""


def _worker_ends_when_its_parent_is_killed(probe):
    """Runs probe in a fresh process, kills it once it has forked its
    worker, and requires the worker to end within 2 s."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    parent = subprocess.Popen([sys.executable, "-c", probe], stdout=subprocess.PIPE, env=env)
    worker = None
    try:
        worker = int(parent.stdout.readline())
        parent.kill()
        parent.wait()
        deadline = time.monotonic() + 2.0
        while _running(worker) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _running(worker)
    finally:
        parent.kill()
        parent.wait()
        parent.stdout.close()
        if worker is not None and _running(worker):
            os.kill(worker, signal.SIGKILL)


@pytest.mark.skipif(not (hasattr(os, "fork") and os.path.isdir("/proc/self")), reason="needs fork and /proc")
def test_battery_worker_ends_when_its_parent_is_killed():
    _worker_ends_when_its_parent_is_killed(ORPHAN_BATTERY)


@pytest.mark.skipif(not (hasattr(os, "fork") and os.path.isdir("/proc/self")), reason="needs fork and /proc")
def test_identity_suite_worker_ends_when_its_parent_is_killed():
    _worker_ends_when_its_parent_is_killed(ORPHAN_SUITE)


_SCIPY_PROBE = """
import sys
from indicyl import cli
code = cli.main(sys.argv[1:])
print(code, "scipy" in sys.modules)
"""


@pytest.mark.parametrize("suite", ["linearization", "identities", "oracle"])
def test_engine_suites_load_no_scipy(suite, tmp_path):
    # The curvature engine and the field calculus transform with numpy.fft,
    # and the root oracle solves with numpy.linalg; no command loads scipy.
    proc = run_python("-c", _SCIPY_PROBE, "verify", suite, "--N", "8", "--out", str(tmp_path / "out.json"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 False\n"


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


@pytest.mark.parametrize("above", [False, True])
def test_tt_branch_split_boundary(above):
    # Up to lam + 3 kappa = _TT_BRANCH_TOL the two TT branch ODEs coincide
    # and one runs; one float above, both do (kappa = 0, so the sum is lam).
    limit = verify._TT_BRANCH_TOL
    lam = math.nextafter(limit, 1.0) if above else limit
    systems = verify._tt_branch_systems(lam, 0)
    assert len(systems) == (2 if above else 1)
    assert [complex(s.mats[1][0, 0]).real > 0 for s in systems] == [True, False][: len(systems)]


@pytest.mark.parametrize("value", [np.int64(3), np.float64(0.5), np.bool_(True), {1, 2}])
def test_json_refuses_unlisted_types(value):
    with pytest.raises(TypeError, match="cannot serialize"):
        cli._json([{"x": value}])


# Any code point, lone surrogates, controls and non-ASCII included.
@given(st.text(st.characters(exclude_categories=())))
@settings(max_examples=300, deadline=None)
def test_json_str_matches_json_dumps(s):
    # The encoder runs without the json package, with its bits.
    assert cli._json_str(s) == json.dumps(s)


def test_json_str_falls_back_without_the_c_encoder():
    # An interpreter without _json encodes strings by json.encoder's
    # pure-Python encoder, with the same output.
    probe = (
        "import sys; sys.modules['_json'] = None\n"
        "import json\n"
        "from indicyl import cli\n"
        "assert cli.encode_basestring_ascii.__module__ == 'json.encoder'\n"
        "for s in ('', 'a\"b\\\\c', '\\x00\\x1f\\u00e9\\u2028', '\\ud800', '\\U0001f600'):\n"
        "    assert cli._json_str(s) == json.dumps(s), s\n"
        "print('ok')"
    )
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


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


# verify linearization --N 8 splits its cases between processes, one per
# CPU; one 16^4 battery case, called alone, streams its grid inline and
# samples its exact block on slabs.
ENGINE_16 = (
    "from indicyl import curvature as C, verify\n"
    "ht = verify.linearization_battery()[0]\n"
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


# sha256 of the stdout of closed-form commands, of the identity suite, of
# the linearization battery and of the root oracle: a refactor that changes
# a printed byte fails here.  The identity suite calls no LAPACK routine, and
# the battery calls only numpy's bundled pocketfft, with no LAPACK and no
# BLAS, so both digests carry the same caveat: they hold for one numpy
# release.  The oracle's mismatches are LAPACK rounding, so its digest holds
# for one numpy build and CPU family.  A digest is re-pinned, with the
# changed numbers stated, when what it depends on changes.
PINNED_IDENTITIES_N8 = "a6c647df0fd3bd0102684786b09efc0c6e6c11f07a0a166c25146a2de9f31777"
PINNED_LINEARIZATION_N8 = "950a197530587991639f46986b19028ee919c6ad71010fb04121c37c0c5015b4"
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
            "roots --lens 9973,1,3 --jmax 30",
            "1016d72cd673b360f407788c8fb125e163fd1c28c6588062d8fcc692fc54641a",
        ),
        (
            "roots --lens 97,5,41 --jmax 300",
            "a29bf7fd8b7a7e02d6789b50fb6869d3c313b93489a890d44aded5663270320c",
        ),
        (
            "roots --sphere --jmax 1000",
            "82409863ad9b5d3417bf3462e43e22d3db8a42200c78b0104a18fd699b7b9dc4",
        ),
        (
            "roots --lens 999999937,-999999936,1999999873 --jmax 1000",
            "a93ea7c776be16ad57e0b90958a5022525ed21a3f19df7a2995f62808d643d54",
        ),
        (
            "roots --lens 7,1,3 --jmax 1000 --format csv",
            "0485d2a2502e3a9e43ab5d3c93097569d301b23e77808ea7fa99f0aa3ee1400a",
        ),
        (
            "roots --hyperbolic spectrum.txt --jmax 2",
            "ed42b06ad4f63fe1c08d57d081e129383b3273254ea6de85320e23c767e9b86a",
        ),
        (
            "ks --hyperbolic spectrum.txt",
            "202de77b4505e99eb2590f659e237df0b4e876598f0300eb825bf0a1873d61d3",
        ),
        (
            "gap --torus 3.1,4.7,5.9 --jmax 60",
            "e9c7ee77f1e589b6a6b35b9206276ba23c1dac114360bb79dadf29985333f035",
        ),
        (
            "gap --hyperbolic spectrum.txt --jmax 2",
            "458c0ab7076297aed74d1ffcd43e2572852ed80895cb0915b14eb349bfa6dd40",
        ),
        (
            "roots --hyperbolic spectrum.txt --jmax 2 --format csv",
            "7c43fac8f23b8bbf8dc40df82e3cc6d1df9bd3366293a462ccf7b4db6f5f2c76",
        ),
        (
            "verify identities --N 32 --seed 5",
            "21e9fd1fb6e14ff0e1e51ca4b3a0c53253861b8e027b608d94f5a83ec3db70bd",
        ),
        (
            "verify identities --N 16 --seed 77",
            "2805ffbd4e6ba51a0923df549dc3e920c91fe81bdfc8f9468a47120ca5c44473",
        ),
        ("verify identities --N 8", PINNED_IDENTITIES_N8),
        ("verify linearization --N 8", PINNED_LINEARIZATION_N8),
        (
            "verify linearization --N 16 --seed 11",
            "4acbb2889ec72b2596cc7f4d70d7761b1f7543352470f59fea0d32690320b351",
        ),
        (
            "verify oracle",
            "fe7d72915d83f0caf78d57234200b46236d540f6f9d6264aaf49bafe7b94240e",
        ),
        (
            "verify oracle --jmax 10",
            "fe7d72915d83f0caf78d57234200b46236d540f6f9d6264aaf49bafe7b94240e",
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


# Usage, help and usage errors of every subcommand: digests of (exit code,
# stdout, stderr), captured with CPython 3.11's argparse at COLUMNS=80.
_PARSER_OUTPUTS = [
    ([], "529d3804f008f35ba942935a79ac5ef009828f7ae8855a899b7a19835c62241c"),
    (['-h'], "890354f30990c9ecb782f62eb767f8ec939ab7c4c8692631c64240f8af528677"),
    (['--help'], "890354f30990c9ecb782f62eb767f8ec939ab7c4c8692631c64240f8af528677"),
    (['roots', '--help'], "9c78ba7fbfca8b4a7fe5e9faacd3e481cd721a6df688b806bdb99982702c4bf0"),
    (['gap', '--help'], "be5a0b7c3cdf0db9478ed7f76a002a62c760d5d7f464dac2724a486520f8792f"),
    (['ks', '--help'], "e887f7fef9481055c67d19c4446a0aac617c90d4ff1cb85696735d0c1b571268"),
    (['lens', '--help'], "2fd5ab56d53abfa4e875cf5ae26b87b6a8459233f7cb88acf39bc9af67a8160e"),
    (['verify', '--help'], "674e3404dd88173ae18c9346391796c7e2bd7d8ff85bb8cb2dd8ed431f20eec8"),
    (['bogus'], "25c512e7aa2450100bc54c14008983dcb9327477d2d3cc1582b4f3d01aca52af"),
    (['verify', 'bogus'], "27f0d56baf3880969d9d09c5ad8e1d32af9beb549be71c86822909347aaa082a"),
    (['roots', '--bogus'], "9abb5853300b413b7046a07149988202b8454e557acfa064d42f9a0e2f913447"),
    (['--bogus', 'roots', '--sphere'], "9abb5853300b413b7046a07149988202b8454e557acfa064d42f9a0e2f913447"),
    (['lens'], "c55b61a22e5517017f7b31e5fe6e343eeb4602526c7f439e4369810e0ac8b1dd"),
    (['verify', 'identities', '--N', 'x'], "800c5753bb2be3cbffb196812f6479759286c28dfd4657821c2df7452cb0c90d"),
    (['roots', '--format', 'xml'], "3f41d65db42f408a019d3ec268556f8ff1be4bfb33e915a230908de02ea4d942"),
    (['gap', '--jmax'], "f3adbf14670bbe81b7a61c29907a6a9038b24716be1f3e0c59fcb5c6b5cdfe0d"),
    (['ks', '--sphere', 'extra'], "184601564d4a32ea3bd2095f579d5b06b8e7243f8ae12efc8b5c1a720d70e074"),
    (['roots', '--sph', '--jmax', '1'], "4d2383e2b06a3978803eb1e95a025336e589aee970982a70402e68b733657948"),
    (['-x'], "529d3804f008f35ba942935a79ac5ef009828f7ae8855a899b7a19835c62241c"),
    (['--', 'roots'], "d9ce86212c84a53156cd10d9166da4af24be77e7b452943131086242dc434ea7"),
]


@pytest.mark.parametrize("argv,digest", _PARSER_OUTPUTS, ids=[" ".join(a) or "no-args" for a, _ in _PARSER_OUTPUTS])
def test_parser_output_is_unchanged(argv, digest, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    assert hashlib.sha256(f"{code}\n{captured.out}\0{captured.err}".encode()).hexdigest() == digest


def test_build_parser_lists_every_subcommand():
    ap = cli.build_parser()
    (action,) = [a for a in ap._actions if a.dest == "cmd"]
    assert list(action.choices) == ["roots", "gap", "ks", "lens", "verify"]
    assert ap.parse_args(["gap", "--sphere"]).func is cli.cmd_gap
