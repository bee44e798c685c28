"""Grammar-driven fuzz test of the CLI boundary.

Argument vectors for `roots`, `gap`, `ks`, `lens` and `verify` are drawn
from the command-line grammar with hostile values: empty parts, signs,
non-finite and out-of-range numbers, 20-digit integers, non-ASCII text, and
missing or repeated flags, and with or without an `--out` target.  Every one
must either run (exit 0) or be refused as bad arguments (2) or a bad input
or output file (3), with at most one error line and no traceback, and must
give the same bytes when run again.  A `verify` draw either is refused
before any work or runs a cheap suite: `oracle`, or `identities` on at most
8 grid points.
"""

import contextlib
import io
import os

from hypothesis import given, settings, strategies as st

from indicyl import cli

# One comma-separated part of a flag value.
_PARTS = st.sampled_from(
    [
        "",
        "0",
        "1",
        "-1",
        "+3",
        "2",
        "5",
        "7",
        "2.5",
        "-0.0",
        "6.283185307179586",
        "nan",
        "inf",
        "-inf",
        "1e400",
        "1e-400",
        "1e-300",
        "12345678901234567890",
        "-12345678901234567890",
        " 1",
        "x",
        "é",
        "٣",  # Arabic-Indic digit three, which int() and float() accept
    ]
)


def _joined(max_parts):
    return st.lists(_PARTS, max_size=max_parts).map(",".join)


# Numeric --jmax values stay at 40 or below, so that no draw is slow; the
# larger ones are far above the ceiling and refused before any work.
_JMAX = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["", "nan", "1.5", "1e400", "12345678901234567890", "-12345678901234567890", "٤"]),
)


def _values(spectrum, missing, outs):
    """The value strategy of each flag; None marks a flag without a value.
    Valid values are drawn about as often as hostile ones, so that the
    commands also run to the end."""
    return {
        "--out": st.sampled_from(outs),
        # --N runs the identities suite on at most 8 points; "٨" is 8.
        "--N": st.sampled_from(["2", "4", "8", "٨", "0", "1", "12", "64", "", "x", "1e3"]),
        "--seed": st.sampled_from(["0", "7", "-1", "", "x", "12345678901234567890"]),
        "--eps": st.sampled_from(["1e-4", "0", "0.1", "nan", "inf", "-1e-4", "5e-324", "", "x"]),
        "--sphere": st.none(),
        "--lens": st.one_of(st.sampled_from(["7,1,3", "5,2,2", "2,1,1", "1,1,1", "97,-1,3"]), _joined(4)),
        "--torus": st.one_of(
            st.sampled_from(["6.283185307179586,6,7", "3.1,4.7,5.9", "1,1,1", "1e-300,1e-300,1e-300"]), _joined(4)
        ),
        "--hyperbolic": st.sampled_from([spectrum, spectrum, missing, ""]),
        "--jmax": _JMAX,
        "--window": st.one_of(st.sampled_from(["-2,2", "0,5", "1,1"]), _joined(3)),
        "--format": st.sampled_from(["csv", "json", "", "xml"]),
    }


# Per command: the flags that choose the cross-section (or the suite), and
# the others.
_FLAGS = {
    "roots": (("--sphere", "--lens", "--torus", "--hyperbolic"), ("--jmax", "--window", "--format", "--out")),
    "gap": (("--sphere", "--lens", "--torus", "--hyperbolic"), ("--jmax", "--out")),
    "ks": (("--sphere", "--lens", "--torus", "--hyperbolic"), ("--jmax", "--out")),
    "lens": (("--lens",), ("--jmax", "--out")),
    "verify": ((), ("--N", "--seed", "--eps", "--jmax", "--out")),
}

# Suites of verify, and flags that refuse the linearization suite before
# it runs.  The last of a repeated flag counts, so a refusal goes last.
_SUITES = st.sampled_from(["oracle", "identities", "linearization", "", "catalog"])
_REFUSALS = st.sampled_from(
    [["--N", "4"], ["--N", "64"], ["--eps", "0"], ["--eps=nan"], ["--seed=-1"], ["--jmax", "1001"], ["--out="]]
)


@st.composite
def _argv(draw, values):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    choices, others = _FLAGS[command]
    # Mostly one cross-section flag, as a valid call has; sometimes none,
    # two or a repeated one.
    chosen = draw(st.one_of(st.lists(st.sampled_from(choices), min_size=1, max_size=1),
                            st.lists(st.sampled_from(choices), max_size=3))) if choices else []
    flags = draw(st.permutations(chosen + draw(st.lists(st.sampled_from(others), max_size=3))))
    argv = [command]
    if command == "verify":
        argv.append(draw(_SUITES))
    for flag in flags:
        value = draw(values[flag])
        if value is None:
            argv.append(flag)
        elif draw(st.booleans()):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    if argv[:2] == ["verify", "linearization"]:
        argv += draw(_REFUSALS)
    return argv


def _run(argv, target):
    """Exit code, stdout and stderr of one in-process run, and the bytes it
    wrote to the --out target file (removed again), if any."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse refusing the argv
            assert e.code == 2, argv
            code = 2
    written = None
    if os.path.exists(target):
        with open(target, "rb") as f:
            written = f.read()
        os.remove(target)
    return code, out.getvalue(), err.getvalue(), written


def test_every_drawn_argv_runs_or_is_refused(tmp_path):
    spectrum = tmp_path / "spectrum.txt"
    spectrum.write_text("b1 1\ncodazzi 1\nscalar 1 2.1 3\noneform 0 0.0 1\ntt 1 3.0 1\ntt 2 5.2 8\n")
    missing = tmp_path / "missing.txt"
    target = tmp_path / "out.json"
    outs = ["", str(target), str(target), str(tmp_path), str(tmp_path / "missing" / "out.json"), os.devnull]
    values = _values(str(spectrum), str(missing), outs)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(argv=_argv(values))
    def check(argv):
        first = _run(argv, target)
        code, out, err, written = first
        assert code in (0, 2, 3), (argv, err)
        assert sum("error:" in line for line in err.splitlines()) <= 1, (argv, err)
        assert (code == 0) == (err == "") and (code == 0 or out == ""), (argv, err)
        assert _run(argv, target) == first, argv

    check()
