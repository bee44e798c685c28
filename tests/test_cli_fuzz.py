"""Grammar-driven fuzz test of the CLI boundary.

Argument vectors for `roots`, `gap`, `ks` and `lens` are drawn from the
command-line grammar with hostile values: empty parts, signs, non-finite and
out-of-range numbers, 20-digit integers, non-ASCII text, and missing or
repeated flags.  Every one must either run (exit 0) or be refused as bad
arguments (2) or a bad input file (3), with at most one error line and no
traceback, and must give the same bytes when run again.
"""

import contextlib
import io

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


def _values(spectrum, missing):
    """The value strategy of each flag; None marks a flag without a value.
    Valid values are drawn about as often as hostile ones, so that the
    commands also run to the end."""
    return {
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


# Per command: the flags that choose the cross-section, and the others.
_FLAGS = {
    "roots": (("--sphere", "--lens", "--torus", "--hyperbolic"), ("--jmax", "--window", "--format")),
    "gap": (("--sphere", "--lens", "--torus", "--hyperbolic"), ("--jmax",)),
    "ks": (("--sphere", "--lens", "--torus", "--hyperbolic"), ("--jmax",)),
    "lens": (("--lens",), ("--jmax",)),
}


@st.composite
def _argv(draw, spectrum, missing):
    values = _values(spectrum, missing)
    command = draw(st.sampled_from(sorted(_FLAGS)))
    choices, others = _FLAGS[command]
    # Mostly one cross-section flag, as a valid call has; sometimes none,
    # two or a repeated one.
    chosen = draw(st.one_of(st.lists(st.sampled_from(choices), min_size=1, max_size=1),
                            st.lists(st.sampled_from(choices), max_size=3)))
    flags = draw(st.permutations(chosen + draw(st.lists(st.sampled_from(others), max_size=3))))
    argv = [command]
    for flag in flags:
        value = draw(values[flag])
        if value is None:
            argv.append(flag)
        elif draw(st.booleans()):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    return argv


def _run(argv):
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse refusing the argv
            assert e.code == 2, argv
            code = 2
    return code, out.getvalue(), err.getvalue()


def test_every_drawn_argv_runs_or_is_refused(tmp_path):
    spectrum = tmp_path / "spectrum.txt"
    spectrum.write_text("b1 1\ncodazzi 1\nscalar 1 2.1 3\noneform 0 0.0 1\ntt 1 3.0 1\ntt 2 5.2 8\n")
    missing = tmp_path / "missing.txt"

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(argv=_argv(str(spectrum), str(missing)))
    def check(argv):
        first = _run(argv)
        code, out, err = first
        assert code in (0, 2, 3), (argv, err)
        assert sum("error:" in line for line in err.splitlines()) <= 1, (argv, err)
        assert (code == 0) == (err == "") and (code == 0 or out == ""), (argv, err)
        assert _run(argv) == first, argv

    check()
