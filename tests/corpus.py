"""The characterization corpus: what each of a fixed list of command lines
prints, kept in corpus.json beside this file, so that a change meant to keep
every byte of the output is checked by a test rather than by hand (Feathers,
Working Effectively with Legacy Code, 2004, ch. 13).

Each row holds a command line, whether it is slow, the sha256 of its stdout
and of its stderr, and its exit code.  Every row runs in process through
cli.main, in a directory that holds the input files of FILES under fixed
relative names, since the commands print the paths they are given.

    PYTHONPATH=src python tests/corpus.py          check every row, the slow ones too
    PYTHONPATH=src python tests/corpus.py write    run every row and rewrite corpus.json

tests/test_corpus.py checks in tier-1 that the file lists exactly the rows
of rows() and that every row not marked slow holds.  A change that alters a
row's output states the command line, its old and new digests and why.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

from indicyl import cli

CORPUS = Path(__file__).resolve().with_name("corpus.json")

# Hyperbolic spectrum files, by the name the rows give: four good ones,
# then those the loader refuses; None is a directory.
FILES = {
    "spectrum.txt": b"b1 2\ncodazzi 1\nscalar 1 0.7 2\nscalar 2 2.5 4\noneform 1 0.9 3\noneform 2 5.5 1\n"
    b"tt 1 3.0 1\ntt 2 4.1 6\ntt 3 7.25 2\n",
    "codazzi.txt": b"b1 0\ncodazzi 2\nscalar 1 2.1 3\noneform 1 1.3 4\ntt 1 3.0 2\ntt 2 5.2 8\n",
    "rhs.txt": b"b1 0\ncodazzi 0\nscalar 1 2.5 4\noneform 1 2.2 2\ntt 1 4.1 6\n",
    "constants.txt": b"b1 0\ncodazzi 0\nscalar 0 0.0 1\n",
    "header-without-value.txt": b"b1\ncodazzi 0\n",
    "fractional-multiplicity.txt": b"b1 0\ncodazzi 0\nscalar 0 1.0 1.5\n",
    "nan-eigenvalue.txt": b"b1 0\ncodazzi 0\nscalar 1 nan 1\n",
    "not-utf8.txt": b"b1 0\ncodazzi 0\nscalar 1 2.0 1 \xff\n",
    "harmonic-oneforms-against-b1.txt": b"b1 2\ncodazzi 0\noneform 0 0.0 1\n",
    "tt-below-3.txt": b"b1 0\ncodazzi 0\ntt 1 2.5 1\n",
    "eigenvalues-not-increasing.txt": b"b1 0\ncodazzi 0\nscalar 1 2.0 1\nscalar 2 2.0 1\n",
    "unknown-kind.txt": b"b1 0\ncodazzi 0\nvector 1 1.0 1\n",
    "repeated-b1.txt": b"b1 0\nb1 2\ncodazzi 0\n",
    "constants-twice.txt": b"b1 0\ncodazzi 0\nscalar 0 0.0 5\n",
    "directory": None,
}

_IDENTITY_SEEDS = (0, 5, 9, 77, 385316)
_CEILING = str(cli.JMAX_CEILING)
_LENS_CEILING = "999999937,1,3"  # the largest prime order below the ceiling


def _closed_form_rows():
    """Every closed-form subcommand on each geometry, at a small --jmax and
    at the ceiling, in both output formats where there are two."""
    geometries = [
        ["--sphere"],
        ["--lens", "7,2,3"],
        ["--lens", _LENS_CEILING],
        ["--torus", "3.1,4.7,5.9"],
        ["--torus", "1e5,1e5,1e5"],
        ["--hyperbolic", "spectrum.txt"],
        ["--hyperbolic", "codazzi.txt"],
    ]
    for geometry, jmax in itertools.product(geometries, ("3", _CEILING)):
        yield ["roots", *geometry, "--jmax", jmax]
        yield ["roots", *geometry, "--jmax", jmax, "--format", "csv"]
        if geometry != ["--sphere"] or jmax != "3":
            yield ["gap", *geometry, "--jmax", jmax]
    yield ["gap", "--sphere", "--jmax", "2"]
    yield ["roots", "--sphere", "--jmax", "12", "--window=-3,2.5"]
    yield ["roots", "--hyperbolic", "rhs.txt", "--jmax", "4", "--window", "0,3", "--format", "csv"]
    yield ["gap", "--hyperbolic", "constants.txt"]
    for name in ("spectrum.txt", "codazzi.txt", "rhs.txt"):
        yield ["ks", "--hyperbolic", name]
        yield ["ks", "--hyperbolic", name, "--jmax", _CEILING]
    for lens, jmax in itertools.product(("2,1,1", "12,1,5", _LENS_CEILING), ("3", _CEILING)):
        yield ["lens", "--lens", lens, "--jmax", jmax]
    yield ["verify", "oracle"]


def _permuted_tori():
    """Isometric tori whose sides are given in every order: their CSV
    catalogs must agree, and their JSON differs only in the lengths."""
    for sides, jmax in ((("3.1", "4.7", "5.9"), "60"), (("4.7", "4.7", "3.1"), "12")):
        for order in sorted(set(itertools.permutations(sides))):
            torus = ",".join(order)
            yield ["roots", "--torus", torus, "--jmax", jmax, "--format", "csv"]
            yield ["roots", "--torus", torus, "--jmax", jmax]


def _refused_rows():
    """Inputs that exit 2 (bad arguments) or 3 (bad input files); their
    stderr digests pin the messages."""
    yield from (
        ["roots", "--sphere", "--torus", "1,1,1"],
        ["roots", "--lens", "4,2,1", "--jmax", "2"],
        ["roots", "--lens", "0,1,1", "--jmax", "2"],
        ["lens", "--lens", "", "--jmax", "2"],
        ["roots", "--sphere", "--lens", "", "--jmax", "2"],
        ["gap", "--lens", "3,,1", "--jmax", "2"],
        ["roots", "--lens", "1000000007,1,2", "--jmax", "10"],
        ["lens", "--lens", "2,1,1", "--jmax", "1001"],
        ["gap", "--sphere", "--jmax", "0"],
        ["gap", "--sphere", "--jmax", "1"],
        ["roots", "--sphere", "--jmax", "-2"],
        ["roots", "--torus", "1,nan,1", "--jmax", "2"],
        ["gap", "--torus", "1,1,inf", "--jmax", "2"],
        ["roots", "--torus", "2e5,1,1", "--jmax", "2"],
        ["gap", "--torus", "1,1,5e-324", "--jmax", "2"],
        ["roots", "--torus", "1,1", "--jmax", "2"],
        ["roots", "--torus", "1,x,1", "--jmax", "2"],
        ["roots", "--sphere", "--jmax", "4", "--window", "2,1"],
        ["roots", "--sphere", "--window", "1,2,3"],
        ["roots", "--sphere", "--window", "a,2"],
        ["ks", "--sphere"],
        ["roots", "--hyperbolic", ""],
        ["roots", "--sphere", "--out", ""],
        ["verify", "identities", "--N", "12"],
        ["verify", "identities", "--seed", "-1"],
        ["verify", "linearization", "--N", "4"],
        ["verify", "linearization", "--eps", "0.1"],
        ["verify", "linearization", "--eps", "nan"],
        ["verify", "oracle", "--jmax", "-5"],
        ["roots", "--hyperbolic", "missing.txt"],
    )
    for name in list(FILES)[4:]:
        yield ["roots", "--hyperbolic", name]
    yield ["ks", "--hyperbolic", "repeated-b1.txt"]
    yield ["ks", "--hyperbolic", "constants-twice.txt"]


def rows():
    """(argv, slow) of every row, in corpus order."""
    fast = [
        *_closed_form_rows(),
        *_permuted_tori(),
        *_refused_rows(),
        *(["verify", "identities", "--N", str(n), "--seed", str(seed)] for n in (2, 4, 8) for seed in range(50)),
        *(["verify", "identities", "--N", str(n), "--seed", str(seed)] for n in (16, 32) for seed in _IDENTITY_SEEDS),
        *(["verify", "linearization", "--N", "8", "--seed", str(seed)] for seed in (7, 11)),
    ]
    slow = [["verify", "linearization", "--N", str(n), "--seed", str(seed)] for n in (16, 32) for seed in (7, 11)]
    return [(argv, False) for argv in fast] + [(argv, True) for argv in slow]


def write_files(directory: Path) -> None:
    for name, content in FILES.items():
        if content is None:
            (directory / name).mkdir()
        else:
            (directory / name).write_bytes(content)


def run(argv) -> dict:
    """The digests and exit code of one command line, run through cli.main
    in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # a usage error, reported by argparse
            code = e.code
    return {
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
        "code": code,
    }


def load() -> list[dict]:
    return json.loads(CORPUS.read_text())


def mismatches(entries) -> list[str]:
    """The rows among entries whose output differs from the recorded one,
    each run in the current directory, which must hold FILES."""
    return [
        f"{' '.join(entry['argv'])}: recorded {want}, got {got}"
        for entry in entries
        if (got := run(entry["argv"])) != (want := {k: entry[k] for k in ("stdout", "stderr", "code")})
    ]


def _main(args) -> int:
    if args not in ([], ["write"]):
        print(__doc__, file=sys.stderr)
        return 2
    os.environ["COLUMNS"] = "80"  # argparse wraps its messages to the terminal width
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        write_files(Path(tmp))
        if args:
            entries = [{"argv": argv, "slow": slow, **run(argv)} for argv, slow in rows()]
            CORPUS.write_text("[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n")
            print(f"wrote {len(entries)} rows to {CORPUS}")
            return 0
        bad = mismatches(load())
        print("\n".join(bad) or "every row holds")
        return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
