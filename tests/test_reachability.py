"""Every function of the package is reached by some command, or named here.

A fresh interpreter runs about a dozen small commands in process, through
cli.main, with every subcommand on every geometry, both output formats,
--out, --window and the three verify suites, and records each Python
function entered (sys.setprofile call events, set before the package is
imported).  The suites run in that one process (forks._processes patched
to 1), so the identity suite's and the battery's tasks are seen too.  The
functions of src/indicyl that no command enters must be exactly those of
_UNREACHED: a new helper that nothing calls, or a branch whose last caller
went, fails here until it is deleted or named with its reason.
"""

import json
import os
import subprocess
import sys

from indicyl import cli

_PROBE = r"""
import ast, contextlib, io, json, os, sys

tmp = sys.argv[1]
entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)
from indicyl import cli, forks

forks._processes = lambda: 1
hyperbolic = os.path.join(tmp, "hyperbolic.txt")
with open(hyperbolic, "w") as f:
    f.write("b1 1\ncodazzi 2\nscalar 0 0.0 1\nscalar 1 2.0 1\noneform 0 0.0 1\noneform 1 3.0 2\ntt 0 3.0 2\ntt 1 4.0 1\n")
commands = [
    ["roots", "--sphere", "--jmax", "3"],
    ["roots", "--lens", "5,1,2", "--jmax", "3", "--format", "csv"],
    ["roots", "--torus", "6.2,6.3,6.4", "--jmax", "2", "--window=-2,2"],
    ["roots", "--hyperbolic", hyperbolic, "--jmax", "3", "--out", os.path.join(tmp, "roots.json")],
    ["gap", "--sphere", "--jmax", "3"],
    ["gap", "--lens", "3,1,1", "--jmax", "4"],
    ["gap", "--torus", "6.2,6.3,6.4", "--jmax", "2"],
    ["gap", "--hyperbolic", hyperbolic],
    ["ks", "--hyperbolic", hyperbolic],
    ["lens", "--lens", "2,1,1", "--jmax", "2", "--out", os.path.join(tmp, "lens.json")],
    ["verify", "oracle"],
    ["verify", "identities", "--N", "8"],
    ["verify", "linearization", "--N", "8"],
]
codes = []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
sys.setprofile(None)

src = os.path.dirname(cli.__file__)
seen = {(os.path.basename(c.co_filename), c.co_firstlineno, c.co_name) for c in entered if os.path.dirname(c.co_filename) == src}


def functions(tree, prefix, file):
    # (file, first line, name) as a code object gives them, and the qualified name.
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from functions(node, f"{prefix}{node.name}.", file)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield (file, first, node.name), f"{prefix}{node.name}"
            yield from functions(node, f"{prefix}{node.name}.<locals>.", file)
        else:
            yield from functions(node, prefix, file)


never = []
for file in sorted(os.listdir(src)):
    if file.endswith(".py"):
        with open(os.path.join(src, file)) as f:
            tree = ast.parse(f.read())
        never += [f"{file[:-3]}.{name}" for key, name in functions(tree, "", file) if key not in seen]
print(json.dumps({"codes": codes, "never": never}))
"""

# Each function no command enters, with the reason it stays.
_TRACER_KEPT = "curvature engine kept for perfbench's tracer (ROADMAP item 2 (b))"
_UNREACHED = {
    "__init__.__dir__": "module dir() for interactive use",
    "curvature.CurvatureDefectError.__init__": "error path: the ASD shortcut defect exceeds its bound",
    "curvature.CurvatureDefectError.__reduce__": "error path: the defect error crossing the fork pipe",
    "curvature.MetricGrid4D.__post_init__": _TRACER_KEPT,
    "curvature.MetricGrid4D.shape": _TRACER_KEPT,
    "curvature._unpack_sym": _TRACER_KEPT,
    "curvature.CurvatureGrid.ginv_sym": _TRACER_KEPT,
    "curvature.CurvatureGrid.gamma_sym": _TRACER_KEPT,
    "curvature.CurvatureGrid.ricci_sym": _TRACER_KEPT,
    "curvature.CurvatureGrid.scalar": _TRACER_KEPT,
    "curvature.CurvatureGrid.ginv": _TRACER_KEPT,
    "curvature.CurvatureGrid.gamma": _TRACER_KEPT,
    "curvature.CurvatureGrid.riemann": _TRACER_KEPT,
    "curvature.CurvatureGrid.ricci": _TRACER_KEPT,
    "curvature._pruned_irfftn": _TRACER_KEPT,
    "curvature.christoffel_riemann": _TRACER_KEPT,
    "curvature.asd_form_background": _TRACER_KEPT,
    "curvature.sample_cyl_tensor": _TRACER_KEPT,
    "curvature.sample_cross_section_tensor": _TRACER_KEPT,
    "forks._processes": "replaced by the probe's one-process count",
    "forks._portable": "worker side of forks.run",
    "forks._worker": "worker side of forks.run",
}


def test_every_function_is_reached_or_named(tmp_path):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(tmp_path)], capture_output=True, text=True, env=env, check=True
    )
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * 13
    assert sorted(result["never"]) == sorted(_UNREACHED)
