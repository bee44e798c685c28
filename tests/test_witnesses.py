"""The witness graph, read from the sources with ast.

Every closed form of the package is trusted because a numeric witness
checks it, and a witness that shares code with what it checks proves
nothing.  This file lists once, each with its reason, the import edges
allowed between the modules of src/indicyl, and the witnesses with the
names they may not reach.  A new edge fails until it is listed here; a
forbidden edge, or a witness function that reaches a forbidden name
through the functions of its own module, fails outright.  It imports
nothing that it checks.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "indicyl"

# Each allowed import edge (importer, imported) between modules of the
# package, with the reason it exists.
_ALLOWED_EDGES = {
    ("__init__", "indicial"): "the package re-exports the catalog API",
    ("__init__", "spectra"): "the package re-exports the geometries",
    ("cli", "indicial"): "the commands print the catalogs and the predicates",
    ("cli", "spectra"): "the commands build the geometries from their flags",
    ("cli", "verify"): "the verify command runs the suites",
    ("curvature", "fields"): "the battery's comparand linearized_weyl, which the engine may not reach, "
    "the index tables and the annotation types",
    ("curvature", "forks"): "the battery's cases run on every CPU",
    ("curvature", "indicial"): "CurvatureDefectError is a VerificationError, exit 1",
    ("curvature", "pairwise"): "the battery's norms keep the bits of np.sum",
    ("fields", "forks"): "the identity suite's passes run on every CPU",
    ("fields", "pairwise"): "the identity suite's norms and pairings keep the bits of np.sum",
    ("indicial", "spectra"): "a catalog holds the roots of a geometry's spectrum",
    ("oracle", "fields"): "the flat mode pencil applies the flat kernels at one lattice vector; "
    "the identity suite and the FD battery witness the kernels",
    ("verify", "curvature"): "verify linearization runs the FD battery",
    ("verify", "fields"): "verify identities judges the identity suite; the battery's variations are random fields",
    ("verify", "indicial"): "verify oracle checks indicial's closed forms",
    ("verify", "oracle"): "verify oracle compares the oracle's roots with the closed forms",
}

# Every module of the package.
_MODULES = tuple(sorted(path.stem for path in PACKAGE.glob("*.py")))

# Edges that no reason can allow.
_FORBIDDEN_EDGES = {
    ("oracle", "indicial"): "the oracle's companion and pencil roots witness indicial's closed forms",
    **{
        ("pairwise", module): "pairwise fixes the bits that the verify suites print, and checks nothing"
        for module in _MODULES
        if module not in ("pairwise", "verify")
    },
    **{
        (module, "verify"): "verify holds the rules that judge the witnesses and the closed forms, "
        "which may not read them"
        for module in _MODULES
        if module not in ("cli", "verify")
    },
}

# The curvature functions that compare the engine with its comparand; every
# other function and class of curvature.py is the engine.
_CURVATURE_HARNESS = {
    "fd_linearization_errors": "compares the engine's central differences with linearized_weyl",
    "fd_battery_errors": "runs fd_linearization_errors on each case",
}

# The comparand of the FD battery and the kernels it applies.
_WEYL = re.compile(r"linearized_weyl$|_apply_cylinder$|\w*_coefficients$")

# Each witness: its file, the functions it starts from (None: every
# function and class of curvature.py but the harness), the names it may not
# reach (a pattern), and what it witnesses.
_WITNESSES = [
    ("src/indicyl/curvature.py", None, _WEYL, "the FD battery witnesses fields.linearized_weyl"),
    (
        "tests/test_curvature.py",
        ["complex_step_asd"],
        _WEYL,
        "the complex step witnesses fields.linearized_weyl",
    ),
    (
        "tests/test_spectra.py",
        ["character_sum_invariant_dims"],
        re.compile(r"_invariant_dim$|_floor_sum$"),
        "Ikeda's character formula witnesses the lens multiplicities of spectra._invariant_dim",
    ),
    (
        "tests/test_spectra.py",
        ["triple_loop_torus_spectrum", "box_torus_spectrum"],
        re.compile(r"torus_spectrum$"),
        "two independent enumerations witness spectra.torus_spectrum",
    ),
]


def _import_edges(sources: dict[str, str]) -> set[tuple[str, str]]:
    """(importer, imported) for every import of a package module, at any
    depth of the importer, relative or absolute."""
    edges = set()
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module] if node.module else [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("indicyl"):
                targets = node.module.split(".")[1:2] or [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                targets = [alias.name.split(".")[1] for alias in node.names if alias.name.startswith("indicyl.")]
            else:
                continue
            edges.update((name, target.split(".")[0]) for target in targets)
    return edges


def _references(node) -> set[str]:
    """The names and attributes a definition references."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def _reached(source: str, starts) -> dict[str, set[str]]:
    """Each module-level function or class reached from starts by name
    within the module (None: all of them), with the names it references,
    an imported alias counted as the name it stands for."""
    tree = ast.parse(source)
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.asname
    }
    defined = {
        node.name: {aliases.get(name, name) for name in _references(node)}
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    todo = list(defined if starts is None else starts)
    reached = {}
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached[name] = defined[name]
        todo += [ref for ref in defined[name] if ref in defined]
    return reached


def _forbidden_reaches(source: str, starts, forbidden) -> list[str]:
    return sorted(
        f"{name} -> {ref}" for name, refs in _reached(source, starts).items() for ref in refs if forbidden.match(ref)
    )


def _sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_import_edges_are_the_listed_ones():
    assert not set(_ALLOWED_EDGES) & set(_FORBIDDEN_EDGES)
    edges = _import_edges(_sources())
    assert sorted(edges & set(_FORBIDDEN_EDGES)) == []
    assert sorted(edges - set(_ALLOWED_EDGES)) == []  # a new edge: list it with its reason
    assert sorted(set(_ALLOWED_EDGES) - edges) == []  # an edge that went: delete its entry


def test_witnesses_reach_no_forbidden_name():
    for file, starts, forbidden, what in _WITNESSES:
        source = (ROOT / file).read_text()
        if starts is None:
            starts = [name for name in _reached(source, None) if name not in _CURVATURE_HARNESS]
            assert set(_CURVATURE_HARNESS) <= set(_reached(source, None)), "a harness entry names no function"
        assert _forbidden_reaches(source, starts, forbidden) == [], what


def test_the_scan_sees_an_edge_and_a_reach():
    assert _import_edges(
        {
            "oracle": "from . import fields\ndef f():\n    from .indicial import x\n",
            "pairwise": "import indicyl.spectra\nfrom indicyl import forks\n",
        }
    ) == {("oracle", "fields"), ("oracle", "indicial"), ("pairwise", "spectra"), ("pairwise", "forks")}
    source = (
        "from .fields import linearized_weyl as lw\n"
        "def engine():\n    return helper()\n"
        "def helper():\n    return lw(1)\n"
        "class Grid:\n    def ok(self):\n        return fields.weyl_coefficients\n"
        "def harness():\n    return linearized_weyl\n"
    )
    assert _forbidden_reaches(source, ["engine"], _WEYL) == ["helper -> linearized_weyl"]
    assert _forbidden_reaches(source, ["Grid"], _WEYL) == ["Grid -> weyl_coefficients"]
    assert _forbidden_reaches(source, None, _WEYL) == [
        "Grid -> weyl_coefficients",
        "harness -> linearized_weyl",
        "helper -> linearized_weyl",
    ]
