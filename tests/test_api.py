import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_constant(name):
    """A literal module-level constant of perfbench/tracer.py, read from its
    source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER}")


@pytest.mark.parametrize("module", ["spectra", "indicial", "oracle", "fields", "curvature"])
def test_public_names_resolve(module):
    mod = importlib.import_module(f"indicyl.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_tracer_targets_exist():
    # A traced benchmark run wraps these functions and reads these arrays
    # of every CurvatureGrid; the run lists a missing one in its
    # missing_targets, and the benchmark's self-test fails.
    targets = tracer_constant("TARGETS")
    assert targets
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in targets
        if not callable(getattr(importlib.import_module(f"indicyl.{module}"), attr, None))
    ]
    assert missing == []
    from indicyl.curvature import CurvatureGrid

    arrays = tracer_constant("_CURVATURE_ARRAYS")
    assert arrays
    assert [a for a in arrays if not hasattr(CurvatureGrid, a)] == []


def test_perfbench_selftest_passes():
    # The benchmark's own self-test: its output checks catch corrupted
    # output, and its traced run still sees one catalog, five lens calls
    # and seven spans.
    root = TRACER.parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "selftest.py")],
        cwd=root, capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never references and does not export."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used | exported]


def test_unused_import_finder_sees_a_leftover():
    assert _unused_imports("from dataclasses import dataclass, replace\n@dataclass\nclass A: pass\n") == [
        "replace (line 1)"
    ]
    assert _unused_imports("from __future__ import annotations\nimport os.path\nos.path.join\n") == []


def test_no_unused_imports():
    package = TRACER.parent.parent / "src" / "indicyl"
    unused = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if (names := _unused_imports(path.read_text()))
    }
    assert unused == {}


def _unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level _name functions, classes and constants of the given
    modules (file name -> source) that no module references, by name or as
    an attribute, outside their own definition.  Dunder names, such as the
    PEP 562 __getattr__ and __dir__ hooks, are not private names."""
    defined, used = [], set()
    for file, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(file, name, node.lineno) for name in names if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return [f"{file}: {name} (line {line})" for file, name, line in defined if name not in used]


def test_unreferenced_private_name_finder_sees_a_leftover():
    sources = {
        "a.py": "def _used(): pass\ndef _dead(): pass\n_X, _Y = 1, 2\nclass _K: pass\n"
        "def __getattr__(name): return _used\n",
        "b.py": "from .a import _K\nimport a\na._Y\n",
    }
    assert _unreferenced_private_names(sources) == ["a.py: _dead (line 2)", "a.py: _X (line 3)"]


def test_no_unreferenced_private_names():
    package = TRACER.parent.parent / "src" / "indicyl"
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert _unreferenced_private_names(sources) == []


def test_failing_property_reports_its_falsifying_example(tmp_path):
    # Under the suite's own settings (filterwarnings = ["error"] and
    # conftest.py), a failing hypothesis property must print its
    # falsifying example, not end the run with INTERNALERROR.
    root = TRACER.parent.parent
    (tmp_path / "conftest.py").write_text((root / "tests" / "conftest.py").read_text())
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_below_five(x):\n"
        "    assert x < 5\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(root / "pyproject.toml"),
         "--rootdir", str(tmp_path), str(tmp_path / "test_property.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    # hypothesis wrote the example's patch into its temporary home, not here.
    assert sorted(set(os.listdir(tmp_path)) - {"__pycache__"}) == ["conftest.py", "test_property.py"]


# A row of README's tolerance table: | `NAME` | `module` | `value` | ...
_TOLERANCE_ROW = re.compile(r"^\| `(\w+)` \| `(\w+)` \| `([^`]+)` \|", re.MULTILINE)


def test_readme_tolerance_table_matches_the_sources():
    root = TRACER.parent.parent
    rows = _TOLERANCE_ROW.findall((root / "README.md").read_text())
    assert len(rows) == len({name for name, _, _ in rows})
    stale = [
        (name, module, value)
        for name, module, value in rows
        if getattr(importlib.import_module(f"indicyl.{module}"), name, None) != float(value)
    ]
    assert stale == []
    tolerances = {
        name
        for path in sorted((root / "src" / "indicyl").glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if (name := getattr(target, "id", "")).endswith("_TOL")
    }
    assert tolerances and sorted(tolerances - {name for name, _, _ in rows}) == []
