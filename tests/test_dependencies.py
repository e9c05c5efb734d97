"""The package's third-party imports are exactly its declared dependencies."""

import ast
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sl3building

PACKAGE = Path(sl3building.__file__).resolve().parent
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"
TESTS = Path(__file__).resolve().parent

# distribution name -> top-level module, where the two differ
IMPORT_NAMES = {"PyYAML": "yaml"}


def test_importing_every_module_loads_no_numpy():
    modules = [f"sl3building.{m.name}"
               for m in pkgutil.iter_modules([str(PACKAGE)])]
    code = "".join(f"import {m}\n" for m in modules) + \
        "import sys\nprint('numpy' in sys.modules)\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_third_party_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    expected = set()
    for spec in declared:
        name = re.match(r"[A-Za-z0-9_.-]+", spec).group(0)
        expected.add(IMPORT_NAMES.get(name, name))
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) == expected


def test_padic_linalg_imports_nothing_from_fractions():
    # the normal forms, adapted bases, vertices, flags and triples are
    # integer arithmetic throughout
    for name in ("padic_linalg", "building", "boundary", "triples"):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert all(a.name.split(".")[0] != "fractions"
                           for a in node.names), name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "fractions", name


def _unused_imports(path):
    """Names a module imports and never reads, by an ``ast`` scan."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used


def test_no_unused_imports():
    # the package's __init__ imports names only to re-export them
    demos = list((TESTS.parent / "demos").glob("*.py"))
    assert demos
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += [*TESTS.glob("*.py"), *demos]
    unused = {f"{p.parent.name}/{p.name}": sorted(_unused_imports(p))
              for p in paths}
    assert {k: v for k, v in unused.items() if v} == {}


def test_every_private_function_has_a_caller_in_the_package():
    # A module-level ``def _name`` counts as called when its name is read,
    # as a name, an attribute or an import, anywhere in the package outside
    # its own definition; a helper left behind by a refactor fails here.
    defined, used = set(), set()
    for path in PACKAGE.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            own = None
            if isinstance(top, ast.FunctionDef):
                own = top.name
                if own.startswith("_") and not own.startswith("__"):
                    defined.add(own)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names = {node.id}
                elif isinstance(node, ast.Attribute):
                    names = {node.attr}
                elif isinstance(node, ast.ImportFrom):
                    names = {a.name for a in node.names}
                else:
                    continue
                used |= names - {own}
    assert defined
    assert sorted(defined - used) == []


# Public functions and methods read only by the tests, each kept for a reason.
KEPT_FOR_THE_TESTS = {
    "stationary_estimate": "criterion 9's walk-limit masses at two base points",
    "estimates_agree": "criterion 9's two-sample test of those masses",
    "generic_triple_in_basis_set": "criterion 6's generic triple in a basis set",
    "distance_sum": "the exact value the barycenter minimizes, its reference",
    "distance_sum_squares": "the squared distances of that reference value",
    "fixed_flag_fraction": "the topological-freeness experiment",
    "schubert_avoidance_report": "the Schubert cells a limit-set sample meets, "
                                 "the start of certified Schubert coverage",
    "GroupElement.power": "group powers with their words, for the oracles",
    "LatticeVertex.vertex_type": "a vertex's type, which the samplers' tests "
                                 "cover all three of",
    "SqrtSum.enclosure": "a span target of bench/spans.py, and the "
                         "enclosures of the comparison oracle",
}


def test_every_public_function_has_a_caller_outside_the_tests():
    # A public module-level function, or a non-dunder method, of the
    # package counts as called when its name is read, as a name, an
    # attribute or an import, outside its own definition in the package
    # (but its __init__), the demos or the benchmark; the tests alone do
    # not keep a name alive unless KEPT_FOR_THE_TESTS lists it.
    root = TESTS.parent
    package = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    readers = package + [*(root / "demos").glob("*.py"),
                         *(root / "bench").glob("*.py")]

    def reads(node):
        out = []
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out.append(n.id)
            elif isinstance(n, ast.Attribute):
                out.append(n.attr)
            elif isinstance(n, ast.ImportFrom):
                out += [a.name for a in n.names]
        return out

    defined = {}  # qualified name -> its definition node
    total = {}  # name -> times read anywhere in the readers
    for path in readers:
        tree = ast.parse(path.read_text())
        for name in reads(tree):
            total[name] = total.get(name, 0) + 1
        if path not in package:
            continue
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and not top.name.startswith("_"):
                defined[top.name] = top
            elif isinstance(top, ast.ClassDef):
                for item in top.body:
                    if isinstance(item, ast.FunctionDef) and \
                            not item.name.startswith("__"):
                        defined[f"{top.name}.{item.name}"] = item
    unread = set()
    for qualname, node in defined.items():
        name = node.name
        if total.get(name, 0) == reads(node).count(name):
            unread.add(qualname)
    assert len(defined) > 100
    assert sorted(set(KEPT_FOR_THE_TESTS) - set(defined)) == []
    assert sorted(unread - set(KEPT_FOR_THE_TESTS)) == []
