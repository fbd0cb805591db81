import ast
import os
import subprocess
import sys
from pathlib import Path

import radokit
import radokit.cli
import radokit.systems


def test_public_names():
    assert radokit.__all__ == sorted(radokit.__all__)
    for name in radokit.__all__:
        getattr(radokit, name)
    for gone in ("rref", "rank", "build_truncated_system", "build_stacked_matrix",
                 "format_matrix", "SolutionAssignment", "in_span",
                 "weak_first_entries_condition", "schedule_value"):
        assert gone not in radokit.__all__ and not hasattr(radokit, gone)
    assert not hasattr(radokit.systems, "schedule_value")
    # Fraction forms of the _parts kernels, and the one-name-at-a-time
    # column names, that only tests called
    for owner, gone in ((radokit.systems, "d_combination"),
                        (radokit.systems, "truncated_residuals"),
                        (radokit.SystemSpec, "iter_variable_names")):
        assert gone not in radokit.__all__ and not hasattr(owner, gone), gone
    assert not hasattr(radokit.systems, "_SCHEDULE_KINDS")
    # a built-in schedule is CoefficientSchedule(kind, q), as parse_schedule builds it
    for gone in ("qpow", "allprimes", "qpowpair", "allprimespair"):
        assert not hasattr(radokit.systems.CoefficientSchedule, gone)
    # constructors that only forwarded to __init__, the depth rule that
    # _schedule_row states, and the CLI's copy of the matrix-file reader
    for owner, gone in ((radokit.PrimeSet, "empty"), (radokit.PrimeSet, "all_primes"),
                        (radokit.Colouring, "log2_parity"),
                        (radokit.CoefficientSchedule, "max_depth"),
                        (radokit.cli, "_read_matrix")):
        assert not hasattr(owner, gone), gone


def test_systems_does_not_import_search():
    # the builders and witnesses stand apart from the colouring search
    tree = ast.parse(Path(radokit.systems.__file__).read_text())
    modules = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules += [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for a in node.names]
    assert modules and not any(m and m.split(".")[-1] == "search" for m in modules)


def test_import_loads_no_dataclasses_typing_or_pathlib():
    # each CLI call pays the import: without site, which may preload them,
    # none of these heavy modules is loaded by radokit itself
    src = str(Path(radokit.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, radokit, radokit.cli; print(sorted(m for m in "
         "('dataclasses', 'inspect', 'typing', 'pathlib') if m in sys.modules))"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_every_private_name_has_a_caller():
    # a module-level name starting with _ (not a dunder) is read somewhere
    # in the package outside its own definition: a private path whose
    # callers are gone is deleted with them
    package = Path(radokit.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in package.glob("*.py")}
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined.append((module, name, node))
    assert len(defined) > 20
    unread = []
    for module, name, own in defined:
        inside = {id(n) for n in ast.walk(own)}
        if not any(isinstance(n, ast.Name) and n.id == name
                   and isinstance(n.ctx, ast.Load) and id(n) not in inside
                   for tree in trees.values() for n in ast.walk(tree)):
            unread.append(f"{module}: {name}")
    assert unread == []


def test_every_public_name_has_a_caller():
    # a module-level public function is read somewhere in the package
    # outside its own definition, or exported in radokit.__all__, and a
    # public method is read as an attribute somewhere in the package: a
    # public name that only tests read is deleted with its tests
    package = Path(radokit.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in package.glob("*.py")}
    loads = [(n, n.id if isinstance(n, ast.Name) else n.attr)
             for tree in trees.values() for n in ast.walk(tree)
             if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)]
    attributes = {name for n, name in loads if isinstance(n, ast.Attribute)}
    checked, unread = 0, []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                checked += 1
                inside = {id(n) for n in ast.walk(node)}
                if node.name not in radokit.__all__ and not any(
                        name == node.name and id(n) not in inside for n, name in loads):
                    unread.append(f"{module}: {node.name}")
            elif isinstance(node, ast.ClassDef):
                for method in node.body:
                    if (isinstance(method, ast.FunctionDef)
                            and not method.name.startswith("_")):
                        checked += 1
                        if method.name not in attributes:
                            unread.append(f"{module}: {node.name}.{method.name}")
    assert checked > 40
    assert unread == []
