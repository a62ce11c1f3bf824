"""The package's public surface: each name listed once, in its own module.

Every module the package re-exports declares ``__all__``; the package's
``__all__`` is those six lists, and a star import of a module binds
exactly its ``__all__``.  Every module imports only the standard library,
and at its top.  A record is one class, and one builder sets a matrix's
fields.
"""

import ast
import importlib
import inspect
import pathlib
import sys
import types

import pytest

import syncalg

SOURCES = sorted(pathlib.Path(syncalg.__file__).parent.glob("*.py"))

MODULES = ("algebra", "closure", "errors", "format", "matrix", "oracle")

PUBLIC_NAMES = {
    "ALL_RELS", "ATOMS", "CANONICAL_SYMBOLS", "DEFAULT_ASSIGNMENT_CEILING",
    "ENUMERATION_MAX_EVENTS", "LISTING_MAX_EVENTS", "Bound", "ClosureReport",
    "Constraint", "GuardError", "ImpliedChange", "InterchangeError", "NeqMode",
    "PairSet", "ParseError", "Rel", "RelGrid", "SyncAlgebraError", "SyncMatrix",
    "SyncSpec", "ValidationError", "atom_matrices", "atom_of", "boundedness",
    "close", "default_labels", "enumerate_matrices", "equivalent",
    "interchange_to_matrix", "matrix_count", "matrix_to_interchange",
    "matrix_to_spec", "minimal_network", "pairs_of", "parse_spec",
    "report_to_interchange", "satisfies", "spec_to_matrix", "spec_to_text",
    "to_dot",
}


def module(name):
    return importlib.import_module(f"syncalg.{name}")


def test_package_lists_each_public_name_once():
    assert len(syncalg.__all__) == len(set(syncalg.__all__))
    assert set(syncalg.__all__) == PUBLIC_NAMES


def test_package_surface_is_the_six_module_lists():
    listed = [name for m in MODULES for name in module(m).__all__]
    assert sorted(listed) == sorted(syncalg.__all__)
    for m in MODULES:
        for name in module(m).__all__:
            assert getattr(syncalg, name) is getattr(module(m), name)


@pytest.mark.parametrize("name", MODULES)
def test_module_lists_only_what_it_defines(name):
    for public in module(name).__all__:
        obj = getattr(module(name), public)
        if type(obj) is not types.GenericAlias and (inspect.isclass(obj) or inspect.isfunction(obj)):
            assert obj.__module__ == f"syncalg.{name}", public


@pytest.mark.parametrize("name", MODULES)
def test_star_import_binds_exactly_the_module_list(name):
    namespace = {}
    exec(f"from syncalg.{name} import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == set(module(name).__all__)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_module_reads_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(imported - read) == []


def test_only_the_json_writers_import_inside_a_function():
    # json is the one deferred import: loading it costs several times what
    # the oracle does, and only interchange output needs it.
    deferred = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Import):
                        deferred.update((path.stem, alias.name) for alias in inner.names)
                    elif isinstance(inner, ast.ImportFrom):
                        deferred.add((path.stem, "." * inner.level + (inner.module or "")))
    assert deferred == {("format", "json")}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_module_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    absolute = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    absolute += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0]
    assert sorted({name.split(".")[0] for name in absolute} - sys.stdlib_module_names) == []


def test_package_reads_every_private_name_it_defines():
    # Module-level names and class methods with one leading underscore,
    # each of which some module must read as a name, an attribute or an import.
    defined, read = set(), set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            for member in [node, *node.body] if isinstance(node, ast.ClassDef) else [node]:
                if isinstance(member, (ast.FunctionDef, ast.ClassDef)):
                    names = [member.name]
                elif isinstance(member, (ast.Assign, ast.AnnAssign)):
                    targets = member.targets if isinstance(member, ast.Assign) else [member.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    names = []
                defined |= {(path.stem, name) for name in names if name[:1] == "_" and name[:2] != "__"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    assert sorted((stem, name) for stem, name in defined if name not in read) == []


def test_no_record_subclasses_its_named_tuple_for_a_docstring():
    # A named tuple already has empty __slots__; its docstring is set on it.
    shells = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.ClassDef) and len(node.bases) == 1 and isinstance(node.bases[0], ast.Call)):
                continue
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            if ast.unparse(node.bases[0].func) == "namedtuple" and all(
                ast.unparse(stmt) == "__slots__ = ()" for stmt in body
            ):
                shells.append((path.stem, node.name))
    assert shells == []


def _field_setters(node, scope):
    """The scopes that set ``labels``, ``_codes`` or an unnamed field through ``object.__setattr__``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}"
        else:
            inner = scope
        if isinstance(child, ast.Call) and ast.unparse(child.func) == "object.__setattr__":
            name = child.args[1] if len(child.args) > 1 else None
            if not (isinstance(name, ast.Constant) and name.value not in ("labels", "_codes")):
                yield inner
        yield from _field_setters(child, inner)


def test_only_the_code_builder_sets_a_matrix_labels_and_codes():
    setters = set()
    for path in SOURCES:
        setters.update(_field_setters(ast.parse(path.read_text(encoding="utf-8")), path.stem))
    assert setters == {"matrix.SyncMatrix._from_codes"}
