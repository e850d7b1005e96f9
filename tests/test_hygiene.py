"""Every imported name is read in its module, every exported one exists,
and the package has one frame abstraction.

No linter runs on this repository, so this walks the syntax tree of each
module in ``src/acmsolitons``, ``tests`` and ``scripts`` instead.  A name
listed in the module's ``__all__`` counts as read; ``from __future__``
imports are exempt.  Each name in the ``__all__`` of a package module must
be defined or imported at its top level: ``perfbench/tracing.py`` reads
every one with ``getattr``.  No function of the package takes the
deformation parameter ``a`` next to a point: a point that binds it
(``geometry.with_a``, the one exception) carries it.  No function of the
package takes a parameter that its body never reads.  And the package has
one evaluation path: outside ``expr.py`` only ``Field.derivative`` calls
``diff``, and only ``Field.values`` and the metric's unmemoised
``ChartManifold.metric_second_partials`` call ``_evaluate_all``.  It has
one frame too, and only the suites bind it: outside ``suites.py`` nothing
calls ``at`` and only ``DeformedStructure.at`` calls ``with_a``, so every
closed form takes the bound batch it is given.  Nothing in the package
calls ``np.linalg``: the metric's inverse and its positive definiteness
come from the one elimination, ``geometry._gauss_jordan``.  It has one
contraction call: only ``tensor.contract`` calls ``einsum``, so it alone
knows the component-major layout, and every ``contract`` call passes a
literal spec of component letters, commas and one ``->``.  And it has
one memo rule: only ``geometry.on_batch`` and ``with_a`` read a batch's
``memo``, and over full runs every entry on the unbound batch reads no a
while every entry on a batch that binds a has an argument that reads it,
or a function declared to read it (``on_bound_batch``).
"""

import ast
import re
from pathlib import Path

import pytest

from acmsolitons.config import builtin_config
from acmsolitons.geometry import Samples
from acmsolitons.suites import run_suites

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in ("src/acmsolitons", "tests", "scripts")
    for path in (ROOT / folder).rglob("*.py")
)
PACKAGE = [p for p in MODULES if p.parent == ROOT / "src" / "acmsolitons"]


def _unused_imports(tree: ast.Module) -> list:
    """(line, name) of each imported name that ``tree`` never reads."""
    imported = []
    exported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name)
                         for alias in node.names if alias.name != "*"]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                exported |= {
                    c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                }
    return [(line, name) for line, name in imported
            if name not in read and name not in exported]


def _exports(tree: ast.Module) -> list:
    """The names in the ``__all__`` of ``tree``."""
    return [
        c.value
        for node in tree.body if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for c in ast.walk(node.value)
        if isinstance(c, ast.Constant) and isinstance(c.value, str)
    ]


def _unresolved_exports(tree: ast.Module) -> list:
    """Each name in ``__all__`` that the top level of ``tree`` neither
    defines nor imports."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0]
                      for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return [name for name in _exports(tree) if name not in bound]


def _a_beside_a_point(tree: ast.Module) -> list:
    """(line, name) of each function but ``with_a`` with a parameter named
    ``a`` next to one named ``point`` or ``points``."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name != "with_a"):
            args = node.args
            names = {arg.arg for arg in
                     args.posonlyargs + args.args + args.kwonlyargs}
            if "a" in names and names & {"point", "points"}:
                found.append((node.lineno, node.name))
    return found


def _unread_parameters(tree: ast.Module) -> list:
    """(line, function, parameter) of each parameter, but ``self`` and
    ``cls``, that its function's body never reads; lambdas are exempt."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [arg.arg for arg in
                      args.posonlyargs + args.args + args.kwonlyargs
                      + [args.vararg, args.kwarg] if arg is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [(node.lineno, node.name, name) for name in params
                      if name not in read and name not in ("self", "cls")]
    return found


def _calls_outside(tree: ast.Module, callee: str, allowed) -> list:
    """(line, scope) of each call of ``callee``, by name or as an
    attribute, made outside the functions named in ``allowed``; a dotted
    ``callee`` such as ``np.linalg`` is a module, and every call made
    through it counts.  A scope is the dotted path of the classes and
    functions around the call, such as ``Field.derivative``, and
    ``<module>`` at the top level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            if isinstance(child, ast.Call):
                path = []
                func = child.func
                while isinstance(func, ast.Attribute):
                    path.append(func.attr)
                    func = func.value
                if isinstance(func, ast.Name):
                    path.append(func.id)
                dotted = ".".join(reversed(path))
                hit = path[:1] == [callee] or (
                    "." in callee and dotted.startswith(callee + "."))
                where = ".".join(scope) or "<module>"
                if hit and where not in allowed:
                    found.append((child.lineno, where))
            visit(child, inner)

    visit(tree, ())
    return found


def _bad_specs(tree: ast.Module) -> list:
    """(line, spec) of each ``contract`` call, by name or as an attribute,
    whose spec is not a literal string of letters, commas and one ``->``
    (spec None when it is not a literal)."""
    found = []
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        name = getattr(func, "attr", getattr(func, "id", None))
        if not (isinstance(node, ast.Call) and name == "contract"):
            continue
        first = node.args[0] if node.args else None
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
            found.append((node.lineno, None))
        elif not re.fullmatch(r"[A-Za-z,]+->[A-Za-z]*", first.value):
            found.append((node.lineno, first.value))
    return found


def _memo_reads(tree: ast.Module) -> list:
    """(line, scope) of each read of an attribute ``memo``, as ``x.memo``
    or ``getattr(x, "memo", ...)``; a scope is the dotted path of the
    classes and functions around the read, ``<module>`` at the top level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            attribute = (isinstance(child, ast.Attribute)
                         and child.attr == "memo"
                         and isinstance(child.ctx, ast.Load))
            by_name = (isinstance(child, ast.Call)
                       and isinstance(child.func, ast.Name)
                       and child.func.id == "getattr"
                       and len(child.args) > 1
                       and isinstance(child.args[1], ast.Constant)
                       and child.args[1].value == "memo")
            if attribute or by_name:
                found.append((child.lineno, ".".join(scope) or "<module>"))
            visit(child, inner)

    visit(tree, ())
    return found


# the functions that may read a batch's memo, and what they nest
MEMO_READERS = ("on_batch", "with_a")


# (callee, the functions that may call it, the modules exempt)
ONE_PATH = (
    ("diff", {"Field.derivative"}, {"expr.py"}),
    ("_evaluate_all",
     {"Field.values", "ChartManifold.metric_second_partials"}, set()),
    ("with_a", {"DeformedStructure.at"}, {"suites.py"}),
    ("at", set(), {"suites.py"}),
    ("np.linalg", set(), set()),
    ("einsum", {"contract"}, set()),
)


def test_walk_finds_the_modules():
    names = {p.relative_to(ROOT).as_posix() for p in MODULES}
    assert {"src/acmsolitons/suites.py", "tests/test_hygiene.py",
            "scripts/determinism_check.py"} <= names


def test_finds_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "os.getcwd()\n"
    )
    assert _unused_imports(tree) == [(2, "system"), (3, "dumps")]


@pytest.mark.parametrize(
    "path", MODULES, ids=[p.relative_to(ROOT).as_posix() for p in MODULES]
)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_finds_an_unresolved_export():
    tree = ast.parse(
        "from json import dumps as write\n"
        "import os.path\n"
        "LIMIT: int = 1\n"
        "a, b = 1, 2\n"
        "class K: pass\n"
        "def f(): pass\n"
        "__all__ = ['write', 'os', 'LIMIT', 'a', 'K', 'f', 'gone', 'dumps']\n"
    )
    assert _unresolved_exports(tree) == ["gone", "dumps"]


@pytest.mark.parametrize(
    "path", PACKAGE, ids=[p.relative_to(ROOT).as_posix() for p in PACKAGE]
)
def test_every_export_resolves(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unresolved_exports(tree) == []


def test_finds_an_a_beside_a_point():
    tree = ast.parse(
        "def with_a(point, a): pass\n"
        "def f(kind, point, a=2.0): pass\n"
        "def g(points, *, a): pass\n"
        "def h(point, scale): pass\n"
        "class K:\n"
        "    def m(self, a, points): pass\n"
        "def n(a): pass\n"
    )
    assert _a_beside_a_point(tree) == [(2, "f"), (3, "g"), (6, "m")]


@pytest.mark.parametrize(
    "path", PACKAGE, ids=[p.relative_to(ROOT).as_posix() for p in PACKAGE]
)
def test_no_a_beside_a_point(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _a_beside_a_point(tree) == []


def test_finds_an_unread_parameter():
    tree = ast.parse(
        "def f(x, y, *rest, scale=1.0, **extra):\n"
        "    return x * scale\n"
        "class K:\n"
        "    def m(self, point):\n"
        "        return lambda q: point\n"
        "    @classmethod\n"
        "    def c(cls, coords, point):\n"
        "        def inner(p):\n"
        "            return p\n"
        "        return inner(point)\n"
        "g = lambda unused: 0\n"
    )
    assert _unread_parameters(tree) == [
        (1, "f", "y"), (1, "f", "rest"), (1, "f", "extra"), (7, "c", "coords"),
    ]


@pytest.mark.parametrize(
    "path", PACKAGE, ids=[p.relative_to(ROOT).as_posix() for p in PACKAGE]
)
def test_no_unread_parameter(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unread_parameters(tree) == []


def test_finds_a_call_outside_its_functions():
    tree = ast.parse(
        "from expr import diff\n"
        "class Field:\n"
        "    def derivative(self, trees):\n"
        "        return [diff(e, 'x') for e in trees]\n"
        "    def partial(self, e):\n"
        "        return expr.diff(e, 'x')\n"
        "def second(e):\n"
        "    inner = lambda t: diff(t, 'y')\n"
        "    return inner(e)\n"
        "diff(e, 'z')\n"
    )
    assert _calls_outside(tree, "diff", {"Field.derivative"}) == [
        (6, "Field.partial"), (8, "second"), (10, "<module>"),
    ]


def test_finds_a_frame_bound_below_the_suites():
    tree = ast.parse(
        "class DeformedStructure:\n"
        "    def at(self, point):\n"
        "        return with_a(point, self.a)\n"
        "    def ricci_closed(self, point):\n"
        "        return ricci_bar(self.base, self.at(point))\n"
        "def battery(ds, point):\n"
        "    pa = ds.at(point)\n"
        "    return pa, geometry.with_a(point, 1.0)\n"
    )
    assert _calls_outside(tree, "with_a", {"DeformedStructure.at"}) == [
        (8, "battery"),
    ]
    assert _calls_outside(tree, "at", set()) == [
        (5, "DeformedStructure.ricci_closed"), (7, "battery"),
    ]


def test_finds_a_linear_algebra_call():
    tree = ast.parse(
        "import numpy as np\n"
        "class ChartManifold:\n"
        "    def _metric_data(self, g):\n"
        "        try:\n"
        "            np.linalg.cholesky(g)\n"
        "        except np.linalg.LinAlgError:\n"
        "            pass\n"
        "        return np.linalg.inv(g)\n"
        "def _gauss_jordan(g):\n"
        "    return np.matmul(g, g), g.linalg.inv(g), np.linalg\n"
        "np.linalg.eigh(g)\n"
    )
    assert _calls_outside(tree, "np.linalg", set()) == [
        (5, "ChartManifold._metric_data"), (8, "ChartManifold._metric_data"),
        (11, "<module>"),
    ]


@pytest.mark.parametrize(
    "path", PACKAGE, ids=[p.relative_to(ROOT).as_posix() for p in PACKAGE]
)
def test_one_differentiation_and_evaluation_path(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for callee, allowed, exempt in ONE_PATH:
        if path.name not in exempt:
            assert _calls_outside(tree, callee, allowed) == [], callee


def test_finds_an_einsum_outside_contract():
    tree = ast.parse(
        "import numpy as np\n"
        "def contract(spec, *operands):\n"
        "    return np.einsum(spec, *operands)\n"
        "def trace(t):\n"
        "    return np.einsum('ii...->...', t)\n"
    )
    assert _calls_outside(tree, "einsum", {"contract"}) == [(5, "trace")]


def test_finds_a_bad_spec():
    tree = ast.parse(
        "def kernels(a, b, spec):\n"
        "    contract('ik,kj->ij', a, b)\n"
        "    tensor.contract('ii->', a)\n"
        "    contract('ij...,j...->i...', a, b)\n"
        "    contract('ij,j', a, b)\n"
        "    contract('i,i->->', a, b)\n"
        "    contract(spec, a)\n"
        "    contract(f'i{spec}->', a)\n"
        "    return contract()\n"
    )
    assert _bad_specs(tree) == [
        (4, "ij...,j...->i..."), (5, "ij,j"), (6, "i,i->->"), (7, None),
        (8, None), (9, None),
    ]


@pytest.mark.parametrize(
    "path", PACKAGE, ids=[p.relative_to(ROOT).as_posix() for p in PACKAGE]
)
def test_contract_specs_are_literal(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _bad_specs(tree) == []


def test_finds_a_memo_read():
    tree = ast.parse(
        "class Samples(dict):\n"
        "    def __init__(self):\n"
        "        self.memo = {}\n"
        "def on_batch(fn):\n"
        "    def batched(point):\n"
        "        return getattr(point, 'memo', None)\n"
        "    return batched\n"
        "def hessian(f, point):\n"
        "    return point.memo.get(f), getattr(point, 'memo')\n"
        "cached = batch.memo\n"
    )
    assert _memo_reads(tree) == [
        (6, "on_batch.batched"), (9, "hessian"), (9, "hessian"),
        (10, "<module>"),
    ]


@pytest.mark.parametrize(
    "path", PACKAGE, ids=[p.relative_to(ROOT).as_posix() for p in PACKAGE]
)
def test_one_memo_rule(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert [(line, scope) for line, scope in _memo_reads(tree)
            if scope.split(".")[0] not in MEMO_READERS] == []


def _reads_a(key) -> bool:
    """Whether a memo key names a function declared to read a, or holds
    an argument that reads it."""
    return any(getattr(x, "reads_a", False) for x in key)


@pytest.mark.parametrize("name", ["kenmotsu3", "kenmotsu3-sph-soliton"])
def test_every_entry_in_its_frame(sampled_batches, name):
    config = builtin_config(name)
    config.points = 16
    run_suites(config)
    [points] = sampled_batches
    bound = [b for b in points.memo.values() if isinstance(b, Samples)]
    # the base frame and the grid: remark23 reads f on the base frame and
    # takes Lap_bar at its probe a from that data, binding nothing more
    assert len(bound) == 2
    assert [key for key in points.memo if _reads_a(key)] == []
    for batch in bound:
        assert batch.memo
        assert [key for key in batch.memo if not _reads_a(key)] == []
