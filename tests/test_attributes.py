"""No plexsim module keeps state or code that nothing reads.

An attribute assigned on ``self``, and a field declared in a class body, must
be read, as ``anything.name``, somewhere in the package. ``self.count += 1``
alone is not a read: a counter that only counts is a second home for a fact
kept elsewhere. Likewise every function, method, property and class must be
referenced by name somewhere in the package, and every parameter must be read
by the body it belongs to.

Every rule matches by name only, so a name that something else reads hides
an unread one: ``Aggregate.sender`` was read, which kept an unread
``GossipModel.sender`` from failing, and ``cfg.topology.degree`` covered a
``RegularTopology.degree`` that only a test read.
"""

import ast
from pathlib import Path

import pytest

import plexsim

PACKAGE = Path(plexsim.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def attributes(tree, ctx):
    """(name, line, on self) for every attribute access of context ``ctx``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ctx):
            on_self = isinstance(node.value, ast.Name) and node.value.id == "self"
            yield node.attr, node.lineno, on_self


READ = {
    name
    for path in MODULES
    for name, _, _ in attributes(ast.parse(path.read_text()), ast.Load)
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_attribute_it_assigns(path):
    tree = ast.parse(path.read_text())
    unread = sorted(
        f"{name} (line {line})"
        for name, line, on_self in attributes(tree, ast.Store)
        if on_self and name not in READ
    )
    assert not unread, f"{path.name} assigns attributes nothing reads: {unread}"


# Definitions that nothing in the package references, and what keeps each.
KEPT_UNREFERENCED = {
    "LatencyMatrix.zero": "the acceptance gate uses it",
    "Engine.quiescent": "ROADMAP item 5 reports a drained queue with it",
    "ModelParameters.with_values": "tests/oracles.py uses it",
    "node_rank_key": "tests/oracles.py uses it",
    "local_train": "the acceptance gate uses it; runs train through train_steps",
    "RoundStats.p50": "summary.json writes it through asdict",
    "RoundStats.p95": "summary.json writes it through asdict",
    "RankKey.node": "order=True compares it, to break a digest tie",
    "MetricsLedger.counters": "ROADMAP item 5 writes it to summary.json",
}


def fields(tree):
    """(qualified name, name, line) of every field declared in a class body."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    name = stmt.target.id
                    yield f"{node.name}.{name}", name, stmt.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_field_it_declares(path):
    unread = sorted(
        f"{qualname} (line {line})"
        for qualname, name, line in fields(ast.parse(path.read_text()))
        if name not in READ and qualname not in KEPT_UNREFERENCED
    )
    assert not unread, f"{path.name} declares fields nothing reads: {unread}"

# Names used as a variable or an attribute anywhere in the package. The
# exports in __init__.py do not count as a use.
REFERENCED = {
    node.id if isinstance(node, ast.Name) else node.attr
    for path in MODULES
    if path.name != "__init__.py"
    for node in ast.walk(ast.parse(path.read_text()))
    if isinstance(node, (ast.Name, ast.Attribute))
}


def definitions(tree, prefix=""):
    """(qualified name, name, line) of every function, method and class."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node.name, node.lineno
            yield from definitions(node, f"{prefix}{node.name}.")
        else:
            yield from definitions(node, prefix)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_defines_nothing_unreferenced(path):
    """The match is by name only, so a definition whose name something else
    uses passes: a ``Dataset.d_in`` property would slip through on
    ``spec.d_in``. Dunder methods are exempt, because Python calls them
    itself."""
    unreferenced = sorted(
        f"{qualname} (line {line})"
        for qualname, name, line in definitions(ast.parse(path.read_text()))
        if name not in REFERENCED
        and qualname not in KEPT_UNREFERENCED
        and not (name.startswith("__") and name.endswith("__"))
    )
    assert not unreferenced, f"{path.name} defines names nothing references: {unreferenced}"


def parameters(fn):
    args = fn.args
    every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    return [a.arg for a in every if a is not None]


def reads(fn):
    """Names loaded anywhere inside ``fn``: its body, nested bodies and the
    defaults of nested definitions."""
    body = [fn.body] if isinstance(fn, ast.Lambda) else fn.body
    return {
        node.id
        for stmt in body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def is_stub(fn):
    """A ``Protocol`` method whose whole body is ``...``."""
    if isinstance(fn, ast.Lambda) or len(fn.body) != 1:
        return False
    stmt = fn.body[0]
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and stmt.value.value is Ellipsis
    )


FUNCTIONS = [
    (path, node)
    for path in MODULES
    for node in ast.walk(ast.parse(path.read_text()))
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
]

# Parameters that some definition of a method name reads. A method shares
# its signature with every other definition of that name (a topology's
# ``in_neighbors(k)``, a handler's ``on_message(now, src, msg)``), so one
# implementation may ignore what another needs.
READ_BY_NAME: dict = {}
for _, fn in FUNCTIONS:
    if not isinstance(fn, ast.Lambda):
        READ_BY_NAME.setdefault(fn.name, set()).update(reads(fn))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_functions_read_every_parameter(path):
    """A parameter no body reads is an argument every caller passes for
    nothing. ``self`` and ``cls`` are exempt, and so are ``Protocol`` stubs."""
    unread = sorted(
        f"{getattr(fn, 'name', 'lambda')}({name}) (line {fn.lineno})"
        for where, fn in FUNCTIONS
        if where == path and not is_stub(fn)
        for name in parameters(fn)
        if name not in ("self", "cls")
        and name not in reads(fn)
        and name not in READ_BY_NAME.get(getattr(fn, "name", None), ())
    )
    assert not unread, f"{path.name} has parameters no body reads: {unread}"
