"""No plexsim module keeps state or code that nothing reads.

An attribute assigned on ``self`` must be read, as ``anything.name``,
somewhere in the package. ``self.count += 1`` alone is not a read: a counter
that only counts is a second home for a fact kept elsewhere. Likewise every
function, method, property and class must be referenced by name somewhere
in the package.
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
    "Engine.send_at": "the acceptance gate uses it",
    "LatencyMatrix.zero": "the acceptance gate uses it",
    "Engine.quiescent": "ROADMAP item 4 reports a drained queue with it",
    "ModelParameters.with_values": "tests/oracles.py uses it",
    "node_rank_key": "tests/oracles.py uses it",
}

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
