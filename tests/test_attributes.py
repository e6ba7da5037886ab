"""No plexsim module keeps state that nothing reads.

An attribute assigned on ``self`` must be read, as ``anything.name``,
somewhere in the package. ``self.count += 1`` alone is not a read: a counter
that only counts is a second home for a fact kept elsewhere.
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
