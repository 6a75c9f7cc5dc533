"""Every name a package module imports is read by that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ramseykit"

# bound only so that perfbench/tracing.py finds them to wrap; they go with
# the tracer's stale wraps (ROADMAP item 17)
TRACER_BOUND = {
    ("tabu", "book_toggle_delta"),
    ("tabu", "count_cliques_in_mask"),
    ("polycirculant", "has_shape_through"),
}

MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unread_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_read(path):
    unread = _unread_imports(ast.parse(path.read_text()))
    assert [n for n in unread if (path.stem, n) not in TRACER_BOUND] == []


def test_the_tracer_bound_names_are_still_imported():
    # a name that left its module leaves the allowlist too
    found = {
        (p.stem, n) for p in MODULES for n in _unread_imports(ast.parse(p.read_text()))
    }
    assert TRACER_BOUND <= found
