"""The package exports only what the program uses.

A name that `rigidity3d/__init__.py` imports must be read somewhere in the
library or the CLI outside its own definition, or by the benchmark under
`bench/`, or be listed in KEEP with the reason it stays.  Test fixtures
and oracles live in `tests/oracles.py` instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rigidity3d"

KEEP = {
    "suspension_rigidity": "the paper's suspension theorem, which analyze is to report",
    "convex_profile_certificate": "the certificate of the suspension theorem on convex profiles",
    "normalize_poles": "the pole frame that the suspension theorem's certificate reads",
    "impossible_labeling_search": "the Cauchy-lemma check: no sign labeling of a sphere escapes it",
    "interior_edge_star": "the paper's suspension around an interior edge of a decomposition",
    "tetra_angles_and_jacobian": "the public face of the one tetrahedron angle kernel",
}


def exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def names_read(path):
    """Names and attribute names read in a file, each outside a function or
    class of the same name (a definition does not call itself)."""
    read = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name not in enclosing:
            read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(path.read_text(), str(path)), frozenset())
    return read


def test_every_export_has_a_program_caller():
    program = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    program += sorted((ROOT / "bench").glob("*.py"))
    read = set().union(*map(names_read, program))
    uncalled = sorted(exports() - read - set(KEEP))
    assert not uncalled, f"exported but never read by the program: {uncalled}"
    assert set(KEEP) <= exports(), sorted(set(KEEP) - exports())
