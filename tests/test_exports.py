"""Every public name in the package has a program caller.

The public names are the names `rigidity3d/__init__.py` imports, every
public module-level function and every public method or property of a class
defined in `src/rigidity3d/`.  Each must be read somewhere in the library or
the CLI outside its own definition, or by the benchmark under `bench/`, or
be listed in KEEP with the reason it stays.  Test fixtures and oracles live
in `tests/oracles.py` instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rigidity3d"
MODULES = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]

KEEP = {
    "suspension_rigidity": "the paper's suspension theorem, which analyze is to report",
    "convex_profile_certificate": "the certificate of the suspension theorem on convex profiles",
}


def exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def public_names():
    """{name: defining file} for every export, public module-level function
    and public method or property, the last keyed "Class.member"."""
    names = dict.fromkeys(exports(), PACKAGE / "__init__.py")
    for path in MODULES:
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                names[node.name] = path
            if isinstance(node, ast.ClassDef):
                names.update((f"{node.name}.{member.name}", path) for member in node.body
                             if isinstance(member, ast.FunctionDef)
                             and not member.name.startswith("_"))
    return names


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


def strings(path):
    """String constants of a file.  One that names a function of the same
    file reads it: the CLI names each subcommand's handler as a string in
    build_parser, and main looks it up in globals()."""
    return {node.value for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_every_public_name_has_a_program_caller():
    read = set().union(*map(names_read, MODULES + sorted((ROOT / "bench").glob("*.py"))))
    names = public_names()
    dispatched = {path: strings(path) for path in set(names.values())}
    unread = {name for name, path in names.items()
              if name.rpartition(".")[2] not in read and name not in dispatched[path]}
    uncalled = sorted(unread - set(KEEP))
    assert not uncalled, f"public but never read by the program: {uncalled}"
    assert set(KEEP) <= unread, f"kept but read by the program: {sorted(set(KEEP) - unread)}"
