"""Every module-level function and class of the library, and every method,
is referenced by name somewhere in ``src/ajar`` or ``demos/``: code that only
tests call belongs beside those tests.  ``__init__.py`` only re-exports, so
it is neither checked nor read, and an import is not a reference.  A
function or class counts as referenced when its name appears as a name or an
attribute anywhere in those files; a method only when it appears as an
attribute, so a local variable that shares a method's name does not keep the
method alive."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ajar"

# Public entry points kept for users and tests, though the engine calls none.
EXEMPT = {
    "semantic_equiv": "the randomized oracle the equivalence tests check against",
    "min_valid_width": "the exhaustive width oracle of criterion 6",
    "print_query": "the inverse of parse_query, checked by a round trip",
    "stitch": "stitching from parts in characteristic_hypergraphs' order",
    "Ghd.canonical_code": "compares GHDs up to node ids",
}


def _definitions(tree: ast.Module) -> list[str]:
    """Module-level functions and classes, and the methods of those classes
    as ``Class.method``; dunder methods are called by the language."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out.extend(
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
            )
    return out


def _references(tree: ast.Module) -> set[str]:
    """Every name used, and every attribute accessed as ``.attr``."""
    return {
        node.id if isinstance(node, ast.Name) else "." + node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def _is_referenced(definition: str, references: set[str]) -> bool:
    if "." in definition:  # Class.method
        return "." + definition.rsplit(".", 1)[1] in references
    return definition in references or "." + definition in references


def _unreferenced(definitions: list[str], references: set[str]) -> list[str]:
    return [name for name in definitions if not _is_referenced(name, references)]


def _library():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    sources = modules + sorted((ROOT / "demos").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in sources}
    definitions = [name for path in modules for name in _definitions(trees[path])]
    references = set().union(*map(_references, trees.values()))
    return definitions, references


def test_library_code_has_a_caller():
    definitions, references = _library()
    assert [n for n in _unreferenced(definitions, references) if n not in EXEMPT] == []


def test_every_exemption_is_needed():
    definitions, references = _library()
    assert sorted(set(_unreferenced(definitions, references)) & set(EXEMPT)) == sorted(EXEMPT)


def test_guard_catches_a_dead_function():
    # Box.lock is shadowed by a local variable of that name, which is no call
    tree = ast.parse(
        "def used():\n    lock = 1\n    return lock\n\n"
        "def dead():\n    pass\n\n"
        "class Box:\n    def __init__(self):\n        used()\n"
        "    def open(self):\n        pass\n"
        "    def shut(self):\n        pass\n"
        "    def lock(self):\n        pass\n\n"
        "Box().open()\n"
    )
    assert _unreferenced(_definitions(tree), _references(tree)) == ["dead", "Box.shut", "Box.lock"]
