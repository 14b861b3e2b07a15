"""The public surface of bilinlab is what a CLI command, a benchmark job or
an acceptance test reaches.  The scan reads the source files and imports
nothing."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _names(tree: ast.AST, strings: bool = False) -> set:
    """Every ``Name`` and ``Attribute`` name in a tree, and with ``strings``
    every string constant (``perfbench/spans.py`` patches by name)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            out.add(node.value)
    return out


def unreached(root: Path) -> list:
    """Public module-level defs and classes of ``root/src/bilinlab`` that no
    other code under ``src/``, no acceptance test and no benchmark file
    names, as ``module.name``."""
    public, reached = [], set()
    for path in sorted((root / "src" / "bilinlab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            defines = isinstance(node, (ast.FunctionDef, ast.ClassDef,
                                        ast.AsyncFunctionDef))
            if defines and not node.name.startswith("_"):
                public.append((path.stem, node.name))
            # a def's references to its own name (recursion) do not count
            reached |= _names(node) - ({node.name} if defines else set())
    reached |= _names(ast.parse((root / "tests" / "test_acceptance.py")
                                .read_text()))
    for path in (root / "perfbench").glob("*.py"):
        reached |= _names(ast.parse(path.read_text()), strings=True)
    return [f"{module}.{name}" for module, name in public
            if name not in reached]


def test_every_public_name_is_reached():
    assert unreached(ROOT) == []
