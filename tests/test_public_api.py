"""Every public name of the package has a caller outside the tests.

A name in a module's ``__all__`` must be read somewhere in ``src/`` or
``scripts/``: as a plain name or as an attribute, in its own module or
another.  Its definition, its ``__all__`` entry and its imports do not
count.  ``oracle`` is exempt: its functions are the reference
implementations the tests compare against.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import prodest

ROOT = Path(__file__).resolve().parents[1]
EXEMPT = {"oracle"}


def _names_read():
    """Every name read as a variable or attribute in src/ and scripts/."""
    read = set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def test_every_public_name_has_a_caller_outside_tests():
    read = _names_read()
    unused = [
        f"{info.name}.{name}"
        for info in pkgutil.iter_modules(prodest.__path__)
        if info.name not in EXEMPT
        for name in getattr(importlib.import_module(f"prodest.{info.name}"), "__all__", ())
        if name not in read
    ]
    assert not unused, f"public names that only tests use: {unused}"
