"""Every public function of the package has a caller, or is public API."""

import ast
import pathlib
import re

import quadsafe

SRC = pathlib.Path(quadsafe.__file__).parent
README = SRC.parents[1] / "README.md"

# Public functions that need none of the three, each with its reason.
NO_CALLER_NEEDED = {
    "cli.main": "the console script quadsafe",
    "cli.export_trace": "the in-process reference the golden and export tests compare against",
}


def test_every_public_function_has_a_caller():
    # A public top-level function in src/quadsafe must be referenced by code
    # in src/ outside its own body, be listed in quadsafe.__all__ or be named
    # in README.md: else only tests reach it.
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    readme = README.read_text()
    uncalled = []
    for module, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            own = {id(node) for node in ast.walk(fn)}
            called = any(
                id(node) not in own
                and fn.name in (getattr(node, "id", None), getattr(node, "attr", None))
                and isinstance(getattr(node, "ctx", None), ast.Load)
                for other in trees.values() for node in ast.walk(other)
            )
            name = f"{module}.{fn.name}"
            if not (called or fn.name in quadsafe.__all__ or name in NO_CALLER_NEEDED
                    or re.search(rf"\b{fn.name}\b", readme)):
                uncalled.append(name)
    assert uncalled == []
