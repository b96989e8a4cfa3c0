"""Every module-level import in ``src/repro`` is used.

No linter runs over the package, so this AST scan stands in for pyflakes'
unused-import check (F401).  A name counts as used when the module loads
it anywhere — attribute roots included — names it inside a string
annotation or lists it in ``__all__``.  Package ``__init__.py`` files re-export by design and are
skipped, as are import lines marked ``# noqa: F401`` (side-effect imports).
"""

import ast
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).parent
MODULES = sorted(
    path for path in PACKAGE.rglob("*.py") if path.name != "__init__.py"
)


def _imported_names(tree, lines):
    """``{bound name: line}`` of every module-level import not marked noqa."""
    names = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        source = "\n".join(lines[node.lineno - 1 : node.end_lineno])
        if "noqa: F401" in source:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            names[bound] = node.lineno
    return names


def _annotations(tree):
    """Every annotation expression: arguments, returns, annotated targets."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            for argument in (
                *arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs,
                arguments.vararg, arguments.kwarg,
            ):
                if argument is not None and argument.annotation is not None:
                    yield argument.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _string_annotation_names(tree):
    """Names loaded inside string annotations (``"Dict[str, Graph]"``)."""
    names = set()
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:  # a Literal["..."] value, not a type
                    continue
                names |= {
                    child.id for child in ast.walk(parsed) if isinstance(child, ast.Name)
                }
    return names


def _exported_names(tree):
    """Entries of a module-level ``__all__`` list: re-exports are uses."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _used_names(tree):
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return loaded | _string_annotation_names(tree) | _exported_names(tree)


def unused_imports(path):
    """``["line: name"]`` for each unused module-level import of ``path``."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    imported = _imported_names(tree, source.splitlines())
    used = _used_names(tree)
    return [
        f"{line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(path.relative_to(PACKAGE)) for path in MODULES]
)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path) == [], f"unused imports in {path.name}"


def test_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from typing import Dict, List, Optional\n"
        "import os\n"
        "import json  # noqa: F401\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    return [os.sep]\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == ["1: Dict"]
