"""The package stays standard-library only, with one dataclass."""

import ast
import dataclasses
import importlib
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ticksynth"


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    outside = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.partition(".")[0] not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno}: {name}")
    assert outside == []


def test_package_modules_use_every_name_they_import():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = node.lineno
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
        }
        unused += [
            f"{path.name}:{line}: {name}"
            for name, line in imported.items()
            if name not in used
        ]
    assert unused == []


def test_synthesis_request_is_the_only_dataclass():
    """Generating a dataclass's methods runs ``exec`` at import time, once
    per method; for the value types that was a large share of importing
    the package.  ``SynthesisRequest`` stays one because the benchmark's
    ``exact_request`` (``perfbench/run.py``) reads its
    ``dataclasses.fields``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "ticksynth" if path.stem == "__init__" else f"ticksynth.{path.stem}"
        module = importlib.import_module(name)
        found += [
            f"{name}.{attr}"
            for attr, value in vars(module).items()
            if isinstance(value, type)
            and dataclasses.is_dataclass(value)
            and value.__module__ == name
        ]
    assert found == ["ticksynth.synth.SynthesisRequest"]
