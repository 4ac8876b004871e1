"""Export lists stay in step with the code: no stale or missing public names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import harmlab
from harmlab import errors

_LISTING = sorted(
    m.name for m in pkgutil.iter_modules(harmlab.__path__)
    if hasattr(importlib.import_module(f"harmlab.{m.name}"), "__all__")
)


@pytest.mark.parametrize("name", _LISTING)
def test_every_listed_name_exists(name):
    module = importlib.import_module(f"harmlab.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_package_imports_only_listed_names():
    # each `from .module import name` in harmlab/__init__.py names something the
    # module defines, and lists in its __all__ when it has one
    tree = ast.parse(Path(harmlab.__file__).read_text(encoding="utf-8"))
    checked = 0
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"harmlab.{node.module}")
            listed = getattr(module, "__all__", None)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                assert listed is None or alias.name in listed, f"{node.module}.{alias.name}"
                checked += 1
    assert checked > 50


def test_readme_imports_listed_names():
    # the README's library example imports only names its modules list in __all__
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    imports = [n for n in ast.parse(code).body if isinstance(n, ast.ImportFrom) and n.module.startswith("harmlab.")]
    assert imports
    for node in imports:
        listed = importlib.import_module(node.module).__all__
        assert [a.name for a in node.names if a.name not in listed] == []


def test_errors_are_two_families_and_the_two_subclasses_the_library_catches():
    # the CLI exits 2 on ValidationError and 3 on NumericalError; the message
    # names the failed check, so no further classes are needed to tell them apart
    classes = {name: obj for name, obj in vars(errors).items() if isinstance(obj, type)}
    assert sorted(classes) == [
        "HarmlabError", "MaxSubdivisionsExceeded", "NonFiniteSample", "NumericalError", "ValidationError",
    ]
    assert issubclass(errors.ValidationError, errors.HarmlabError)
    assert issubclass(errors.NumericalError, errors.HarmlabError)
    assert issubclass(errors.MaxSubdivisionsExceeded, errors.NumericalError)
    assert issubclass(errors.NonFiniteSample, errors.NumericalError)
