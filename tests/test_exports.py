"""Export lists stay in step with the code: no stale or missing public names."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import harmlab
from harmlab import errors

SRC = Path(harmlab.__file__).resolve().parent
README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
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
    # each name in harmlab/__init__.py's export table is something its module
    # defines, and lists in its __all__ when it has one
    checked = 0
    for module_name, names in harmlab._EXPORTS.items():
        module = importlib.import_module(f"harmlab.{module_name}")
        listed = getattr(module, "__all__", None)
        for name in names:
            assert hasattr(module, name), f"{module_name}.{name}"
            assert listed is None or name in listed, f"{module_name}.{name}"
            checked += 1
    assert checked > 45


def test_readme_imports_listed_names():
    # the README's library example imports only names its modules list in __all__
    code = README.split("```python\n", 1)[1].split("```", 1)[0]
    imports = [n for n in ast.parse(code).body if isinstance(n, ast.ImportFrom) and n.module.startswith("harmlab.")]
    assert imports
    for node in imports:
        listed = importlib.import_module(node.module).__all__
        assert [a.name for a in node.names if a.name not in listed] == []


def _uses(tree: ast.Module):
    """(top-level def or class around it, or None; name) for each name read or bound outside imports."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield owner, node.id
            elif isinstance(node, ast.Attribute):
                yield owner, node.attr


@pytest.mark.parametrize("name", _LISTING)
def test_every_public_name_has_a_reader(name):
    # a name in __all__ is read somewhere in the package outside its own def or
    # class (the export lists hold it as a string or an import, not a read), or
    # the README names it for library users
    uses = {
        (path.stem, owner, ident)
        for path in SRC.glob("*.py")
        for owner, ident in _uses(ast.parse(path.read_text(encoding="utf-8")))
    }
    unread = [
        n for n in importlib.import_module(f"harmlab.{name}").__all__
        if not any(ident == n and (stem, owner) != (name, n) for stem, owner, ident in uses)
        and not re.search(rf"\b{re.escape(n)}\b", README)
    ]
    assert unread == []


def test_every_private_function_has_a_reader():
    # a module-level _function is called or passed somewhere in the package
    # outside its own def, so a helper left behind by a rewrite fails here
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    uses = {(stem, owner, ident) for stem, tree in trees.items() for owner, ident in _uses(tree)}
    private = [
        (stem, node.name) for stem, tree in trees.items() for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__")
    ]
    assert len(private) > 30
    unread = [
        f"{stem}.{name}" for stem, name in private
        if not any(ident == name and (s, owner) != (stem, name) for s, owner, ident in uses)
    ]
    assert unread == []


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_modules_use_every_name_they_import(path):
    # no linter runs here, so this stands in for its unused-import check
    tree = ast.parse((SRC / path).read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


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


def _message_template(node) -> str:
    """The text of a str, f-string or `+` of them, each replacement field as {}; "" for anything else."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.FormattedValue):
        return "{}"
    if isinstance(node, ast.JoinedStr):
        return "".join(map(_message_template, node.values))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _message_template(node.left) + _message_template(node.right)
    return ""


# the integer and limit forms of numerics._check_count, the one count rule
_COUNT_FORMS = re.compile(r"must be an integer|= \{\} exceeds the limit of")


def test_only_check_count_words_a_count_refusal():
    # a ValidationError worded like a count refusal anywhere but
    # numerics._check_count is a second count rule; the grid-size messages
    # ("a ... grid exceeds the limit") are not counts and do not match
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(func):
                if (isinstance(call, ast.Call) and call.args
                        and getattr(call.func, "id", getattr(call.func, "attr", None)) == "ValidationError"
                        and _COUNT_FORMS.search(_message_template(call.args[0]))):
                    found.append(f"{path.stem}.{func.name}")
    # both forms are found where they belong, so the scan sees what it looks for
    assert found == ["numerics._check_count", "numerics._check_count"], found
