"""The README's Layout table names only what its modules define."""

import dataclasses
import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import diffpol

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
ROW = re.compile(r"\| `(diffpol\.\w+)` \| (.*) \|")
NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def layout_rows() -> list[tuple[str, list[str]]]:
    """(module, backticked Python names) for each Layout row; backticked
    text that is not a dotted name, such as a tuple or a command line,
    is left out."""
    text = README.read_text(encoding="utf-8")
    table = text.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = [ROW.fullmatch(line) for line in table.splitlines()]
    return [(m[1], [n for n in re.findall(r"`([^`]+)`", m[2])
                    if NAME.fullmatch(n)])
            for m in rows if m]


def members(obj) -> set[str]:
    """Attribute names of obj, and its fields if it is a dataclass."""
    names = set(dir(obj))
    if dataclasses.is_dataclass(obj):
        names |= {f.name for f in dataclasses.fields(obj)}
    return names


def resolves(module, name: str) -> bool:
    """A module attribute (dotted parts as members of it), or a method,
    attribute or dataclass field of one of the module's classes."""
    head, *rest = name.split(".")
    if not hasattr(module, head):
        classes = [c for c in vars(module).values()
                   if inspect.isclass(c) and c.__module__ == module.__name__]
        return not rest and any(head in members(c) for c in classes)
    obj = getattr(module, head)
    for part in rest:
        if part not in members(obj):
            return False
        obj = getattr(obj, part, None)
    return True


ROWS = layout_rows()


def test_every_module_has_one_row():
    modules = sorted(f"diffpol.{m.name}"
                     for m in pkgutil.iter_modules(diffpol.__path__))
    assert sorted(module for module, _ in ROWS) == modules


@pytest.mark.parametrize("module,names", ROWS,
                         ids=[module for module, _ in ROWS])
def test_layout_names_resolve(module, names):
    mod = importlib.import_module(module)
    assert [n for n in names if not resolves(mod, n)] == []
