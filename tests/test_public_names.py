"""The package's public names against README's list of dropped ones."""

import dataclasses
import inspect
import re
from pathlib import Path

import lieform

README = Path(__file__).resolve().parents[1] / "README.md"


def _dropped_names():
    """The names README's "Public names dropped" list gives, in order.

    Each bullet opens with its names in backticks, before the first
    colon: `f` for a package function, `Owner.member` for a member of a
    public class, `f(arg=)` for an argument of a public function.
    """
    lines = README.read_text().splitlines()
    start = next(k for k, line in enumerate(lines)
                 if line.startswith("Public names dropped"))
    names = []
    for line in lines[start + 1:]:
        if line.startswith("- "):
            names += re.findall(r"`([^`]+)`", line.split(":", 1)[0])
        elif names and not line.startswith("  "):
            break
    return names


def _still_public(name):
    call = re.fullmatch(r"(\w+)\((\w+)=\)", name)
    if call:
        func, arg = call.groups()
        return arg in inspect.signature(getattr(lieform, func)).parameters
    owner, _, member = name.partition(".")
    if not member:
        return name in lieform.__all__ or hasattr(lieform, name)
    cls = getattr(lieform, owner)
    fields = ({f.name for f in dataclasses.fields(cls)}
              if dataclasses.is_dataclass(cls) else set())
    return hasattr(cls, member) or member in fields


def test_every_exported_name_resolves():
    assert len(set(lieform.__all__)) == len(lieform.__all__)
    missing = [name for name in lieform.__all__ if not hasattr(lieform, name)]
    assert missing == []


def test_no_dropped_name_is_public():
    dropped = _dropped_names()
    assert dropped[0] == "contract_0form"
    assert "average_to_node" in dropped
    assert "shifted(out=)" in dropped
    assert [name for name in dropped if _still_public(name)] == []
