"""Every environment knob the package reads is documented, and every
knob the API tour documents is still read.

A knob deleted from the code must leave the docs with it; a new one
must arrive documented in ``docs/API.md``, ``docs/TRANSPORT.md`` or
``docs/SERVING.md``.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("docs/API.md", "docs/TRANSPORT.md", "docs/SERVING.md")

#: A full knob name: a prefix followed by ``_``, ``{`` or more capitals
#: (a name built in a format string) is not one.
NAME = re.compile(r"REPRO_[A-Z_]*[A-Z](?![A-Z_{])")


def knobs_in_source() -> set[str]:
    return {
        name
        for path in (ROOT / "src" / "repro").rglob("*.py")
        for name in NAME.findall(path.read_text(encoding="utf-8"))
    }


def api_environment_table() -> list[str]:
    """The first column of the API tour's "Environment knobs" table."""
    text = (ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    section = text.split("### Environment knobs", 1)[1]
    names: list[str] = []
    for line in section.splitlines():
        if line.startswith("| `REPRO_"):
            names.extend(re.findall(r"`(REPRO_[A-Z_*]+)`", line.split("|")[1]))
    return names


def test_every_knob_in_source_is_documented():
    docs = "\n".join((ROOT / doc).read_text(encoding="utf-8") for doc in DOCS)
    undocumented = sorted(
        name for name in knobs_in_source()
        if not re.search(rf"\b{name}\b", docs)
    )
    assert undocumented == []


def test_every_documented_knob_is_read():
    table = api_environment_table()
    assert "REPRO_WORKERS" in table
    knobs = knobs_in_source()
    stale = [
        name for name in table
        if not any(
            knob.startswith(name[:-1]) if name.endswith("_*") else knob == name
            for knob in knobs
        )
    ]
    assert stale == []

