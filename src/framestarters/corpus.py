"""The bundled corpus of published skew frame starters.

Eleven reference starters ship with the package as JSON files named
example-<id>.json.  Each is expected to verify at its claimed property
level; a failure means a transcription slip or an erratum in the source,
both worth reporting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .errors import FrameStarterError
from .serialize import starter_from_obj
from .starters import FrameStarter


@dataclass(frozen=True, slots=True)
class CorpusEntry:
    entry_id: str
    starter: FrameStarter
    claimed_property: str
    repaired: bool
    note: str


def _data_files():
    root = resources.files("framestarters").joinpath("data")
    return sorted(root.iterdir(), key=lambda p: _sort_key(p.name))


def _sort_key(name: str):
    stem = name.removesuffix(".json")
    num = stem.rsplit("-", 1)[-1]
    return (int(num) if num.isdigit() else 0, stem)


def load_entries() -> tuple[CorpusEntry, ...]:
    entries = []
    for path in _data_files():
        if not path.name.endswith(".json"):
            continue
        obj = json.loads(path.read_text(encoding="utf-8"))
        entries.append(CorpusEntry(
            entry_id=obj["id"],
            starter=starter_from_obj(obj),
            claimed_property=obj.get("property", "skew"),
            repaired=bool(obj.get("repaired", False)),
            note=obj.get("note", ""),
        ))
    return tuple(entries)


def load_entry(entry_id: str) -> CorpusEntry:
    for entry in load_entries():
        if entry.entry_id == entry_id:
            return entry
    raise FrameStarterError(f"no corpus entry named {entry_id!r}")
