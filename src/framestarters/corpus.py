"""The bundled corpus of published skew frame starters.

Eleven reference starters ship with the package as JSON files named
example-<id>.json.  Each is expected to verify at its claimed property
level; a failure means a transcription slip or an erratum in the source,
both worth reporting.
"""

from __future__ import annotations

import json

from .errors import FrameStarterError
from .record import Record
from .serialize import starter_from_obj
from .starters import FrameStarter


class CorpusEntry(Record):
    __slots__ = _fields = ("entry_id", "starter", "claimed_property",
                           "repaired", "note")

    def __init__(self, entry_id: str, starter: FrameStarter,
                 claimed_property: str, repaired: bool, note: str):
        self._assign(entry_id, starter, claimed_property, repaired, note)


def _data_files():
    # Imported on first use: from Python 3.12 on it imports inspect.
    from importlib import resources

    root = resources.files("framestarters").joinpath("data")
    return sorted(root.iterdir(), key=lambda p: _sort_key(p.name))


def _sort_key(name: str):
    stem = name.removesuffix(".json")
    num = stem.rsplit("-", 1)[-1]
    return (int(num) if num.isdigit() else 0, stem)


def _objects():
    """Each corpus file's JSON object, in file order."""
    for path in _data_files():
        if path.name.endswith(".json"):
            yield json.loads(path.read_text(encoding="utf-8"))


def _entry(obj: dict) -> CorpusEntry:
    return CorpusEntry(
        entry_id=obj["id"],
        starter=starter_from_obj(obj),
        claimed_property=obj.get("property", "skew"),
        repaired=bool(obj.get("repaired", False)),
        note=obj.get("note", ""),
    )


def load_entries() -> tuple[CorpusEntry, ...]:
    return tuple(map(_entry, _objects()))


def load_entry(entry_id: str) -> CorpusEntry:
    """The entry named `entry_id`; only its starter is decoded."""
    for obj in _objects():
        if obj["id"] == entry_id:
            return _entry(obj)
    raise FrameStarterError(f"no corpus entry named {entry_id!r}")
