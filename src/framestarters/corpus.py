"""The bundled corpus of published skew frame starters.

Eleven reference starters ship beside this module as starter files,
data/example-<n>.json, read in the order of n; a file's stem is its
entry's id.  Each is expected to verify at its claimed property level; a
failure means a transcription slip or an erratum in the source, both
worth reporting.
"""

from __future__ import annotations

from pathlib import Path

from .errors import FrameStarterError
from .record import Record
from .serialize import _read_json, starter_from_obj
from .starters import FrameStarter

_DATA = Path(__file__).with_name("data")


class CorpusEntry(Record):
    __slots__ = _fields = ("entry_id", "starter", "claimed_property",
                           "repaired", "note")

    def __init__(self, entry_id: str, starter: FrameStarter,
                 claimed_property: str, repaired: bool, note: str):
        self._assign(entry_id, starter, claimed_property, repaired, note)


def _paths() -> list[Path]:
    """The files example-<n>.json in `_DATA`, in the order of n."""
    found = {p.stem.removeprefix("example-"): p
             for p in _DATA.glob("example-*.json")}
    return [found[n] for n in sorted(filter(str.isdecimal, found), key=int)]


def _entry(path: Path) -> CorpusEntry:
    obj = _read_json(path)
    return CorpusEntry(
        entry_id=path.stem,
        starter=starter_from_obj(obj),
        claimed_property=obj.get("property", "skew"),
        repaired=bool(obj.get("repaired", False)),
        note=obj.get("note", ""),
    )


def load_entries() -> tuple[CorpusEntry, ...]:
    return tuple(map(_entry, _paths()))


def load_entry(entry_id: str) -> CorpusEntry:
    """The entry named `entry_id`; only its file is read."""
    for path in _paths():
        if path.stem == entry_id:
            return _entry(path)
    raise FrameStarterError(f"no corpus entry named {entry_id!r}")
