"""`framestarters verify` output, pinned byte for byte.

Every bundled corpus file and every hand-made starter in tests/data/verify/
is verified at each --property, plain, with --json, with --verbose and with
both.  Its stdout and exit code must equal the record in
tests/data/verify_golden.json, so the witness text and its order cannot
drift.  Regenerate the record only when the output is meant to change:

    PYTHONPATH=src python tests/test_verify_golden.py > tests/data/verify_golden.json
"""

import contextlib
import io
import json
from pathlib import Path

from framestarters import corpus
from framestarters.cli import main

DATA = Path(__file__).parent / "data"
FLAGS = ((), ("--json",), ("--verbose",), ("--json", "--verbose"))


def _files() -> dict[str, Path]:
    paths = [*corpus._DATA.iterdir(), *(DATA / "verify").iterdir()]
    return {p.name: p for p in sorted(paths, key=lambda p: p.name)}


def _runs():
    for name in _files():
        for level in ("frame", "strong", "skew"):
            for flags in FLAGS:
                yield " ".join((name, "--property", level, *flags))


def _verify(run: str) -> dict:
    name, *args = run.split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", str(_files()[name]), *args])
    return {"exit": code, "stdout": out.getvalue()}


def test_verify_output_is_pinned():
    golden = json.loads((DATA / "verify_golden.json").read_text())
    assert sorted(golden) == sorted(_runs())
    assert [run for run in _runs() if _verify(run) != golden[run]] == []


if __name__ == "__main__":
    print(json.dumps({run: _verify(run) for run in _runs()}, indent=1))
