"""`framestarters corpus`, `certify` and `search` output, pinned byte for
byte.

Each run's exit code, stdout and stderr must equal the record in
tests/data/cli_golden.json:
- `corpus list` and `corpus check`, plain and with --json, on every entry
  and on `--only example-26` and `--only example-3`;
- `certify --type t`, plain and with --json, for every type of the g <= 57
  table, and for 3^4, whose odd g - h is bad input (exit 2);
- `search`, plain and with --json, on 4^7 prove, 3^19 find, the 2^5 frame
  count and 6^9 at a budget of 1000 nodes.
A search's wall time is masked, as tests/test_table.py drops each row's
`seconds`; its node counts and certificate name the kernel, so the record
is the native kernel's.  Regenerate the record only when the output is
meant to change:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/data/cli_golden.json
"""

import contextlib
import io
import json
import re
from pathlib import Path

from framestarters.cli import main
from framestarters.native import load_kernel
from framestarters.table import admissible_types

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
FLAGS = ((), ("--json",))
SEARCHES = ("--type 4^7 --mode prove_nonexistence",
            "--type 3^19",
            "--type 2^5 --property frame --mode exhaustive_count",
            "--type 6^9 --budget 1000")
_WALL_TIME = re.compile(r'(wall time: |"wall_time_s": )[0-9.]+')


def _runs():
    for action in ("list", "check"):
        for only in ((), ("--only", "example-26"), ("--only", "example-3")):
            for flags in FLAGS:
                yield " ".join(("corpus", action, *only, *flags))
    for t in [*map(str, admissible_types(57)), "3^4"]:
        for flags in FLAGS:
            yield " ".join(("certify", "--type", t, *flags))
    for args in SEARCHES:
        for flags in FLAGS:
            yield " ".join(("search", args, *flags))


def _run(run: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(run.split())
    return {"exit": code, "stdout": _WALL_TIME.sub(r"\1<masked>", out.getvalue()),
            "stderr": err.getvalue()}


def test_cli_output_is_pinned(native):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(_runs())
    assert [run for run in _runs() if _run(run) != golden[run]] == []


if __name__ == "__main__":
    assert load_kernel() is not None, "the record is the native kernel's"
    print(json.dumps({run: _run(run) for run in _runs()}, indent=1))
