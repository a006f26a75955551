"""Property test: no input makes the command line print a traceback.

`verify` reads arbitrary JSON values and documents near the starter
schema; `certify` and `search` read arbitrary type strings and strings
shaped like h^u.  Each exits with a code of its contract (0 decided or
verified, 1 verified false, 2 malformed input, 3 open or budget
exhausted), and every exit 2 prints one line that starts with "error:".
"""

import contextlib
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from framestarters.cli import main

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12)


@st.composite
def near_schema(draw):
    """A starter document in the schema's shape over one or two small
    factors, with values that may leave their ranges and about (g - h)/2
    pairs, so that documents pass the group's checks and reach the
    subgroup, pair and member checks, and some the verifier."""
    factors = draw(st.lists(st.integers(1, 9), min_size=1, max_size=2))
    wild = draw(st.booleans())  # whether values may leave their ranges
    coords = [st.integers(-1, m) if wild else st.integers(0, max(m - 1, 0))
              for m in factors]
    element = (coords[0] if len(factors) == 1 else
               st.tuples(*coords).map(list))
    n = math.prod(factors) // 2
    subgroup = draw(st.fixed_dictionaries({"order": st.integers(1, 3)})
                    | st.fixed_dictionaries(
                        {"generators": st.lists(element, max_size=2)}))
    pairs = draw(st.lists(st.lists(element, min_size=2, max_size=2),
                          min_size=max(0, n - 2), max_size=n + 1))
    return {"group": {"factors": factors}, "subgroup": subgroup,
            "pairs": pairs}


TYPES = st.text(max_size=12) | st.from_regex(r"\d{1,4}\^\d{1,4}",
                                              fullmatch=True)
EXAMPLES = settings(max_examples=50, deadline=None)


def _exit_code(argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
    return code


@EXAMPLES
@given(doc=JSON | near_schema())
def test_verify_exits_by_contract(doc, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "starter.json"
    path.write_text(json.dumps(doc))
    assert _exit_code(["verify", str(path)]) in (0, 1, 2)


@EXAMPLES
@given(text=TYPES)
def test_type_readers_exit_by_contract(text):
    assert _exit_code(["certify", f"--type={text}"]) in (0, 2, 3)
    assert _exit_code(["search", f"--type={text}", "--budget", "1"]) \
        in (0, 2, 3)
