"""JSON schemas for groups, starters, certificates and search outcomes.

Starter schema::

    {"group": {"factors": [m1, ...]},
     "subgroup": {"order": h} | {"generators": [[c1, ...], ...]},
     "pairs": [[x, y], ...]}

Elements of cyclic groups serialize as bare integers, otherwise as
coordinate lists.  Unknown keys are ignored so corpus files can carry
metadata.  Parsing raises SchemaError with the offending location.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .errors import FrameStarterError, SchemaError, StructureError
from .groups import Element, GroupSpec, SubgroupSpec, cyclic_subgroup, generated_subgroup
from .starters import LEVELS, FrameStarter, Pair, VerificationReport
from .theory import NonexistenceCertificate
from .search import SearchConfig, SearchOutcome


def _is_int(obj: Any) -> bool:
    """JSON integers only: true/false parse as Python bools, which are ints."""
    return isinstance(obj, int) and not isinstance(obj, bool)


def _expect(obj: Any, kind: type, location: str) -> Any:
    if not (_is_int(obj) if kind is int else isinstance(obj, kind)):
        raise SchemaError(f"expected {kind.__name__}, got {type(obj).__name__}",
                          location)
    return obj


def group_to_obj(group: GroupSpec) -> dict:
    return {"factors": list(group.factors)}


def group_from_obj(obj: Any) -> GroupSpec:
    _expect(obj, dict, "$.group")
    factors = _expect(obj.get("factors"), list, "$.group.factors")
    if not factors or not all(_is_int(m) for m in factors):
        raise SchemaError("factors must be a non-empty list of integers",
                          "$.group.factors")
    try:
        return GroupSpec(tuple(factors))
    except FrameStarterError as exc:
        raise SchemaError(str(exc), "$.group.factors") from exc


def subgroup_to_obj(sub: SubgroupSpec) -> dict:
    if sub.group.is_cyclic:
        return {"order": sub.order}
    # Canonical: each element, in order, that those kept do not generate.
    gens = []
    for x in sorted(sub.elements - {sub.group.identity}):
        if not gens or x not in generated_subgroup(sub.group, gens):
            gens.append(x)
    return {"generators": [list(x.coords) for x in gens or [sub.group.identity]]}


def subgroup_from_obj(group: GroupSpec, obj: Any) -> SubgroupSpec:
    _expect(obj, dict, "$.subgroup")
    if "order" in obj:
        order = _expect(obj["order"], int, "$.subgroup.order")
        try:
            return cyclic_subgroup(group, order)
        except FrameStarterError as exc:
            raise SchemaError(str(exc), "$.subgroup.order") from exc
    if "generators" in obj:
        gens_obj = _expect(obj["generators"], list, "$.subgroup.generators")
        gens = [_element_from_obj(group, g) for g in gens_obj]
        if None in gens:
            i = gens.index(None)
            raise _element_error(group, gens_obj[i],
                                 f"$.subgroup.generators[{i}]")
        try:
            return generated_subgroup(group, gens)
        except FrameStarterError as exc:
            raise SchemaError(str(exc), "$.subgroup.generators") from exc
    raise SchemaError("need either 'order' or 'generators'", "$.subgroup")


def _element_to_obj(group: GroupSpec, x: Element):
    return x.coords[0] if group.is_cyclic else list(x.coords)


def _element_from_obj(group: GroupSpec, obj: Any) -> Element | None:
    """The element written as obj, or None when obj is not one: residues
    are checked, never reduced."""
    factors = group.factors
    if len(factors) == 1 and _is_int(obj):
        return Element((obj,)) if 0 <= obj < factors[0] else None
    if (isinstance(obj, list) and len(obj) == len(factors)
            and all(_is_int(c) and 0 <= c < m for c, m in zip(obj, factors))):
        return Element(tuple(obj))
    return None


def _element_error(group: GroupSpec, obj: Any, location: str) -> SchemaError:
    want = (f"an integer in [0, {group.order})" if group.is_cyclic else
            f"a list of {len(group.factors)} integers, each in [0, m) "
            f"for its factor m of {list(group.factors)}")
    return SchemaError(f"element must be {want}, got {obj!r}", location)


def format_pairs(s: FrameStarter) -> str:
    """The pairs as "{x, y}, ...", elements written as in the JSON schema."""
    return ", ".join(f"{{{_element_to_obj(s.group, p.first)}, "
                     f"{_element_to_obj(s.group, p.second)}}}" for p in s.pairs)


def starter_to_obj(s: FrameStarter) -> dict:
    return {
        "group": group_to_obj(s.group),
        "subgroup": subgroup_to_obj(s.subgroup),
        "pairs": [[_element_to_obj(s.group, p.first),
                   _element_to_obj(s.group, p.second)] for p in s.pairs],
    }


def starter_from_obj(obj: Any) -> FrameStarter:
    _expect(obj, dict, "$")
    group = group_from_obj(obj.get("group"))
    pairs_obj = _expect(obj.get("pairs"), list, "$.pairs")
    # u >= 2 means h <= g/2, so (g-h)/2 >= g/4 pairs.  Checked before the
    # subgroup is materialized, which costs memory in h.
    if 4 * len(pairs_obj) < group.order:
        raise SchemaError(
            f"a starter in a group of order {group.order} has at least "
            f"{-(-group.order // 4)} pairs, got {len(pairs_obj)}",
            "$.pairs")
    sub = subgroup_from_obj(group, obj.get("subgroup"))
    # Each element is checked once, here; a location is formatted only for
    # the error that names it.
    pairs = []
    for i, entry in enumerate(pairs_obj):
        if not (isinstance(entry, list) and len(entry) == 2):
            loc = f"$.pairs[{i}]"
            _expect(entry, list, loc)
            raise SchemaError("a pair needs exactly two elements", loc)
        a = _element_from_obj(group, entry[0])
        b = _element_from_obj(group, entry[1])
        if a is None or b is None:
            j = 0 if a is None else 1
            raise _element_error(group, entry[j], f"$.pairs[{i}][{j}]")
        try:
            pairs.append(Pair(a, b))
        except StructureError as exc:  # a degenerate pair
            raise SchemaError(str(exc), f"$.pairs[{i}]") from exc
    try:
        return FrameStarter(group, sub, pairs)
    except FrameStarterError as exc:
        raise SchemaError(str(exc), "$.pairs") from exc


def _read_json(path: str | Path) -> Any:
    """A JSON file's value; a file or JSON error names the path."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise FrameStarterError(f"{path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON: {exc}", str(path)) from exc


def load_starter(path: str | Path) -> FrameStarter:
    """Read a starter file; a file or JSON error names the path."""
    return starter_from_obj(_read_json(path))


def dump_starter(s: FrameStarter, path: str | Path):
    """Write a starter file; a file error names the path."""
    try:
        Path(path).write_text(json.dumps(starter_to_obj(s), indent=1) + "\n",
                              encoding="utf-8")
    except OSError as exc:
        raise FrameStarterError(f"{path}: {exc.strerror or exc}") from exc


def report_to_obj(report: VerificationReport) -> dict:
    return {**{f"is_{level}": report.holds(level) for level in LEVELS},
            "witness": report.witness}


def certificate_to_obj(cert: NonexistenceCertificate) -> dict:
    return {
        "type": str(cert.starter_type),
        "level": cert.level,
        "theorem": cert.theorem,
        "statement": cert.statement,
    }


def config_to_obj(cfg: SearchConfig) -> dict:
    return {
        "type": str(cfg.target_type),
        "property": cfg.property,
        "mode": cfg.mode,
        "node_budget": cfg.node_budget,
        "worker_count": cfg.worker_count,
        "symmetry_reduction": cfg.symmetry_reduction,
    }


def outcome_to_obj(outcome: SearchOutcome) -> dict:
    obj = {
        "result": outcome.result,
        "nodes_visited": outcome.nodes_visited,
        "wall_time_s": round(outcome.wall_time, 6),
        "starters": [starter_to_obj(s) for s in outcome.starters],
        "config": config_to_obj(outcome.config),
        "kernel": outcome.kernel,
    }
    if (cert := outcome.certificate) is not None:
        obj["certificate"] = certificate_to_obj(cert)
    return obj
