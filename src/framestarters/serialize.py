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
from .starters import FrameStarter, Pair, VerificationReport
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


def group_from_obj(obj: Any, location: str = "$.group") -> GroupSpec:
    _expect(obj, dict, location)
    factors = _expect(obj.get("factors"), list, f"{location}.factors")
    if not factors or not all(_is_int(m) for m in factors):
        raise SchemaError("factors must be a non-empty list of integers",
                          f"{location}.factors")
    try:
        return GroupSpec(tuple(factors))
    except FrameStarterError as exc:
        raise SchemaError(str(exc), f"{location}.factors") from exc


def subgroup_to_obj(sub: SubgroupSpec) -> dict:
    if sub.group.is_cyclic:
        return {"order": sub.order}
    # Canonical: each element, in order, that those kept do not generate.
    gens = []
    for x in sorted(sub.elements - {sub.group.identity}):
        if not gens or x not in generated_subgroup(sub.group, gens):
            gens.append(x)
    return {"generators": [list(x.coords) for x in gens or [sub.group.identity]]}


def subgroup_from_obj(group: GroupSpec, obj: Any,
                      location: str = "$.subgroup") -> SubgroupSpec:
    _expect(obj, dict, location)
    if "order" in obj:
        order = _expect(obj["order"], int, f"{location}.order")
        try:
            return cyclic_subgroup(group, order)
        except FrameStarterError as exc:
            raise SchemaError(str(exc), f"{location}.order") from exc
    if "generators" in obj:
        gens_obj = _expect(obj["generators"], list, f"{location}.generators")
        gens = [_element_from_obj(group, g, f"{location}.generators[{i}]")
                for i, g in enumerate(gens_obj)]
        try:
            return generated_subgroup(group, gens)
        except FrameStarterError as exc:
            raise SchemaError(str(exc), f"{location}.generators") from exc
    raise SchemaError("need either 'order' or 'generators'", location)


def _element_to_obj(group: GroupSpec, x: Element):
    return x.coords[0] if group.is_cyclic else list(x.coords)


def _element_from_obj(group: GroupSpec, obj: Any, location: str) -> Element:
    """The element written as obj; residues are checked, never reduced."""
    coords = [obj] if _is_int(obj) and group.is_cyclic else obj
    if not (isinstance(coords, list) and len(coords) == len(group.factors)
            and all(_is_int(c) and 0 <= c < m
                    for c, m in zip(coords, group.factors))):
        want = (f"an integer in [0, {group.order})" if group.is_cyclic else
                f"a list of {len(group.factors)} integers, each in [0, m) "
                f"for its factor m of {list(group.factors)}")
        raise SchemaError(f"element must be {want}, got {obj!r}", location)
    return group.element(coords)


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


def starter_from_obj(obj: Any, location: str = "$") -> FrameStarter:
    _expect(obj, dict, location)
    group = group_from_obj(obj.get("group"), f"{location}.group")
    pairs_obj = _expect(obj.get("pairs"), list, f"{location}.pairs")
    # u >= 2 means h <= g/2, so (g-h)/2 >= g/4 pairs.  Checked before the
    # subgroup is materialized, which costs memory in h.
    if 4 * len(pairs_obj) < group.order:
        raise SchemaError(
            f"a starter in a group of order {group.order} has at least "
            f"{-(-group.order // 4)} pairs, got {len(pairs_obj)}",
            f"{location}.pairs")
    sub = subgroup_from_obj(group, obj.get("subgroup"), f"{location}.subgroup")
    pairs = []
    for i, entry in enumerate(pairs_obj):
        loc = f"{location}.pairs[{i}]"
        entry = _expect(entry, list, loc)
        if len(entry) != 2:
            raise SchemaError("a pair needs exactly two elements", loc)
        try:
            pairs.append(Pair(_element_from_obj(group, entry[0], f"{loc}[0]"),
                              _element_from_obj(group, entry[1], f"{loc}[1]")))
        except StructureError as exc:  # a degenerate pair
            raise SchemaError(str(exc), loc) from exc
    try:
        return FrameStarter(group, sub, pairs)
    except FrameStarterError as exc:
        raise SchemaError(str(exc), f"{location}.pairs") from exc


def load_starter(path: str | Path) -> FrameStarter:
    """Read a starter file; a file or JSON error names the path."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise FrameStarterError(f"{path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON: {exc}", str(path)) from exc
    return starter_from_obj(obj)


def dump_starter(s: FrameStarter, path: str | Path):
    """Write a starter file; a file error names the path."""
    try:
        Path(path).write_text(json.dumps(starter_to_obj(s), indent=1) + "\n",
                              encoding="utf-8")
    except OSError as exc:
        raise FrameStarterError(f"{path}: {exc.strerror or exc}") from exc


def report_to_obj(report: VerificationReport) -> dict:
    return {
        "is_frame": report.is_frame,
        "is_strong": report.is_strong,
        "is_skew": report.is_skew,
        "witness": report.witness,
    }


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
