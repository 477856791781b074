"""Instance (de)serialization: JSON instance files and strict-order ballot files.

The JSON layout mirrors the data model directly so fixtures stay
human-diffable; writing is canonical (fixed key order, two-space indent),
which makes generate-twice byte-identical and write-then-parse exact.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from dire.constraints import Attribute, AttributeScheme, DiReInstance, make_instance
from dire.profiles import PreferenceProfile, make_profile
from dire.rules import Rule, RuleError, RULE_KINDS, validate_scoring


_INSTANCE_KEYS = {"m", "n", "k", "rule", "scoring", "priority", "rankings", "candidate_attributes",
                  "voter_attributes", "diversity_bounds", "representation_bounds",
                  "winning_committees", "allow_zero_bounds"}


class ParseError(ValueError):
    """A located instance-file error: carries the JSON key path."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


def _expect(data: Any, key: str, kind: type, path: str, optional: bool = False):
    if key not in data:
        if optional:
            return None
        raise ParseError(f"{path}.{key}", "missing required key")
    value = data[key]
    if kind is int and isinstance(value, bool):
        raise ParseError(f"{path}.{key}", "expected an integer, got a boolean")
    if not isinstance(value, kind):
        raise ParseError(f"{path}.{key}", f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _int_list(value: Any, path: str) -> list[int]:
    if not isinstance(value, list) or any(isinstance(x, bool) or not isinstance(x, int) for x in value):
        raise ParseError(path, "expected a list of integers")
    return list(value)


def _parse_attributes(data: Any, key: str, path: str) -> tuple[Attribute, ...]:
    raw = data.get(key, [])
    if not isinstance(raw, list):
        raise ParseError(f"{path}.{key}", "expected a list of attributes")
    attributes = []
    for idx, entry in enumerate(raw):
        entry_path = f"{path}.{key}[{idx}]"
        if not isinstance(entry, dict):
            raise ParseError(entry_path, "expected an object")
        name = _expect(entry, "name", str, entry_path)
        groups_raw = _expect(entry, "groups", dict, entry_path)
        groups = {
            label: _int_list(members, f"{entry_path}.groups.{label}")
            for label, members in groups_raw.items()
        }
        attributes.append(Attribute(name, groups))
    return tuple(attributes)


def _parse_bounds(data: Any, key: str, path: str) -> dict[tuple[str, str], int]:
    raw = data.get(key, {})
    if not isinstance(raw, dict):
        raise ParseError(f"{path}.{key}", "expected an object keyed by attribute name")
    bounds = {}
    for attr_name, per_label in raw.items():
        if not isinstance(per_label, dict):
            raise ParseError(f"{path}.{key}.{attr_name}", "expected an object keyed by label")
        for label, bound in per_label.items():
            if isinstance(bound, bool) or not isinstance(bound, int):
                raise ParseError(f"{path}.{key}.{attr_name}.{label}", "expected an integer bound")
            bounds[(attr_name, label)] = bound
    return bounds


def instance_from_dict(data: dict, rule_override: Rule | None = None) -> DiReInstance:
    """Build a validated instance from parsed JSON.

    ``rule_override`` swaps the rule before winning committees are
    materialized; committees pinned in the file stay as written.
    """
    path = "$"
    if not isinstance(data, dict):
        raise ParseError(path, "instance file must be a JSON object")
    for key in data:
        if key not in _INSTANCE_KEYS:
            raise ParseError(f"{path}.{key}", f"unknown key, expected one of {sorted(_INSTANCE_KEYS)}")
    m = _expect(data, "m", int, path)
    n = _expect(data, "n", int, path)
    k = _expect(data, "k", int, path)
    rule_kind = _expect(data, "rule", str, path)
    if rule_kind not in RULE_KINDS:
        raise ParseError(f"{path}.rule", f"unknown rule {rule_kind!r}, expected one of {RULE_KINDS}")
    scoring = data.get("scoring")
    if scoring is not None:
        try:
            scoring = validate_scoring(_int_list(scoring, f"{path}.scoring"), m)
        except RuleError as exc:
            raise ParseError(f"{path}.scoring", str(exc)) from None
    rule = rule_override or Rule(rule_kind, scoring)

    rankings_raw = _expect(data, "rankings", list, path)
    if len(rankings_raw) != n:
        raise ParseError(f"{path}.rankings", f"found {len(rankings_raw)} rankings, expected n={n}")
    rankings = [_int_list(r, f"{path}.rankings[{v}]") for v, r in enumerate(rankings_raw)]
    priority = data.get("priority")
    if priority is not None:
        priority = _int_list(priority, f"{path}.priority")
    profile = make_profile(m, rankings, priority)

    scheme = AttributeScheme(
        candidate_attributes=_parse_attributes(data, "candidate_attributes", path),
        voter_attributes=_parse_attributes(data, "voter_attributes", path),
    )
    diversity = _parse_bounds(data, "diversity_bounds", path)
    representation = _parse_bounds(data, "representation_bounds", path)
    winning = None
    if "winning_committees" in data:
        winning = {}
        raw = _expect(data, "winning_committees", dict, path)
        for attr_name, per_label in raw.items():
            if not isinstance(per_label, dict):
                raise ParseError(f"{path}.winning_committees.{attr_name}", "expected an object")
            for label, members in per_label.items():
                winning[(attr_name, label)] = tuple(
                    _int_list(members, f"{path}.winning_committees.{attr_name}.{label}")
                )
    allow_zero = data.get("allow_zero_bounds", False)
    if not isinstance(allow_zero, bool):
        raise ParseError(f"{path}.allow_zero_bounds", "expected a boolean")
    return make_instance(
        profile=profile,
        scheme=scheme,
        k=k,
        rule=rule,
        diversity_bounds=diversity,
        representation_bounds=representation,
        winning_committees=winning,
        allow_zero_bounds=allow_zero,
    )


def instance_to_dict(instance: DiReInstance) -> dict:
    def attr_list(attributes):
        return [
            {"name": attr.name, "groups": {label: list(members) for label, members in attr.groups}}
            for attr in attributes
        ]

    def bounds_map(bounds):
        nested: dict[str, dict[str, int]] = {}
        for (attr_name, label), bound in bounds.items():
            nested.setdefault(attr_name, {})[label] = bound
        return nested

    winning: dict[str, dict[str, list[int]]] = {}
    for (attr_name, label), members in instance.winning_committees.items():
        winning.setdefault(attr_name, {})[label] = list(members)

    data = {
        "m": instance.m,
        "n": instance.n,
        "k": instance.k,
        "rule": instance.rule.kind,
        "priority": list(instance.profile.priority),
        "rankings": [list(r) for r in instance.profile.rankings],
        "candidate_attributes": attr_list(instance.scheme.candidate_attributes),
        "voter_attributes": attr_list(instance.scheme.voter_attributes),
        "diversity_bounds": bounds_map(instance.diversity_bounds),
        "representation_bounds": bounds_map(instance.representation_bounds),
        "winning_committees": winning,
    }
    if instance.rule.scoring is not None:
        data["scoring"] = list(instance.rule.scoring)
    if instance.allow_zero_bounds:
        data["allow_zero_bounds"] = True
    return data


def dumps_instance(instance: DiReInstance) -> str:
    return json.dumps(instance_to_dict(instance), indent=2) + "\n"


def write_instance(instance: DiReInstance, path: str | Path) -> None:
    Path(path).write_text(dumps_instance(instance), encoding="utf-8")


def parse_instance(path: str | Path, rule_override: Rule | None = None) -> DiReInstance:
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("$", f"invalid JSON: {exc}") from exc
    return instance_from_dict(data, rule_override)


def read_soc(path: str | Path) -> tuple[PreferenceProfile, list[str]]:
    """Read a strict-order ballot file in the classic PrefLib .soc layout.

    Layout: comment lines starting with '#'; candidate count m; m lines
    "id, name" (1-based ids); a line "n, total, unique"; then one line per
    distinct ranking "count, c1, c2, ..., cm".  Returns the expanded
    profile and the candidate names indexed by 0-based id.
    """
    text = Path(path).read_text(encoding="utf-8").splitlines()
    kept = [no for no, line in enumerate(text) if line.strip() and not line.lstrip().startswith("#")]
    lines = [text[no].strip() for no in kept]
    where = [f"soc:{no + 1}" for no in kept]  # each kept line's place in the file, for errors
    if not lines:
        raise ParseError("soc", "file is empty")
    try:
        m = int(lines[0])
    except ValueError as exc:
        raise ParseError(where[0], f"first line must be the candidate count, got {lines[0]!r}") from exc
    if m < 1:
        raise ParseError(where[0], f"candidate count must be at least 1, got {m}")
    if len(lines) < m + 2:
        raise ParseError("soc", f"expected {m} candidate lines plus a summary line")
    names = [""] * m
    seen: set[int] = set()
    for row in range(1, m + 1):
        head, _, name = lines[row].partition(",")
        try:
            cand = int(head)
        except ValueError as exc:
            raise ParseError(where[row], f"bad candidate line {lines[row]!r}") from exc
        if not 1 <= cand <= m:
            raise ParseError(where[row], f"candidate id {cand} out of range 1..{m}")
        if cand in seen:
            raise ParseError(where[row], f"candidate id {cand} listed twice")
        seen.add(cand)
        names[cand - 1] = name.strip()
    summary = [x.strip() for x in lines[m + 1].split(",")]
    try:
        n_voters = int(summary[0])
    except (ValueError, IndexError) as exc:
        raise ParseError(where[m + 1], f"bad summary line {lines[m + 1]!r}") from exc
    rankings: list[tuple[int, ...]] = []
    for row in range(m + 2, len(lines)):
        parts = [x.strip() for x in lines[row].split(",")]
        try:
            count = int(parts[0])
            order = tuple(int(x) - 1 for x in parts[1:])
        except ValueError as exc:
            raise ParseError(where[row], f"bad ranking line {lines[row]!r}") from exc
        if count < 0:
            raise ParseError(where[row], f"negative ranking count {count}")
        if sorted(order) != list(range(m)):
            raise ParseError(where[row], f"ranking is not a permutation of 1..{m}")
        rankings.extend([order] * count)
    if len(rankings) != n_voters:
        raise ParseError("soc", f"rankings expand to {len(rankings)} voters, summary says {n_voters}")
    return make_profile(m, rankings), names
