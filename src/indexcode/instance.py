"""Broadcast-with-side-information instances as weighted bipartite digraphs.

An instance has N receivers (users) on one side and M packet types on the
other.  Each packet type carries an integer weight (its multiplicity, or
equivalently its integer size), is demanded by exactly one user (unicast),
and is held as side information by a set of other users.  Demands and side
information are the arcs of a bipartite digraph: a packet-to-user arc means
"demands", a user-to-packet arc means "already has".
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

import yaml

_MERGE = "tag:yaml.org,2002:merge"


class _LOADER(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader (libyaml's parser when PyYAML was built with it; both
    build the same documents), except that a scalar key written twice in
    one mapping, with one tag and one value, is an error, where PyYAML keeps
    the last value.  A key that a ``<<`` merge brings in may still be
    overridden."""

    def __init__(self, stream):
        super().__init__(stream)
        self._checked = set()

    def flatten_mapping(self, node):
        # Merging rewrites a merged mapping in place, and one that is also
        # used as a value is flattened again: check the keys as written.
        if node not in self._checked:
            self._checked.add(node)
            seen = set()
            for key_node, _ in node.value:
                if isinstance(key_node, yaml.ScalarNode) and key_node.tag != _MERGE:
                    key = key_node.tag, key_node.value
                    if key in seen:
                        raise yaml.constructor.ConstructorError(
                            "while constructing a mapping", node.start_mark,
                            f"found repeated key {key_node.value!r}", key_node.start_mark)
                    seen.add(key)
        super().flatten_mapping(node)


_ID_RE = re.compile(r"[A-Za-z0-9_]+")


class InstanceError(ValueError):
    """Base class for instance parsing/validation problems."""


class InstanceFormatError(InstanceError):
    """Malformed instance text (syntax, missing fields, bad types)."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class InstanceValidationError(InstanceError):
    """Well-formed text that violates an instance invariant."""


@dataclass(frozen=True)
class PacketType:
    """One packet vertex: weight-many identical packets with shared arcs."""

    id: str
    weight: int
    demand: str
    side: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "side", frozenset(self.side))


@dataclass(frozen=True)
class Instance:
    """Immutable unicast instance; validate with :func:`validate_instance`."""

    users: tuple[str, ...]
    packets: tuple[PacketType, ...]

    @cached_property
    def _packet_by_id(self) -> dict[str, PacketType]:
        return {p.id: p for p in self.packets}

    def packet(self, pid: str) -> PacketType:
        return self._packet_by_id[pid]

    @property
    def packet_ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.packets)

    def side_packets(self, user: str) -> frozenset[str]:
        """Packet ids the given user holds as side information."""
        return frozenset(p.id for p in self.packets if user in p.side)

    def demanded_packets(self, user: str) -> frozenset[str]:
        return frozenset(p.id for p in self.packets if p.demand == user)


def validate_instance(inst: Instance) -> Instance:
    """Check all instance invariants; return the instance unchanged."""
    users = set(inst.users)
    if len(users) != len(inst.users):
        raise InstanceValidationError("duplicate user ids")
    for name in list(inst.users) + [p.id for p in inst.packets]:
        if not _ID_RE.fullmatch(name):
            raise InstanceValidationError(f"id {name!r} is not an alphanumeric token")
    seen_ids = set()
    seen_arcs = set()
    for p in inst.packets:
        if p.id in seen_ids:
            raise InstanceValidationError(f"duplicate packet id {p.id!r}")
        seen_ids.add(p.id)
        if isinstance(p.weight, bool) or not isinstance(p.weight, int) or p.weight < 1:
            raise InstanceValidationError(f"packet {p.id}: weight must be a positive integer")
        if not p.demand:
            raise InstanceValidationError(f"packet {p.id}: demand set is empty")
        if p.demand not in users:
            raise InstanceValidationError(f"packet {p.id}: demand user {p.demand!r} not declared")
        for u in p.side:
            if u not in users:
                raise InstanceValidationError(f"packet {p.id}: side user {u!r} not declared")
        if p.demand in p.side:
            raise InstanceValidationError(
                f"packet {p.id}: demand user {p.demand!r} also listed as side information"
            )
        key = (p.demand, p.side)
        if key in seen_arcs:
            raise InstanceValidationError(
                f"packet {p.id}: duplicate (side, demand) pair - types must be merged"
            )
        seen_arcs.add(key)
    return inst


def make_instance(users, packets) -> Instance:
    """Build and validate an Instance from plain sequences."""
    pts = []
    for p in packets:
        if isinstance(p, PacketType):
            pts.append(p)
        else:
            pts.append(PacketType(p[0], p[1], p[2], frozenset(p[3])))
    return validate_instance(Instance(tuple(users), tuple(pts)))


def parse_instance(text: str) -> Instance:
    """Parse instance-file text (a YAML mapping of `users` and `packets` only)."""
    try:
        doc = yaml.load(text, Loader=_LOADER)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        raise InstanceFormatError(
            str(exc.problem or exc),
            line=None if mark is None else mark.line + 1,
            column=None if mark is None else mark.column + 1,
        ) from exc
    except (yaml.reader.ReaderError, UnicodeEncodeError) as exc:
        # The first character that the reader refuses; libyaml's parser
        # cannot even encode a lone surrogate to UTF-8.  The error's own
        # position counts characters or UTF-8 bytes, as the parser in use
        # does, so the character is placed by its first occurrence.
        char = (exc.object[exc.start] if isinstance(exc, UnicodeEncodeError)
                else chr(exc.character))
        before = text[:text.index(char)]
        raise InstanceFormatError(
            f"unacceptable character #x{ord(char):04x}: {exc.reason}",
            line=before.count("\n") + 1, column=len(before) - before.rfind("\n")) from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance file must be a mapping with 'users' and 'packets'")
    if "users" not in doc or "packets" not in doc:
        raise InstanceFormatError("missing required field 'users' or 'packets'")
    unknown = set(doc) - {"users", "packets"}
    if unknown:
        raise InstanceFormatError(f"unknown top-level fields {sorted(unknown, key=str)}")
    users = doc["users"]
    if not isinstance(users, list) or not all(isinstance(u, str) for u in users):
        raise InstanceFormatError("'users' must be a list of id tokens")
    raw_packets = doc["packets"]
    if not isinstance(raw_packets, list):
        raise InstanceFormatError("'packets' must be a list of packet records")
    packets = []
    for i, rec in enumerate(raw_packets):
        if not isinstance(rec, dict) or "id" not in rec or "demand" not in rec:
            raise InstanceFormatError(f"packet record {i}: need at least 'id' and 'demand'")
        unknown = set(rec) - {"id", "weight", "demand", "side"}
        if unknown:
            raise InstanceFormatError(
                f"packet record {i}: unknown fields {sorted(unknown, key=str)}")
        demand = rec["demand"]
        if isinstance(demand, list):
            if not demand:
                raise InstanceFormatError(f"packet record {i}: 'demand' must name one user")
            if len(demand) > 1:
                raise InstanceFormatError(
                    f"packet record {i}: multicast demand sets are not supported"
                )
            demand = demand[0]
        side = rec.get("side", [])
        if not isinstance(side, list):
            raise InstanceFormatError(f"packet record {i}: 'side' must be a list")
        # YAML reads null, true or 010 as a non-string: refuse it, never rename it.
        for field, ids in (("id", [rec["id"]]), ("demand", [demand]), ("side", side)):
            if not all(isinstance(x, str) for x in ids):
                raise InstanceFormatError(f"packet record {i}: '{field}' must hold id tokens")
        weight = rec.get("weight", 1)
        packets.append(PacketType(rec["id"], weight, demand, frozenset(side)))
    return validate_instance(Instance(tuple(users), tuple(packets)))


def total_weight(inst: Instance) -> int:
    """Sum of all packet-type weights (the number of unit packets W)."""
    return sum(p.weight for p in inst.packets)


def is_uniprior(inst: Instance, strict: bool = True) -> bool:
    """Whether every packet is held by at most one user as side information.

    With ``strict=True`` (the default) every packet must be held by exactly
    one user; with ``strict=False`` packets held by nobody also qualify.
    """
    if strict:
        return all(len(p.side) == 1 for p in inst.packets)
    return all(len(p.side) <= 1 for p in inst.packets)
