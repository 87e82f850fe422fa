"""Broadcast-with-side-information instances as weighted bipartite digraphs.

An instance has N receivers (users) on one side and M packet types on the
other.  Each packet type carries an integer weight (its multiplicity, or
equivalently its integer size), is demanded by exactly one user (unicast),
and is held as side information by a set of other users.  Demands and side
information are the arcs of a bipartite digraph: a packet-to-user arc means
"demands", a user-to-packet arc means "already has".

Instance files are YAML of one fixed shape.  `parse_instance` composes the
text into a node graph with libyaml's parser (PyYAML's own parser where
libyaml is missing, or where the text could nest too deeply for libyaml)
and reads each field by its position: the root and each packet record only
as a plain mapping, `users`, `packets` and `side` only as a plain list, an
id only as a str scalar and a weight only as an int one.  Any other key,
a `<<` merge key among them, is an unknown field, and a key written twice
in one mapping is refused with its line and column.  An alias is read as
the node it names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

import yaml

_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

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

    @cached_property
    def _packet_graph(self) -> tuple[list[str], list[int], list[int]]:
        """The packet digraph as bitmasks and its strong components of two
        or more packets (`enumeration._packet_graph`), made once for the
        enumerators, `analysis` and `coding` to share."""
        from .enumeration import _packet_graph  # enumeration imports this module
        return _packet_graph(self)

    def packet(self, pid: str) -> PacketType:
        return self._packet_by_id[pid]

    @property
    def packet_ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.packets)

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


_TAG = "tag:yaml.org,2002:"
_STR, _INT, _SEQ, _MAP = (_TAG + name for name in ("str", "int", "seq", "map"))
_CONSTRUCTOR = yaml.constructor.SafeConstructor()  # construct_yaml_int keeps no state

# libyaml's composer recurses on the C stack once per level of nesting: with
# an 8 MB stack it composes 20,000 nested lists and segfaults at 25,000.
# Each collection needs an indicator of its own ('[', '{', '-', '?' or ':'),
# so a text with more of them than this bound, which no instance of a few
# hundred packets reaches, is composed by PyYAML's own composer, whose
# recursion Python bounds.
_MAX_INDICATORS = 2_000


def _at(message, node):
    mark = node.start_mark
    return InstanceFormatError(message, line=mark.line + 1, column=mark.column + 1)


def _fields(node, text):
    """A plain mapping's value nodes by field name, and the names of its
    other keys (any key but a str scalar, named by its source text); a pair
    of Nones for any other node.  A scalar key written twice is an error."""
    if not isinstance(node, yaml.MappingNode) or node.tag != _MAP:
        return None, None
    fields, others, written = {}, set(), set()
    for key, value in node.value:
        if isinstance(key, yaml.ScalarNode):
            if (key.tag, key.value) in written:
                raise _at(f"found repeated key {key.value!r}", key)
            written.add((key.tag, key.value))
            if key.tag == _STR:
                fields[key.value] = value
                continue
        others.add(text[key.start_mark.index:key.end_mark.index].strip())
    return fields, others


def _items(node):
    """A plain list's item nodes, or None."""
    return node.value if isinstance(node, yaml.SequenceNode) and node.tag == _SEQ else None


def _id(node):
    """A str scalar's text, or None."""
    return node.value if isinstance(node, yaml.ScalarNode) and node.tag == _STR else None


def _weight(node):
    """An int scalar's value as PyYAML reads it (`0x10`, `1_000`, `1:30`),
    or None, which validation refuses."""
    if not isinstance(node, yaml.ScalarNode) or node.tag != _INT:
        return None
    try:
        return _CONSTRUCTOR.construct_yaml_int(node)
    except (ValueError, LookupError) as exc:
        raise _at(f"could not construct a scalar for the tag {_INT!r}", node) from exc


def parse_instance(text: str) -> Instance:
    """Parse instance-file text (a YAML mapping of `users` and `packets` only)."""
    # A byte-order mark: libyaml's marks skip it, PyYAML's count it.
    text = text.removeprefix("\ufeff")
    shallow = sum(map(text.count, "[{-?:")) <= _MAX_INDICATORS
    try:
        root = yaml.compose(text, Loader=_LOADER if shallow else yaml.SafeLoader)
    except RecursionError:
        raise InstanceFormatError("instance file nests too deeply") from None
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
    doc, others = _fields(root, text)
    if doc is None:
        raise InstanceFormatError("instance file must be a mapping with 'users' and 'packets'")
    if "users" not in doc or "packets" not in doc:
        raise InstanceFormatError("missing required field 'users' or 'packets'")
    unknown = (set(doc) - {"users", "packets"}) | others
    if unknown:
        raise InstanceFormatError(f"unknown top-level fields {sorted(unknown)}")
    users = _items(doc["users"])
    users = None if users is None else [_id(u) for u in users]
    if users is None or None in users:
        raise InstanceFormatError("'users' must be a list of id tokens")
    records = _items(doc["packets"])
    if records is None:
        raise InstanceFormatError("'packets' must be a list of packet records")
    packets = []
    for i, node in enumerate(records):
        rec, others = _fields(node, text)
        if rec is None or "id" not in rec or "demand" not in rec:
            raise InstanceFormatError(f"packet record {i}: need at least 'id' and 'demand'")
        unknown = (set(rec) - {"id", "weight", "demand", "side"}) | others
        if unknown:
            raise InstanceFormatError(f"packet record {i}: unknown fields {sorted(unknown)}")
        demand = rec["demand"]
        demands = _items(demand)
        if demands is not None:
            if not demands:
                raise InstanceFormatError(f"packet record {i}: 'demand' must name one user")
            if len(demands) > 1:
                raise InstanceFormatError(
                    f"packet record {i}: multicast demand sets are not supported"
                )
            demand = demands[0]
        side = _items(rec["side"]) if "side" in rec else []
        if side is None:
            raise InstanceFormatError(f"packet record {i}: 'side' must be a list")
        # YAML reads null, true or 010 as a non-string: refuse it, never rename it.
        ident, demand = _id(rec["id"]), _id(demand)
        side = [_id(u) for u in side]
        for field, ids in (("id", [ident]), ("demand", [demand]), ("side", side)):
            if None in ids:
                raise InstanceFormatError(f"packet record {i}: '{field}' must hold id tokens")
        weight = _weight(rec["weight"]) if "weight" in rec else 1
        packets.append(PacketType(ident, weight, demand, frozenset(side)))
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
