"""Broadcast-with-side-information instances as weighted bipartite digraphs.

An instance has N receivers (users) on one side and M packet types on the
other.  Each packet type carries an integer weight (its multiplicity, or
equivalently its integer size), is demanded by exactly one user (unicast),
and is held as side information by a set of other users.  Demands and side
information are the arcs of a bipartite digraph: a packet-to-user arc means
"demands", a user-to-packet arc means "already has".

Instance files are YAML.  `parse_instance` composes the text into a node
graph with libyaml's parser (PyYAML's own parser where libyaml is missing)
and walks that graph once, as PyYAML's safe constructor would build it: it
applies `<<` merges, refuses a key written twice in one mapping, a non-scalar
key and a tag the safe constructor cannot build, each with its line and
column, and reads ids only from str-tagged scalars and a weight only from an
int-tagged one.
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


_TAG = "tag:yaml.org,2002:"
_STR, _SEQ, _MAP = (_TAG + name for name in ("str", "seq", "map"))
_SET, _OMAP, _PAIRS, _MERGE, _VALUE = (_TAG + name
                                       for name in ("set", "omap", "pairs", "merge", "value"))
_CONTAINERS = frozenset({_SEQ, _MAP, _SET, _OMAP, _PAIRS})
# The safe constructor builds every other tag it knows as one scalar value.
_SCALARS = {tag: build for tag, build in yaml.constructor.SafeConstructor.yaml_constructors.items()
            if tag is not None and tag not in _CONTAINERS}
_CONSTRUCTOR = yaml.constructor.SafeConstructor()  # its scalar builders keep no state


def _node_error(problem, node):
    return yaml.constructor.ConstructorError(None, None, problem, node.start_mark)


class _Graph:
    """One composed YAML document, walked once as PyYAML's safe constructor
    would build it: in its order (a container's items after every node met
    before it), with its merges and its errors, but building only the
    scalars whose tag is not `str`.  A scalar key written twice in one
    mapping, with one tag, is an error, where PyYAML keeps the last value;
    a key that a `<<` merge brings in may still be overridden."""

    def __init__(self, root):
        self.pairs = {}  # mapping node -> its (key, value) nodes, merges applied
        self.built = {}  # node -> the value of its scalar tag other than a str scalar's
        self._met = set()
        self._queue = []
        self._flattening = set()
        if root is not None:
            self._visit(root)
            for node in self._queue:  # grows while it is read
                self._fill(node)

    def _visit(self, node):
        """Construct `node` as `construct_object` does: a str scalar is its
        own value, any other scalar is built now, and a container is queued,
        since PyYAML fills it after every node met before it."""
        tag = node.tag
        if tag == _STR and isinstance(node, yaml.ScalarNode):
            return
        if tag in _CONTAINERS:
            if node not in self._met:
                self._met.add(node)
                self._queue.append(node)
        elif tag in _SCALARS:
            if node not in self.built:
                try:
                    self.built[node] = _SCALARS[tag](_CONSTRUCTOR, node)
                except (ValueError, LookupError, AttributeError, TypeError, RecursionError) as exc:
                    raise _node_error(
                        f"could not construct a scalar for the tag {tag!r}", node) from exc
        else:
            raise _node_error(f"could not determine a constructor for the tag {tag!r}", node)

    def _fill(self, node):
        """Construct a queued container's items, with PyYAML's checks."""
        tag = node.tag
        if tag == _SEQ:
            if not isinstance(node, yaml.SequenceNode):
                raise _node_error(f"expected a sequence node, but found {node.id}", node)
            for item in node.value:
                self._visit(item)
        elif tag == _MAP or tag == _SET:
            if not isinstance(node, yaml.MappingNode):
                raise _node_error(f"expected a mapping node, but found {node.id}", node)
            for key, value in self._flatten(node):
                if key.tag in _CONTAINERS:
                    raise _node_error("found unhashable key", key)
                self._visit(key)
                self._visit(value)
        else:  # an ordered map or pairs: a list of one-entry mappings
            if not isinstance(node, yaml.SequenceNode):
                raise _node_error(f"expected a sequence, but found {node.id}", node)
            for item in node.value:
                if not isinstance(item, yaml.MappingNode):
                    raise _node_error(f"expected a mapping of length 1, but found {item.id}", item)
                if len(item.value) != 1:
                    raise _node_error(
                        f"expected a single mapping item, but found {len(item.value)} items", item)
                key, value = item.value[0]
                self._visit(key)
                self._visit(value)

    def _flatten(self, node):
        """The mapping's pairs with each `<<` merge applied, as PyYAML's
        `flatten_mapping` orders them: merged pairs first, the first of
        several merged mappings last, so later pairs win."""
        pairs = self.pairs.get(node)
        if pairs is not None:
            return pairs
        written, merges, values = set(), False, []
        for key, _ in node.value:
            if key.tag == _MERGE:
                merges = True
                continue
            if key.tag == _VALUE:
                values.append(key)
            if isinstance(key, yaml.ScalarNode):
                if (key.tag, key.value) in written:
                    raise _node_error(f"found repeated key {key.value!r}", key)
                written.add((key.tag, key.value))
        for key in values:  # a `=` key is the string "=", as PyYAML retags it
            key.tag = _STR
        pairs = node.value
        if merges:
            self._flattening.add(node)
            merged = []
            for key, value in node.value:
                if key.tag != _MERGE:
                    continue
                if isinstance(value, yaml.MappingNode):
                    merged += self._merged(value)
                elif isinstance(value, yaml.SequenceNode):
                    sources = []
                    for source in value.value:
                        if not isinstance(source, yaml.MappingNode):
                            raise _node_error(
                                f"expected a mapping for merging, but found {source.id}", source)
                        sources.append(self._merged(source))
                    for source in reversed(sources):
                        merged += source
                else:
                    raise _node_error("expected a mapping or list of mappings for merging, "
                                      f"but found {value.id}", value)
            self._flattening.discard(node)
            pairs = merged + [(key, value) for key, value in node.value if key.tag != _MERGE]
        self.pairs[node] = pairs
        return pairs

    def _merged(self, source):
        # A mapping merged into itself brings its own pairs.
        if source in self._flattening:
            return [(key, value) for key, value in source.value if key.tag != _MERGE]
        return self._flatten(source)

    def fields(self, node):
        """The dict a plain mapping builds, with its values as nodes; None
        for any other node."""
        if not isinstance(node, yaml.MappingNode) or node.tag != _MAP:
            return None
        built = self.built
        return {key.value if key.tag == _STR and isinstance(key, yaml.ScalarNode)
                else built[key]: value for key, value in self.pairs[node]}

    def items(self, node):
        """The list a sequence builds, as nodes (an ordered-map entry, a
        tuple, as None); None for any other node."""
        if isinstance(node, yaml.SequenceNode):
            if node.tag == _SEQ:
                return node.value
            if node.tag in (_OMAP, _PAIRS):
                return [None] * len(node.value)
        return None

    def text(self, node):
        """The str a node builds, or None."""
        if isinstance(node, yaml.ScalarNode) and node.tag == _STR:
            return node.value
        value = self.built.get(node)
        return value if isinstance(value, str) else None


def parse_instance(text: str) -> Instance:
    """Parse instance-file text (a YAML mapping of `users` and `packets` only)."""
    try:
        root = yaml.compose(text, Loader=_LOADER)
        graph = _Graph(root)
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
    doc = graph.fields(root)
    if doc is None:
        raise InstanceFormatError("instance file must be a mapping with 'users' and 'packets'")
    if "users" not in doc or "packets" not in doc:
        raise InstanceFormatError("missing required field 'users' or 'packets'")
    unknown = set(doc) - {"users", "packets"}
    if unknown:
        raise InstanceFormatError(f"unknown top-level fields {sorted(unknown, key=str)}")
    users = graph.items(doc["users"])
    users = None if users is None else [graph.text(u) for u in users]
    if users is None or None in users:
        raise InstanceFormatError("'users' must be a list of id tokens")
    records = graph.items(doc["packets"])
    if records is None:
        raise InstanceFormatError("'packets' must be a list of packet records")
    packets = []
    for i, node in enumerate(records):
        rec = graph.fields(node)
        if rec is None or "id" not in rec or "demand" not in rec:
            raise InstanceFormatError(f"packet record {i}: need at least 'id' and 'demand'")
        unknown = set(rec) - {"id", "weight", "demand", "side"}
        if unknown:
            raise InstanceFormatError(
                f"packet record {i}: unknown fields {sorted(unknown, key=str)}")
        demand = rec["demand"]
        demands = graph.items(demand)
        if demands is not None:
            if not demands:
                raise InstanceFormatError(f"packet record {i}: 'demand' must name one user")
            if len(demands) > 1:
                raise InstanceFormatError(
                    f"packet record {i}: multicast demand sets are not supported"
                )
            demand = demands[0]
        side = graph.items(rec["side"]) if "side" in rec else []
        if side is None:
            raise InstanceFormatError(f"packet record {i}: 'side' must be a list")
        # YAML reads null, true or 010 as a non-string: refuse it, never rename it.
        ident, demand = graph.text(rec["id"]), graph.text(demand)
        side = [graph.text(u) for u in side]
        for field, ids in (("id", [ident]), ("demand", [demand]), ("side", side)):
            if None in ids:
                raise InstanceFormatError(f"packet record {i}: '{field}' must hold id tokens")
        # A weight is what its scalar's tag builds; all but an int fail validation.
        weight = graph.built.get(rec["weight"]) if "weight" in rec else 1
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
