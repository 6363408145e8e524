"""Protocol type ASTs and the operations everything else is built on.

Global types describe a protocol from the bird's-eye view; local types
describe one role's side of it.  Both share the End/Loop/Recur node kinds,
so substitution, unfolding, alpha-normalization, structural equality and
well-formedness are written once and work on either family; unfolding and
well-formedness decide contractiveness by one rule, `is_guarded`.

Elaboration hash-conses a file's types, so one subterm object can sit on
many paths.  `postorder` (alias `subterms`) still lists it at each path, and
so do printing and the JSON encoding.  `shared_postorder` lists it once,
with a `Repeat` wherever it is met again; `free_rec_vars`, `roles_of` and
`projection.erase` (projection and partner restriction) fold over it, reuse
the value of a repeated object, and so share their results in turn.
`well_formed` keeps a verdict per repeated object, in a memo that can
outlive one call, and walks an object again only where it was not found
clean under the binders there.

Every class here (the type nodes, `Role`, `RecVar`, `Sort`,
`EndpointPayload` and `Violation`) is a frozen dataclass: values are
immutable after construction, hashable, and safe to share between threads.
The parse trees, process terms and checker records of the other modules,
built many times more often, are plain dataclasses: compared and hashed by
value all the same, and never changed after construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import count
from typing import Optional, Union

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class UnfoldError(Exception):
    """Raised when unfolding does not reach a non-loop head (non-contractive input)."""


@dataclass(frozen=True)
class Role:
    """A protocol participant, identified by name."""

    name: str

    def __post_init__(self) -> None:
        if not _IDENT_RE.fullmatch(self.name):
            raise ValueError(f"invalid role name: {self.name!r}")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class RecVar:
    """A recursion variable bound by Loop and referenced by Recur."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("empty recursion variable name")

    def __str__(self) -> str:
        return self.name


# Payload schemas a sort can carry.  "none", "int" and "string" are plain
# markers; a delegated endpoint carries the role being handed over plus the
# local type the receiver must continue.
PAYLOAD_NONE = "none"
PAYLOAD_INT = "int"
PAYLOAD_STRING = "string"


@dataclass(frozen=True)
class EndpointPayload:
    role: Role
    local: "LocalType"


PayloadSchema = Union[str, EndpointPayload]


@dataclass(frozen=True, eq=False)
class Sort:
    """A message sort. Equality is nominal on the name; endpoint sorts also
    compare the delegated role and local type structurally."""

    name: str
    payload: PayloadSchema = PAYLOAD_NONE

    def __post_init__(self) -> None:
        if not _IDENT_RE.fullmatch(self.name):
            raise ValueError(f"invalid sort name: {self.name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sort):
            return NotImplemented
        if self.name != other.name:
            return False
        a, b = self.payload, other.payload
        if isinstance(a, EndpointPayload) or isinstance(b, EndpointPayload):
            return (
                isinstance(a, EndpointPayload)
                and isinstance(b, EndpointPayload)
                and a.role == b.role
                and struct_eq(a.local, b.local)
            )
        return True

    def __hash__(self) -> int:
        return hash(self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class End:
    def __str__(self) -> str:
        return "end"


class _Rendered:
    """A node that prints as the text `_render` builds for it."""

    def __str__(self) -> str:
        return _render(self)


@dataclass(frozen=True)
class Loop(_Rendered):
    var: RecVar
    body: "TypeNode"


@dataclass(frozen=True)
class Recur:
    var: RecVar

    def __str__(self) -> str:
        return str(self.var)


Branches = tuple  # tuple[tuple[Sort, TypeNode], ...]


@dataclass(frozen=True)
class Com(_Rendered):
    """A communication step in a global type: sender -> receiver : branches."""

    sender: Role
    receiver: Role
    branches: Branches


@dataclass(frozen=True)
class Send(_Rendered):
    """A local-type send: performed by `sender`, addressed to `receiver`."""

    sender: Role
    receiver: Role
    branches: Branches


@dataclass(frozen=True)
class Recv(_Rendered):
    """A local-type receive: performed by `receiver`, awaiting `sender`."""

    sender: Role
    receiver: Role
    branches: Branches


_OPS = {Com: ":", Send: "!", Recv: "?"}


def _render(t: "TypeNode") -> str:
    """The text of a type, built with an explicit stack so that long types
    render without deep recursion.  Branch lists print `S . T` when there is
    one branch and `{ S1 . T1, S2 . T2 }` otherwise."""
    out, stack = [], [t]
    while stack:
        x = stack.pop()
        if isinstance(x, Loop):
            stack += [x.body, f"rec {x.var} . "]
        elif isinstance(x, (Com, Send, Recv)):
            opening, closing = ("", "") if len(x.branches) == 1 else ("{ ", " }")
            parts: list = [f"{x.sender} -> {x.receiver} {_OPS[type(x)]} {opening}"]
            for k, (s, cont) in enumerate(x.branches):
                parts += [", " if k else "", f"{s} . ", cont]
            stack += [closing, *reversed(parts)]
        else:
            out.append(str(x))  # a text piece, End or Recur
    return "".join(out)


GlobalType = Union[Com, End, Loop, Recur]
LocalType = Union[Send, Recv, End, Loop, Recur]
TypeNode = Union[Com, Send, Recv, End, Loop, Recur]

END = End()


def substitute(body: TypeNode, var: RecVar, replacement: TypeNode) -> TypeNode:
    """Replace every free Recur(var) in body by replacement.

    An inner Loop binding the same variable shadows: nothing is replaced
    beneath it.  The replacement is assumed closed, so no capture can occur.
    """
    if isinstance(body, Recur):
        return replacement if body.var == var else body
    if isinstance(body, Loop):
        if body.var == var:
            return body
        return Loop(body.var, substitute(body.body, var, replacement))
    if isinstance(body, (Com, Send, Recv)):
        new = tuple((s, substitute(c, var, replacement)) for s, c in body.branches)
        return type(body)(body.sender, body.receiver, new)
    return body


def unfold(t: TypeNode) -> TypeNode:
    """Unroll leading Loop nodes until the head constructor is not a Loop.  Each
    step removes one, unless `is_guarded` fails: then UnfoldError."""
    while isinstance(t, Loop):
        if not is_guarded(t.var, t.body):
            raise UnfoldError("unfolding did not terminate: non-contractive type")
        t = substitute(t.body, t.var, t)
    return t


def alpha_normalize(t: TypeNode) -> TypeNode:
    """Rename bound recursion variables canonically (X0, X1, ... in preorder).
    A name that occurs free in t is skipped, so no free variable is captured."""
    free = free_rec_vars(t)
    names = (RecVar(f"X{k}") for k in count())
    canonical = (v for v in names if v not in free)

    def walk(node: TypeNode, env: dict) -> TypeNode:
        if isinstance(node, Recur):
            return Recur(env.get(node.var, node.var))
        if isinstance(node, Loop):
            fresh = next(canonical)
            inner = dict(env)
            inner[node.var] = fresh
            return Loop(fresh, walk(node.body, inner))
        if isinstance(node, (Com, Send, Recv)):
            new = tuple((s, walk(c, env)) for s, c in node.branches)
            return type(node)(node.sender, node.receiver, new)
        return node

    return walk(t, {})


def struct_eq(a: TypeNode, b: TypeNode) -> bool:
    """Structural equality up to renaming of bound recursion variables.

    Branch order is significant; constructors and sort lists must match
    exactly.  Both types are numbered as `fsm.StateGraph`s sharing one
    hash-cons table, so equal closed ids mean alpha-equal terms; nothing
    recurses per step, and a free variable is never captured by a binder."""
    from .fsm import StateGraph  # fsm is built on this module

    cons: dict = {}
    return StateGraph(a, cons).closed(0) == StateGraph(b, cons).closed(0)


def free_rec_vars(t: TypeNode) -> set:
    """The recursion variables that occur free in t, built bottom up."""
    out: list = []  # free variables of each pending subterm
    for node in shared_postorder(t):
        kind = type(node)
        if kind is Recur:
            out.append(frozenset((node.var,)))
        elif kind is Loop:
            out.append(out.pop() - {node.var})
        elif kind is End:
            out.append(frozenset())
        elif kind is Repeat:
            node.reuse(out)
        elif len(node.branches) != 1:  # a single continuation's set stays
            start = len(out) - len(node.branches)
            out[start:] = [frozenset().union(*out[start:])]
    return set(out[0])


def is_guarded(var: RecVar, t: TypeNode) -> bool:
    """True when every free Recur(var) in t sits under a communication."""
    while isinstance(t, Loop):
        if t.var == var:
            return True
        t = t.body
    if isinstance(t, Recur):
        return t.var != var
    return True  # Com/Send/Recv guard everything below; End has no Recur


def roles_of(t: TypeNode) -> set:
    comms = (n for n in shared_postorder(t) if isinstance(n, (Com, Send, Recv)))
    return {r for n in comms for r in (n.sender, n.receiver)}


@dataclass(frozen=True)
class Violation:
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


def path_text(path) -> str:
    """Render a path kept as nested (parent, step) pairs from the root
    (None): step None is `.body`, an int i is `.branches[i]` and a str is
    itself."""
    steps = []
    while path is not None:
        path, step = path
        steps.append(step if type(step) is str else ".body" if step is None else f".branches[{step}]")
    return "$" + "".join(reversed(steps))


def well_formed(t: TypeNode, *, memo: Optional[dict] = None) -> list:
    """Collect well-formedness violations: self-communication, empty or
    duplicated branches, unbound recursion variables, non-contractive loops.

    An empty list means the type is well formed.  Works on global and local
    types alike.  Violations come in preorder, a duplicated sort just before
    its branch; paths are rendered only for violations.

    A subterm object met on many paths is decided once.  `memo` maps the id
    of t, of each choice object (2+ branches) met and of what the caller
    put in to `[object, bound]`: `bound` is None until a walk of the object
    finds it clean, then the recursion variables it was found clean under
    (their intersection, if found clean more than once).  A clean object is
    skipped wherever those variables are bound; any other object in the
    memo is walked again, and decided, at each meeting, so a violation is
    reported at every path.  Holding each object it keys, the memo never
    sees an id reused; a file's memo (`ProtocolFile.verdicts`) carries
    verdicts from one call to the next, and without one it lives for this
    call."""
    violations: list = []
    if memo is None:
        memo = {}
    memo.setdefault(id(t), [t, None])
    # items are (node, bound, path) to check, a Violation to report, or the
    # [memo entry, bound, violations before it] that ends an object's walk
    stack: list = [(t, frozenset(), None)]
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is Violation:
            violations.append(item)
            continue
        if kind is list:
            entry, bound, before = item
            if len(violations) == before:
                entry[1] = bound if entry[1] is None else entry[1] & bound
            continue
        node, bound, path = item
        kind = type(node)
        if kind is Recur:
            if node.var not in bound:
                violations.append(Violation(
                    path_text(path), f"unbound recursion variable: {node.var}"
                ))
            continue
        if kind is End:
            continue
        key = id(node)
        entry = memo.get(key)
        if entry is not None:
            if entry[1] is not None and entry[1] <= bound:
                continue
            stack.append([entry, bound, len(violations)])
        elif kind is not Loop and len(node.branches) > 1:
            memo[key] = [node, None]
        if kind is Loop:
            if not is_guarded(node.var, node.body):
                violations.append(Violation(
                    path_text(path), f"non-contractive recursion: rec {node.var}"
                ))
            stack.append((node.body, bound | {node.var}, (path, None)))
            continue
        if node.sender.name == node.receiver.name:
            violations.append(
                Violation(path_text(path), f"sender equals receiver: {node.sender}")
            )
        branches = node.branches
        if len(branches) == 1:  # the common case, kept cheap
            stack.append((branches[0][1], bound, (path, 0)))
            continue
        if not branches:
            violations.append(Violation(path_text(path), "communication with no branches"))
        seen: set = set()
        todo = []
        for i, (s, c) in enumerate(branches):
            if s.name in seen:
                todo.append(Violation(path_text(path), f"duplicate branch sort: {s.name}"))
            seen.add(s.name)
            todo.append((c, bound, (path, i)))
        stack += reversed(todo)
    return violations


def branch_lookup(branches: Branches, sort: Sort) -> Optional[TypeNode]:
    """Continuation paired with `sort`, or None when the sort is not offered."""
    for s, cont in branches:
        if s == sort:
            return cont
    return None


def branch_lookup_name(branches: Branches, name: str) -> Optional[TypeNode]:
    for s, cont in branches:
        if s.name == name:
            return cont
    return None


def postorder(t: TypeNode) -> list:
    """Every subterm of t, each after its continuations, left to right: a
    preorder taking branches right to left, on an explicit stack, reversed.
    A subterm object met on two paths is listed at each of them."""
    order: list = []
    stack: list = [t]
    while stack:
        node = stack.pop()
        order.append(node)
        kind = type(node)
        if kind is Loop:
            stack.append(node.body)
        elif kind is End or kind is Recur:
            continue
        elif len(node.branches) == 1:  # the common case, kept cheap
            stack.append(node.branches[0][1])
        else:
            stack += [c for _, c in node.branches]
    order.reverse()
    return order


subterms = postorder


class Repeat:
    """A subterm object that `shared_postorder` meets on more than one path.
    A listing holds it just after the object's one expansion and again at
    each later meeting; `reuse` is how a fold takes the object's value."""

    __slots__ = ("kept",)

    def __init__(self) -> None:
        self.kept = None

    def reuse(self, *stacks: list) -> None:
        """At the first meeting, keep the values on top of `stacks` (the
        object's, just folded); at each later one, push them again."""
        if self.kept is None:
            self.kept = [s[-1] for s in stacks]
        else:
            for s, v in zip(stacks, self.kept):
                s.append(v)


def shared_postorder(t: TypeNode) -> list:
    """`postorder`, except that a subterm object met on more than one path
    is folded once: a fold over this listing treats a `Repeat` as `reuse`
    says.  One listing serves one fold.

    The walk is `postorder`'s, one visit per node, until it meets a choice
    object (2+ branches) a second time; only a type that repeats a choice
    is walked again, expanding each object once.  Any other type repeats
    only chains, which cost no more than the tree."""
    order: list = []
    stack: list = [t]
    choices: set = set()  # ids of the choice objects met so far
    while stack:
        node = stack.pop()
        order.append(node)
        kind = type(node)
        if kind is Loop:
            stack.append(node.body)
        elif kind is End or kind is Recur:
            continue
        elif len(node.branches) == 1:
            stack.append(node.branches[0][1])
        elif id(node) in choices:
            return _expand_once(t)
        else:
            choices.add(id(node))
            stack += [c for _, c in node.branches]
    order.reverse()
    return order


def _expand_once(t: TypeNode) -> list:
    """The `shared_postorder` of a type that repeats a choice object: each
    Loop and communication object is expanded at its first meeting in
    post-order, and a `Repeat` follows its expansion and stands for it at
    each later meeting."""
    order: list = []
    repeats: dict = {}  # id of an expanded object -> its Repeat, or None
    stack: list = [t]  # a node to meet, or a 1-tuple: the node to list after its children
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is tuple:
            order.append(node[0])
            continue
        if kind is End or kind is Recur:
            order.append(node)
            continue
        key = id(node)
        if key in repeats:
            rep = repeats[key]
            if rep is None:
                rep = repeats[key] = Repeat()
            order.append(rep)
            continue
        repeats[key] = None
        stack.append((node,))
        if kind is Loop:
            stack.append(node.body)
        else:
            stack += [c for _, c in reversed(node.branches)]
    listing: list = []
    for node in order:
        listing.append(node)
        rep = repeats.get(id(node))  # None too for leaves and Repeats
        if rep is not None:
            listing.append(rep)
    return listing


# ---------------------------------------------------------------------------
# Canonical JSON encoding.

def payload_to_json(p: PayloadSchema) -> object:
    if isinstance(p, EndpointPayload):
        return {"kind": "endpoint", "role": p.role.name, "local": type_to_json(p.local)}
    return p


def sort_to_json(s: Sort) -> dict:
    return {"name": s.name, "payload": payload_to_json(s.payload)}


_KINDS = {Com: "com", Send: "send", Recv: "recv"}


def type_to_json(t: TypeNode) -> dict:
    """The JSON form of a type, built bottom up over `postorder`."""
    out: list = []  # JSON forms of pending subterms; a node's children end it
    for node in postorder(t):
        kind = type(node)
        if kind is End:
            out.append({"kind": "end"})
        elif kind is Recur:
            out.append({"kind": "recur", "var": node.var.name})
        elif kind is Loop:
            out.append({"kind": "loop", "var": node.var.name, "body": out.pop()})
        else:
            start = len(out) - len(node.branches)
            out[start:] = [{
                "kind": _KINDS[kind],
                "from": node.sender.name,
                "to": node.receiver.name,
                "branches": [[sort_to_json(s), k] for (s, _), k in zip(node.branches, out[start:])],
            }]
    return out[0]


def payload_from_json(data: object) -> PayloadSchema:
    if isinstance(data, dict):
        return EndpointPayload(Role(data["role"]), type_from_json(data["local"]))
    if data not in (PAYLOAD_NONE, PAYLOAD_INT, PAYLOAD_STRING):
        raise ValueError(f"unknown payload schema: {data!r}")
    return data


def sort_from_json(data: dict) -> Sort:
    return Sort(data["name"], payload_from_json(data["payload"]))


def type_from_json(data: dict) -> TypeNode:
    """The type of a JSON form.  Nodes are built in reverse preorder, each
    after its children, so nothing recurses per step."""
    order, stack = [], [data]
    while stack:
        d = stack.pop()
        order.append(d)
        stack += [d["body"]] if d["kind"] == "loop" else [c for _, c in d.get("branches", ())]
    built: dict = {}  # id of a JSON node -> its type
    for d in reversed(order):
        kind = d["kind"]
        if kind == "end":
            t = END
        elif kind == "recur":
            t = Recur(RecVar(d["var"]))
        elif kind == "loop":
            t = Loop(RecVar(d["var"]), built[id(d["body"])])
        else:
            ctor = {"com": Com, "send": Send, "recv": Recv}[kind]
            branches = tuple((sort_from_json(s), built[id(c)]) for s, c in d["branches"])
            t = ctor(Role(d["from"]), Role(d["to"]), branches)
        built[id(d)] = t
    return t
