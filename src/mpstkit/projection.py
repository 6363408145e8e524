"""Endpoint projection of global types, with the full-merge operator.

Projecting a communication yields a send for the sender, a receive for the
receiver, and for everyone else the merge of the projected continuations:
the step is invisible to a bystander, but its branches must collapse into
one local type the bystander can follow.  `erase` takes that step, for
projection and for the consistency checker's restriction to one partner.

Full merge unions receive branches (distinct sorts are kept side by side,
shared sorts have their continuations merged) and requires send branches to
agree exactly.  Restriction merges with `union_sends`: there, an observed
role's internal choice legitimately widens the sends its partner may see.
"""

from __future__ import annotations

from .core import (
    Com,
    End,
    END,
    GlobalType,
    LocalType,
    Loop,
    Recur,
    RecVar,
    Role,
    free_rec_vars,
    is_guarded,
    path_text,
    Recv,
    Repeat,
    Send,
    TypeNode,
    shared_postorder,
    substitute,
)


class MergeError(Exception):
    """Two local types cannot be merged into one."""

    def __init__(self, left: LocalType, right: LocalType, reason: str):
        self.left = left
        self.right = right
        self.reason = reason
        super().__init__(f"cannot merge: {reason}\n  left:  {left}\n  right: {right}")


class ProjectionError(Exception):
    """A global type is not projectable onto a role."""

    def __init__(self, role: Role, path: str, cause: MergeError):
        self.role = role
        self.path = path
        self.cause = cause
        super().__init__(
            f"global type is not projectable onto {role} (at {path}): {cause.reason}"
        )


def _align_loops(a: Loop, b: Loop) -> tuple:
    """Give both loop bodies the same binder so they can be merged positionally."""
    if a.var == b.var:
        return a.var, a.body, b.body
    taken = {v.name for v in free_rec_vars(a.body) | free_rec_vars(b.body)}
    taken.add(a.var.name)
    taken.add(b.var.name)
    i = 0
    while f"M{i}" in taken:
        i += 1
    common = RecVar(f"M{i}")
    return (
        common,
        substitute(a.body, a.var, Recur(common)),
        substitute(b.body, b.var, Recur(common)),
    )


def merge(a: LocalType, b: LocalType, *, union_sends: bool = False) -> LocalType:
    """Full merge of two local types.  Raises MergeError when undefined."""
    if isinstance(a, End) and isinstance(b, End):
        return END
    if isinstance(a, Recur) and isinstance(b, Recur):
        if a.var == b.var:
            return a
        raise MergeError(a, b, "different recursion variables")
    if isinstance(a, Loop) and isinstance(b, Loop):
        var, body_a, body_b = _align_loops(a, b)
        return Loop(var, merge(body_a, body_b, union_sends=union_sends))
    if isinstance(a, (Send, Recv)) and type(a) is type(b):
        if (a.sender, a.receiver) != (b.sender, b.receiver):
            peers = "sends to" if isinstance(a, Send) else "receives from"
            raise MergeError(a, b, f"{peers} different peers")
        if isinstance(a, Recv) or union_sends:
            return type(a)(a.sender, a.receiver, _union(a, b, union_sends))
        names_a = [s.name for s, _ in a.branches]
        names_b = [s.name for s, _ in b.branches]
        if names_a != names_b:
            raise MergeError(a, b, "sends offer different sorts")
        merged = tuple(
            (sa, merge(ca, cb, union_sends=union_sends))
            for (sa, ca), (_, cb) in zip(a.branches, b.branches)
        )
        return Send(a.sender, a.receiver, merged)
    raise MergeError(a, b, "incompatible constructors")


def _union(a, b, union_sends: bool) -> tuple:
    """Ordered branch union: left branches first, right-only sorts appended."""
    out = list(a.branches)
    index = {s.name: i for i, (s, _) in enumerate(out)}
    for s, cont in b.branches:
        i = index.get(s.name)
        if i is None:
            index[s.name] = len(out)
            out.append((s, cont))
        else:
            s0, cont0 = out[i]
            if s0 != s:
                raise MergeError(a, b, f"sort {s.name} has conflicting payloads")
            out[i] = (s0, merge(cont0, cont, union_sends=union_sends))
    return tuple(out)


def merge_all(ts: list, *, union_sends: bool = False) -> LocalType:
    """Left fold of merge; reports which pair of operands failed."""
    if not ts:
        raise ValueError("merge_all of an empty list")
    acc = ts[0]
    for i, t in enumerate(ts[1:], start=1):
        try:
            acc = merge(acc, t, union_sends=union_sends)
        except MergeError as e:
            e.index_pair = (i - 1, i)  # accumulated prefix vs operand i
            raise
    return acc


def erase(t: TypeNode, keep, *, union_sends: bool = False) -> TypeNode:
    """Rebuild t bottom up, keeping each communication as the constructor
    `keep(node)` names, or erasing it (None) into the merge of its rebuilt
    continuations.  Loops close from the free recursion variables kept beside
    each rebuilt subterm, so projections stay well formed.

    Subterms are rebuilt in `shared_postorder`, so a subterm object met on
    two paths is rebuilt once and shared, and a MergeError is the one the
    recursion would meet first; its `node` is the step that failed."""
    out: list = []  # rebuilt subterms; a node's continuations end it
    free: list = []  # the free recursion variables of each subterm in out
    none: frozenset = frozenset()
    for node in shared_postorder(t):
        kind = type(node)
        if kind is End or kind is Recur:
            out.append(node)
            free.append(none if kind is End else frozenset((node.var,)))
        elif kind is Loop:
            var, fv = node.var, free[-1]
            if var in fv:  # else the unused binder is dropped
                closed = is_guarded(var, out[-1])  # else the role never acts in it
                out[-1] = Loop(var, out[-1]) if closed else END
                free[-1] = fv - {var} if closed else none
        elif kind is Repeat:
            node.reuse(out, free)
        elif len(node.branches) == 1:  # one continuation keeps its free variables
            ctor = keep(node)
            if ctor is not None:
                out[-1] = ctor(node.sender, node.receiver, ((node.branches[0][0], out[-1]),))
        else:
            bs, ctor = node.branches, keep(node)
            start = len(out) - len(bs)
            if ctor is not None:
                sorts = [s for s, _ in bs]
                out[start:] = [ctor(node.sender, node.receiver, tuple(zip(sorts, out[start:])))]
            else:
                try:
                    out[start:] = [merge_all(out[start:], union_sends=union_sends)]
                except MergeError as e:
                    e.node = node
                    raise
            fvs = free[start:]  # usually all empty; a merge's are its operands' together
            free[start:] = fvs[:1] if fvs and fvs.count(fvs[0]) == len(fvs) else [none.union(*fvs)]
    return out[0]


def _path_to(t: TypeNode, target: TypeNode):
    """Path to the first preorder occurrence of the object `target` in t,
    also its first in post-order: occurrences of one object are disjoint.
    An object met again is not searched again: `target` is not in it."""
    stack = [(t, None)]
    searched: set = set()
    while stack:
        node, path = stack.pop()
        if node is target:
            return path
        if id(node) in searched:
            continue
        searched.add(id(node))
        if isinstance(node, Loop):
            stack.append((node.body, (path, None)))
        elif isinstance(node, Com):
            stack += reversed([(c, (path, i)) for i, (_, c) in enumerate(node.branches)])


def project(g: GlobalType, role: Role) -> LocalType:
    """Project a global type onto one role (raises ProjectionError)."""

    def keep(node: Com):
        if node.sender == role:
            return Send
        return Recv if node.receiver == role else None

    try:
        return erase(g, keep)
    except MergeError as e:
        raise ProjectionError(role, path_text(_path_to(g, e.node)), e) from e


def result_or_error(fn, *args):
    """fn(*args), or the MergeError or ProjectionError it raised."""
    try:
        return fn(*args)
    except (MergeError, ProjectionError) as e:
        return e
