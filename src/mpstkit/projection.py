"""Endpoint projection of global types, with the full-merge operator.

Projecting a communication yields a send for the sender, a receive for the
receiver, and for everyone else the merge of the projected continuations:
the step is invisible to a bystander, but its branches must collapse into
one local type the bystander can follow.

Full merge unions receive branches (distinct sorts are kept side by side,
shared sorts have their continuations merged) and requires send branches to
agree exactly.  The consistency checker reuses merge with `union_sends`
enabled: there, an observed role's internal choice legitimately widens the
set of sends its partner may see.
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
    Send,
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
    if isinstance(a, Recv) and isinstance(b, Recv):
        if (a.sender, a.receiver) != (b.sender, b.receiver):
            raise MergeError(a, b, "receives from different peers")
        return Recv(a.sender, a.receiver, _union(a, b, union_sends))
    if isinstance(a, Send) and isinstance(b, Send):
        if (a.sender, a.receiver) != (b.sender, b.receiver):
            raise MergeError(a, b, "sends to different peers")
        if union_sends:
            return Send(a.sender, a.receiver, _union(a, b, union_sends))
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


def close_loop(var: RecVar, body: LocalType) -> LocalType:
    # A loop the role never acts in projects to End; an unused binder is
    # dropped so projections stay well formed.
    if isinstance(body, Recur) and body.var == var:
        return END
    if var not in free_rec_vars(body):
        return body
    if not is_guarded(var, body):
        return END
    return Loop(var, body)


def project(g: GlobalType, role: Role) -> LocalType:
    """Project a global type onto one role (raises ProjectionError)."""

    # `path` is kept as nested (parent, step) pairs and rendered by
    # path_text only when projection fails.
    def walk(node: GlobalType, path) -> LocalType:
        if isinstance(node, End):
            return END
        if isinstance(node, Recur):
            return node
        if isinstance(node, Loop):
            return close_loop(node.var, walk(node.body, (path, None)))
        assert isinstance(node, Com)
        conts = [(s, walk(c, (path, i))) for i, (s, c) in enumerate(node.branches)]
        if node.sender == role:
            return Send(node.sender, node.receiver, tuple(conts))
        if node.receiver == role:
            return Recv(node.sender, node.receiver, tuple(conts))
        try:
            return merge_all([c for _, c in conts])
        except MergeError as e:
            raise ProjectionError(role, path_text(path), e) from e

    return walk(g, None)
