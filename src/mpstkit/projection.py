"""Endpoint projection of global types, with the full-merge operator.

Projecting a communication yields a send for the sender, a receive for the
receiver, and for everyone else the merge of the projected continuations:
the step is invisible to a bystander, but its branches must collapse into
one local type the bystander can follow.  `erase` takes that step, for
projection and for the consistency checker's restriction to one partner.

`project` and `restrict_to_partner` erase for one key (a role, a partner).
`project_all` projects every role in one fold: each subterm carries its
*silent erasure*, the erasure with nothing kept (`end`, a bare recursion
variable, or a failed merge), and a value only for the roles it mentions,
so a role pays nothing for a run of steps it never appears in.  A role
whose projection fails reports the same ProjectionError as `project`.

Full merge unions receive branches (distinct sorts are kept side by side,
shared sorts have their continuations merged) and requires send branches to
agree exactly.  Restriction merges with `union_sends`: there, an observed
role's internal choice legitimately widens the sends its partner may see.
An object merged with itself is itself, so a bystander merging two meetings
of one shared projection does no work for it.
"""

from __future__ import annotations

from typing import Optional

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
    """Give both loop bodies the same binder so they can be merged positionally.
    The binder is a variable neither loop has free or binds, so that putting
    it in for a loop's own variable captures nothing."""
    if a.var == b.var:
        return a.var, a.body, b.body
    taken = {v.name for v in free_rec_vars(a.body) | free_rec_vars(b.body)}
    taken |= {n.var.name for loop in (a, b) for n in shared_postorder(loop) if type(n) is Loop}
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
    """Full merge of two local types.  Raises MergeError when undefined.

    An object merged with itself is itself, so a bystander merging two
    meetings of one shared projection pays nothing for it."""
    if a is b:
        return a
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


def erase(t: TypeNode, keep, *, union_sends: bool = False, every: bool = False):
    """Rebuild t bottom up for one key, keeping each communication as the
    constructor `keep(node)` names, or erasing it (None) into the merge of
    its rebuilt continuations.  Loops close from the free recursion variables
    kept beside each subterm, so projections stay well formed; a rebuilt
    subterm has the same ones as the subterm, since erasure keeps every
    recursion leaf and turns a loop into `end` only where its body is a bare
    recursion on it.

    With `every`, one walk rebuilds t for every key at once: `keep(node)`
    lists a (key, constructor) pair for each key that keeps node.  Each
    pending subterm carries its *silent erasure*, the erasure with nothing
    kept (End, a bare Recur, or `_UNMERGED`), and a *lane*, its rebuilt
    subterm or a MergeError, only for each key it mentions; any other key
    takes the silent erasure, so a key pays nothing for a subterm that never
    mentions it.  The result maps each key t mentions to its lane.  A failed
    lane holds the first failure the key met, which is `_UNMERGED` when that
    was the silent erasure's: the one-key walk builds that MergeError.

    Subterms are rebuilt in `shared_postorder`, so a subterm object met on
    two paths is rebuilt once and shared, and a MergeError is the one the
    recursion would meet first; its `node` is the step that failed."""
    out: list = []  # rebuilt (with `every`, silent) subterms; a node's continuations end it
    free: list = []  # the free recursion variables of each subterm in out
    lanes: list = []  # with `every`, each subterm's lanes by key, or None
    none: frozenset = frozenset()
    for node in shared_postorder(t):
        kind = type(node)
        if kind is End or kind is Recur:
            out.append(node)
            free.append(none if kind is End else frozenset((node.var,)))
            if every:
                lanes.append(None)
        elif kind is Loop:
            var, fv = node.var, free[-1]
            if var in fv:  # else the unused binder is dropped
                free[-1] = fv - {var}
                out[-1] = _close(var, out[-1])
                if every and lanes[-1]:
                    for key, lane in lanes[-1].items():
                        lanes[-1][key] = _close(var, lane)
        elif kind is Repeat:
            if every:
                node.reuse(out, free, lanes)
                if lanes[-1]:  # the kept lanes stay as they are; these change in place
                    lanes[-1] = dict(lanes[-1])
            else:
                node.reuse(out, free)
        elif len(node.branches) == 1:  # one continuation keeps its free variables
            ctor = keep(node)
            if ctor is None:
                continue
            if not every:
                out[-1] = ctor(node.sender, node.receiver, ((node.branches[0][0], out[-1]),))
            else:
                lanes[-1] = _keep_lanes(node, ctor, out[-1], lanes[-1] or {})
        else:
            bs, ctor = node.branches, keep(node)
            start = len(out) - len(bs)
            if every:
                lanes[start:] = [_merge_lanes(node, ctor, out[start:], lanes[start:], union_sends)]
                out[start:] = [_merge_silent(out[start:])]
            elif ctor is not None:
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
    return (lanes[0] or {}) if every else out[0]


# The silent erasure of a subterm whose branches do not merge.  It is built
# once, here: a key that inherits it is erased alone for its MergeError.
_UNMERGED = MergeError(END, END, "a silent erasure does not merge")


def _close(var: RecVar, body):
    """The loop on `var` over a rebuilt body with `var` free: `end` where
    the body only recurs on it (the key never acts in the loop)."""
    if type(body) is MergeError:
        return body
    return Loop(var, body) if is_guarded(var, body) else END


def _merge_silent(values: list):
    """`merge_all` of silent erasures, or `_UNMERGED` where it would raise."""
    head = values[0]
    kind = type(head)
    for v in values[1:]:
        if type(v) is not kind or (kind is Recur and v.var != head.var):
            return _UNMERGED
    return head


def _keep_lanes(node: TypeNode, kept, silent, lanes: dict) -> dict:
    """The lanes of node's one continuation, extended in place by node for
    each (key, constructor) in `kept`."""
    sort = node.branches[0][0]
    for key, ctor in kept:
        lane = lanes.get(key, silent)
        if type(lane) is not MergeError:
            lane = ctor(node.sender, node.receiver, ((sort, lane),))
        lanes[key] = lane
    return lanes


def _merge_lanes(node: TypeNode, kept, silents: list, branch_lanes: list,
                 union_sends: bool) -> Optional[dict]:
    """The lanes of a choice node: for each key the node keeps or a branch
    mentions, the node rebuilt or its branches merged, or the first failure
    among them (a later one would be met after it)."""
    merged: dict = {}
    for key, ctor in kept:
        merged[key] = _merge_lane(node, ctor, key, silents, branch_lanes, union_sends)
    for lanes in branch_lanes:
        for key in lanes or ():
            if key not in merged:
                merged[key] = _merge_lane(node, None, key, silents, branch_lanes, union_sends)
    return merged or None


def _merge_lane(node: TypeNode, ctor, key, silents: list, branch_lanes: list, union_sends: bool):
    """One key's lane of a choice node, from the branches' lanes for it."""
    ops = [lanes.get(key, v) if lanes else v for lanes, v in zip(branch_lanes, silents)]
    for op in ops:
        if type(op) is MergeError:
            return op
    if ctor is not None:
        return ctor(node.sender, node.receiver, tuple(zip([s for s, _ in node.branches], ops)))
    try:
        return merge_all(ops, union_sends=union_sends)
    except MergeError as e:
        e.node = node
        return e


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
        raise _projection_error(g, role, e) from e


def project_all(g: GlobalType) -> dict:
    """Each role of g -> its projection, or the ProjectionError `project`
    raises for it; one walk of g projects every role."""
    out = {}
    for name, lane in erase(g, _ends, every=True).items():
        role = Role(name)
        if lane is _UNMERGED:
            out[role] = result_or_error(project, g, role)
        elif type(lane) is MergeError:
            out[role] = _projection_error(g, role, lane)
        else:
            out[role] = lane
    return out


def _ends(node: Com) -> tuple:
    """The names of the roles node keeps (a name hashes faster than its
    role), with the constructor each keeps node as."""
    sender, receiver = node.sender.name, node.receiver.name
    if sender == receiver:  # not well formed; `project` keeps a send
        return ((sender, Send),)
    return ((sender, Send), (receiver, Recv))


def _projection_error(g: GlobalType, role: Role, cause: MergeError) -> ProjectionError:
    return ProjectionError(role, path_text(_path_to(g, cause.node)), cause)


def result_or_error(fn, *args):
    """fn(*args), or the MergeError or ProjectionError it raised."""
    try:
        return fn(*args)
    except (MergeError, ProjectionError) as e:
        return e
