"""Endpoint projection of global types, with the full-merge operator.

Projecting a communication yields a send for the sender, a receive for the
receiver, and for everyone else the merge of the projected continuations:
the step is invisible to a bystander, but its branches must collapse into
one local type the bystander can follow.  `erase` takes that step, for
projection and for the consistency checker's restriction to its partners.

`erase` rebuilds a type for every key at once (a role, or a partner): each
subterm carries its *silent erasure*, the erasure with nothing kept (`end`,
a bare recursion variable, or a failed merge), and a value only for the
keys it mentions, so a key pays nothing for a run of steps it never appears
in.  `project` reads one role's value from a fold that keeps only that
role, `project_all` every role's from one fold that keeps them all.

Full merge unions receive branches (distinct sorts are kept side by side,
shared sorts have their continuations merged), and pairs send branches by
position: the sends must offer the same sort names in the same order, the
merge keeps the left operand's sorts and merges each pair's continuations,
and it never compares payloads.  Restriction merges with `union_sends`:
there, an observed role's internal choice legitimately widens the sends its
partner may see, and sends are united as receives are.  A union compares
the payloads of a sort both operands name, and fails where they differ.
An object merged with itself is itself, so a bystander merging two meetings
of one shared projection does no work for it.  The merge walks its operand
pairs on an explicit stack, so types of any depth merge.  A failed merge is a
value, a MergeError, until a public entry point raises it: `merge` and
`merge_all` raise it as is, `project` as the cause of a ProjectionError.
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

    def __str__(self) -> str:
        # written out only when shown: a fold meets failures it never reports
        return f"cannot merge: {self.reason}\n  left:  {self.left}\n  right: {self.right}"


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
    taken = {n.var.name for loop in (a, b) for n in shared_postorder(loop) if type(n) in (Loop, Recur)}
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
    """Full merge of two local types.  Raises MergeError when undefined:
    the failure `_merge` returns, the first a recursive merge would meet.

    An object merged with itself is itself, so a bystander merging two
    meetings of one shared projection pays nothing for it."""
    merged = _merge(a, b, union_sends)
    if type(merged) is MergeError:
        raise merged
    return merged


def _merge(a: LocalType, b: LocalType, union_sends: bool):
    """The full merge of a and b, or the first MergeError its recursion
    would meet.

    The walk keeps a frame on its own stack for each node whose branches it
    is merging, and takes that node's shared branches one at a time, in the
    right operand's order: a pair's continuations are merged once the pair
    before it is merged, as the recursion did.  Sends paired by position
    keep the left operand's sorts, whose payloads are never compared; in a
    union (receives, or sends under `union_sends`) a shared sort's payloads
    are compared just before its pair is merged.  A loop's frame is its
    binder."""
    frames = []  # loop binders, and [left node, right node, branches, shared, next shared]
    while True:
        kind = type(a)
        if a is b:
            merged = a
        elif kind is not type(b):
            return MergeError(a, b, "incompatible constructors")
        elif kind is End:
            merged = END
        elif kind is Recur:
            if a.var != b.var:
                return MergeError(a, b, "different recursion variables")
            merged = a
        elif kind is Loop:
            var, a, b = _align_loops(a, b)
            frames.append(var)
            continue
        elif kind is Send or kind is Recv:
            if (a.sender, a.receiver) != (b.sender, b.receiver):
                peers = "sends to" if kind is Send else "receives from"
                return MergeError(a, b, f"{peers} different peers")
            out = list(a.branches)
            if kind is Send and not union_sends:  # paired by position
                if [s.name for s, _ in out] != [s.name for s, _ in b.branches]:
                    return MergeError(a, b, "sends offer different sorts")
                shared = [(i, out[i][0], c) for i, (_, c) in enumerate(b.branches)]
            else:  # the ordered union: left branches first, right-only sorts appended
                index = {s.name: i for i, (s, _) in enumerate(out)}
                shared = []
                for s, c in b.branches:
                    if s.name in index:
                        shared.append((index[s.name], s, c))
                    else:
                        index[s.name] = len(out)
                        out.append((s, c))
            frames.append([a, b, out, shared, 0])
            merged = None
        else:
            return MergeError(a, b, "incompatible constructors")
        while True:  # place what was merged, up to a frame with a pair left
            if not frames:
                return merged
            frame = frames[-1]
            if type(frame) is RecVar:
                frames.pop()
                merged = Loop(frame, merged)
                continue
            node, other, out, shared, k = frame
            if merged is not None:  # the continuations of shared[k - 1]
                i = shared[k - 1][0]
                out[i] = (out[i][0], merged)
            while k < len(shared):
                i, s, b = shared[k]
                s0, a = out[i]
                k += 1
                if s0 is not s and s0 != s:
                    return MergeError(node, other, f"sort {s.name} has conflicting payloads")
                if a is not b:  # else the branch merges to itself
                    break
            else:
                frames.pop()
                merged = type(node)(node.sender, node.receiver, tuple(out))
                continue
            frame[4] = k
            break


def merge_all(ts: list, *, union_sends: bool = False) -> LocalType:
    """Left fold of merge; reports which pair of operands failed."""
    if not ts:
        raise ValueError("merge_all of an empty list")
    merged = _merge_all(ts, union_sends)
    if type(merged) is MergeError:
        raise merged
    return merged


def _merge_all(ts: list, union_sends: bool):
    """The left fold of `_merge` over ts, or the first MergeError it meets,
    whose `index_pair` names the accumulated prefix and the operand after it."""
    acc = ts[0]
    for i in range(1, len(ts)):
        acc = _merge(acc, ts[i], union_sends)
        if type(acc) is MergeError:
            acc.index_pair = (i - 1, i)
            break
    return acc


def erase(t: TypeNode, keep, *, union_sends: bool = False) -> tuple:
    """Rebuild t bottom up for every key at once, keeping each communication
    for the keys `keep(node)` names, as the constructor each is paired with,
    and erasing it for every other key into the merge of its rebuilt
    continuations.  Returns `(silent, lanes)`.

    Each pending subterm carries its *silent erasure*, the erasure with
    nothing kept (End, a bare Recur, or a MergeError), and a *lane*, its
    rebuilt subterm or a MergeError, only for each key it mentions; any other
    key takes the silent erasure, so a key pays nothing for a subterm that
    never mentions it.  `silent` is t's silent erasure and `lanes` maps each
    key t mentions to its lane, so a key's erasure of t is
    `lanes.get(key, silent)`.  A failed lane holds the first failure the key
    met.

    Loops close from the free recursion variables kept beside each subterm,
    so the rebuilt types stay well formed; a rebuilt subterm has the same
    ones as the subterm, since erasure keeps every recursion leaf and turns a
    loop into `end` only where its body is a bare recursion on it.  Subterms
    are rebuilt in `shared_postorder`, so a subterm object met on two paths
    is rebuilt once and shared, and a MergeError is the one the recursion
    would meet first; its `node` is the step that failed.  Every merge here,
    silent or kept, is `_merge_all`, which returns its failure: nothing in
    the fold raises."""
    silent: list = []  # the silent erasure of each pending subterm; a node's continuations end it
    free: list = []  # the free recursion variables of each pending subterm
    lanes: list = []  # each pending subterm's lanes by key, or None
    none: frozenset = frozenset()
    for node in shared_postorder(t):
        kind = type(node)
        if kind is End or kind is Recur:
            silent.append(node)
            free.append(none if kind is End else frozenset((node.var,)))
            lanes.append(None)
        elif kind is Loop:
            var, fv = node.var, free[-1]
            if var in fv:  # else the unused binder is dropped
                free[-1] = fv - {var}
                silent[-1] = _close(var, silent[-1])
                if lanes[-1]:
                    for key, lane in lanes[-1].items():
                        lanes[-1][key] = _close(var, lane)
        elif kind is Repeat:
            node.reuse(silent, free, lanes)
            if lanes[-1]:  # the kept lanes stay as they are; these change in place
                lanes[-1] = dict(lanes[-1])
        elif len(node.branches) == 1:  # one continuation keeps its free variables
            kept = keep(node)
            if kept:
                below = lanes[-1] or {}
                for key, ctor in kept:
                    lane = below.get(key, silent[-1])
                    if type(lane) is not MergeError:
                        lane = ctor(node.sender, node.receiver, ((node.branches[0][0], lane),))
                    below[key] = lane
                lanes[-1] = below
        else:
            start = len(silent) - len(node.branches)
            lanes[start:] = [_merge_lanes(node, keep(node), silent[start:], lanes[start:],
                                          union_sends)]
            silent[start:] = [_merge_ops(node, None, silent[start:], False)]
            fvs = free[start:]  # usually all empty; a merge's are its operands' together
            free[start:] = fvs[:1] if fvs and fvs.count(fvs[0]) == len(fvs) else [none.union(*fvs)]
    return silent[0], lanes[0] or {}


def _close(var: RecVar, body):
    """The loop on `var` over a rebuilt body with `var` free: `end` where
    the body only recurs on it (the key never acts in the loop)."""
    if type(body) is MergeError:
        return body
    return Loop(var, body) if is_guarded(var, body) else END


def _merge_lanes(node: TypeNode, kept, silents: list, branch_lanes: list,
                 union_sends: bool) -> Optional[dict]:
    """The lanes of a choice node: for each key the node keeps or a branch
    mentions, the node rebuilt or its branches merged, or the first failure
    among them (a later one would be met after it)."""
    merged: dict = {}
    for key, ctor in [*kept, *((key, None) for lanes in branch_lanes if lanes for key in lanes)]:
        if key not in merged:
            ops = [lanes.get(key, v) if lanes else v for lanes, v in zip(branch_lanes, silents)]
            merged[key] = _merge_ops(node, ctor, ops, union_sends)
    return merged or None


def _merge_ops(node: TypeNode, ctor, ops: list, union_sends: bool):
    """The first failure among a choice node's rebuilt branches, or else
    the node rebuilt over them by `ctor`, or with no `ctor` their merge."""
    for op in ops:
        if type(op) is MergeError:
            return op
    if ctor is not None:
        return ctor(node.sender, node.receiver, tuple(zip([s for s, _ in node.branches], ops)))
    merged = _merge_all(ops, union_sends)
    if type(merged) is MergeError:
        merged.node = node
    return merged


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
    """Project a global type onto one role (raises ProjectionError): the
    role's lane of a fold that keeps only it."""
    name = role.name
    send, recv = ((name, Send),), ((name, Recv),)

    def keep(node: Com) -> tuple:
        if node.sender.name == name:
            return send
        return recv if node.receiver.name == name else ()

    silent, lanes = erase(g, keep)
    local = lanes.get(name, silent)
    if type(local) is MergeError:
        raise _projection_error(g, role, local) from local
    return local


def project_all(g: GlobalType) -> dict:
    """Each role of g -> its projection, or the ProjectionError `project`
    raises for it; one walk of g projects every role."""
    out = {}
    for name, lane in erase(g, _ends)[1].items():
        role = Role(name)
        out[role] = _projection_error(g, role, lane) if type(lane) is MergeError else lane
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
