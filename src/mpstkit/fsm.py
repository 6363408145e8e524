"""Finite-state-machine view of local types, for inspection and DOT export.

A closed local type is compiled once into a `StateGraph`: every subterm gets
an int id, a `Loop` points at its body and a `Recur` at its binder, so
unfolding follows pointers instead of substituting.  FSM states are the
distinct closed unfoldings reachable from the type, compared up to
bound-variable renaming exactly as substitution-based unfolding compared
them; `interpret` names them by hash-consing their de Bruijn forms, so loops
become back-edges instead of fresh states.  Transitions carry the
send/receive action labels; terminated subterms are final states.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque

from .core import (
    Com,
    End,
    EndpointPayload,
    LocalType,
    Loop,
    Recur,
    Recv,
    Role,
    Send,
    Sort,
    UnfoldError,
)

SEND = "send"
RECV = "recv"


@dataclass(frozen=True)
class Action:
    direction: str  # "send" | "recv"
    peer: Role
    self_role: Role
    sort: Sort

    def label(self) -> str:
        if self.direction == SEND:
            return f"{self.self_role}{self.peer}!{self.sort}"
        return f"{self.peer}{self.self_role}?{self.sort}"


@dataclass
class Fsm:
    states: list
    initial: int
    finals: set
    transitions: list  # list[(from, Action, to)]

    def outgoing(self, state: int) -> list:
        return [t for t in self.transitions if t[0] == state]

    def to_json(self) -> dict:
        return {
            "states": self.states,
            "initial": self.initial,
            "finals": sorted(self.finals),
            "transitions": [
                {
                    "from": src,
                    "direction": a.direction,
                    "peer": a.peer.name,
                    "self": a.self_role.name,
                    "sort": a.sort.name,
                    "to": dst,
                }
                for src, a, dst in self.transitions
            ],
        }


# Hash-cons keys of de Bruijn terms: a tag, then ints and names; a Com/Send/Recv
# key is flat, its roles' names and then each branch's child id and sort key.
_END, _SEND, _RECV, _LOOP, _VAR, _FREE, _COM = range(7)
_TAGS = {Send: _SEND, Recv: _RECV, Com: _COM}


class StateGraph:
    """One closed local type, numbered once.  A global type numbers the
    same way, with Com in place of Send/Recv, so that `core.struct_eq` can
    compare it.

    `nodes[i]` is subterm i (the root is 0) and `links[i]` its pointers: the
    child ids of a Com/Send/Recv, the body id of a Loop, the binder id of a Recur
    (-1 when unbound).  A subterm object met again under the same innermost
    binder, so in the same scope, is one node.  `head(i)` unfolds node i.
    `closed(i)` names node i's closed term by hash-consing its de Bruijn
    form in the table `cons`, one flat key per node; two graphs that share a
    table give equal ids exactly to alpha-equal closed terms.  `term(i)`
    rebuilds that term for display.
    """

    def __init__(self, l: LocalType, cons: dict):
        self.nodes: list = [l]
        self.links: list = [None]
        self.depth: list = [0]  # number of enclosing Loops
        self.cons = cons
        nodes, links, depth = self.nodes, self.links, self.depth
        seen: dict = {}  # (id of a subterm, innermost binder id or None) -> node id
        stack = [(0, None)]  # (node id, scope: (var name, binder id, outer scope))
        while stack:
            i, scope = stack.pop()
            t = nodes[i]
            if isinstance(t, (Com, Send, Recv)):
                kids = []
                for _, c in t.branches:
                    k = seen.setdefault((id(c), scope and scope[1]), len(nodes))
                    if k == len(nodes):  # first met in this scope: a new node
                        nodes.append(c)
                        links.append(None)
                        depth.append(depth[i])
                        stack.append((k, scope))
                    kids.append(k)
                links[i] = tuple(kids)
            elif isinstance(t, Loop):
                body = len(nodes)
                links[i] = body
                nodes.append(t.body)
                links.append(None)
                depth.append(depth[i] + 1)
                stack.append((body, (t.var.name, i, scope)))
            elif isinstance(t, Recur):
                while scope is not None and scope[0] != t.var.name:
                    scope = scope[2]
                links[i] = -1 if scope is None else scope[1]
        self._stride = max(depth) + 1
        self._memo: dict = {}  # node * stride + theta -> cons id

    def head(self, i: int) -> int:
        """The node that unfolding node i reaches: a Send, Recv, End or
        unbound Recur.  Raises UnfoldError on a non-contractive loop."""
        nodes, links = self.nodes, self.links
        h, steps = i, 0
        while isinstance(nodes[h], Loop) or (isinstance(nodes[h], Recur) and links[h] >= 0):
            h = links[h]
            steps += 1
            if steps > len(nodes):  # went round a cycle of loops
                raise UnfoldError("unfolding did not terminate: non-contractive type")
        return h

    def closed(self, n: int) -> int:
        """Cons id of node n's closed term: n's subterm with each Recur bound
        outside it replaced by its binder's closed term.  Equal ids mean
        alpha-equal closed terms; a type is not equal to its unfolding.  Under
        theta = depth[n], a Recur whose binder has depth >= theta stays a de
        Bruijn variable; any other Recur stands for its binder's closed term."""
        memo, stride, theta = self._memo, self._stride, self.depth[n]
        top = n * stride + theta
        if top in memo:
            return memo[top]
        nodes, links, depth, cons = self.nodes, self.links, self.depth, self.cons
        stack = [(n, theta)]
        while stack:
            n, theta = stack[-1]
            at = n * stride + theta
            if at in memo:
                stack.pop()
                continue
            t, link = nodes[n], links[n]
            kind = type(t)
            if kind is Loop:
                body = memo.get(link * stride + theta)
                if body is None:
                    stack.append((link, theta))
                    continue
                key = (_LOOP, body)
            elif kind is Recur:
                if link < 0:
                    key = (_FREE, t.var.name)
                elif depth[link] >= theta:
                    key = (_VAR, depth[n] - depth[link] - 1)
                else:
                    binder = memo.get(link * stride + depth[link])
                    if binder is None:
                        stack.append((link, depth[link]))
                        continue
                    memo[at] = binder
                    stack.pop()
                    continue
            elif kind in _TAGS:
                key, kid = [_TAGS[kind], t.sender.name, t.receiver.name], 0
                for (s, _), k in zip(t.branches, link):
                    kid = memo.get(k * stride + theta)
                    if kid is None:
                        break
                    # an endpoint's Sort is kept: its equality compares the delegated type
                    key += kid, s if isinstance(s.payload, EndpointPayload) else s.name
                if kid is None:  # children first; those done already pop at once
                    stack += [(k, theta) for k in link]
                    continue
                key = tuple(key)
            else:
                key = (_END,)
            memo[at] = cons.setdefault(key, len(cons))
            stack.pop()
        return memo[top]

    def term(self, i: int) -> LocalType:
        """Node i's closed term, rebuilt with its variable names for display.
        Built like `closed`, with terms in place of cons ids."""
        nodes, links, depth = self.nodes, self.links, self.depth
        done: dict = {}  # (node, theta) -> closed term
        stack = [(i, depth[i])]
        while stack:
            n, theta = stack[-1]
            t, link = nodes[n], links[n]
            if isinstance(t, Recur) and link >= 0 and depth[link] < theta:
                kids = [(link, depth[link])]
            elif isinstance(t, (Com, Send, Recv)):
                kids = [(k, theta) for k in link]
            else:
                kids = [(link, theta)] if isinstance(t, Loop) else []
            missing = [k for k in kids if k not in done]
            if missing:
                stack += missing
                continue
            stack.pop()
            parts = [done[k] for k in kids]
            if isinstance(t, Loop):
                t = Loop(t.var, parts[0])
            elif isinstance(t, (Com, Send, Recv)):
                branches = tuple((s, c) for (s, _), c in zip(t.branches, parts))
                t = type(t)(t.sender, t.receiver, branches)
            elif parts:
                t = parts[0]  # a Recur bound outside: its binder's term
            done[n, theta] = t
        return done[i, depth[i]]


def interpret(l: LocalType) -> Fsm:
    """Build the FSM of a closed, contractive local type.

    Breadth-first discovery over the type's `StateGraph` assigns state ids
    from 1; the initial state is always 1.  State identity is alpha-equality
    of the closed unfolding, which is what folds recursion into cycles.
    """
    graph = StateGraph(l, {})
    ids: dict = {}
    finals: set = set()
    transitions: list = []

    def state_of(node: int) -> tuple:
        head = graph.head(node)
        key = graph.closed(head)
        if key in ids:
            return ids[key], None
        ids[key] = len(ids) + 1
        return ids[key], head

    first, head = state_of(0)
    queue = deque([(first, head)])
    while queue:
        sid, head = queue.popleft()
        node = graph.nodes[head]
        if isinstance(node, End):
            finals.add(sid)
            continue
        if not isinstance(node, (Send, Recv)):
            raise ValueError(f"unbound recursion variable: {node}")
        direction = SEND if isinstance(node, Send) else RECV
        self_role = node.sender if isinstance(node, Send) else node.receiver
        peer = node.receiver if isinstance(node, Send) else node.sender
        for (sort, _), child in zip(node.branches, graph.links[head]):
            dst, fresh = state_of(child)
            transitions.append((sid, Action(direction, peer, self_role, sort), dst))
            if fresh is not None:
                queue.append((dst, fresh))
    return Fsm(list(range(1, len(ids) + 1)), first, finals, transitions)


def to_dot(f: Fsm) -> str:
    """Deterministic GraphViz rendering; final states are double circles."""
    lines = ["digraph fsm {", "  rankdir=LR;", '  start [shape=none, label=""];']
    for s in f.states:
        shape = "doublecircle" if s in f.finals else "circle"
        lines.append(f"  s{s} [shape={shape}, label=\"{s}\"];")
    lines.append(f"  start -> s{f.initial};")
    for src, action, dst in f.transitions:
        lines.append(f"  s{src} -> s{dst} [label=\"{action.label()}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def canonical(f: Fsm) -> Fsm:
    """Renumber states by BFS from the initial state, ordering edges by label.

    Two FSMs are isomorphic exactly when their canonical forms are equal
    (outgoing labels are deterministic for local types)."""
    order: dict = {f.initial: 1}
    queue = deque([f.initial])
    while queue:
        s = queue.popleft()
        for src, action, dst in sorted(
            f.outgoing(s), key=lambda t: (t[1].direction, t[1].peer.name, t[1].sort.name)
        ):
            if dst not in order:
                order[dst] = len(order) + 1
                queue.append(dst)
    # unreachable states keep a stable position after the reachable ones
    for s in f.states:
        if s not in order:
            order[s] = len(order) + 1
    states = sorted(order[s] for s in f.states)
    transitions = sorted(
        ((order[src], a, order[dst]) for src, a, dst in f.transitions),
        key=lambda t: (t[0], t[1].direction, t[1].peer.name, t[1].sort.name),
    )
    return Fsm(states, 1, {order[s] for s in f.finals}, transitions)


def isomorphic(a: Fsm, b: Fsm) -> bool:
    ca, cb = canonical(a), canonical(b)
    return (
        ca.states == cb.states
        and ca.finals == cb.finals
        and ca.transitions == cb.transitions
    )
