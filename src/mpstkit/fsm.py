"""Finite-state-machine view of local types, for inspection and DOT export.

A closed local type is compiled once into a `StateGraph`: every subterm gets
an int id, a `Loop` points at its body and a `Recur` at its binder, so
unfolding follows pointers instead of substituting.  States are the distinct
closed unfoldings reachable from the type, compared up to bound-variable
renaming exactly as substitution-based unfolding compared them; the graph
names them by hash-consing their de Bruijn forms, so loops become back-edges
instead of fresh states.  Transitions carry the send/receive action labels;
terminated subterms are final states.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque

from .core import (
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


# Hash-cons keys of de Bruijn terms: a tag, then ints, names and sort keys.
_END, _SEND, _RECV, _LOOP, _VAR, _FREE = range(6)


class StateGraph:
    """One closed local type, numbered once.

    `nodes[i]` is subterm i (the root is 0) and `links[i]` its pointers: the
    child ids of a Send/Recv, the body id of a Loop, the binder id of a Recur
    (-1 when unbound).  `state(i)` unfolds node i by following pointers and
    names the result by hash-consing, in the table `cons`, the de Bruijn form
    of its closed unfolding.  Two graphs that share a table give equal state
    ids exactly to alpha-equal closed unfoldings.
    """

    def __init__(self, l: LocalType, cons: dict):
        self.nodes: list = [l]
        self.links: list = [None]
        self.depth: list = [0]  # number of enclosing Loops
        self.cons = cons
        nodes, links, depth = self.nodes, self.links, self.depth
        stack = [(0, None)]  # (node id, scope: (var name, binder id, outer scope))
        while stack:
            i, scope = stack.pop()
            t = nodes[i]
            if isinstance(t, (Send, Recv)):
                first = len(nodes)
                kids = tuple(range(first, first + len(t.branches)))
                links[i] = kids
                for _, c in t.branches:
                    nodes.append(c)
                    links.append(None)
                    depth.append(depth[i])
                stack.extend((k, scope) for k in kids)
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
        self._heads: list = [None] * len(nodes)
        self._stride = max(depth) + 1
        self._memo: dict = {}  # node * stride + theta -> cons id

    def head(self, i: int) -> int:
        """The node that unfolding node i reaches: a Send, Recv, End or
        unbound Recur.  Raises UnfoldError on a non-contractive loop."""
        h = self._heads[i]
        if h is None:
            nodes, links = self.nodes, self.links
            h, steps = i, 0
            while isinstance(nodes[h], Loop) or (
                isinstance(nodes[h], Recur) and links[h] >= 0
            ):
                h = links[h]
                steps += 1
                if steps > len(nodes):  # went round a cycle of loops
                    raise UnfoldError(
                        "unfolding did not terminate: non-contractive type"
                    )
            self._heads[i] = h
        return h

    def state(self, i: int) -> tuple:
        """(state id, head node) of the unfolding of node i."""
        h = self.head(i)
        return self._closed(h, self.depth[h]), h

    def _closed(self, n: int, theta: int) -> int:
        """Cons id of node n where a Recur whose binder has depth >= theta
        stays a de Bruijn variable and any other Recur stands for its
        binder's closed term.  With theta = depth[n] this is n's closed term."""
        memo, stride = self._memo, self._stride
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
            if isinstance(t, (Send, Recv)):
                missing = [(k, theta) for k in link if k * stride + theta not in memo]
                if missing:
                    stack.extend(missing)
                    continue
                key = (
                    _SEND if isinstance(t, Send) else _RECV,
                    t.sender.name,
                    t.receiver.name,
                    tuple(_sort_key(s) for s, _ in t.branches),
                    tuple(memo[k * stride + theta] for k in link),
                )
            elif isinstance(t, Loop):
                body = memo.get(link * stride + theta)
                if body is None:
                    stack.append((link, theta))
                    continue
                key = (_LOOP, body)
            elif isinstance(t, Recur):
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
            else:
                key = (_END,)
            memo[at] = cons.setdefault(key, len(cons))
            stack.pop()
        return memo[top]


def _sort_key(s: Sort):
    # Sorts are equal by name unless one carries an endpoint; those few keep
    # the Sort itself, whose equality compares the delegated type.
    return s if isinstance(s.payload, EndpointPayload) else s.name


def interpret(l: LocalType) -> Fsm:
    """Build the FSM of a closed, contractive local type.

    Breadth-first discovery over the type's `StateGraph` assigns state ids
    from 1; the initial state is always 1.  State identity is alpha-equality
    of the closed unfolding, which is what folds recursion into cycles.
    """
    graph = StateGraph(l, {})
    ids: dict = {}
    states: list = []
    finals: set = set()
    transitions: list = []

    def state_of(node: int) -> tuple:
        key, head = graph.state(node)
        if key in ids:
            return ids[key], None
        sid = len(states) + 1
        ids[key] = sid
        states.append(sid)
        return sid, head

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
    return Fsm(states, first, finals, transitions)


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
