"""Independent oracles and generators used across the test suite.

Everything here is deliberately written from first principles so the code
under test never certifies itself: the substitution oracle is a fresh
structural recursion, the duality oracle flips constructors syntactically,
the reference `dual` and `interpret` unfold by substitution instead of
walking a state graph, and the trace acceptor replays runs against the
global type's own step semantics without touching projection or the runtime.
"""

from __future__ import annotations

import random
from collections import deque

from mpstkit.core import (
    Com,
    End,
    END,
    Loop,
    PAYLOAD_INT,
    PAYLOAD_STRING,
    Recur,
    RecVar,
    Recv,
    Role,
    Send,
    Sort,
    alpha_normalize,
    branch_lookup_name,
    struct_eq,
    unfold,
)
from mpstkit import typecheck as tc
from mpstkit.fsm import RECV, SEND, Action, Fsm


# ---------------------------------------------------------------------------
# Substitution oracle: a second, independent structural recursion.

def subst_oracle(body, var, replacement):
    if isinstance(body, Recur):
        return replacement if body.var == var else body
    if isinstance(body, Loop):
        if body.var == var:
            return body
        return Loop(body.var, subst_oracle(body.body, var, replacement))
    if isinstance(body, (Com, Send, Recv)):
        return type(body)(
            body.sender,
            body.receiver,
            tuple((s, subst_oracle(c, var, replacement)) for s, c in body.branches),
        )
    return body


# ---------------------------------------------------------------------------
# Duality oracle: flip every send into a receive and vice versa.

def manual_dual(l):
    if isinstance(l, Send):
        return Recv(l.sender, l.receiver, tuple((s, manual_dual(c)) for s, c in l.branches))
    if isinstance(l, Recv):
        return Send(l.sender, l.receiver, tuple((s, manual_dual(c)) for s, c in l.branches))
    if isinstance(l, Loop):
        return Loop(l.var, manual_dual(l.body))
    return l


# ---------------------------------------------------------------------------
# Substitution-based references for the state-graph `dual` and `interpret`:
# both unfold by substitution and key states on alpha-normalized terms.

def oracle_dual(a, b) -> bool:
    """Coinductive duality: a send in one view is a receive in the other,
    with equal sort sets and pairwise-dual continuations."""
    seen: set = set()

    def go(x, y) -> bool:
        x, y = unfold(x), unfold(y)
        key = (alpha_normalize(x), alpha_normalize(y))
        if key in seen:
            return True
        seen.add(key)
        if isinstance(x, End) and isinstance(y, End):
            return True
        pair = None
        if isinstance(x, Send) and isinstance(y, Recv):
            pair = (x, y)
        elif isinstance(x, Recv) and isinstance(y, Send):
            pair = (y, x)
        if pair is None:
            return False
        snd, rcv = pair
        if (snd.sender, snd.receiver) != (rcv.sender, rcv.receiver):
            return False
        snd_conts = {s.name: c for s, c in snd.branches}
        rcv_conts = {s.name: c for s, c in rcv.branches}
        if set(snd_conts) != set(rcv_conts):
            return False
        return all(go(snd_conts[n], rcv_conts[n]) for n in snd_conts)

    return go(a, b)


def oracle_interpret(l) -> Fsm:
    """Build the FSM of a closed, contractive local type.

    Breadth-first discovery assigns state ids from 1; the initial state is
    always 1.  State identity is the alpha-normalized unfolding, which is
    what folds recursion into cycles.
    """
    ids: dict = {}
    states: list = []
    finals: set = set()
    transitions: list = []

    def state_of(t) -> tuple:
        key = alpha_normalize(unfold(t))
        if key in ids:
            return ids[key], None
        sid = len(states) + 1
        ids[key] = sid
        states.append(sid)
        return sid, key

    first, key = state_of(l)
    queue = deque([(first, key)])
    while queue:
        sid, node = queue.popleft()
        if isinstance(node, End):
            finals.add(sid)
            continue
        assert isinstance(node, (Send, Recv))
        direction = SEND if isinstance(node, Send) else RECV
        self_role = node.sender if isinstance(node, Send) else node.receiver
        peer = node.receiver if isinstance(node, Send) else node.sender
        for sort, cont in node.branches:
            dst, fresh = state_of(cont)
            transitions.append((sid, Action(direction, peer, self_role, sort), dst))
            if fresh is not None:
                queue.append((dst, fresh))
    return Fsm(states, first, finals, transitions)


# ---------------------------------------------------------------------------
# Branch-order normalization: the order-insensitive reading of merge laws.

def branch_normalize(t):
    if isinstance(t, (Com, Send, Recv)):
        branches = tuple(
            sorted(
                ((s, branch_normalize(c)) for s, c in t.branches),
                key=lambda bc: bc[0].name,
            )
        )
        return type(t)(t.sender, t.receiver, branches)
    if isinstance(t, Loop):
        return Loop(t.var, branch_normalize(t.body))
    return t


def eq_modulo_branch_order(a, b) -> bool:
    return struct_eq(branch_normalize(a), branch_normalize(b))


# ---------------------------------------------------------------------------
# Random type generators (seeded, deterministic across runs).

SORT_POOL = [
    Sort("Aa"), Sort("Bb"), Sort("Cc", PAYLOAD_INT), Sort("Dd", PAYLOAD_STRING),
    Sort("Ee"), Sort("Ff", PAYLOAD_INT),
]


def _pick_sorts(rng: random.Random, n: int) -> list:
    return rng.sample(SORT_POOL, n)


def random_local(rng: random.Random, self_role: Role, peer: Role, depth: int = 4,
                 bound=(), must_act: bool = False):
    """Random closed, contractive local type between exactly two roles."""
    choices = ["send", "recv"]
    if not must_act:
        choices += ["end", "end"]
        if depth > 1:
            choices.append("loop")
        if bound:
            choices.append("recur")
    if depth <= 0:
        if bound and not must_act and rng.random() < 0.3:
            return Recur(rng.choice(bound))
        if must_act:
            depth = 1  # force one action below
        else:
            return END
    kind = rng.choice(choices)
    if kind == "end":
        return END
    if kind == "recur":
        return Recur(rng.choice(bound))
    if kind == "loop":
        var = RecVar(f"R{len(bound)}")
        body = random_local(
            rng, self_role, peer, depth - 1, bound + (var,), must_act=True
        )
        return Loop(var, body)
    n = rng.randint(1, min(3, len(SORT_POOL)))
    branches = tuple(
        (s, random_local(rng, self_role, peer, depth - 1, bound))
        for s in _pick_sorts(rng, n)
    )
    if kind == "send":
        return Send(self_role, peer, branches)
    return Recv(peer, self_role, branches)


def random_global(rng: random.Random, roles: list, depth: int = 4, bound=(),
                  must_act: bool = False):
    """Random closed, contractive global type over the given roles."""
    choices = ["com", "com"]
    if not must_act:
        choices += ["end", "end"]
        if depth > 1:
            choices.append("loop")
        if bound:
            choices.append("recur")
    if depth <= 0 and not must_act:
        return END
    kind = rng.choice(choices)
    if kind == "end":
        return END
    if kind == "recur":
        return Recur(rng.choice(bound))
    if kind == "loop":
        var = RecVar(f"R{len(bound)}")
        return Loop(
            var, random_global(rng, roles, depth - 1, bound + (var,), must_act=True)
        )
    sender, receiver = rng.sample(roles, 2)
    n = rng.randint(1, min(3, len(SORT_POOL)))
    branches = tuple(
        (s, random_global(rng, roles, depth - 1, bound))
        for s in _pick_sorts(rng, n)
    )
    return Com(Role(sender), Role(receiver), branches)


def long_chain(steps: int) -> tuple:
    """A loop of `steps` sends from A to B, each with its own sort, and its
    mirrored loop of receives; built with constructors, not the parser."""
    x = RecVar("X")
    sends, recvs = Recur(x), Recur(x)
    for i in reversed(range(steps)):
        sort = Sort(f"M{i}")
        sends = Send(A, B, ((sort, sends),))
        recvs = Recv(A, B, ((sort, recvs),))
    return Loop(x, sends), Loop(x, recvs)


def mergeable_pair(rng: random.Random, merged):
    """Split a receive-headed local type into two types whose merge is the
    original (up to branch order): each side keeps a subset of branches with
    every branch kept by at least one side."""
    if not isinstance(merged, Recv) or len(merged.branches) < 2:
        return merged, merged
    branches = list(merged.branches)
    left, right = [], []
    for b in branches:
        where = rng.randint(0, 2)
        if where == 0:
            left.append(b)
        elif where == 1:
            right.append(b)
        else:
            left.append(b)
            right.append(b)
    if not left:
        left.append(branches[0])
    if not right:
        right.append(branches[-1])
    return (
        Recv(merged.sender, merged.receiver, tuple(left)),
        Recv(merged.sender, merged.receiver, tuple(right)),
    )


# ---------------------------------------------------------------------------
# Process synthesis: a term that exactly mimics a local type.

def synthesize_process(l, session: str = "s") -> tc.ProcessTerm:
    """Build a process that follows `l` move for move: first branch of every
    send, all branches of every receive, loop/recur mirroring the binders."""
    if isinstance(l, End):
        return tc.EndT()
    if isinstance(l, Loop):
        return tc.LoopT(session, l.var.name, session, synthesize_process(l.body, session))
    if isinstance(l, Recur):
        return tc.RecurT(l.var.name, session)
    if isinstance(l, Send):
        sort, cont = l.branches[0]
        return tc.SendT(
            session, l.receiver, _payload_for(sort), session,
            synthesize_process(cont, session),
        )
    assert isinstance(l, Recv)
    arms = tuple(
        tc.RecvArm(s.name, "_", session, synthesize_process(c, session))
        for s, c in l.branches
    )
    return tc.RecvT(session, l.sender, arms)


def _payload_for(sort: Sort) -> tc.NewSort:
    if sort.payload == PAYLOAD_INT:
        return tc.NewSort(sort, (tc.IntLit(0),))
    if sort.payload == PAYLOAD_STRING:
        return tc.NewSort(sort, (tc.StrLit(""),))
    return tc.NewSort(sort, ())


# ---------------------------------------------------------------------------
# Trace acceptor: the global type's own step semantics over send events.
#
# A communication (r, s, t) is accepted either at the head of the type, or
# past a head it does not involve provided it is accepted uniformly in every
# branch (the bystander cannot know which branch was taken).

def accept_event(g, sender: Role, receiver: Role, sort_name: str, _seen=None):
    if _seen is None:
        _seen = set()
    g = unfold(g)
    key = alpha_normalize(g)
    if key in _seen:
        return None
    _seen = _seen | {key}
    if not isinstance(g, Com):
        return None
    if (g.sender, g.receiver) == (sender, receiver):
        return branch_lookup_name(g.branches, sort_name)
    if sender in (g.sender, g.receiver):
        return None
    stepped = []
    for s, c in g.branches:
        c2 = accept_event(c, sender, receiver, sort_name, _seen)
        if c2 is None:
            return None
        stepped.append((s, c2))
    return Com(g.sender, g.receiver, tuple(stepped))


def accepts_trace(g, events) -> bool:
    """events: iterable of (sender, receiver, sort_name)."""
    state = g
    for sender, receiver, sort_name in events:
        state = accept_event(state, sender, receiver, sort_name)
        if state is None:
            return False
    return True


# ---------------------------------------------------------------------------
# Finite-path language of a local type (for FSM agreement checks).

def type_paths(l, k: int) -> set:
    """All action-label sequences of length <= k the type can perform."""
    out = {()}

    def walk(t, prefix):
        if len(prefix) >= k:
            return
        t = unfold(t)
        if isinstance(t, End):
            return
        assert isinstance(t, (Send, Recv))
        for s, c in t.branches:
            if isinstance(t, Send):
                label = f"{t.sender}{t.receiver}!{s.name}"
            else:
                label = f"{t.sender}{t.receiver}?{s.name}"
            path = prefix + (label,)
            out.add(path)
            walk(c, path)

    walk(l, ())
    return out


def fsm_paths(machine, k: int) -> set:
    out = {()}

    def walk(state, prefix):
        if len(prefix) >= k:
            return
        for src, action, dst in machine.outgoing(state):
            path = prefix + (action.label(),)
            out.add(path)
            walk(dst, path)

    walk(machine.initial, ())
    return out


def seeded(seed: int) -> random.Random:
    return random.Random(seed)


# ---------------------------------------------------------------------------
# Hand-built reference ASTs (constructed from the protocol descriptions, so
# golden tests do not depend on the parser).

A, B = Role("A"), Role("B")
B1, B2, B3, S = Role("B1"), Role("B2"), Role("B3"), Role("S")

PROPOSE = Sort("Propose", PAYLOAD_INT)
ACCEPT = Sort("Accept")
REJECT = Sort("Reject")
CONFIRM = Sort("Confirm")

STRING = Sort("String", PAYLOAD_STRING)
INT = Sort("Int", PAYLOAD_INT)
OK = Sort("Ok")
QUIT = Sort("Quit")
DATE = Sort("Date", PAYLOAD_STRING)

X = RecVar("X")


def negotiation_global():
    return Com(A, B, ((PROPOSE, Loop(X, Com(B, A, (
        (ACCEPT, Com(A, B, ((CONFIRM, END),))),
        (REJECT, END),
        (PROPOSE, Com(A, B, (
            (ACCEPT, Com(B, A, ((CONFIRM, END),))),
            (REJECT, END),
            (PROPOSE, Recur(X)),
        ))),
    )))),))


def negotiation_local_b():
    return Recv(A, B, ((PROPOSE, Loop(X, Send(B, A, (
        (ACCEPT, Recv(A, B, ((CONFIRM, END),))),
        (REJECT, END),
        (PROPOSE, Recv(A, B, (
            (ACCEPT, Send(B, A, ((CONFIRM, END),))),
            (REJECT, END),
            (PROPOSE, Recur(X)),
        ))),
    )))),))


def two_buyer_decision_global():
    return Com(B2, B1, (
        (OK, Com(B2, S, ((OK, Com(B2, S, ((STRING, Com(S, B2, ((DATE, END),))),))),))),
        (QUIT, Com(B2, S, ((QUIT, END),))),
    ))


def two_buyer_purchase_global():
    return Com(B1, S, ((STRING, Com(S, B1, ((INT, Com(S, B2, ((INT, Com(B1, B2, (
        (INT, two_buyer_decision_global()),
    ))),))),))),))


def seller_decision_local():
    # the two-branch receive the full merge must produce for the seller
    return Recv(B2, S, (
        (OK, Recv(B2, S, ((STRING, Send(S, B2, ((DATE, END),))),))),
        (QUIT, END),
    ))
