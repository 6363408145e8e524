"""Benchmark inputs: the corpus with its known answers, and seeded generators.

Every generated family is written as `.mpst` source text, exactly as a user
would write it, together with the verdicts it has by construction.  The seed
picks role, sort and protocol names, which role sits at which position, and
the order of branches and receive arms.  It never changes the structure, so
every seed yields inputs of the same size (same tokens, same projected
nodes, same FSM states).

This module does not import mpstkit: inputs are built without the code
under test.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

NEGOTIATION = "fixtures/negotiation.mpst"
NEGOTIATION_TRACE = [
    "seq 1: A -> B : Propose(5)",
    "seq 2: B -> A : Propose(11)",
    "seq 3: A -> B : Propose(6)",
    "seq 4: B -> A : Propose(11)",
    "seq 5: A -> B : Reject",
]


@dataclass
class Expect:
    """Known answer for one input file.

    consistent: protocol -> consistency verdict (every protocol listed here
    must also be well formed).  procs: process -> None when it type-checks,
    else the exact list of (error class, line) diagnostics, in order.
    fsm: (protocol, role) -> None when the projection fails, else
    (states, transitions), or "any" when only success is known.
    """

    consistent: dict
    procs: dict
    fsm: dict = field(default_factory=dict)


@dataclass
class Input:
    name: str
    text: str
    expect: Expect
    path: Optional[str] = None  # fixture path relative to the checkout root


# ---------------------------------------------------------------------------
# Corpus: the 21 fixtures, with the verdicts the acceptance suite pins
# (consistency truth table, mutation catalogue, responder FSM).

_CONSISTENT = {
    "negotiation.mpst": ["Negotiation"],
    "negotiation_generic.mpst": ["NegotiationVia"],
    "two_buyer.mpst": ["Purchase", "Decision"],
    "three_buyer.mpst": ["Purchase", "Decision", "Handoff"],
    "game.mpst": ["Game"],
    "adder.mpst": ["Adder"],
    "fibonacci.mpst": ["Fibonacci"],
    "http.mpst": ["Http"],
    "loan.mpst": ["Loan"],
    "smtp.mpst": ["Smtp"],
    "mutations/negotiation_wrong_action.mpst": ["Negotiation"],
    "mutations/negotiation_wrong_peer.mpst": ["Negotiation"],
    "mutations/negotiation_wrong_recur.mpst": ["Negotiation"],
    "mutations/negotiation_wrong_sort.mpst": ["Negotiation"],
    "mutations/oneshot_bad_send.mpst": ["OneShot"],
}
_INCONSISTENT = {
    "authorisation.mpst": ["Authorisation"],
    "oauth2_fragment.mpst": ["OauthFragment"],
    "rec_two_buyers.mpst": ["RecTwoBuyers"],
    "rec_map_reduce.mpst": ["RecMapReduce"],
    "mp_workers.mpst": ["MpWorkers"],
    "booking.mpst": ["Booking"],
}
_PROCS = {
    "negotiation.mpst": ["alice", "bob"],
    "two_buyer.mpst": ["buyer1", "buyer2", "seller"],
    "three_buyer.mpst": ["buyer1", "buyer2", "buyer3", "seller"],
    "game.mpst": ["player_a", "player_b", "player_c"],
    "adder.mpst": ["adder_client", "adder_server"],
    "fibonacci.mpst": ["fib_client", "fib_server"],
    "http.mpst": ["http_client", "http_server"],
    "loan.mpst": ["applicant", "bank", "bureau"],
    "smtp.mpst": ["smtp_client", "smtp_server"],
}
# Mutation catalogue: process -> [(error class, text marking the line)].
_MUTANTS = {
    "mutations/negotiation_wrong_sort.mpst": {
        "bob": [("wrong-sort", "send A Reject")]},
    "mutations/negotiation_wrong_peer.mpst": {
        "bob": [("wrong-peer", "send C Confirm")]},
    "mutations/negotiation_wrong_action.mpst": {
        "bob": [("wrong-action-kind", "recv A { Confirm(_) -> end }")]},
    "mutations/negotiation_wrong_recur.mpst": {
        "alice": None,
        "bob": [("linearity-reuse", "send A Propose(11)"),
                ("wrong-recursive-type", "recur[error] X")]},
    "mutations/oneshot_bad_send.mpst": {
        "bad_a": [("wrong-sort", "send B Pong")], "ok_b": None},
}
# FSM answers: the published responder machine, and the two protocols whose
# projection onto one role is undefined (so `mpstkit fsm` exits 1 there).
_FSM = {
    "negotiation.mpst": {("Negotiation", "B"): (6, 9)},
    "booking.mpst": {("Booking", "S"): None},
    "rec_two_buyers.mpst": {("RecTwoBuyers", "S"): None},
}


# (protocol, role) pairs over all concrete protocols of the corpus
CORPUS_PAIRS = 60


def _line_of(text: str, needle: str) -> int:
    return next(i for i, line in enumerate(text.splitlines(), 1) if needle in line)


def corpus(root: Path) -> list:
    """All fixtures under fixtures/, in sorted order, with known answers."""
    fixtures = root / "fixtures"
    out = []
    for path in sorted(fixtures.rglob("*.mpst")):
        rel = path.relative_to(fixtures).as_posix()
        text = path.read_text()
        if rel in _CONSISTENT:
            consistent = {p: True for p in _CONSISTENT[rel]}
        elif rel in _INCONSISTENT:
            consistent = {p: False for p in _INCONSISTENT[rel]}
        else:
            raise ValueError(f"fixture {rel} has no known answer")
        if rel in _MUTANTS:
            procs = {
                name: None if diags is None
                else [(cls, _line_of(text, needle)) for cls, needle in diags]
                for name, diags in _MUTANTS[rel].items()
            }
        else:
            procs = {name: None for name in _PROCS.get(rel, [])}
        expect = Expect(consistent, procs, dict(_FSM.get(rel, {})))
        out.append(Input(rel, text, expect, path=f"fixtures/{rel}"))
    return out


# ---------------------------------------------------------------------------
# Seeded naming.

class Names:
    """Unique identifiers of a fixed length, drawn from one seeded stream."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set = set()

    def take(self, prefix: str, n: int = 1) -> list:
        out = []
        while len(out) < n:
            name = prefix + "".join(self.rng.choice(string.ascii_lowercase) for _ in range(5))
            if name not in self.used:
                self.used.add(name)
                out.append(name)
        return out

    def one(self, prefix: str) -> str:
        return self.take(prefix)[0]


def _branches(items: list) -> str:
    if len(items) == 1:
        return items[0]
    return "{ " + ", ".join(items) + " }"


def _recv(peer: str, arms: list) -> str:
    return f"recv {peer} {{ " + ", ".join(arms) + " }"


def _sorts(names: list, payload: str = "") -> str:
    return "".join(f"sort {n}{payload};\n" for n in names)


def _proc(name: str, role: str, proto: str, body: str) -> str:
    return f"proc {name} plays {role} in {proto} {{\n  {body}\n}}\n"


# ---------------------------------------------------------------------------
# deep: recursion-heavy families.

def chain(rng: random.Random, steps: int, with_exit: bool = False) -> Input:
    """A loop of `steps` messages passed around a ring of 5 roles.

    Without an exit the loop runs forever and the protocol is consistent.
    With an exit (the first sender may stop, and the stop is relayed to
    every role) it stays projectable, but pairs that never talk cannot
    agree on whether the loop goes on, so it is inconsistent."""
    names = Names(rng)
    proto = names.one("G")
    roles = names.take("R", 5)
    msgs = names.take("M", steps)
    stop = names.one("S")
    n_roles = len(roles)

    def sender(j: int) -> str:
        return roles[j % n_roles]

    def receiver(j: int) -> str:
        return roles[(j + 1) % n_roles]

    if with_exit:
        rest = " . ".join(
            f"{sender(j)} -> {receiver(j)} : {msgs[j]}" for j in range(1, steps)
        )
        halt = " . ".join(
            f"{sender(j)} -> {receiver(j)} : {stop}" for j in range(1, n_roles - 1)
        )
        arms = [f"{msgs[0]} . {rest} . X", f"{stop} . {halt} . end"]
        rng.shuffle(arms)
        body = f"{roles[0]} -> {roles[1]} : {_branches(arms)}"
    else:
        body = " . ".join(f"{sender(j)} -> {receiver(j)} : {msgs[j]}" for j in range(steps))
        body += " . X"
    text = _sorts(msgs + [stop]) + f"global {proto} =\n  rec X . {body};\n"

    fsm = {}
    procs = {}
    for role in roles:
        acts = [j for j in range(steps) if sender(j) == role or receiver(j) == role]
        if not with_exit:
            fsm[(proto, role)] = (len(acts), len(acts))
        else:
            fsm[(proto, role)] = "any"
        tail = "recur X"
        for j in reversed(acts):
            if sender(j) == role:
                tail = f"send {receiver(j)} {msgs[j]}; {tail}"
            elif with_exit and j == acts[0]:
                # a role's first receive also offers the stop, which it relays
                halt = f"send {receiver(j + 1)} {stop}; end" if j + 1 < n_roles - 1 else "end"
                arms = [f"{msgs[j]}(_) -> {tail}", f"{stop}(_) -> {halt}"]
                rng.shuffle(arms)
                tail = _recv(sender(j), arms)
            else:
                tail = _recv(sender(j), [f"{msgs[j]}(_) -> {tail}"])
        pname = f"p_{role.lower()}"
        procs[pname] = None
        text += _proc(pname, role, proto, f"loop X {{ {tail} }}")
    kind = "chain_exit" if with_exit else "chain"
    return Input(f"{kind}{steps}", text, Expect({proto: not with_exit}, procs, fsm))


def nested(rng: random.Random, depth: int) -> Input:
    """`depth` directly nested loops between two roles.

    At level i the chooser goes one level deeper, repeats level i after an
    acknowledgement, or jumps back to level i-1 (level 1 stops instead).
    Consistent by construction: with two roles restriction is the
    identity, and the projections are syntactic duals."""
    names = Names(rng)
    proto = names.one("G")
    a, b = names.take("R", 2)
    down = names.take("D", depth)
    again = names.take("A", depth)
    ack = names.take("K", depth)
    up = names.take("U", depth)

    def level(i: int) -> str:
        arms = [f"{again[i]} . {b} -> {a} : {ack[i]} . X{i}"]
        arms.append(f"{up[i]} . X{i - 1}" if i > 0 else f"{up[i]} . end")
        if i + 1 < depth:
            arms.append(f"{down[i]} . {level(i + 1)}")
        rng.shuffle(arms)
        return f"rec X{i} . {a} -> {b} : {_branches(arms)}"

    def chooser(i: int) -> str:
        if i + 1 < depth:
            return f"loop X{i} {{ send {b} {down[i]}; {chooser(i + 1)} }}"
        return (
            f"loop X{i} {{ send {b} {again[i]}; "
            f"{_recv(b, [f'{ack[i]}(_) -> recur X{i}'])} }}"
        )

    def follower(i: int) -> str:
        arms = [f"{again[i]}(_) -> send {a} {ack[i]}; recur X{i}"]
        arms.append(f"{up[i]}(_) -> recur X{i - 1}" if i > 0 else f"{up[i]}(_) -> end")
        if i + 1 < depth:
            arms.append(f"{down[i]}(_) -> {follower(i + 1)}")
        rng.shuffle(arms)
        return f"loop X{i} {{ {_recv(a, arms)} }}"

    text = _sorts(down + again + ack + up)
    text += f"global {proto} =\n  {level(0)};\n"
    text += _proc(f"p_{a.lower()}", a, proto, chooser(0))
    text += _proc(f"p_{b.lower()}", b, proto, follower(0))
    procs = {f"p_{a.lower()}": None, f"p_{b.lower()}": None}
    fsm = {(proto, a): "any", (proto, b): "any"}
    return Input(f"nested{depth}", text, Expect({proto: True}, procs, fsm))


# ---------------------------------------------------------------------------
# wide: many roles and merging, little recursion.

def ring(rng: random.Random, n_roles: int) -> Input:
    """One round of a token around `n_roles` roles; the first role chooses
    between the round and a stop that is relayed the same way.  Every
    bystander merges the two branches.  Consistent by construction."""
    names = Names(rng)
    proto = names.one("G")
    roles = names.take("R", n_roles)
    msgs = names.take("M", n_roles)
    stop = names.one("S")

    def hop(j: int, sort: str) -> str:
        return f"{roles[j]} -> {roles[(j + 1) % n_roles]} : {sort}"

    go = " . ".join(hop(j, msgs[j]) for j in range(1, n_roles))
    halt = " . ".join(hop(j, stop) for j in range(1, n_roles))
    arms = [f"{msgs[0]} . {go} . end", f"{stop} . {halt} . end"]
    rng.shuffle(arms)
    text = _sorts(msgs + [stop])
    text += f"global {proto} =\n  {roles[0]} -> {roles[1]} : {_branches(arms)};\n"
    procs = {}
    fsm = {}
    for i, role in enumerate(roles):
        prev, nxt = roles[i - 1], roles[(i + 1) % n_roles]
        if i == 0:
            body = f"send {nxt} {msgs[0]}; " + _recv(prev, [f"{msgs[-1]}(_) -> end"])
        else:
            arms = [f"{msgs[i - 1]}(_) -> send {nxt} {msgs[i]}; end",
                    f"{stop}(_) -> send {nxt} {stop}; end"]
            rng.shuffle(arms)
            body = _recv(prev, arms)
        pname = f"p_{role.lower()}"
        procs[pname] = None
        text += _proc(pname, role, proto, body)
        fsm[(proto, role)] = (4, 4)
    return Input(f"ring{n_roles}", text, Expect({proto: True}, procs, fsm))


def branching(rng: random.Random, width: int, depth: int) -> Input:
    """A `width`-way choice nested `depth` levels deep between A and B; at
    every leaf B tells a bystander C one of three results.  C's projection
    merges all width**depth leaves.  Consistent by construction."""
    names = Names(rng)
    proto = names.one("G")
    a, b, c = names.take("R", 3)
    labels = [names.take("L", width) for _ in range(depth)]
    results = names.take("Z", 3)
    # one branch order per level, so sibling subtrees stay identical
    orders = [rng.sample(range(width), width) for _ in range(depth)]
    counter = [0]

    def tree(level: int) -> tuple:
        """(global text, B's process text) of one subtree."""
        if level == depth:
            res = results[counter[0] % len(results)]
            counter[0] += 1
            return f"{b} -> {c} : {res} . end", f"send {c} {res}; end"
        subs = [(lab, tree(level + 1)) for lab in labels[level]]
        subs = [subs[k] for k in orders[level]]
        g = f"{a} -> {b} : " + _branches([f"{lab} . {gt}" for lab, (gt, _) in subs])
        p = _recv(a, [f"{lab}(_) -> {pt}" for lab, (_, pt) in subs])
        return g, p

    global_text, b_proc = tree(0)
    a_proc = " ".join(f"send {b} {labels[level][0]};" for level in range(depth)) + " end"
    c_arms = [f"{r}(_) -> end" for r in results]
    rng.shuffle(c_arms)
    text = _sorts([lab for level in labels for lab in level] + results)
    text += f"global {proto} =\n  {global_text};\n"
    text += _proc(f"p_{a.lower()}", a, proto, a_proc)
    text += _proc(f"p_{b.lower()}", b, proto, b_proc)
    text += _proc(f"p_{c.lower()}", c, proto, _recv(b, c_arms))
    procs = {f"p_{a.lower()}": None, f"p_{b.lower()}": None, f"p_{c.lower()}": None}
    fsm = {(proto, r): "any" for r in (a, b, c)}
    fsm[(proto, a)] = (depth + 1, width * depth)
    return Input(f"branch{width}x{depth}", text, Expect({proto: True}, procs, fsm))


# ---------------------------------------------------------------------------
# run: ping-pong loop types driven through the Endpoint API.

@dataclass
class PingPong:
    """A ping-pong protocol: A sends `ping(i)`, B answers `pong(i)`, A ends
    the session with `stop`.  The other branches are never taken."""

    input: Input
    proto: str
    a: str
    b: str
    ping: str
    pong: str
    stop: str


def pingpong(rng: random.Random, exits: int = 0, nesting: int = 1) -> PingPong:
    """Loop type with `nesting` directly nested binders and `exits` never
    taken branches, split between the ping and the pong choice."""
    names = Names(rng)
    proto = names.one("G")
    a, b = names.take("R", 2)
    ping, pong, stop = names.one("P"), names.one("Q"), names.one("S")
    quits = names.take("E", exits // 2)
    backs = names.take("B", nesting - 1)
    fails = names.take("F", exits - exits // 2 - len(backs))
    labels = [f"X{i}" for i in range(nesting)]

    replies = [f"{pong} . X0"] + [f"{s} . {labels[i + 1]}" for i, s in enumerate(backs)]
    replies += [f"{s} . end" for s in fails]
    rng.shuffle(replies)
    offers = [f"{ping} . {b} -> {a} : {_branches(replies)}", f"{stop} . end"]
    offers += [f"{s} . end" for s in quits]
    rng.shuffle(offers)
    binders = " . ".join(f"rec {x}" for x in labels)
    text = _sorts([ping, pong], "(int)") + _sorts([stop] + quits + backs + fails)
    text += f"global {proto} =\n  {binders} . {a} -> {b} : {_branches(offers)};\n"

    a_arms = [f"{pong}(v) -> recur X0"]
    a_arms += [f"{s}(_) -> recur {labels[i + 1]}" for i, s in enumerate(backs)]
    a_arms += [f"{s}(_) -> end" for s in fails]
    rng.shuffle(a_arms)
    b_arms = [f"{ping}(v) -> send {a} {pong}(v.value); recur X0", f"{stop}(_) -> end"]
    b_arms += [f"{s}(_) -> end" for s in quits]
    rng.shuffle(b_arms)

    def loops(body: str) -> str:
        for x in reversed(labels):
            body = f"loop {x} {{ {body} }}"
        return body

    text += _proc(f"p_{a.lower()}", a, proto,
                  loops(f"send {b} {ping}(1); " + _recv(b, a_arms)))
    text += _proc(f"p_{b.lower()}", b, proto, loops(_recv(a, b_arms)))
    procs = {f"p_{a.lower()}": None, f"p_{b.lower()}": None}
    fsm = {(proto, a): "any", (proto, b): "any"}
    if exits == 0 and nesting == 1:
        fsm = {(proto, a): (3, 3), (proto, b): (3, 3)}
    name = "pingpong_small" if exits == 0 else "pingpong_large"
    inp = Input(name, text, Expect({proto: True}, procs, fsm))
    return PingPong(inp, proto, a, b, ping, pong, stop)


# ---------------------------------------------------------------------------
# Workloads.

def family(workload: str, seed: int, root: Path) -> list:
    """The inputs checked and turned into FSMs by one workload."""
    rng = random.Random(seed)
    if workload == "corpus":
        files = corpus(root)
    elif workload == "deep":
        files = [chain(rng, n) for n in (50, 100)]
        files += [nested(rng, k) for k in (4, 6)]
        files.append(chain(rng, 50, with_exit=True))
    elif workload == "wide":
        files = [ring(rng, r) for r in (10, 20, 50)]
        files += [branching(rng, 3, 4), branching(rng, 4, 4)]
    elif workload == "run":
        small, large = pingpongs(seed)
        files = [small.input, large.input]
        files += [f for f in corpus(root) if f.path == NEGOTIATION]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return files


def pingpongs(seed: int) -> tuple:
    """The small and the large ping-pong every workload runs."""
    rng = random.Random(seed ^ 0x5EED)
    return pingpong(rng), pingpong(rng, exits=50, nesting=3)


WORKLOADS = ("corpus", "deep", "wide", "run")
