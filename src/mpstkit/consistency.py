"""Consistency of global types via pairwise duality of restricted projections.

For every ordered pair of distinct roles (r1, r2), r1's projection is first
restricted to the conversation with r2: actions with other peers are erased
and the continuations they guarded are merged (an internal choice by r1 that
r2 never hears about must collapse into one behaviour r2 can rely on).  The
two restricted views must then be dual: every send to the partner matched by
a receive from this role with the same sorts, coinductively through loops.

Consistency is a separate, explicitly invoked verdict.  Projection and
process checking never depend on it: inconsistent-but-projectable protocols
are still compiled and run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import (
    End,
    GlobalType,
    LocalType,
    Loop,
    Recur,
    Recv,
    Role,
    Send,
    roles_of,
)
from .fsm import StateGraph
from .projection import MergeError, ProjectionError, close_loop, merge_all, project


def restrict_to_partner(l: LocalType, partner: Role) -> LocalType:
    """Erase every action whose peer is not `partner`.

    Erased actions are replaced by the merge of their restricted
    continuations (send branches may union here: the partner only ever sees
    the results of the choice, never the choice itself).  Raises MergeError
    when the branches do not collapse, which is exactly what makes a role
    pair inconsistent.
    """
    if isinstance(l, (End, Recur)):
        return l
    if isinstance(l, Loop):
        return close_loop(l.var, restrict_to_partner(l.body, partner))
    assert isinstance(l, (Send, Recv))
    peer = l.receiver if isinstance(l, Send) else l.sender
    restricted = tuple(
        (s, restrict_to_partner(c, partner)) for s, c in l.branches
    )
    if peer == partner:
        return type(l)(l.sender, l.receiver, restricted)
    return merge_all([c for _, c in restricted], union_sends=True)


def dual(a: LocalType, b: LocalType) -> bool:
    """Coinductive duality: a send in one view is a receive in the other,
    with equal sort sets and pairwise-dual continuations.

    Both views are compiled into `StateGraph`s sharing one hash-cons table,
    and the walk goes depth first over pairs of their state ids, visiting
    each pair once.  A state is still a closed unfolding up to renaming of
    bound variables, so the pairs visited and the verdict are those of
    unfolding by substitution.
    """
    cons: dict = {}
    seen: set = set()
    stack = [(StateGraph(a, cons), 0, StateGraph(b, cons), 0)]
    while stack:
        gx, x, gy, y = stack.pop()
        kx, x = gx.state(x)
        ky, y = gy.state(y)
        if (kx, ky) in seen:
            continue
        seen.add((kx, ky))
        tx, ty = gx.nodes[x], gy.nodes[y]
        if isinstance(tx, End) and isinstance(ty, End):
            continue
        if isinstance(tx, Send) and isinstance(ty, Recv):
            gs, s, gr, r = gx, x, gy, y
        elif isinstance(tx, Recv) and isinstance(ty, Send):
            gs, s, gr, r = gy, y, gx, x
        else:
            return False
        if (tx.sender, tx.receiver) != (ty.sender, ty.receiver):
            return False
        snd_conts = {n.name: k for (n, _), k in zip(gs.nodes[s].branches, gs.links[s])}
        rcv_conts = {n.name: k for (n, _), k in zip(gr.nodes[r].branches, gr.links[r])}
        if snd_conts.keys() != rcv_conts.keys():
            return False
        stack.extend(
            (gs, snd_conts[n], gr, rcv_conts[n]) for n in reversed(snd_conts)
        )
    return True


@dataclass(frozen=True)
class PairVerdict:
    r1: Role
    r2: Role
    ok: bool
    reason: Optional[str] = None

    def __str__(self) -> str:
        status = "ok" if self.ok else f"FAIL: {self.reason}"
        return f"pair ({self.r1},{self.r2}): {status}"


@dataclass
class ConsistencyReport:
    consistent: bool
    pairs: list = field(default_factory=list)

    def failing_pairs(self) -> list:
        return [p for p in self.pairs if not p.ok]

    def render(self) -> str:
        lines = ["consistent" if self.consistent else "inconsistent"]
        for p in self.failing_pairs():
            lines.append(f"  {p}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "consistent": self.consistent,
            "pairs": [
                {
                    "r1": p.r1.name,
                    "r2": p.r2.name,
                    "ok": p.ok,
                    "reason": p.reason,
                }
                for p in self.pairs
            ],
        }


def consistent(g: GlobalType) -> ConsistencyReport:
    """Check all ordered role pairs of g; the report lists every failure."""
    roles = sorted(roles_of(g), key=lambda r: r.name)
    projections: dict = {}
    proj_errors: dict = {}
    for r in roles:
        try:
            projections[r] = project(g, r)
        except ProjectionError as e:
            proj_errors[r] = e
    pairs = []
    for r1 in roles:
        for r2 in roles:
            if r1 == r2:
                continue
            bad = proj_errors.get(r1) or proj_errors.get(r2)
            if bad is not None:
                pairs.append(PairVerdict(r1, r2, False, f"unprojectable: {bad}"))
                continue
            try:
                v1 = restrict_to_partner(projections[r1], r2)
                v2 = restrict_to_partner(projections[r2], r1)
            except MergeError as e:
                pairs.append(
                    PairVerdict(r1, r2, False, f"restriction failed: {e.reason}")
                )
                continue
            if dual(v1, v2):
                pairs.append(PairVerdict(r1, r2, True))
            else:
                pairs.append(PairVerdict(r1, r2, False, "restricted views not dual"))
    return ConsistencyReport(all(p.ok for p in pairs), pairs)
