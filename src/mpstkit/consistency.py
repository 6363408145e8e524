"""Consistency of global types via pairwise duality of restricted projections.

For every ordered pair of distinct roles (r1, r2), r1's projection is first
restricted to the conversation with r2: actions with other peers are erased
and the continuations they guarded are merged (an internal choice by r1 that
r2 never hears about must collapse into one behaviour r2 can rely on).  The
two restricted views must then be dual: every send to the partner matched by
a receive from this role with the same sorts, coinductively through loops.
Duality is a relation between behaviours, not terms, so it steps the two
views' state graphs pair by pair of head nodes and never compares types up
to renaming.

One fold of the global type projects every role (`projection.project_all`),
and one fold of each role's projection restricts it to every partner at
once: keyed on each action's peer, it gives the view of each partner the
role acts with, and the role's *silent view*, with every action erased
(always `end` or a MergeError), which is its view of every other partner.
Duality does not depend on argument order, so it is decided once per
unordered pair, and a pair whose two views are both `end` is dual without
building state graphs.

Consistency is a separate, explicitly invoked verdict.  Projection and
process checking never depend on it: inconsistent-but-projectable protocols
are still compiled and run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import End, GlobalType, LocalType, Recv, Role, Send
from .fsm import StateGraph
from .projection import MergeError, ProjectionError, erase, project_all


def restrict_to_partner(l: LocalType, partner: Role) -> LocalType:
    """Erase every action whose peer is not `partner`.

    Erased actions are replaced by the merge of their restricted
    continuations (send branches may union here: the partner only ever sees
    the results of the choice, never the choice itself).  Raises MergeError
    when the branches do not collapse, which is exactly what makes a role
    pair inconsistent.
    """
    silent, views = _restrictions(l)
    view = views.get(partner.name, silent)
    if type(view) is MergeError:
        raise view
    return view


def _restrictions(l: LocalType) -> tuple:
    """One fold of l that restricts it to every partner: its silent view,
    the restriction to a partner it never acts with, and each partner's
    name -> its view (a local type or a MergeError)."""
    return erase(l, _peer, union_sends=True)


def _peer(node) -> tuple:
    """The one key an action keeps: its peer's name, as the action's own
    constructor."""
    kind = type(node)
    return (((node.receiver if kind is Send else node.sender).name, kind),)


def dual(a: LocalType, b: LocalType) -> bool:
    """Coinductive duality: a send in one view is a receive in the other,
    with equal sort sets and pairwise-dual continuations.

    Each view is numbered once as a `StateGraph`, and the walk goes depth
    first over pairs of their head nodes, visiting each pair once.  A head
    node's behaviour is fixed by the graph, so two finite graphs stepped
    pair by pair decide the relation; no state is named up to renaming.
    """
    ga, gb = StateGraph(a, {}), StateGraph(b, {})
    seen: set = set()
    stack = [(0, 0)]
    while stack:
        x, y = stack.pop()
        x, y = ga.head(x), gb.head(y)
        if (x, y) in seen:
            continue
        seen.add((x, y))
        tx, ty = ga.nodes[x], gb.nodes[y]
        if isinstance(tx, End) and isinstance(ty, End):
            continue
        if {type(tx), type(ty)} != {Send, Recv}:
            return False
        if (tx.sender, tx.receiver) != (ty.sender, ty.receiver):
            return False
        xs = {n.name: k for (n, _), k in zip(tx.branches, ga.links[x])}
        ys = {n.name: k for (n, _), k in zip(ty.branches, gb.links[y])}
        if xs.keys() != ys.keys():
            return False
        sender = xs if isinstance(tx, Send) else ys
        stack.extend((xs[n], ys[n]) for n in reversed(sender))
    return True


@dataclass(unsafe_hash=True)
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


def consistent(g: GlobalType, *, projections=None) -> ConsistencyReport:
    """Check all ordered role pairs of g; the report lists every failure.

    `projections`, when given, maps each role of g, and nothing else, to its
    projection or to the ProjectionError projecting it raised, so a caller
    that has already projected g need not project it again or list its roles.
    """
    if projections is None:
        projections = project_all(g)
    roles = sorted(projections, key=lambda r: r.name)
    local = [projections[r] for r in roles]
    errors = [l if isinstance(l, ProjectionError) else None for l in local]
    # one fold per projected role: its silent view and each partner's view
    folds = [None if e else _restrictions(l) for l, e in zip(local, errors)]

    def view(i: int, j: int):
        silent, views = folds[i]
        return views.get(roles[j].name, silent)

    duals: dict = {}  # (i, j) with i < j -> dual(view(i, j), view(j, i))
    pairs = []
    for i, r1 in enumerate(roles):
        for j, r2 in enumerate(roles):
            if i == j:
                continue
            bad = errors[i] or errors[j]
            if bad is not None:
                pairs.append(PairVerdict(r1, r2, False, f"unprojectable: {bad}"))
                continue
            v1, v2 = view(i, j), view(j, i)
            failed = v1 if isinstance(v1, MergeError) else v2
            if isinstance(failed, MergeError):
                pairs.append(
                    PairVerdict(r1, r2, False, f"restriction failed: {failed.reason}")
                )
                continue
            key = (i, j) if i < j else (j, i)
            ok = duals.get(key)
            if ok is None:
                ok = duals[key] = (
                    isinstance(v1, End) and isinstance(v2, End)
                ) or dual(v1, v2)
            if ok:
                pairs.append(PairVerdict(r1, r2, True))
            else:
                pairs.append(PairVerdict(r1, r2, False, "restricted views not dual"))
    return ConsistencyReport(all(p.ok for p in pairs), pairs)
