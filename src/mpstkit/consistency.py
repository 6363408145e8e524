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
A pair *talks* when either role acts with the other, and only a talking pair
is judged on its own; duality does not depend on argument order, so it is
decided once per unordered talking pair, and a pair whose two views are both
`end` is dual without building state graphs.  Any other pair takes the first
failure, in the order unprojectable, restriction failed, not dual (r1's on a
tie), of its two roles' own verdicts, each fixed by the role's projection
error or silent view.  So g is consistent when its talking pairs are dual
and every role whose own verdict fails talks with every other, which walks
the roles and the talking pairs, not all n(n-1) ordered pairs.  The report
keeps that table and builds each `PairVerdict` only when it is read.

Consistency is a separate, explicitly invoked verdict.  Projection and
process checking never depend on it: inconsistent-but-projectable protocols
are still compiled and run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import End, GlobalType, LocalType, Loop, Recur, Recv, Role, Send
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
    first over pairs of their head nodes, visiting each pair once; only a
    Loop or Recur node is unfolded to its head.  A head node's behaviour is
    fixed by the graph, so two finite graphs stepped pair by pair decide the
    relation; no state is named up to renaming.
    """
    ga, gb = StateGraph(a, {}), StateGraph(b, {})
    na, la, nb, lb = ga.nodes, ga.links, gb.nodes, gb.links
    seen: set = set()
    stack = [(0, 0)]
    while stack:
        x, y = stack.pop()
        tx, ty = na[x], nb[y]
        if type(tx) is Loop or type(tx) is Recur:  # only these unfold
            x = ga.head(x)
            tx = na[x]
        if type(ty) is Loop or type(ty) is Recur:
            y = gb.head(y)
            ty = nb[y]
        pair = (x, y)
        if pair in seen:
            continue
        seen.add(pair)
        kx, ky = type(tx), type(ty)
        if kx is End and ky is End:
            continue
        if not (kx is Send and ky is Recv or kx is Recv and ky is Send):
            return False
        if tx.sender.name != ty.sender.name or tx.receiver.name != ty.receiver.name:
            return False
        bx, by = tx.branches, ty.branches
        if len(bx) == 1 and len(by) == 1:
            if bx[0][0].name != by[0][0].name:
                return False
            stack.append((la[x][0], lb[y][0]))
            continue
        xs = {n.name: k for (n, _), k in zip(bx, la[x])}
        ys = {n.name: k for (n, _), k in zip(by, lb[y])}
        if xs.keys() != ys.keys():
            return False
        sender = xs if kx is Send else ys
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


class ConsistencyReport:
    """Every ordered role pair's verdict, in `pairs` by r1 then r2 name.  A
    report that `consistent` made keeps the table they come from and builds
    `pairs` on first read; `failing_pairs` and `render` build the failing
    ones, and none on a consistent report."""

    def __init__(self, consistent: bool, pairs: Optional[list] = None, *, table=None):
        self.consistent = consistent
        self._pairs = [] if pairs is None and table is None else pairs
        self._table = table

    @property
    def pairs(self) -> list:
        if self._pairs is None:
            self._pairs = self._build(every=True)
        return self._pairs

    def failing_pairs(self) -> list:
        if self._pairs is not None:
            return [p for p in self._pairs if not p.ok]
        return [] if self.consistent else self._build(every=False)

    def _build(self, every: bool) -> list:
        """The table's verdicts in order, on every pair or on the failing ones."""
        roles, ranks, alone, talk = self._table
        out: list = []
        for i, r1 in enumerate(roles):
            rank, own = ranks[i], alone[i]
            line = [own if rank <= r else v for r, v in zip(ranks, alone)]
            for j, v in talk[i].items():
                line[j] = v
            del line[i]
            out += [PairVerdict(r1, r2, ok, reason)
                    for r2, (ok, reason) in zip(roles[:i] + roles[i + 1:], line) if every or not ok]
        return out

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
    index = {r.name: i for i, r in enumerate(roles)}
    # each role's verdict on every partner it does not talk with, ranked
    # (unprojectable, restriction failed, not dual, dual): a pair takes the
    # lower-ranked of its two roles' verdicts, r1's on a tie
    ranks, alone, folds = [], [], []
    for r in roles:
        l = projections[r]
        fold = None if isinstance(l, ProjectionError) else _restrictions(l)
        if fold is None:
            rank, verdict = 0, (False, f"unprojectable: {l}")
        elif isinstance(fold[0], MergeError):
            rank, verdict = 1, (False, f"restriction failed: {fold[0].reason}")
        elif isinstance(fold[0], End):
            rank, verdict = 3, (True, None)
        else:  # a silent view that does not end is dual to nothing
            rank, verdict = 2, (False, "restricted views not dual")
        ranks.append(rank)
        alone.append(verdict)
        folds.append(fold)
    # each role's verdict on each projectable partner that it or the partner
    # acts with, judged pair by pair; duality is decided once per such pair
    talk: list = [{} for _ in roles]
    for i, fold in enumerate(folds):
        for name in fold[1] if fold else ():
            j = index.get(name, i)  # a peer that is no role of g is skipped
            if j == i or j in talk[i] or folds[j] is None:
                continue
            v1, v2 = fold[1][name], folds[j][1].get(roles[i].name, folds[j][0])
            if isinstance(v1, MergeError) or isinstance(v2, MergeError):
                first = v1 if isinstance(v1, MergeError) else v2
                second = v2 if isinstance(v2, MergeError) else v1
                talk[i][j] = (False, f"restriction failed: {first.reason}")
                talk[j][i] = (False, f"restriction failed: {second.reason}")
            elif (isinstance(v1, End) and isinstance(v2, End)) or dual(v1, v2):
                talk[i][j] = talk[j][i] = (True, None)
            else:
                talk[i][j] = talk[j][i] = (False, "restricted views not dual")
    # a role whose own verdict fails fails every pair it does not talk in
    ok = all(v[0] for row in talk for v in row.values()) and all(
        rank == 3 or len(row) == len(roles) - 1 for rank, row in zip(ranks, talk)
    )
    return ConsistencyReport(ok, table=(roles, ranks, alone, talk))
