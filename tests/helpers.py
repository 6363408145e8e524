"""Independent oracles and generators used across the test suite.

Everything here is deliberately written from first principles so the code
under test never certifies itself: the substitution oracle is a fresh
structural recursion, the duality oracle flips constructors syntactically,
the reference `dual` and `interpret` unfold by substitution instead of
walking a state graph, the reference projection and partner restriction
recurse instead of running on an explicit stack and merge with the
recursive merge that raises its failure, the reference lexer
matches one token at a time, the reference local-type printer does not use
core's `__str__`, the reference type rules parse and elaborate global and
declared local types with a rule each, the reference process rules parse to
surface nodes of their own and copy those into `typecheck` terms, the
reference `struct_eq` compares alpha-normal forms, the trace acceptor
replays runs against the global type's own step semantics without touching
projection or the runtime, and the synchronous semantics steps a global type
and the product of its projections each by its own rule.
"""

from __future__ import annotations

import random
import re
import sys
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

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
    Violation,
    alpha_normalize,
    branch_lookup_name,
    free_rec_vars,
    is_guarded,
    roles_of,
    struct_eq,
    subterms,
    unfold,
)
from mpstkit.consistency import ConsistencyReport, PairVerdict, dual
from mpstkit.projection import MergeError, ProjectionError, project
from mpstkit import typecheck as tc
from mpstkit.elaborate import ElabError, _Ctx, _Elaborator, load_text
from mpstkit.fsm import RECV, SEND, Action, Fsm
from mpstkit.surface import (
    LocalDef,
    ParseError,
    ProcDef,
    STCom,
    STEnd,
    STRec,
    STRef,
    _Parser,
    _is_name,
    tokenize,
)

ROOT = Path(__file__).resolve().parent.parent


def benchmark_inputs():
    """The benchmark's seeded input generators (`benchmark/inputs.py`)."""
    sys.path.insert(0, str(ROOT / "benchmark"))
    try:
        import inputs
    finally:
        sys.path.remove(str(ROOT / "benchmark"))
    return inputs


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
# The reference merge: the recursive merge that raises its failure, as
# `projection` had it before failures became values there.  Only the
# MergeError class is shared with the code under test.

def _oracle_align_loops(a, b) -> tuple:
    """Give both loop bodies the same binder so they can be merged positionally.
    The binder is a variable neither loop has free or binds, so that putting
    it in for a loop's own variable captures nothing."""
    if a.var == b.var:
        return a.var, a.body, b.body
    taken = {v.name for v in free_rec_vars(a.body) | free_rec_vars(b.body)}
    taken |= {n.var.name for loop in (a, b) for n in subterms(loop) if type(n) is Loop}
    i = 0
    while f"M{i}" in taken:
        i += 1
    common = RecVar(f"M{i}")
    return (
        common,
        subst_oracle(a.body, a.var, Recur(common)),
        subst_oracle(b.body, b.var, Recur(common)),
    )


def oracle_merge(a, b, *, union_sends: bool = False):
    """Full merge of two local types.  Raises MergeError when undefined."""
    if a is b:
        return a
    if isinstance(a, End) and isinstance(b, End):
        return END
    if isinstance(a, Recur) and isinstance(b, Recur):
        if a.var == b.var:
            return a
        raise MergeError(a, b, "different recursion variables")
    if isinstance(a, Loop) and isinstance(b, Loop):
        var, body_a, body_b = _oracle_align_loops(a, b)
        return Loop(var, oracle_merge(body_a, body_b, union_sends=union_sends))
    if isinstance(a, (Send, Recv)) and type(a) is type(b):
        if (a.sender, a.receiver) != (b.sender, b.receiver):
            peers = "sends to" if isinstance(a, Send) else "receives from"
            raise MergeError(a, b, f"{peers} different peers")
        if isinstance(a, Recv) or union_sends:
            return type(a)(a.sender, a.receiver, _oracle_union(a, b, union_sends))
        names_a = [s.name for s, _ in a.branches]
        names_b = [s.name for s, _ in b.branches]
        if names_a != names_b:
            raise MergeError(a, b, "sends offer different sorts")
        merged = tuple(
            (sa, oracle_merge(ca, cb, union_sends=union_sends))
            for (sa, ca), (_, cb) in zip(a.branches, b.branches)
        )
        return Send(a.sender, a.receiver, merged)
    raise MergeError(a, b, "incompatible constructors")


def _oracle_union(a, b, union_sends: bool) -> tuple:
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
            out[i] = (s0, oracle_merge(cont0, cont, union_sends=union_sends))
    return tuple(out)


def oracle_merge_all(ts: list, *, union_sends: bool = False):
    """Left fold of merge; reports which pair of operands failed."""
    if not ts:
        raise ValueError("merge_all of an empty list")
    acc = ts[0]
    for i, t in enumerate(ts[1:], start=1):
        try:
            acc = oracle_merge(acc, t, union_sends=union_sends)
        except MergeError as e:
            e.index_pair = (i - 1, i)  # accumulated prefix vs operand i
            raise
    return acc


# ---------------------------------------------------------------------------
# Recursive projection and partner restriction, the references for the
# explicit-stack `projection.erase` that both now run on.  The projection
# oracle builds its path string at every node instead of using path_text,
# and both merge with `oracle_merge_all`.

def close_loop(var, body):
    """The recursive rule `erase` folds: a loop the role never acts in
    projects to End, and an unused binder is dropped."""
    if var not in free_rec_vars(body):
        return body
    if not is_guarded(var, body):
        return END
    return Loop(var, body)


def oracle_project(g, role):
    def walk(node, path: str):
        if isinstance(node, End):
            return END
        if isinstance(node, Recur):
            return node
        if isinstance(node, Loop):
            return close_loop(node.var, walk(node.body, f"{path}.body"))
        conts = [
            (s, walk(c, f"{path}.branches[{i}]"))
            for i, (s, c) in enumerate(node.branches)
        ]
        if node.sender == role:
            return Send(node.sender, node.receiver, tuple(conts))
        if node.receiver == role:
            return Recv(node.sender, node.receiver, tuple(conts))
        try:
            return oracle_merge_all([c for _, c in conts])
        except MergeError as e:
            raise ProjectionError(role, path, e) from e

    return walk(g, "$")


def oracle_restrict(l, partner):
    if isinstance(l, (End, Recur)):
        return l
    if isinstance(l, Loop):
        return close_loop(l.var, oracle_restrict(l.body, partner))
    peer = l.receiver if isinstance(l, Send) else l.sender
    restricted = tuple((s, oracle_restrict(c, partner)) for s, c in l.branches)
    if peer == partner:
        return type(l)(l.sender, l.receiver, restricted)
    return oracle_merge_all([c for _, c in restricted], union_sends=True)


def erasure_outcomes(g, project_fn, restrict_fn) -> list:
    """For every role of g, its projection or the ProjectionError's role,
    path and text, and then every restriction of a projection to another
    role, or the MergeError's reason; comparable between implementations."""
    roles = sorted(roles_of(g), key=lambda r: r.name)
    out = []
    for r in roles:
        try:
            local = project_fn(g, r)
        except ProjectionError as e:
            out.append((r, "unprojectable", e.role, e.path, str(e)))
            continue
        out.append((r, "projected", local))
        for p in roles:
            if p == r:
                continue
            try:
                out.append((r, p, restrict_fn(local, p)))
            except MergeError as e:
                out.append((r, p, "restriction failed", e.reason))
    return out


# ---------------------------------------------------------------------------
# The pair loop `consistency.consistent` replaced: every ordered role pair
# projects, restricts both views and runs `dual` afresh, with the oracles
# above in place of `project` and `restrict_to_partner`.

def oracle_consistent(g) -> ConsistencyReport:
    roles = sorted(roles_of(g), key=lambda r: r.name)
    projections: dict = {}
    proj_errors: dict = {}
    for r in roles:
        try:
            projections[r] = oracle_project(g, r)
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
                v1 = oracle_restrict(projections[r1], r2)
                v2 = oracle_restrict(projections[r2], r1)
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


# ---------------------------------------------------------------------------
# Recursive well-formedness, the reference for the explicit-stack walk.

def oracle_well_formed(t) -> list:
    violations: list = []

    def walk(node, bound: frozenset, path: str) -> None:
        if isinstance(node, (Com, Send, Recv)):
            if node.sender == node.receiver:
                violations.append(
                    Violation(path, f"sender equals receiver: {node.sender}")
                )
            if not node.branches:
                violations.append(Violation(path, "communication with no branches"))
            seen: set = set()
            for i, (s, c) in enumerate(node.branches):
                if s.name in seen:
                    violations.append(Violation(path, f"duplicate branch sort: {s.name}"))
                seen.add(s.name)
                walk(c, bound, f"{path}.branches[{i}]")
        elif isinstance(node, Loop):
            if not is_guarded(node.var, node.body):
                violations.append(
                    Violation(path, f"non-contractive recursion: rec {node.var}")
                )
            walk(node.body, bound | {node.var}, f"{path}.body")
        elif isinstance(node, Recur):
            if node.var not in bound:
                violations.append(
                    Violation(path, f"unbound recursion variable: {node.var}")
                )

    walk(t, frozenset(), "$")
    return violations


# ---------------------------------------------------------------------------
# References for the surface lexer and the local-type renderer: a scanner
# that matches one token at a time and tracks line and column by hand, and a
# printer that does not go through the core types' `__str__`.

_ORACLE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<arrow>->)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*|_)
  | (?P<int>\d+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<punct>[{}()\[\];:.,=@!?<\-])
    """,
    re.VERBOSE,
)


def oracle_tokenize(text: str) -> list:
    """(lexeme, line, col) of each token, then ("", line, col) for eof."""
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _ORACLE_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(line, col, f"unexpected character {text[pos]!r}")
        lexeme = m.group(0)
        if m.lastgroup not in ("ws", "comment"):
            tokens.append((lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(("", line, col))
    return tokens


def positioned(tokens: list) -> list:
    """`tokenize`'s lexemes as `oracle_tokenize` gives them: with (line, col)."""
    return [(lexeme, *tokens.pos(i)) for i, lexeme in enumerate(tokens.tokens)]


def oracle_render_local(t) -> str:
    if isinstance(t, End):
        return "end"
    if isinstance(t, Recur):
        return t.var.name
    if isinstance(t, Loop):
        return f"rec {t.var.name} . {oracle_render_local(t.body)}"
    direction = "!" if isinstance(t, Send) else "?"
    return (
        f"{t.sender} -> {t.receiver} {direction} "
        f"{_oracle_render_branches(t.branches, oracle_render_local)}"
    )


def _oracle_render_branches(branches, sub) -> str:
    if len(branches) == 1:
        s, cont = branches[0]
        return f"{s.name} . {sub(cont)}"
    inner = ", ".join(f"{s.name} . {sub(cont)}" for s, cont in branches)
    return "{ " + inner + " }"


# ---------------------------------------------------------------------------
# References for the front end: a parser and an elaborator with one rule for
# global types and another for declared local types, and a process path that
# parses to surface nodes of its own and then copies them into `typecheck`
# terms, filling in the default session and looking sort names up.  Only the
# type and process rules differ from `_Parser` and `_Elaborator`; each
# reference rule recurses into itself, so it costs the same stack frames per
# step as the one it stands for.


@dataclass(frozen=True)
class SSend:
    session: Optional[str]
    to: str
    sort_name: str
    arg: object
    cont: object
    pos: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class SArm:
    sort_name: str
    payload_var: str
    cont: object
    pos: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class SRecv:
    session: Optional[str]
    frm: str
    arms: tuple
    pos: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class SLoop:
    session: Optional[str]
    var: str
    body: object
    pos: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class SRecur:
    session: Optional[str]
    var: str
    pos: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class SEndP:
    results: tuple = ()
    pos: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class SIf:
    cond: object
    then: object
    els: object
    pos: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class SLet:
    name: str
    value: object
    cont: object
    pos: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class SInt:
    value: int
    pos: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class SStr:
    value: str
    pos: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class SVar:
    name: str
    pos: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class SCall:
    name: str
    arg: object
    pos: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class SField:
    target: object
    pos: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class SSub:
    a: object
    b: object
    pos: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class SLt:
    a: object
    b: object
    pos: tuple = field(default=None, compare=False)

class OracleParser(_Parser):
    def type_expr(self, local: bool = False):  # the global rule only
        pos = self.pos()
        if self.accept("end"):
            return STEnd(pos)
        if self.accept("rec"):
            var = self.ident("recursion variable")
            self.expect(".")
            return STRec(var, self.type_expr(), pos)
        name = self.ident("role or protocol name")
        if self.accept("->"):
            receiver = self.ident("role")
            self.expect(":")
            branches = self.branches(self.type_expr)
            return STCom(name, receiver, ":", branches, pos)
        args: list = []
        if self.accept("["):
            while True:
                args.append(self.type_expr())
                if not self.accept(","):
                    break
            self.expect("]")
        return STRef(name, tuple(args), pos)

    def local_def(self, pos) -> LocalDef:
        gname = self.ident("protocol name")
        self.expect("@")
        role = self.ident("role")
        self.expect("=")
        declared = self.local_type_expr()
        self.expect(";")
        return LocalDef(gname, role, declared, pos)

    def local_type_expr(self):
        pos = self.pos()
        if self.accept("end"):
            return STEnd(pos)
        if self.accept("rec"):
            var = self.ident("recursion variable")
            self.expect(".")
            return STRec(var, self.local_type_expr(), pos)
        name = self.ident("role or recursion variable")
        if self.accept("->"):
            receiver = self.ident("role")
            if self.accept("!"):
                direction = "!"
            elif self.accept("?"):
                direction = "?"
            else:
                raise ParseError(*self.pos(), f"unexpected {self.peek()!r}", ("!", "?"))
            branches = self.branches(self.local_type_expr)
            return STCom(name, receiver, direction, branches, pos)
        return STRef(name, (), pos)

    def branches(self, sub) -> tuple:
        if self.accept("{"):
            out = [self.branch(sub)]
            while self.accept(","):
                out.append(self.branch(sub))
            self.expect("}")
            return tuple(out)
        return (self.branch(sub),)

    def branch(self, sub) -> tuple:
        sort = self.ident("sort name")
        self.expect(".")
        return (sort, sub())

    def _session_sel(self):
        if self.accept("["):
            var = self.ident("session variable")
            self.expect("]")
            return var
        return None

    def stmt(self):
        pos = self.pos()
        if self.accept("send"):
            sel = self._session_sel()
            to = self.ident("role")
            sort = self.ident("sort name")
            arg = None
            if self.accept("("):
                arg = self.expr()
                self.expect(")")
            self.expect(";")
            cont = self.stmt()
            return SSend(sel, to, sort, arg, cont, pos)
        if self.accept("recv"):
            sel = self._session_sel()
            frm = self.ident("role")
            self.expect("{")
            arms = [self.arm()]
            while self.accept(","):
                arms.append(self.arm())
            self.expect("}")
            return SRecv(sel, frm, tuple(arms), pos)
        if self.accept("loop"):
            sel = self._session_sel()
            var = self.ident("loop label")
            self.expect("{")
            body = self.stmt()
            self.expect("}")
            return SLoop(sel, var, body, pos)
        if self.accept("recur"):
            sel = self._session_sel()
            var = self.ident("loop label")
            return SRecur(sel, var, pos)
        if self.accept("end"):
            results: list = []
            if self.accept("("):
                results.append(self.ident("variable"))
                while self.accept(","):
                    results.append(self.ident("variable"))
                self.expect(")")
            return SEndP(tuple(results), pos)
        if self.accept("if"):
            cond = self.expr()
            self.expect("then")
            self.expect("{")
            then = self.stmt()
            self.expect("}")
            self.expect("else")
            self.expect("{")
            els = self.stmt()
            self.expect("}")
            return SIf(cond, then, els, pos)
        if self.accept("let"):
            name = self.ident("variable")
            self.expect("=")
            value = self.expr()
            self.expect(";")
            cont = self.stmt()
            return SLet(name, value, cont, pos)
        self.unexpected("send", "recv", "loop", "recur", "end", "if", "let")

    def arm(self):
        pos = self.pos()
        sort = self.ident("sort name")
        self.expect("(")
        if not (self.peek() == "_" or _is_name(self.peek())):
            self.unexpected("variable", "_")
        var = self.next()
        self.expect(")")
        self.expect("->")
        return SArm(sort, var, self.stmt(), pos)

    def expr(self):
        left = self.add_expr()
        if self.accept("<"):
            pos = self.pos(back=1)
            return SLt(left, self.add_expr(), pos)
        return left

    def add_expr(self):
        left = self.atom()
        while self.accept("-"):
            pos = self.pos(back=1)
            left = SSub(left, self.atom(), pos)
        return left

    def atom(self):
        pos = self.pos()
        lexeme = self.peek()
        if lexeme[:1].isdecimal():
            self.next()
            return SInt(int(lexeme), pos)
        if lexeme[:1] == '"':
            self.next()
            raw = lexeme[1:-1]
            return SStr(raw.replace('\\"', '"').replace("\\\\", "\\"), pos)
        if self.accept("("):
            e = self.expr()
            self.expect(")")
            return e
        if _is_name(lexeme):
            self.next()
            if self.accept("("):
                arg = self.expr()
                self.expect(")")
                return SCall(lexeme, arg, pos)
            e: object = SVar(lexeme, pos)
            while self.accept("."):
                dot = self.pos(back=1)
                fieldname = self.ident("value")
                if fieldname != "value":
                    raise ParseError(*self.pos(back=1), f"unknown field {fieldname!r}", ("value",))
                e = SField(e, dot)
            return e
        self.unexpected("integer", "string", "variable", "(")


class OracleElaborator(_Elaborator):
    def concrete(self, name: str, pos=None):
        if name in self._concrete_memo:
            return self._concrete_memo[name]
        d = self.defs.get(name)
        if d is None:
            raise ElabError(f"unknown protocol: {name}", pos)
        if d.params:
            raise ElabError(
                f"protocol {name} is generic; it must be instantiated", pos
            )
        g = self.instantiate(name, [], pos)
        self._concrete_memo[name] = g
        return g

    def type_expr(self, t, ctx: _Ctx):
        return self.local_type(t, ctx) if ctx.local else self.global_type(t, ctx)

    def global_type(self, t, ctx: _Ctx):
        if isinstance(t, STEnd):
            return END
        if isinstance(t, STRec):
            var = self._fresh_recvar(t.var, ctx)
            inner = _Ctx(ctx.roles, ctx.protos, dict(ctx.recvars))
            inner.recvars[t.var] = var
            return Loop(var, self.global_type(t.body, inner))
        if isinstance(t, STCom):
            sender = self._role(t.sender, ctx, t.pos)
            receiver = self._role(t.receiver, ctx, t.pos)
            branches = tuple(
                (self.sort(sname, t.pos), self.global_type(cont, ctx))
                for sname, cont in t.branches
            )
            return Com(sender, receiver, branches)
        assert isinstance(t, STRef)
        if not t.args:
            if t.name in ctx.recvars:
                return Recur(ctx.recvars[t.name])
            if t.name in ctx.protos:
                return ctx.protos[t.name]
            if t.name in ctx.roles:
                raise ElabError(f"role {t.name} used as a protocol", t.pos)
            if t.name in self.defs:
                return self.instantiate(t.name, [], t.pos)
            raise ElabError(f"unknown protocol reference: {t.name}", t.pos)
        d = self.defs.get(t.name)
        if d is None:
            raise ElabError(f"unknown protocol reference: {t.name}", t.pos)
        if len(t.args) != len(d.params):
            raise ElabError(
                f"protocol {t.name} expects {len(d.params)} argument(s),"
                f" got {len(t.args)}",
                t.pos,
            )
        args: list = []
        for (pname, kind), sarg in zip(d.params, t.args):
            if kind == "role":
                if not isinstance(sarg, STRef) or sarg.args:
                    raise ElabError(
                        f"argument for role parameter {pname} must be a role name",
                        t.pos,
                    )
                args.append(self._role(sarg.name, ctx, t.pos))
            else:
                args.append(self.global_type(sarg, ctx))
        return self.instantiate(t.name, args, t.pos)

    def local_type(self, t, ctx: _Ctx):
        if isinstance(t, STEnd):
            return END
        if isinstance(t, STRec):
            inner = _Ctx(ctx.roles, ctx.protos, dict(ctx.recvars))
            inner.recvars[t.var] = RecVar(t.var)
            return Loop(RecVar(t.var), self.local_type(t.body, inner))
        if isinstance(t, STRef):
            if t.args or t.name not in ctx.recvars:
                raise ElabError(
                    f"unknown recursion variable in local type: {t.name}", t.pos
                )
            return Recur(ctx.recvars[t.name])
        assert isinstance(t, STCom)
        branches = tuple(
            (self.sort(sname, t.pos), self.local_type(cont, ctx))
            for sname, cont in t.branches
        )
        ctor = Send if t.op == "!" else Recv
        return ctor(Role(t.sender), Role(t.receiver), branches)

    def proc_body(self, d: ProcDef) -> tc.ProcessTerm:
        # an action without `[var]` acts on the first binding's session, or on `s`
        return self.proc_term(d.body, d.bindings[0][2] or "s")

    def expr(self, e) -> tc.Expr:
        spine = []
        while isinstance(e, (SSub, SLt)):
            spine.append(e)
            e = e.a
        if isinstance(e, SInt):
            out = tc.IntLit(e.value, e.pos)
        elif isinstance(e, SStr):
            out = tc.StrLit(e.value, e.pos)
        elif isinstance(e, SVar):
            out = tc.VarRef(e.name, e.pos)
        elif isinstance(e, SField):
            out = tc.Field(self.expr(e.target), e.pos)
        elif isinstance(e, SCall):
            sort = self.sort(e.name, e.pos)
            out = tc.NewSort(sort, (self.expr(e.arg),), e.pos)
        else:
            raise TypeError(f"unknown surface expression: {e!r}")
        for node in reversed(spine):
            op = tc.Sub if isinstance(node, SSub) else tc.Lt
            out = op(out, self.expr(node.b), node.pos)
        return out

    def proc_term(self, p, default_session: str) -> tc.ProcessTerm:
        if isinstance(p, SSend):
            session = p.session or default_session
            sort = self.sort(p.sort_name, p.pos)
            args = (self.expr(p.arg),) if p.arg is not None else ()
            payload = tc.NewSort(sort, args, p.pos)
            return tc.SendT(
                session, Role(p.to), payload, self.proc_term(p.cont, default_session), p.pos
            )
        if isinstance(p, SRecv):
            session = p.session or default_session
            arms = tuple(
                tc.RecvArm(
                    arm.sort_name,
                    arm.payload_var,
                    self.proc_term(arm.cont, default_session),
                    arm.pos,
                )
                for arm in p.arms
            )
            return tc.RecvT(session, Role(p.frm), arms, p.pos)
        if isinstance(p, SLoop):
            session = p.session or default_session
            return tc.LoopT(session, p.var, self.proc_term(p.body, default_session), p.pos)
        if isinstance(p, SRecur):
            return tc.RecurT(p.var, p.session or default_session, p.pos)
        if isinstance(p, SEndP):
            return tc.EndT(p.results, p.pos)
        if isinstance(p, SIf):
            return tc.IfT(
                self.expr(p.cond),
                self.proc_term(p.then, default_session),
                self.proc_term(p.els, default_session),
                p.pos,
            )
        assert isinstance(p, SLet)
        return tc.LetT(
            p.name, self.expr(p.value), self.proc_term(p.cont, default_session), p.pos
        )


def front_end_outcome(tokens: list, parser=_Parser, elaborator=_Elaborator) -> tuple:
    """What parsing and elaborating a token list gives, positions included:
    the parsed declarations but for process bodies (the two parsers build
    different nodes for those), every syntax error, then the elaborated file
    or the first error.  `repr` shows the `pos` fields that `==` ignores."""
    result = parser(tokens).file()
    decls = repr([
        replace(d, body=None) if isinstance(d, ProcDef) else d for d in result.file.decls
    ])
    errors = [str(e) for e in result.errors]
    if errors:
        return decls, errors, None
    try:
        pf = elaborator(result.file).run()
    except ElabError as e:
        return decls, errors, f"ElabError: {e}"
    return decls, errors, repr((pf.concrete, pf.sorts, pf.local_asserts, pf.procs))


def declare_projections(text: str) -> str:
    """`text` followed by a declared local type for each projection of each
    of its protocols onto up to three of its roles."""
    lines = [text]
    for name, g in load_text(text).concrete.items():
        for role in sorted(roles_of(g), key=str)[:3]:
            try:
                lines.append(f"local {name} @ {role} = {project(g, role)};")
            except ProjectionError:
                pass
    return "\n".join(lines) + "\n"


def cut_and_splice(texts: list, count: int, seed: int) -> list:
    """`count` seeded copies of `texts`, each damaged once at a word
    boundary: cut short there, or up to three words deleted, or up to three
    words of another text spliced in, so that syntax and elaboration errors
    turn up at many places."""
    rng = seeded(seed)
    split = [re.split(r"(\s+)", t) for t in texts]  # words at even indices
    out = []
    for _ in range(count):
        words = rng.choice(split)
        i = rng.randrange(0, len(words) + 1, 2)
        j = min(len(words), i + 2 * rng.randrange(4))
        how = rng.randrange(3)
        if how == 0:
            out.append("".join(words[:i]))
        elif how == 1:
            out.append("".join(words[:i] + words[j:]))
        else:
            other = rng.choice(split)
            k = rng.randrange(0, len(other), 2)
            out.append("".join(words[:i] + other[k:k + 2 * rng.randint(1, 3)] + words[j:]))
    return out


# Whole declarations that parse but are odd.  In a global, {i} numbers the
# protocol and {g} names a generic one defined in the same file.
ODD_GLOBALS = [
    "global G{i} = A -> B : {{ M . end, M . end }};",
    "global G{i} = A -> A : M . end;",
    "global G{i} = B -> A : {{ N . A -> B : M . end, N . end }};",
    "global G{i} = rec X . X;",
    "global G{i} = rec X . rec Y . A -> B : {{ M . X, N . Y, Q . end }};",
    "global G{i} = {g}[A, B, end];",
    "global G{i} = {g}[A, B, {g}[B, A, end]];",
    "global G{i} = {g}[B, B, {g}[A, B, rec X . {g}[A, B, X]]];",
    "global G{i} = A -> B : M . C -> A : N . end;",
    "global G{i} = A -> B : {{ M . C -> A : M . end, N . C -> A : N . end }};",
]
ODD_BODIES = [
    "end",
    "send B M; end",
    "send A M; end",
    "send B N(1); send B M; end",
    "recv A { M(_) -> end }",
    "recv A { M(_) -> end, N(_) -> end }",
    "recv B { M(_) -> end, N(v) -> send B M; end }",
    "loop X { send B Q; end }",
    "loop X { recv A { M(_) -> recur X, Q(_) -> end } }",
    "send C M; end",
]


def reference_chain(kind: str, n: int) -> list:
    """Declarations of protocols `P0` … `P{n-1}`, each naming the one before
    (sorts `M` and `Q` are not declared here).  `kind` is one of:
    "in order", `Pi = A -> B : M . P(i-1)` after the protocol it names;
    "reversed", the same declarations in the opposite order;
    "generic", `Pi[T: protocol] = A -> B : M . P(i-1)[T]`, and `Main = P{n-1}[end]`;
    "diamond", `Pi = A -> B : { M . P(i-1), Q . P(i-1) }`, so `Pi` has 2^i paths."""
    if kind == "generic":
        lines = ["global P0[T: protocol] = T;"]
        lines += [f"global P{i}[T: protocol] = A -> B : M . P{i - 1}[T];" for i in range(1, n)]
        return lines + [f"global Main = P{n - 1}[end];"]
    step = "{{ M . {0}, Q . {0} }}" if kind == "diamond" else "M . {0}"
    lines = ["global P0 = end;"]
    lines += [f"global P{i} = A -> B : " + step.format(f"P{i - 1}") + ";" for i in range(1, n)]
    return lines[::-1] if kind == "reversed" else lines


def bystander_chains(levels: int, steps: int = 100) -> str:
    """Declarations in which C chooses between two chains of protocols, and
    B, a bystander of that choice, must merge them step by step: `P0` is
    `A -> B : M . end` and `Q0` the same with `N`, each `Pi` (and `Qi`) is
    `steps` messages `M` from A to B and then `P(i-1)` (or `Q(i-1)`), and
    `G = A -> C : { x . P{levels}, y . Q{levels} }`.  B's merge is
    `levels * steps + 1` steps deep, and so is each chain."""
    lines = ["sort M; sort N; sort x; sort y;",
             "global P0 = A -> B : M . end;", "global Q0 = A -> B : N . end;"]
    lines += [f"global {p}{i} = " + "A -> B : M . " * steps + f"{p}{i - 1};"
              for i in range(1, levels + 1) for p in "PQ"]
    return "\n".join([*lines, f"global G = A -> C : {{ x . P{levels}, y . Q{levels} }};"]) + "\n"


def share(t):
    """t hash-consed bottom up, as elaboration does a file's types: a node is
    keyed on its kind, role and variable names, the ids of its sorts and the
    ids of its already shared children, so equal subterms become one object."""
    table: dict = {}

    def walk(node):
        if isinstance(node, End):
            return END
        if isinstance(node, Recur):
            return table.setdefault((Recur, node.var.name), node)
        if isinstance(node, Loop):
            body = walk(node.body)
            return table.setdefault((Loop, node.var.name, id(body)), Loop(node.var, body))
        branches = tuple((s, walk(c)) for s, c in node.branches)
        key = (type(node), node.sender.name, node.receiver.name,
               *[id(x) for branch in branches for x in branch])
        return table.setdefault(key, type(node)(node.sender, node.receiver, branches))

    return walk(t)


def odd_files(count: int, seed: int) -> list:
    """`count` seeded files, each of whole declarations that parse but are
    odd: duplicate branch sorts, self-communication, `rec X . X`, nested
    instantiations of a generic protocol, chains of references in file order
    and reversed, diamonds of up to 8 levels (consistency doubles its work
    with each), and processes bound to generic protocols as well as
    concrete ones."""
    rng = seeded(seed)
    out = []
    for _ in range(count):
        g = f"K{rng.randrange(3)}"
        lines = ["sort M; sort N(int); sort Q;",
                 f"global {g}[P: role, R: role, T: protocol] = P -> R : {{ M . T, Q . end }};"]
        names = [g]
        for i in range(rng.randint(1, 3)):
            lines.append(rng.choice(ODD_GLOBALS).format(i=i, g=g))
            names.append(f"G{i}")
        kind = rng.choice(["in order", "reversed", "diamond", None])
        if kind is not None:
            n = rng.randint(1, 8 if kind == "diamond" else 40)
            lines += reference_chain(kind, n)
            names.append(f"P{n - 1}")
        for k in range(rng.randint(1, 4)):
            role, name = rng.choice("ABC"), rng.choice(names)
            lines.append(f"proc p{k} plays {role} in {name} {{ {rng.choice(ODD_BODIES)} }}")
        out.append("\n".join(lines) + "\n")
    return out


def oracle_struct_eq(a, b) -> bool:
    """Equality of alpha-normal forms."""
    return alpha_normalize(a) == alpha_normalize(b)


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
                  must_act: bool = False, relay: bool = False):
    """Random closed, contractive global type over the given roles.

    With `relay`, the receiver of each choice forwards the chosen sort to a
    random subset of the other roles before the branch goes on, so that more
    bystanders can follow the choice and more types project."""
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
            var,
            random_global(
                rng, roles, depth - 1, bound + (var,), must_act=True, relay=relay
            ),
        )
    sender, receiver = rng.sample(roles, 2)
    told = []
    if relay:
        told = [r for r in roles if r not in (sender, receiver) and rng.random() < 0.7]
    n = rng.randint(1, min(3, len(SORT_POOL)))
    branches = []
    for s in _pick_sorts(rng, n):
        cont = random_global(rng, roles, depth - 1, bound, relay=relay)
        for r in reversed(told):
            cont = Com(Role(receiver), Role(r), ((s, cont),))
        branches.append((s, cont))
    return Com(Role(sender), Role(receiver), tuple(branches))


def break_somewhere(rng: random.Random, t):
    """t with one random subterm replaced by an ill-formed variant of it."""
    if isinstance(t, Loop) and rng.random() < 0.7:
        return Loop(t.var, break_somewhere(rng, t.body))
    if isinstance(t, Com) and t.branches and rng.random() < 0.7:
        i = rng.randrange(len(t.branches))
        s, c = t.branches[i]
        branches = list(t.branches)
        branches[i] = (s, break_somewhere(rng, c))
        return Com(t.sender, t.receiver, tuple(branches))
    kind = rng.randrange(5)
    if kind == 0:
        return Com(A, A, ((OK, t),))
    if kind == 1:
        return Com(A, B, ((OK, t), (OK, END)))
    if kind == 2:
        return Com(B, A, ((OK, t), (PROPOSE, Recur(RecVar("Zfree")))))
    if kind == 3:
        return Loop(RecVar("Y"), Loop(X, Recur(RecVar("Y"))))
    return Com(A, B, ())


def repeating_global(seed: int, levels: int = 5):
    """A global type, built as a tree, that repeats a few `random_global`s,
    some broken by `break_somewhere` and some with recursion variables R0 or
    R1 free, at many paths: under both branches of a choice and under loops
    on R0 or R1.  Its `share` copy meets one object on many paths, and often
    under different sets of binders."""
    rng = seeded(seed)
    r0, r1 = RecVar("R0"), RecVar("R1")
    pieces = []
    for _ in range(3):
        g = random_global(rng, ["A", "B", "C"], depth=3, bound=(r0, r1)[:rng.randrange(3)])
        for _ in range(rng.randrange(3)):
            g = break_somewhere(rng, g)
        pieces.append(g)

    def build(level: int):
        if level == 0 or rng.random() < 0.2:
            return rng.choice(pieces)
        kind = rng.randrange(3)
        if kind == 0:
            return Loop(rng.choice((r0, r1)), Com(A, B, ((SORT_POOL[0], build(level - 1)),)))
        left = build(level - 1)
        right = left if rng.random() < 0.5 else build(level - 1)
        return Com(A, B, ((SORT_POOL[0], left), (SORT_POOL[1], right)))

    return build(levels)


def rename_binders(rng: random.Random, t, names: list):
    """t with each loop's variable renamed to one drawn from `names[d]`,
    where d is the loop's nesting depth (the last list for deeper loops);
    `D<depth>` when each drawn name would capture a free variable of its
    body.  Alpha-equivalent to t: a fresh recursion, not `alpha_normalize`."""
    def walk(node, env: dict, depth: int):
        if isinstance(node, Recur):
            return Recur(env.get(node.var, node.var))
        if isinstance(node, Loop):
            clash = {env.get(v, v) for v in free_rec_vars(node.body) - {node.var}}
            pool = names[min(depth, len(names) - 1)]
            new = rng.choice([v for v in pool if v not in clash] or [RecVar(f"D{depth}")])
            return Loop(new, walk(node.body, {**env, node.var: new}, depth + 1))
        if isinstance(node, (Com, Send, Recv)):
            branches = tuple((s, walk(c, env, depth)) for s, c in node.branches)
            return type(node)(node.sender, node.receiver, branches)
        return node

    return walk(t, {}, 0)


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


def long_global(steps: int):
    """A loop of `steps` messages built with constructors: A and B take turns
    sending, and the last step is A's to C, so C is a bystander of every
    step but one."""
    x, c = RecVar("X"), Role("C")
    g = Recur(x)
    for i in reversed(range(steps)):
        pair = (A, c) if i == steps - 1 else (A, B) if i % 2 == 0 else (B, A)
        g = Com(*pair, ((Sort(f"M{i}"), g),))
    return Loop(x, g)


def nested_loops(n: int):
    """`rec X0 . A -> B : M . rec X1 . … X{n-1}`, built with constructors:
    n loops, each directly under one message, where only the innermost
    binder is used."""
    g = Recur(RecVar(f"X{n - 1}"))
    for i in reversed(range(n)):
        g = Loop(RecVar(f"X{i}"), Com(A, B, ((Sort("M"), g),)))
    return g


def token_ring_text(n_roles: int, with_exit: bool = False) -> str:
    """`.mpst` text of roles R0 … R{n-1} passing a Go token around a loop,
    with one process per role.  With an exit, R0 may send Stop instead,
    relayed up to R{n-1}: the protocol stays projectable, but pairs that
    never talk cannot agree on whether the loop goes on."""
    roles = [f"R{i}" for i in range(n_roles)]

    def hop(i: int, sort: str) -> str:
        return f"{roles[i]} -> {roles[(i + 1) % n_roles]} : {sort}"

    go = " . ".join(hop(i, "Go") for i in range(1, n_roles))
    if with_exit:
        halt = " . ".join(hop(i, "Stop") for i in range(1, n_roles - 1))
        body = f"{roles[0]} -> {roles[1]} : {{ Go . {go} . X, Stop . {halt} . end }}"
    else:
        body = f"{hop(0, 'Go')} . {go} . X"
    text = f"sort Go;\nsort Stop;\nglobal Ring =\n  rec X . {body};\n"
    for i, role in enumerate(roles):
        prev, nxt = roles[i - 1], roles[(i + 1) % n_roles]
        if i == 0:
            body = f"send {nxt} Go; recv {prev} {{ Go(_) -> recur X }}"
        else:
            arms = [f"Go(_) -> send {nxt} Go; recur X"]
            if with_exit:
                relay = f"send {nxt} Stop; end" if i < n_roles - 1 else "end"
                arms.append(f"Stop(_) -> {relay}")
            body = f"recv {prev} {{ {', '.join(arms)} }}"
        text += f"proc p{i} plays {role} in Ring {{\n  loop X {{ {body} }}\n}}\n"
    return text


def token_ring_global(n_roles: int, with_exit: bool = False, sorts=None):
    """The global type of `token_ring_text(n_roles, with_exit)`, built with
    constructors: at 320 roles that text nests deeper than the parser
    reaches under pytest.  `sorts` maps Go and Stop to a file's sorts."""
    go, stop = (sorts or {}).get("Go", Sort("Go")), (sorts or {}).get("Stop", Sort("Stop"))
    roles, x = [Role(f"R{i}") for i in range(n_roles)], RecVar("X")

    def hops(first: int, last: int, sort, cont):
        for i in reversed(range(first, last)):
            cont = Com(roles[i], roles[(i + 1) % n_roles], ((sort, cont),))
        return cont

    if not with_exit:
        return Loop(x, hops(0, n_roles, go, Recur(x)))
    return Loop(x, Com(roles[0], roles[1], (
        (go, hops(1, n_roles, go, Recur(x))),
        (stop, hops(1, n_roles - 1, stop, END)),
    )))


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
# The process checker's steps as they were before they decided the passing
# case inline: every step looks its session up through `_session` and its head
# through `_head`, every successor goes through the work list, and every
# receive arm checks in its own copy of the environment.  Expressions are
# typed by `tc.Checker`'s own methods, which are shared.


class OracleChecker(tc.Checker):
    # -- session variable access -------------------------------------------

    def _session(self, env: tc.TypingEnv, var: str, path: tc.TermPath, pos: tc.Pos) -> tc._Live:
        """Look up a live session, reporting and recovering from misuse.

        Using a name that was aliased away steals the state back from the
        live alias (the alias becomes dead), so checking can continue and
        later misuse of the alias is still caught."""
        if var in env.sessions:
            return env.sessions[var]
        if var in env.dead:
            reason = env.dead.pop(var)
            self._err(
                tc.ErrorClass.LINEARITY_REUSE,
                f"session variable {var} is no longer usable ({reason})",
                path,
                pos,
            )
            alias = reason[len("aliased to "):] if reason.startswith("aliased to ") else None
            if alias in env.sessions:
                env.dead[alias] = f"superseded by original name {var}"
                env.sessions[var] = env.sessions.pop(alias)
                return env.sessions[var]
        else:
            self._err(
                tc.ErrorClass.UNBOUND_VARIABLE, f"unknown session variable {var}", path, pos
            )
        env.sessions[var] = tc._Live(Role("Unknown"), None)
        return env.sessions[var]

    # -- payload matching ---------------------------------------------------

    @staticmethod
    def _names_session(env: tc.TypingEnv, e: tc.Expr) -> bool:
        return isinstance(e, tc.VarRef) and (e.name in env.sessions or e.name in env.dead)

    def _match_payload(self, env: tc.TypingEnv, term: tc.SendT, state: tc._Live, h: int, path: tc.TermPath):
        """Resolve the send's payload against the branches of Send node h.

        Returns the chosen branch's child node, or None after reporting.  A
        session variable as the payload's argument is delegated: the sort
        must carry an endpoint, the session must fit its schema, and it dies."""
        ty = state.graph.nodes[h]
        e = term.payload
        arg = e.args[0] if len(e.args) == 1 else None
        deleg = arg.name if self._names_session(env, arg) else None
        if deleg is None:
            self._check_sort_args(env, e, path)
        else:
            sent = self._session(env, deleg, path, term.pos)
            if sent.graph is None:
                return None
        names = [s.name for s, _ in ty.branches]
        if e.sort.name not in names:
            self._err(
                tc.ErrorClass.WRONG_SORT,
                "sort not offered by the protocol here",
                path,
                term.pos,
                expected=f"one of [{', '.join(names)}]",
                found=e.sort.name,
            )
            return None
        k = names.index(e.sort.name)
        if deleg is not None:
            schema = ty.branches[k][0].payload
            if not isinstance(schema, tc.EndpointPayload):
                self._err(
                    tc.ErrorClass.WRONG_SORT,
                    f"sort {e.sort.name} does not carry an endpoint",
                    path,
                    term.pos,
                )
                return None
            want = tc.StateGraph(schema.local, self.cons).closed(0)  # alpha-equality
            if schema.role != sent.role or want != sent.graph.closed(sent.node):
                self._err(
                    tc.ErrorClass.WRONG_SORT,
                    "delegated endpoint does not match the declared schema",
                    path,
                    term.pos,
                    expected=f"{schema.role} at {schema.local}",
                    found=f"{sent.role} at {sent.graph.term(sent.node)}",
                )
                return None
            del env.sessions[deleg]
            env.dead[deleg] = "delegated away"
        return state.graph.links[h][k]

    # -- terms ---------------------------------------------------------------

    def check(self, env: tc.TypingEnv, term: tc.ProcessTerm, path: tc.TermPath = None) -> None:
        """Check a term depth-first with an explicit stack.  Each step returns
        its successors in order: (env, term, path) items to check next and
        diagnostics to report between them."""
        steps = {
            tc.SendT: self._check_send,
            tc.RecvT: self._check_recv,
            tc.LoopT: self._check_loop,
            tc.RecurT: self._check_recur,
            tc.EndT: self._check_end,
            tc.IfT: self._check_if,
            tc.LetT: self._check_let,
        }
        work: list = [(env, term, path)]
        while work:
            item = work.pop()
            if isinstance(item, tc.Diagnostic):
                self.diags.append(item)
                continue
            env, term, path = item
            if type(term) not in steps:
                raise TypeError(f"unknown process term: {term!r}")
            work.extend(reversed(steps[type(term)](env, term, path)))

    def _check_if(self, env: tc.TypingEnv, term: tc.IfT, path: tc.TermPath) -> list:
        t = self.expr_type(env, term.cond, path)
        if t is not None and t != tc.T_BOOL:
            self._err(
                tc.ErrorClass.EXPR_TYPE,
                "condition is not a boolean",
                path,
                term.pos,
                expected=tc.T_BOOL,
                found=str(t),
            )
        return [
            (env.copy(), term.then, (path, ".then")),
            (env.copy(), term.els, (path, ".else")),
        ]

    def _check_send(self, env: tc.TypingEnv, term: tc.SendT, path: tc.TermPath) -> list:
        state = self._session(env, term.session, path, term.pos)
        if state.graph is not None:
            h = self._head(state, Send, term.to, path, term.pos, f"send to {term.to}")
            child = None if h is None else self._match_payload(env, term, state, h, path)
            if child is None:
                state = tc._Live(state.role, None, state.node, state.loops)
            else:
                state = tc._Live(state.role, state.graph, child, state.loops)
        env.sessions[term.session] = state
        return [(env, term.cont, (path, ".cont"))]

    def _head(self, state: tc._Live, want: type, peer: Role, path: tc.TermPath, pos: tc.Pos, doing: str):
        """Head node of the session's type when it is a `want` (Send or Recv)
        exchanging with `peer`, else None after reporting.  `doing` names the
        process's action in diagnostics."""
        g = state.graph
        h = g.head(state.node)
        ty = g.nodes[h]
        act = "send" if want is Send else "receive"
        if not isinstance(ty, want):
            kind = {Send: "send", Recv: "receive"}.get(type(ty), "termination")
            self._err(
                tc.ErrorClass.WRONG_ACTION_KIND,
                f"protocol does not allow a {act} here",
                path,
                pos,
                expected=f"a {kind} ({g.term(h)})",
                found=doing,
            )
            return None
        other = ty.receiver if want is Send else ty.sender
        if other != peer:
            wrong = "send addressed to" if want is Send else "receive awaits"
            self._err(
                tc.ErrorClass.WRONG_PEER,
                f"{wrong} the wrong role",
                path,
                pos,
                expected=str(other),
                found=str(peer),
            )
            return None
        return h

    def _check_recv(self, env: tc.TypingEnv, term: tc.RecvT, path: tc.TermPath) -> list:
        state = self._session(env, term.session, path, term.pos)
        g = state.graph
        if g is None:
            return [(env.copy(), arm.cont, (path, f".{arm.sort_name}")) for arm in term.branches]
        h = self._head(state, Recv, term.frm, path, term.pos, f"receive from {term.frm}")
        if h is None:
            return []
        ty = g.nodes[h]
        offered = {s.name: (s, k) for (s, _), k in zip(ty.branches, g.links[h])}
        supplied = {arm.sort_name for arm in term.branches}
        missing = [n for n in offered if n not in supplied]
        if missing:
            self._err(
                tc.ErrorClass.MISSING_RECV_BRANCH,
                "receive must implement every offered branch",
                path,
                term.pos,
                expected=f"branches for [{', '.join(offered)}]",
                found=f"missing [{', '.join(missing)}]",
            )
        out = []
        for arm in term.branches:
            arm_path = (path, f".{arm.sort_name}")
            if arm.sort_name not in offered:
                out.append(
                    tc.Diagnostic(
                        tc.ErrorClass.WRONG_SORT,
                        "receive branch for a sort the protocol does not offer",
                        tc.path_text(arm_path),
                        arm.pos,
                        expected=f"one of [{', '.join(offered)}]",
                        found=arm.sort_name,
                    )
                )
                continue
            srt, child = offered[arm.sort_name]
            arm_env = env.copy()
            schema = srt.payload
            if arm.payload_var != "_":
                if isinstance(schema, tc.EndpointPayload):
                    arm_env.sessions[arm.payload_var] = tc._Live(
                        schema.role, tc.StateGraph(schema.local, self.cons)
                    )
                    arm_env.dead.pop(arm.payload_var, None)
                else:
                    arm_env.data[arm.payload_var] = srt
            elif isinstance(schema, tc.EndpointPayload):
                out.append(
                    tc.Diagnostic(
                        tc.ErrorClass.LINEARITY_REUSE,
                        "a received endpoint must be bound, not discarded",
                        tc.path_text(arm_path),
                        arm.pos,
                    )
                )
            arm_env.sessions[term.session] = tc._Live(state.role, g, child, state.loops)
            out.append((arm_env, arm.cont, arm_path))
        return out

    def _check_loop(self, env: tc.TypingEnv, term: tc.LoopT, path: tc.TermPath) -> list:
        state = self._session(env, term.session, path, term.pos)
        g = state.graph
        if g is not None:
            i = state.node
            if isinstance(g.nodes[i], Recur) and g.links[i] >= 0:
                i = g.links[i]  # a bound Recur stands for its binder
            if isinstance(g.nodes[i], Loop):
                others = tuple(
                    (v, s.graph.closed(s.node))
                    for v, s in sorted(env.sessions.items())
                    if v != term.session and s.graph is not None
                )
                entry = tc.LoopEntry(term.recur_var, i, others)
                state = tc._Live(state.role, g, g.links[i], state.loops + (entry,))
            else:
                self._err(
                    tc.ErrorClass.WRONG_ACTION_KIND,
                    "protocol does not loop here",
                    path,
                    term.pos,
                    expected=str(g.term(i)),
                    found=f"loop {term.recur_var}",
                )
                state = tc._Live(state.role, None, state.node, state.loops)
        env.sessions[term.session] = state
        return [(env, term.body, (path, f".loop({term.recur_var})"))]

    def _check_recur(self, env: tc.TypingEnv, term: tc.RecurT, path: tc.TermPath) -> list:
        if term.session in env.dead:
            self._err(
                tc.ErrorClass.WRONG_RECURSIVE_TYPE,
                f"recur on a stale session handle {term.session}"
                f" ({env.dead[term.session]}); the loop must recur on the"
                " current endpoint",
                path,
                term.pos,
            )
            return []
        if term.session not in env.sessions:
            self._err(
                tc.ErrorClass.UNBOUND_VARIABLE,
                f"unknown session variable {term.session}",
                path,
                term.pos,
            )
            return []
        state = env.sessions.pop(term.session)
        env.dead[term.session] = "consumed by recur"
        g = state.graph
        if g is None:
            return []
        entry = next((e for e in reversed(state.loops) if e.recur_var == term.recur_var), None)
        if entry is None:
            self._err(
                tc.ErrorClass.WRONG_RECURSIVE_TYPE,
                f"no enclosing loop {term.recur_var} for session {term.session}",
                path,
                term.pos,
            )
            return []
        # the loop node itself, or a Recur bound to it, names the loop-entry
        # type by `StateGraph.closed`'s own rule, without walking the term
        node, back = state.node, entry.node
        at_entry = node == back or (isinstance(g.nodes[node], Recur) and g.links[node] == back)
        if not at_entry and g.closed(node) != g.closed(back):
            self._err(
                tc.ErrorClass.WRONG_RECURSIVE_TYPE,
                "session is not back at the loop-entry type",
                path,
                term.pos,
                expected=str(g.term(back)),
                found=str(g.term(node)),
            )
        snapshot = dict(entry.others)
        for v, s in sorted(env.sessions.items()):
            if s.graph is None:
                continue
            if v not in snapshot:
                self._err(
                    tc.ErrorClass.NON_TERMINATED_SESSION,
                    f"session {v} was opened inside the loop body and is still live at recur",
                    path,
                    term.pos,
                )
            elif s.graph.closed(s.node) != snapshot[v]:
                self._err(
                    tc.ErrorClass.WRONG_RECURSIVE_TYPE,
                    f"session {v} changed state across the loop iteration",
                    path,
                    term.pos,
                )
        return []

    def _check_end(self, env: tc.TypingEnv, term: tc.EndT, path: tc.TermPath) -> list:
        for v in term.results:
            if v not in env.sessions and v not in env.dead:
                self._err(
                    tc.ErrorClass.UNBOUND_VARIABLE,
                    f"unknown result variable {v}",
                    path,
                    term.pos,
                )
        for v, state in sorted(env.sessions.items()):
            g = state.graph
            if g is not None and not isinstance(g.nodes[g.head(state.node)], End):
                self._err(
                    tc.ErrorClass.NON_TERMINATED_SESSION,
                    f"session {v} still has protocol left at termination",
                    path,
                    term.pos,
                    expected="end",
                    found=str(g.term(state.node)),
                )
        return []

    def _check_let(self, env: tc.TypingEnv, term: tc.LetT, path: tc.TermPath) -> list:
        value = term.value
        if isinstance(value, tc.VarRef) and value.name in env.sessions:
            # aliasing a session transfers ownership; the old name is dead
            state = env.sessions.pop(value.name)
            env.dead[value.name] = f"aliased to {term.name}"
            env.dead.pop(term.name, None)
            env.sessions[term.name] = state
        else:
            t = self.expr_type(env, value, path)
            if term.name in env.sessions:
                self._err(
                    tc.ErrorClass.LINEARITY_REUSE,
                    f"binding {term.name} would shadow a live session",
                    path,
                    term.pos,
                )
            elif t is not None:
                env.data[term.name] = t
        return [(env, term.cont, (path, f".let({term.name})"))]


def oracle_check_process(env: tc.TypingEnv, term: tc.ProcessTerm) -> list:
    """`tc.check_process` with `OracleChecker` in place of `tc.Checker`."""
    for state in env.sessions.values():
        bad = tc.well_formed(state.type)
        if bad:
            raise ValueError(f"ill-formed local type in environment: {bad[0]}")
    ch = OracleChecker()
    live = {v: tc._Live(s.role, tc.StateGraph(s.type, ch.cons)) for v, s in env.sessions.items()}
    ch.check(tc.TypingEnv(live, dict(env.dead), dict(env.data)), term)
    return ch.diags


def oracle_check_session(protocol_file) -> tc.SessionCheckResult:
    """`tc.check_session` with `OracleChecker`, and with each played
    protocol's roles taken from a walk of its global type."""
    reports = []
    for proc in protocol_file.procs:
        env = tc.TypingEnv()
        diags: list = []
        for role, proto_name, var in proc.bindings:
            local = tc._session_type(protocol_file, proto_name, role, proc.pos)
            if isinstance(local, tc.Diagnostic):
                diags.append(local)
            else:
                env.sessions[var] = tc.SessionState(role, local)
        if not diags:
            ch = OracleChecker()
            live = {v: tc._Live(s.role, tc.StateGraph(s.type, ch.cons)) for v, s in env.sessions.items()}
            ch.check(tc.TypingEnv(live, {}, {}), proc.term)
            diags = ch.diags
        reports.append(tc.ProcReport(proc.name, diags))
    played: dict = {}
    for proc in protocol_file.procs:
        for role, proto_name, _ in proc.bindings:
            played.setdefault(proto_name, set()).add(role)
    warnings = [
        f"role {role} of protocol {name} has no process (unimplemented)"
        for name, roles in played.items()
        if name in protocol_file.concrete
        for role in sorted(roles_of(protocol_file.concrete[name]) - roles, key=lambda r: r.name)
    ]
    return tc.SessionCheckResult(reports, warnings)


# ---------------------------------------------------------------------------
# Process synthesis: a term that exactly mimics a local type.

def synthesize_process(l, session: str = "s") -> tc.ProcessTerm:
    """Build a process that follows `l` move for move: first branch of every
    send, all branches of every receive, loop/recur mirroring the binders."""
    if isinstance(l, End):
        return tc.EndT()
    if isinstance(l, Loop):
        return tc.LoopT(session, l.var.name, synthesize_process(l.body, session))
    if isinstance(l, Recur):
        return tc.RecurT(l.var.name, session)
    if isinstance(l, Send):
        sort, cont = l.branches[0]
        return tc.SendT(
            session, l.receiver, _payload_for(sort), synthesize_process(cont, session)
        )
    assert isinstance(l, Recv)
    arms = tuple(
        tc.RecvArm(s.name, "_", synthesize_process(c, session))
        for s, c in l.branches
    )
    return tc.RecvT(session, l.sender, arms)


def _payload_for(sort: Sort) -> tc.NewSort:
    if sort.payload == PAYLOAD_INT:
        return tc.NewSort(sort, (tc.IntLit(0),))
    if sort.payload == PAYLOAD_STRING:
        return tc.NewSort(sort, (tc.StrLit(""),))
    return tc.NewSort(sort, ())


def process_subterms(term) -> list:
    """Every subterm of a process term, each object once, in preorder."""
    out, todo, seen = [], [term], set()
    while todo:
        t = todo.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        out.append(t)
        if isinstance(t, tc.RecvT):
            todo.extend(arm.cont for arm in reversed(t.branches))
        elif isinstance(t, (tc.SendT, tc.LetT)):
            todo.append(t.cont)
        elif isinstance(t, tc.LoopT):
            todo.append(t.body)
        elif isinstance(t, tc.IfT):
            todo += [t.els, t.then]
    return out


def replace_subterm(term, old, new):
    """`term` with every occurrence of the object `old` replaced by `new`."""
    if term is old:
        return new
    if isinstance(term, tc.RecvT):
        arms = tuple(replace(a, cont=replace_subterm(a.cont, old, new)) for a in term.branches)
        return replace(term, branches=arms)
    if isinstance(term, (tc.SendT, tc.LetT)):
        return replace(term, cont=replace_subterm(term.cont, old, new))
    if isinstance(term, tc.LoopT):
        return replace(term, body=replace_subterm(term.body, old, new))
    if isinstance(term, tc.IfT):
        return replace(term, then=replace_subterm(term.then, old, new),
                       els=replace_subterm(term.els, old, new))
    return term


PROCESS_MUTATIONS = (
    "drop-arm", "add-arm", "recv-peer", "bind-arm", "send-sort", "send-peer", "end-early",
    "recur-label", "recur-stale", "alias", "alias-reuse", "wrong-arg", "if",
)


def mutate_process(rng: random.Random, term, kind: Optional[str] = None):
    """One random change to a process term on session `s`: a receive arm
    dropped or added, a receive from another role, a payload bound in one
    arm and used in a later one, a send's sort or peer swapped, an early end, a recur
    on another label or on a stale handle, an alias by `let` (kept to, or
    with the old name used again), a payload argument of the wrong type, or
    a subterm put under an `if`.  A change with no place to go ends the
    process early instead."""
    kind = kind or rng.choice(PROCESS_MUTATIONS)
    subs = process_subterms(term)

    def of(cls, ok=lambda t: True) -> list:
        return [t for t in subs if isinstance(t, cls) and ok(t)]

    at = rng.choice(subs)
    new = tc.EndT()
    if kind == "drop-arm" and of(tc.RecvT, lambda t: len(t.branches) > 1):
        at = rng.choice(of(tc.RecvT, lambda t: len(t.branches) > 1))
        arms = list(at.branches)
        del arms[rng.randrange(len(arms))]
        new = replace(at, branches=tuple(arms))
    elif kind == "add-arm" and of(tc.RecvT):
        at = rng.choice(of(tc.RecvT))
        arm = rng.choice(at.branches + tuple(tc.RecvArm(s.name, "_", tc.EndT()) for s in SORT_POOL))
        arms = list(at.branches)
        arms.insert(rng.randrange(len(arms) + 1), arm)
        new = replace(at, branches=tuple(arms))
    elif kind == "recv-peer" and of(tc.RecvT):
        at = rng.choice(of(tc.RecvT))
        new = replace(at, frm=rng.choice([Role("A"), Role("C")]))
    elif kind == "bind-arm" and of(tc.RecvT, lambda t: len(t.branches) > 1):
        at = rng.choice(of(tc.RecvT, lambda t: len(t.branches) > 1))
        first, *rest = at.branches
        use = tc.LetT("w", tc.Field(tc.VarRef("v")), rest[-1].cont)
        arms = (replace(first, payload_var="v"), *rest[:-1], replace(rest[-1], cont=use))
        new = replace(at, branches=arms)
    elif kind == "send-sort" and of(tc.SendT):
        at = rng.choice(of(tc.SendT))
        new = replace(at, payload=_payload_for(rng.choice(SORT_POOL)))
    elif kind == "send-peer" and of(tc.SendT):
        at = rng.choice(of(tc.SendT))
        new = replace(at, to=rng.choice([Role("A"), Role("C")]))
    elif kind in ("recur-label", "recur-stale") and of(tc.RecurT):
        at = rng.choice(of(tc.RecurT))
        if kind == "recur-label":
            new = replace(at, recur_var=rng.choice(["R0", "R1", "R9"]))
        else:
            new = tc.LetT("t", tc.VarRef(at.session), at)
    elif kind == "alias":
        new = tc.LetT("t", tc.VarRef("s"), rename_session(at, "s", "t"))
    elif kind == "alias-reuse":
        new = tc.LetT("t", tc.VarRef("s"), at)
    elif kind == "wrong-arg" and of(tc.SendT):
        at = rng.choice(of(tc.SendT))
        arg = rng.choice([tc.IntLit(1), tc.StrLit("x"), tc.VarRef("s"), tc.VarRef("nowhere")])
        new = replace(at, payload=tc.NewSort(at.payload.sort, (arg,)))
    elif kind == "if":
        cond = rng.choice([tc.Lt(tc.IntLit(0), tc.IntLit(1)), tc.IntLit(0)])
        new = tc.IfT(cond, at, mutate_process(rng, at, "end-early"))
    return replace_subterm(term, at, new)


def rename_session(term, old: str, new: str):
    """`term` with session variable `old` renamed to `new` where it acts."""
    if isinstance(term, tc.RecvT):
        arms = tuple(replace(a, cont=rename_session(a.cont, old, new)) for a in term.branches)
        return replace(term, session=new if term.session == old else term.session, branches=arms)
    if isinstance(term, tc.SendT):
        return replace(term, session=new if term.session == old else term.session,
                       cont=rename_session(term.cont, old, new))
    if isinstance(term, tc.LoopT):
        return replace(term, session=new if term.session == old else term.session,
                       body=rename_session(term.body, old, new))
    if isinstance(term, tc.RecurT):
        return replace(term, session=new if term.session == old else term.session)
    if isinstance(term, tc.LetT):
        return replace(term, cont=rename_session(term.cont, old, new))
    if isinstance(term, tc.IfT):
        return replace(term, then=rename_session(term.then, old, new),
                       els=rename_session(term.els, old, new))
    return term


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
# Synchronous semantics: the event traces of a global type against those of
# its projections run together, where a send fires with the matching receive.
# An event (sender, receiver, sort name), as strings, may pass a step of the
# global type only when both of its roles are outside that step, and then
# only uniformly in every branch.  `accept_event` is the asynchronous rule:
# there an event may pass a step that shares its receiver.

def sync_step(g, event, _loops=()):
    """The global type after `event` under the synchronous rule, or None.
    Unfolding puts a loop object itself back where it recurs, so a walk that
    goes round a loop without meeting the event meets that object again."""
    if isinstance(g, Loop):
        if any(g is seen for seen in _loops):
            return None
        _loops += (g,)
        g = unfold(g)
    if not isinstance(g, Com):
        return None
    sender, receiver, sort_name = event
    if (g.sender.name, g.receiver.name) == (sender, receiver):
        return branch_lookup_name(g.branches, sort_name)
    if {sender, receiver} & {g.sender.name, g.receiver.name}:
        return None
    stepped = []
    for s, c in g.branches:
        after = sync_step(c, event, _loops)
        if after is None:
            return None
        stepped.append((s, after))
    return Com(g.sender, g.receiver, tuple(stepped))


def _global_events(g) -> set:
    if isinstance(g, Loop):
        return _global_events(g.body)
    if not isinstance(g, Com):
        return set()
    out = {(g.sender.name, g.receiver.name, s.name) for s, _ in g.branches}
    return out.union(*(_global_events(c) for _, c in g.branches))


def global_traces(g, k: int) -> set:
    """Every event sequence of length <= k that g allows synchronously."""
    events = _global_events(g)  # stepping only unfolds: no new events
    out = {()}

    def walk(state, prefix):
        if len(prefix) == k:
            return
        for event in events:
            after = sync_step(state, event)
            if after is not None:
                out.add(prefix + (event,))
                walk(after, prefix + (event,))

    walk(g, ())
    return out


def _product_moves(state: tuple):
    """(event, next state) for each send in a product state (a tuple of
    local types, one per role) whose peer's head is the matching receive."""
    heads = [unfold(l) for l in state]
    for i, h in enumerate(heads):
        if not isinstance(h, Send):
            continue
        for j, peer in enumerate(heads):
            if isinstance(peer, Recv) and (peer.sender, peer.receiver) == (h.sender, h.receiver):
                for s, c in h.branches:
                    matched = branch_lookup_name(peer.branches, s.name)
                    if matched is not None:
                        after = list(state)
                        after[i], after[j] = c, matched
                        yield (h.sender.name, h.receiver.name, s.name), tuple(after)


def sync_product_traces(projections: dict, k: int) -> set:
    """Every event sequence of length <= k of the projections (role -> local
    type) run together, each send firing with its matching receive."""
    out = {()}

    def walk(state, prefix):
        if len(prefix) == k:
            return
        for event, after in _product_moves(state):
            out.add(prefix + (event,))
            walk(after, prefix + (event,))

    walk(tuple(projections.values()), ())
    return out


def _offers_unmatched(heads: list) -> bool:
    """Whether a role offers a sort that its peer, waiting on it, lacks."""
    for h in heads:
        if isinstance(h, Send):
            for peer in heads:
                if isinstance(peer, Recv) and (peer.sender, peer.receiver) == (h.sender, h.receiver):
                    if {s.name for s, _ in h.branches} - {s.name for s, _ in peer.branches}:
                        return True
    return False


def stuck_product_states(projections: dict, steps: int) -> list:
    """Product states reachable within `steps` moves that are stuck: no send
    meets its receive although some role has not reached `end`, or a role
    may choose a sort that its peer, waiting on it, cannot take."""
    frontier = [tuple(projections.values())]
    seen = {tuple(map(str, frontier[0]))}
    stuck = []
    for depth in range(steps + 1):
        later = []
        for state in frontier:
            moves = list(_product_moves(state))
            heads = [unfold(l) for l in state]
            if _offers_unmatched(heads) or not moves and not all(isinstance(h, End) for h in heads):
                stuck.append(state)
            for _, after in moves if depth < steps else ():
                key = tuple(map(str, after))
                if key not in seen:
                    seen.add(key)
                    later.append(after)
        frontier = later
    return stuck


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
