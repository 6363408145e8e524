"""Static checking of process terms against projected local types.

A process term is the elaborated form of a `.mpst` process: every
communication action names the session variable it acts on, and that name
then stands for the successor endpoint, as an endpoint handle is consumed and
replaced at run time.  The checker walks the term with a typing environment
that maps session variables to a role and a node of their local type's
`fsm.StateGraph`, and data variables to value types.  A step with a single
successor goes on in place, in the same environment; only branch points (a
receive with several arms, an `if`) put their successors on an explicit work
list, and a receive copies the environment once per extra arm, the last arm
taking the step's own.  A step decides the case where nothing is wrong with
inline tests and calls a helper only to report a failure and recover.

Session variables are linear: a delegation or an alias kills the name.  Sends
may implement any single offered branch; receives must implement all of
them.  Loop entry records the loop node (and a snapshot of
the other live sessions); recur must present the current descendant of the
loop endpoint at exactly that type.  Types compare by the cons id of a node's
closed term: alpha-equality, under which a type differs from its unfolding.

The checker recovers after most errors (poisoning the affected session) so
one pass reports every independent violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional, Union

from .core import (
    End,
    EndpointPayload,
    LocalType,
    Loop,
    PAYLOAD_INT,
    PAYLOAD_NONE,
    PAYLOAD_STRING,
    Recur,
    Recv,
    Role,
    Send,
    Sort,
    path_text,
    well_formed,
)
from .fsm import StateGraph
from .projection import ProjectionError

Pos = Optional[tuple]  # (line, col)
# a term's place as nested (parent, step) pairs from the root (None), each
# step the text it appends: rendered by core.path_text only for a Diagnostic
TermPath = Optional[tuple]


# ---------------------------------------------------------------------------
# Expressions


@dataclass(unsafe_hash=True)
class IntLit:
    value: int
    pos: Pos = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class StrLit:
    value: str
    pos: Pos = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class VarRef:
    name: str
    pos: Pos = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class NewSort:
    sort: Sort
    args: tuple = ()
    pos: Pos = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class Field:
    target: "Expr"
    pos: Pos = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class Sub:
    a: "Expr"
    b: "Expr"
    pos: Pos = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class Lt:
    a: "Expr"
    b: "Expr"
    pos: Pos = field(default=None, compare=False)


Expr = Union[IntLit, StrLit, VarRef, NewSort, Field, Sub, Lt]


# ---------------------------------------------------------------------------
# Process terms


@dataclass(unsafe_hash=True)
class SendT:
    session: str
    to: Role
    payload: NewSort
    cont: "ProcessTerm"
    pos: Pos = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class RecvArm:
    sort_name: str
    payload_var: str  # "_" discards
    cont: "ProcessTerm"
    pos: Pos = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class RecvT:
    session: str
    frm: Role
    branches: tuple  # tuple[RecvArm, ...]
    pos: Pos = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class LoopT:
    session: str
    recur_var: str
    body: "ProcessTerm"
    pos: Pos = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class RecurT:
    recur_var: str
    session: str
    pos: Pos = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class EndT:
    results: tuple = ()
    pos: Pos = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class IfT:
    cond: Expr
    then: "ProcessTerm"
    els: "ProcessTerm"
    pos: Pos = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class LetT:
    name: str
    value: Expr
    cont: "ProcessTerm"
    pos: Pos = field(default=None, compare=False)


ProcessTerm = Union[SendT, RecvT, LoopT, RecurT, EndT, IfT, LetT]


# ---------------------------------------------------------------------------
# Diagnostics


class ErrorClass(str, Enum):
    WRONG_PEER = "wrong-peer"
    WRONG_SORT = "wrong-sort"
    WRONG_ACTION_KIND = "wrong-action-kind"
    MISSING_RECV_BRANCH = "missing-recv-branch"
    WRONG_RECURSIVE_TYPE = "wrong-recursive-type"
    NON_TERMINATED_SESSION = "non-terminated-session"
    LINEARITY_REUSE = "linearity-reuse"
    UNBOUND_VARIABLE = "unbound-variable"
    EXPR_TYPE = "expr-type-mismatch"
    PROJECTION_FAILED = "projection-failed"

    def __str__(self) -> str:
        return self.value


@dataclass(unsafe_hash=True)
class Diagnostic:
    cls: ErrorClass
    message: str
    path: str
    pos: Pos = None
    expected: Optional[str] = None
    found: Optional[str] = None

    def render(self, filename: str = "<proc>") -> str:
        line, col = self.pos if self.pos else (0, 0)
        detail = self.message
        if self.expected is not None or self.found is not None:
            detail += f": expected {self.expected}, found {self.found}"
        return f"{filename}:{line}:{col}: {self.cls}: {detail} (at {self.path})"

    def to_json(self) -> dict:
        return {
            "class": self.cls.value,
            "message": self.message,
            "path": self.path,
            "line": self.pos[0] if self.pos else None,
            "col": self.pos[1] if self.pos else None,
            "expected": self.expected,
            "found": self.found,
        }


# ---------------------------------------------------------------------------
# Typing environment

# Value types for data variables: base type names or a Sort.
T_INT = "int"
T_STRING = "string"
T_BOOL = "bool"


@dataclass(unsafe_hash=True)
class EndpointType:
    """Type of a session endpoint used as a delegation payload."""

    role: Role
    local: LocalType


@dataclass(unsafe_hash=True)
class SessionState:
    """A session variable's role and local type, as a caller supplies it."""

    role: Role
    type: LocalType


@dataclass(unsafe_hash=True)
class LoopEntry:
    recur_var: str
    node: int  # the loop's node in the session's graph
    others: tuple  # tuple[(var, closed id), ...] of the other live sessions


class _Live(NamedTuple):
    """A session inside the checker: a node of its type's state graph.  The
    graph is None once the session is poisoned by a protocol error."""

    role: Role
    graph: Optional[StateGraph]
    node: int = 0
    loops: tuple = ()  # LoopEntry per enclosing loop, innermost last


@dataclass
class TypingEnv:
    sessions: dict = field(default_factory=dict)  # var -> SessionState; _Live in Checker
    dead: dict = field(default_factory=dict)  # var -> reason string
    data: dict = field(default_factory=dict)  # var -> value type

    def copy(self) -> "TypingEnv":
        return TypingEnv(dict(self.sessions), dict(self.dead), dict(self.data))


class Checker:
    """One checking pass over a process term; collects diagnostics.

    Each session type, and each delegated endpoint schema met, is compiled
    into a `StateGraph`; all graphs of a pass share one hash-cons table, so
    closed-term ids compare across sessions and schemas."""

    def __init__(self):
        self.diags: list = []
        self.cons: dict = {}

    # -- diagnostics -------------------------------------------------------

    def _err(
        self,
        cls: ErrorClass,
        message: str,
        path: TermPath,
        pos: Pos,
        expected: Optional[str] = None,
        found: Optional[str] = None,
    ) -> None:
        self.diags.append(Diagnostic(cls, message, path_text(path), pos, expected, found))

    # -- expressions -------------------------------------------------------

    def expr_type(self, env: TypingEnv, e: Expr, path: TermPath):
        """Type of a data expression; session variables are rejected here
        (they are only meaningful as delegation payloads)."""
        spine = []  # the left spine of `-` and `<`: a long chain must not recurse per term
        while isinstance(e, (Sub, Lt)):
            spine.append(e)
            e = e.a
        t = self._atom_type(env, e, path)
        for node in reversed(spine):
            tb = self.expr_type(env, node.b, path)
            for ty, side in ((t, node.a), (tb, node.b)):
                if ty is not None and ty != T_INT:
                    self._err(
                        ErrorClass.EXPR_TYPE,
                        "arithmetic on a non-integer",
                        path,
                        side.pos,
                        expected=T_INT,
                        found=str(ty),
                    )
            t = T_INT if isinstance(node, Sub) else T_BOOL
        return t

    def _atom_type(self, env: TypingEnv, e: Expr, path: TermPath):
        if isinstance(e, IntLit):
            return T_INT
        if isinstance(e, StrLit):
            return T_STRING
        if isinstance(e, VarRef):
            name = e.name
            if name in env.sessions:
                self._err(
                    ErrorClass.EXPR_TYPE,
                    f"session variable {name} used as data",
                    path,
                    e.pos,
                )
                return None
            if name in env.dead:
                self._err(
                    ErrorClass.LINEARITY_REUSE,
                    f"use of dead session variable {name} ({env.dead[name]})",
                    path,
                    e.pos,
                )
                return None
            if name not in env.data:
                self._err(ErrorClass.UNBOUND_VARIABLE, f"unbound variable {name}", path, e.pos)
                return None
            return env.data[name]
        if isinstance(e, Field):
            dots = []  # a `.value` chain, innermost last: a long one must not recurse per step
            while isinstance(e, Field):
                dots.append(e.pos)
                e = e.target
            t = self.expr_type(env, e, path)
            for pos in reversed(dots):
                if t is None:
                    return None
                if not isinstance(t, Sort):
                    self._err(
                        ErrorClass.EXPR_TYPE,
                        "field access on a non-message value",
                        path,
                        pos,
                        expected="a received message",
                        found=str(t),
                    )
                    return None
                if t.payload == PAYLOAD_INT:
                    t = T_INT
                elif t.payload == PAYLOAD_STRING:
                    t = T_STRING
                else:
                    self._err(
                        ErrorClass.EXPR_TYPE,
                        f"message sort {t.name} carries no data payload",
                        path,
                        pos,
                    )
                    return None
            return t
        if isinstance(e, NewSort):
            self._check_sort_args(env, e, path)
            return e.sort
        raise TypeError(f"unknown expression node: {e!r}")

    def _check_sort_args(self, env: TypingEnv, e: NewSort, path: TermPath) -> None:
        schema = e.sort.payload
        if schema == PAYLOAD_NONE:
            if e.args:
                self._err(
                    ErrorClass.EXPR_TYPE,
                    f"sort {e.sort.name} takes no payload",
                    path,
                    e.pos,
                )
            return
        if len(e.args) != 1:
            self._err(
                ErrorClass.EXPR_TYPE,
                f"sort {e.sort.name} takes exactly one payload argument",
                path,
                e.pos,
            )
            return
        if isinstance(schema, EndpointPayload):
            if not self._names_session(env, e.args[0]):
                self._err(
                    ErrorClass.EXPR_TYPE,
                    f"sort {e.sort.name} carries an endpoint: its payload must be"
                    " a session variable",
                    path,
                    e.pos,
                )
            return
        want = T_INT if schema == PAYLOAD_INT else T_STRING
        got = self.expr_type(env, e.args[0], path)
        if got is not None and got != want:
            self._err(
                ErrorClass.EXPR_TYPE,
                f"payload of sort {e.sort.name} has the wrong type",
                path,
                e.pos,
                expected=want,
                found=str(got),
            )

    # -- session variable access -------------------------------------------

    def _session(self, env: TypingEnv, var: str, path: TermPath, pos: Pos) -> _Live:
        """Look up a session, reporting and recovering from misuse; a step
        finds a live one in `env.sessions` itself and calls this otherwise.

        Using a name that was aliased away steals the state back from the
        live alias (the alias becomes dead), so checking can continue and
        later misuse of the alias is still caught."""
        if var in env.sessions:
            return env.sessions[var]
        if var in env.dead:
            reason = env.dead.pop(var)
            self._err(
                ErrorClass.LINEARITY_REUSE,
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
                ErrorClass.UNBOUND_VARIABLE, f"unknown session variable {var}", path, pos
            )
        env.sessions[var] = _Live(Role("Unknown"), None)
        return env.sessions[var]

    def _bad_head(self, g: StateGraph, h: int, want: type, peer: Role, path: TermPath, pos: Pos,
                  doing: str) -> None:
        """Report why head node h of a session's graph does not allow the
        process's action: it is no `want` (Send or Recv), or it exchanges
        with another role than `peer`.  `doing` names the action."""
        ty = g.nodes[h]
        if not isinstance(ty, want):
            act = "send" if want is Send else "receive"
            kind = {Send: "send", Recv: "receive"}.get(type(ty), "termination")
            self._err(
                ErrorClass.WRONG_ACTION_KIND,
                f"protocol does not allow a {act} here",
                path,
                pos,
                expected=f"a {kind} ({g.term(h)})",
                found=doing,
            )
        else:
            other = ty.receiver if want is Send else ty.sender
            wrong = "send addressed to" if want is Send else "receive awaits"
            self._err(
                ErrorClass.WRONG_PEER,
                f"{wrong} the wrong role",
                path,
                pos,
                expected=str(other),
                found=str(peer),
            )

    # -- payload matching ---------------------------------------------------

    @staticmethod
    def _names_session(env: TypingEnv, e: Expr) -> bool:
        return isinstance(e, VarRef) and (e.name in env.sessions or e.name in env.dead)

    def _match_payload(self, env: TypingEnv, term: SendT, state: _Live, h: int, path: TermPath):
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
                ErrorClass.WRONG_SORT,
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
            if not isinstance(schema, EndpointPayload):
                self._err(
                    ErrorClass.WRONG_SORT,
                    f"sort {e.sort.name} does not carry an endpoint",
                    path,
                    term.pos,
                )
                return None
            want = StateGraph(schema.local, self.cons).closed(0)  # alpha-equality
            if schema.role != sent.role or want != sent.graph.closed(sent.node):
                self._err(
                    ErrorClass.WRONG_SORT,
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

    def check(self, env: TypingEnv, term: ProcessTerm, path: TermPath = None) -> None:
        """Check a term depth-first.  Each step returns what follows it: None,
        the one (env, term, path) to check next, which goes on in place, or
        at a branch point a list of such items in order, with diagnostics to
        report between them, which goes on the work list.  A branch point
        copies the environment once per extra successor: its last takes the
        step's own."""
        steps = {
            SendT: self._check_send,
            RecvT: self._check_recv,
            LoopT: self._check_loop,
            RecurT: self._check_recur,
            EndT: self._check_end,
            IfT: self._check_if,
            LetT: self._check_let,
        }
        work: list = []
        while True:
            step = steps.get(type(term))
            if step is None:
                raise TypeError(f"unknown process term: {term!r}")
            out = step(env, term, path)
            if type(out) is tuple:
                env, term, path = out
                continue
            if out:
                work += reversed(out)
            while work:
                item = work.pop()
                if type(item) is tuple:
                    env, term, path = item
                    break
                self.diags.append(item)
            else:
                return

    def _check_if(self, env: TypingEnv, term: IfT, path: TermPath) -> list:
        t = self.expr_type(env, term.cond, path)
        if t is not None and t != T_BOOL:
            self._err(
                ErrorClass.EXPR_TYPE,
                "condition is not a boolean",
                path,
                term.pos,
                expected=T_BOOL,
                found=str(t),
            )
        return [(env.copy(), term.then, (path, ".then")), (env, term.els, (path, ".else"))]

    def _check_send(self, env: TypingEnv, term: SendT, path: TermPath):
        var = term.session
        state = env.sessions.get(var)
        if state is None:
            state = self._session(env, var, path, term.pos)
        g = state.graph
        if g is not None:
            h = state.node
            ty = g.nodes[h]
            if type(ty) is not Send:
                h = g.head(h)
                ty = g.nodes[h]
            child = None
            if type(ty) is not Send or ty.receiver.name != term.to.name:
                self._bad_head(g, h, Send, term.to, path, term.pos, f"send to {term.to}")
            else:
                e = term.payload
                if not e.args and e.sort.payload == PAYLOAD_NONE:
                    name = e.sort.name
                    for (s, _), k in zip(ty.branches, g.links[h]):
                        if s.name == name:
                            child = k
                            break
                if child is None:
                    child = self._match_payload(env, term, state, h, path)
            if child is None:
                state = _Live(state.role, None, state.node, state.loops)
            else:
                state = _Live(state.role, g, child, state.loops)
        env.sessions[var] = state
        return env, term.cont, (path, ".cont")

    def _check_recv(self, env: TypingEnv, term: RecvT, path: TermPath):
        var, arms = term.session, term.branches
        state = env.sessions.get(var)
        if state is None:
            state = self._session(env, var, path, term.pos)
        g = state.graph
        if g is None:  # each arm in a copy of env, but the last in env itself
            last = len(arms) - 1
            return [(env if i == last else env.copy(), arm.cont, (path, f".{arm.sort_name}"))
                    for i, arm in enumerate(arms)]
        h = state.node
        ty = g.nodes[h]
        if type(ty) is not Recv:
            h = g.head(h)
            ty = g.nodes[h]
        if type(ty) is not Recv or ty.sender.name != term.frm.name:
            self._bad_head(g, h, Recv, term.frm, path, term.pos, f"receive from {term.frm}")
            return
        branches, kids = ty.branches, g.links[h]
        if len(arms) == 1 and len(branches) == 1 and arms[0].sort_name == branches[0][0].name:
            arm = arms[0]
            arm_path = (path, f".{arm.sort_name}")
            wrong = self._bind(env, arm, branches[0][0], arm_path)
            if wrong is not None:
                self.diags.append(wrong)
            env.sessions[var] = _Live(state.role, g, kids[0], state.loops)
            return env, arm.cont, arm_path
        offered = {s.name: (s, k) for (s, _), k in zip(branches, kids)}
        supplied = {arm.sort_name for arm in arms}
        missing = [n for n in offered if n not in supplied]
        if missing:
            self._err(
                ErrorClass.MISSING_RECV_BRANCH,
                "receive must implement every offered branch",
                path,
                term.pos,
                expected=f"branches for [{', '.join(offered)}]",
                found=f"missing [{', '.join(missing)}]",
            )
        # the last arm that goes on takes env itself, after the others copied it
        last = max((i for i, arm in enumerate(arms) if arm.sort_name in offered), default=-1)
        out = []
        for i, arm in enumerate(arms):
            arm_path = (path, f".{arm.sort_name}")
            if arm.sort_name not in offered:
                out.append(
                    Diagnostic(
                        ErrorClass.WRONG_SORT,
                        "receive branch for a sort the protocol does not offer",
                        path_text(arm_path),
                        arm.pos,
                        expected=f"one of [{', '.join(offered)}]",
                        found=arm.sort_name,
                    )
                )
                continue
            srt, child = offered[arm.sort_name]
            arm_env = env if i == last else env.copy()
            wrong = self._bind(arm_env, arm, srt, arm_path)
            if wrong is not None:
                out.append(wrong)
            arm_env.sessions[var] = _Live(state.role, g, child, state.loops)
            out.append((arm_env, arm.cont, arm_path))
        return out

    def _bind(self, env: TypingEnv, arm: RecvArm, srt: Sort, path: TermPath) -> Optional[Diagnostic]:
        """Bind a receive arm's payload variable in env, or return what is
        wrong with discarding the payload."""
        schema = srt.payload
        if arm.payload_var != "_":
            if isinstance(schema, EndpointPayload):
                env.sessions[arm.payload_var] = _Live(schema.role, StateGraph(schema.local, self.cons))
                env.dead.pop(arm.payload_var, None)
            else:
                env.data[arm.payload_var] = srt
        elif isinstance(schema, EndpointPayload):
            return Diagnostic(
                ErrorClass.LINEARITY_REUSE,
                "a received endpoint must be bound, not discarded",
                path_text(path),
                arm.pos,
            )
        return None

    def _check_loop(self, env: TypingEnv, term: LoopT, path: TermPath):
        var = term.session
        state = env.sessions.get(var)
        if state is None:
            state = self._session(env, var, path, term.pos)
        g = state.graph
        if g is not None:
            i = state.node
            if isinstance(g.nodes[i], Recur) and g.links[i] >= 0:
                i = g.links[i]  # a bound Recur stands for its binder
            if isinstance(g.nodes[i], Loop):
                others = tuple(
                    (v, s.graph.closed(s.node))
                    for v, s in sorted(env.sessions.items())
                    if v != var and s.graph is not None
                )
                entry = LoopEntry(term.recur_var, i, others)
                state = _Live(state.role, g, g.links[i], state.loops + (entry,))
            else:
                self._err(
                    ErrorClass.WRONG_ACTION_KIND,
                    "protocol does not loop here",
                    path,
                    term.pos,
                    expected=str(g.term(i)),
                    found=f"loop {term.recur_var}",
                )
                state = _Live(state.role, None, state.node, state.loops)
        env.sessions[var] = state
        return env, term.body, (path, f".loop({term.recur_var})")

    def _check_recur(self, env: TypingEnv, term: RecurT, path: TermPath) -> None:
        if term.session in env.dead:
            self._err(
                ErrorClass.WRONG_RECURSIVE_TYPE,
                f"recur on a stale session handle {term.session}"
                f" ({env.dead[term.session]}); the loop must recur on the"
                " current endpoint",
                path,
                term.pos,
            )
            return
        if term.session not in env.sessions:
            self._err(
                ErrorClass.UNBOUND_VARIABLE,
                f"unknown session variable {term.session}",
                path,
                term.pos,
            )
            return
        state = env.sessions.pop(term.session)
        env.dead[term.session] = "consumed by recur"
        g = state.graph
        if g is None:
            return
        entry = next((e for e in reversed(state.loops) if e.recur_var == term.recur_var), None)
        if entry is None:
            self._err(
                ErrorClass.WRONG_RECURSIVE_TYPE,
                f"no enclosing loop {term.recur_var} for session {term.session}",
                path,
                term.pos,
            )
            return
        # the loop node itself, or a Recur bound to it, names the loop-entry
        # type by `StateGraph.closed`'s own rule, without walking the term
        node, back = state.node, entry.node
        at_entry = node == back or (isinstance(g.nodes[node], Recur) and g.links[node] == back)
        if not at_entry and g.closed(node) != g.closed(back):
            self._err(
                ErrorClass.WRONG_RECURSIVE_TYPE,
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
                    ErrorClass.NON_TERMINATED_SESSION,
                    f"session {v} was opened inside the loop body and is still live at recur",
                    path,
                    term.pos,
                )
            elif s.graph.closed(s.node) != snapshot[v]:
                self._err(
                    ErrorClass.WRONG_RECURSIVE_TYPE,
                    f"session {v} changed state across the loop iteration",
                    path,
                    term.pos,
                )

    def _check_end(self, env: TypingEnv, term: EndT, path: TermPath) -> None:
        for v in term.results:
            if v not in env.sessions and v not in env.dead:
                self._err(
                    ErrorClass.UNBOUND_VARIABLE,
                    f"unknown result variable {v}",
                    path,
                    term.pos,
                )
        live = env.sessions
        for v, state in sorted(live.items()) if len(live) > 1 else live.items():
            g = state.graph
            if g is not None and not isinstance(g.nodes[g.head(state.node)], End):
                self._err(
                    ErrorClass.NON_TERMINATED_SESSION,
                    f"session {v} still has protocol left at termination",
                    path,
                    term.pos,
                    expected="end",
                    found=str(g.term(state.node)),
                )

    def _check_let(self, env: TypingEnv, term: LetT, path: TermPath):
        value = term.value
        if isinstance(value, VarRef) and value.name in env.sessions:
            # aliasing a session transfers ownership; the old name is dead
            state = env.sessions.pop(value.name)
            env.dead[value.name] = f"aliased to {term.name}"
            env.dead.pop(term.name, None)
            env.sessions[term.name] = state
        else:
            t = self.expr_type(env, value, path)
            if term.name in env.sessions:
                self._err(
                    ErrorClass.LINEARITY_REUSE,
                    f"binding {term.name} would shadow a live session",
                    path,
                    term.pos,
                )
            elif t is not None:
                env.data[term.name] = t
        return env, term.cont, (path, f".let({term.name})")


def check_expr(env: TypingEnv, e: Expr):
    """Type an expression; returns (type or None, diagnostics)."""
    if isinstance(e, VarRef) and e.name in env.sessions:
        state = env.sessions[e.name]
        return EndpointType(state.role, state.type), []
    ch = Checker()
    return ch.expr_type(env, e, None), ch.diags


def check_process(env: TypingEnv, term: ProcessTerm) -> list:
    """Check a process term; returns the list of diagnostics (empty = ok).
    Raises ValueError when a session type of `env` is not well formed."""
    for state in env.sessions.values():
        bad = well_formed(state.type)
        if bad:
            raise ValueError(f"ill-formed local type in environment: {bad[0]}")
    return _check_well_formed(env, term)


def _check_well_formed(env: TypingEnv, term: ProcessTerm) -> list:
    """check_process for an environment whose session types are well formed."""
    ch = Checker()
    live = {v: _Live(s.role, StateGraph(s.type, ch.cons)) for v, s in env.sessions.items()}
    ch.check(TypingEnv(live, dict(env.dead), dict(env.data)), term)
    return ch.diags


@dataclass
class ProcReport:
    name: str
    diagnostics: list

    @property
    def ok(self) -> bool:
        return not self.diagnostics


@dataclass
class SessionCheckResult:
    reports: list
    warnings: list  # unimplemented roles etc.

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports)

    def all_diagnostics(self) -> list:
        return [d for r in self.reports for d in r.diagnostics]


def unplayed_roles(protocol_file) -> dict:
    """For each protocol that a process plays, in the order first played: the
    roles of its definition that no process plays, sorted by name, or None
    when the protocol has no concrete definition (it is generic or unknown).
    The roles are the keys of the protocol's projection table
    (`ProtocolFile.projections`), which `check_session` fills anyway."""
    played: dict = {}
    for proc in protocol_file.procs:
        for role, proto_name, _ in proc.bindings:
            played.setdefault(proto_name, set()).add(role)
    out = {}
    for name, roles in played.items():
        every = protocol_file.projections(name) if name in protocol_file.concrete else None
        out[name] = None if every is None else sorted(every.keys() - roles, key=lambda r: r.name)
    return out


def _session_type(protocol_file, proto_name: str, role: Role, pos: Pos):
    """The well-formed local type of `role` in protocol `proto_name`, or the
    Diagnostic, located at `pos`, that says why there is none."""
    if proto_name not in protocol_file.concrete:
        message = protocol_file.unusable(proto_name)
        return Diagnostic(ErrorClass.UNBOUND_VARIABLE, message, "$", pos)
    local = protocol_file.projection(proto_name, role)
    bad = ([] if isinstance(local, ProjectionError)
           else well_formed(local, memo=protocol_file.verdicts))
    if isinstance(local, ProjectionError) or bad:
        why = f"the projection is not well formed ({bad[0]})" if bad else local
        message = f"cannot project {proto_name} onto {role}: {why}"
        return Diagnostic(ErrorClass.PROJECTION_FAILED, message, "$", pos)
    return local


def check_session(protocol_file) -> SessionCheckResult:
    """Check every process script in a protocol file against its projections,
    as `protocol_file.projection` gives them.

    Roles of a referenced protocol with no process are warnings, not errors:
    each process is checked independently of who else is implemented."""
    reports = []
    for proc in protocol_file.procs:
        env = TypingEnv()
        diags: list = []
        for role, proto_name, var in proc.bindings:
            local = _session_type(protocol_file, proto_name, role, proc.pos)
            if isinstance(local, Diagnostic):
                diags.append(local)
            else:
                env.sessions[var] = SessionState(role, local)
        if not diags:
            diags = _check_well_formed(env, proc.term)
        reports.append(ProcReport(proc.name, diags))
    warnings = [
        f"role {role} of protocol {proto_name} has no process (unimplemented)"
        for proto_name, missing in unplayed_roles(protocol_file).items()
        for role in missing or ()
    ]
    return SessionCheckResult(reports, warnings)
