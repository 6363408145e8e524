"""In-process execution of checked process terms.

A GlobalSession owns one unbounded FIFO queue per ordered (sender, receiver)
role pair.  join(role) claims a role and hands out its unique endpoint;
init(role) then also blocks until every role has joined, for callers that run
each role on its own thread.  Endpoints are use-once handles: each action
consumes the handle and returns a fresh successor, so a stale handle can never
perform a second action (the dynamic half of linearity, kept even though terms
are also checked statically).  Actions read the type at Endpoint.head, with
leading loops unrolled once; only enter_loop and recur step into a loop.

run_all runs processes on one thread and reports those a deadlock or fault leaves waiting.

Delegation sends an endpoint as a message payload.  Queues are addressed by
role, not by process, so the receiving process simply continues the
delegated role; nobody else can tell the difference.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from queue import SimpleQueue
from typing import Optional

from .core import (
    End,
    EndpointPayload,
    GlobalType,
    LocalType,
    Loop,
    PAYLOAD_INT,
    PAYLOAD_NONE,
    PAYLOAD_STRING,
    Recv,
    Role,
    Send,
    Sort,
    branch_lookup_name,
    roles_of,
    substitute,
    unfold,
    well_formed,
)
from .fsm import RECV, SEND, Action
from .projection import project
from . import typecheck as tc


class RuntimeFault(Exception):
    pass


class LinearityFault(RuntimeFault):
    """An endpoint handle was used after being consumed or transferred."""


class ProtocolFault(RuntimeFault):
    """A dynamic action does not match the endpoint's current local type."""


class SessionSetupFault(RuntimeFault):
    """Bad session construction: ill-formed protocol, unknown role, double init."""


@dataclass(frozen=True)
class Message:
    """The one value of a message: what a sort constructor evaluates to, what
    a send puts in a queue, and what a receive binds (unless the payload is
    an endpoint, which is bound itself)."""

    sort: Sort
    payload: object  # int | str | None | Endpoint


@dataclass(frozen=True)
class TraceEvent:
    seq: int
    sender: Role
    receiver: Role
    sort: Sort
    payload: object

    def render(self) -> str:
        if isinstance(self.payload, Endpoint):
            shown = f"(endpoint:{self.payload.role})"
        elif self.payload is None:
            shown = ""
        else:
            shown = f"({self.payload!r})" if isinstance(self.payload, str) else f"({self.payload})"
        return f"seq {self.seq}: {self.sender} -> {self.receiver} : {self.sort}{shown}"

    def to_json(self) -> dict:
        payload = self.payload
        if isinstance(payload, Endpoint):
            payload = {"endpoint": payload.role.name}
        return {
            "seq": self.seq,
            "from": self.sender.name,
            "to": self.receiver.name,
            "sort": self.sort.name,
            "payload": payload,
        }


class GlobalSession:
    """A running instance of a well-formed global protocol."""

    def __init__(self, protocol: GlobalType, name: str = "session"):
        violations = well_formed(protocol)
        if violations:
            raise SessionSetupFault(
                "protocol is not well formed: "
                + "; ".join(str(v) for v in violations)
            )
        self.protocol = protocol
        self.name = name
        self.roles = frozenset(roles_of(protocol))
        self.queues = {(a, b): SimpleQueue() for a in self.roles for b in self.roles}
        self._released = threading.Event()  # set when the last role joins
        self._lock = threading.Lock()
        self._initialized: set = set()
        self._trace: list = []
        self.barrier_release_seq: Optional[int] = None

    def join(self, role) -> "Endpoint":
        """Claim `role` and return its endpoint without waiting for the
        other roles; the last role to join releases the session."""
        if isinstance(role, str):
            role = Role(role)
        if role not in self.roles:
            raise SessionSetupFault(f"unknown role {role} for {self.name}")
        try:
            local = project(self.protocol, role)
        except Exception as e:
            raise SessionSetupFault(f"cannot project {self.name} onto {role}: {e}")
        with self._lock:
            if role in self._initialized:
                raise SessionSetupFault(f"role {role} already initialised")
            self._initialized.add(role)
            if len(self._initialized) == len(self.roles):
                self.barrier_release_seq = len(self._trace) + 1
                self._released.set()
        return Endpoint(role, self, local)

    def init(self, role) -> "Endpoint":
        """join(role), then block until every role has joined (call it from the role's thread)."""
        endpoint = self.join(role)
        self._released.wait()
        return endpoint

    def record(self, sender: Role, receiver: Role, sort: Sort, payload) -> TraceEvent:
        with self._lock:
            event = TraceEvent(len(self._trace) + 1, sender, receiver, sort, payload)
            self._trace.append(event)
            return event

    @property
    def trace(self) -> list:
        with self._lock:
            return list(self._trace)

    def trace_lines(self) -> list:
        return [e.render() for e in self.trace]


class Endpoint:
    """Use-once handle on one role of one session."""

    def __init__(self, role: Role, session: GlobalSession, current_type: LocalType):
        self.role = role
        self.session = session
        self.current_type = current_type
        self._head: Optional[LocalType] = None  # current_type unrolled, on first use
        self._consumed = False
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        state = "consumed" if self._consumed else "live"
        return f"<Endpoint {self.role} ({state}) at {self.current_type}>"

    @property
    def consumed(self) -> bool:
        with self._lock:
            return self._consumed

    def _consume(self, what: str, *args) -> None:
        """Mark this handle used; `what`, formatted with `args` only on the
        fault, names the action refused when it already was."""
        with self._lock:
            if self._consumed:
                what = what.format(*args)
                raise LinearityFault(f"endpoint for {self.role} already consumed; cannot {what}")
            self._consumed = True

    def _successor(self, t: LocalType) -> "Endpoint":
        return Endpoint(self.role, self.session, t)

    def head(self) -> LocalType:
        """The type of the next action: the current type, which never
        changes, with leading loops unrolled on first use."""
        if self._head is None:
            self._head = unfold(self.current_type)
        return self._head

    def _expect(self, kind: type, peer: Role, doing: str, *args) -> LocalType:
        """Consume this handle for `doing` (see _consume) and return the head,
        which must be a `kind` (Send or Recv) exchanged with `peer`."""
        self._consume(doing, *args)
        t = self.head()
        if not isinstance(t, kind):
            act = "send" if kind is Send else "receive"
            raise ProtocolFault(f"{self.role}: protocol does not allow a {act} (at {t})")
        expected = t.receiver if kind is Send else t.sender
        if expected != peer:
            towards = "send addressed to" if kind is Send else "receive from"
            raise ProtocolFault(f"{self.role}: {towards} {peer}, protocol expects {expected}")
        return t

    def _branch(self, t: LocalType, sort: Sort, fault: str) -> "Endpoint":
        """The successor on `sort`'s branch of head `t`, else a ProtocolFault
        whose text opens with `fault`, with {} for the sort's name."""
        cont = branch_lookup_name(t.branches, sort.name)
        if cont is None:
            offered = ", ".join(s.name for s, _ in t.branches)
            raise ProtocolFault(f"{self.role}: {fault.format(sort.name)} (offered: {offered})")
        return self._successor(cont)

    def send(self, to, sort: Sort, payload=None) -> "Endpoint":
        to = Role(to) if isinstance(to, str) else to
        t = self._expect(Send, to, "send {} to {}", sort, to)
        succ = self._branch(t, sort, "sort {} not offered here")
        _check_payload_shape(sort, payload)
        if isinstance(payload, Endpoint):
            payload = payload.transfer()
        self.session.record(self.role, to, sort, payload)
        self.session.queues[self.role, to].put(Message(sort, payload))
        return succ

    def recv(self, frm, timeout: Optional[float] = None) -> tuple:
        frm = Role(frm) if isinstance(frm, str) else frm
        t = self._expect(Recv, frm, "receive from {}", frm)
        msg = self.session.queues[frm, self.role].get(timeout=timeout)
        return msg, self._branch(t, msg.sort, "received sort {} not offered")

    def would_wait(self, frm) -> bool:
        """Whether recv(frm) would block: the handle is live, the protocol
        expects a message from `frm` here, and none has arrived yet."""
        frm = Role(frm) if isinstance(frm, str) else frm
        t = self.head()
        return (not self._consumed and isinstance(t, Recv) and t.sender == frm
                and self.session.queues[frm, self.role].empty())

    def _unroll(self, doing: str, fault: str) -> "Endpoint":
        """Consume this handle for `doing` and step into the loop its type must
        be; `fault`, with {} for the type, is the ProtocolFault's text."""
        self._consume(doing)
        t = self.current_type
        if not isinstance(t, Loop):
            raise ProtocolFault(f"{self.role}: " + fault.format(t))
        return self._successor(substitute(t.body, t.var, t))

    def enter_loop(self) -> "Endpoint":
        return self._unroll("enter a loop", "protocol does not loop at {}")

    def recur(self) -> "Endpoint":
        return self._unroll("recur", "recur where the protocol is not back at a loop ({})")

    def transfer(self) -> "Endpoint":
        """Hand this endpoint over (delegation): the old handle dies, the
        returned fresh handle travels to the new owner."""
        self._consume("delegate it")
        return self._successor(self.current_type)

    def is_terminated(self) -> bool:
        return isinstance(self.head(), End)


def _check_payload_shape(sort: Sort, payload) -> None:
    schema = sort.payload
    ok = (
        (schema == PAYLOAD_NONE and payload is None)
        or (schema == PAYLOAD_INT and isinstance(payload, int) and not isinstance(payload, bool))
        or (schema == PAYLOAD_STRING and isinstance(payload, str))
        or (isinstance(schema, EndpointPayload) and isinstance(payload, Endpoint))
    )
    if not ok:
        raise ProtocolFault(
            f"payload {payload!r} does not match the schema of sort {sort.name}"
        )


def new_global_session(protocol: GlobalType, name: str = "session") -> GlobalSession:
    return GlobalSession(protocol, name)


# ---------------------------------------------------------------------------
# Process-term interpreter


@dataclass
class RunResult:
    actions: list  # per-process fsm.Action list, in order
    terminals: dict  # session var -> final Endpoint

    @property
    def all_terminated(self) -> bool:
        return all(ep.is_terminated() for ep in self.terminals.values())


class _Interp:
    def __init__(self, env: dict):
        self.env = dict(env)
        self.actions: list = []
        self.terminals: dict = {}

    def eval(self, e: tc.Expr):
        spine = []  # the left spine of `-` and `<`: a long chain must not recurse per term
        while isinstance(e, (tc.Sub, tc.Lt)):
            spine.append(e)
            e = e.a
        value = self._atom(e)
        for node in reversed(spine):
            b = self.eval(node.b)
            value = value - b if isinstance(node, tc.Sub) else value < b
        return value

    def _atom(self, e: tc.Expr):
        if isinstance(e, (tc.IntLit, tc.StrLit)):
            return e.value
        if isinstance(e, tc.VarRef):
            if e.name not in self.env:
                raise RuntimeFault(f"unbound variable {e.name}")
            return self.env[e.name]
        if isinstance(e, tc.Field):
            depth = 0  # a `.value` chain: a long one must not recurse per step
            while isinstance(e, tc.Field):
                depth += 1
                e = e.target
            value = self.eval(e)
            for _ in range(depth):
                if not isinstance(value, Message):
                    raise RuntimeFault(f"field access on {value!r}, which is not a message")
                value = value.payload
            return value
        if isinstance(e, tc.NewSort):
            return Message(e.sort, self.eval(e.args[0]) if e.args else None)
        raise RuntimeFault(f"cannot evaluate {e!r}")

    def exec(self, term: tc.ProcessTerm):
        """A generator that interprets `term` and returns its RunResult; it
        yields (endpoint, peer) before a receive that would wait, None before a recur."""
        loops: list = []  # the enclosing LoopT nodes, innermost last
        while True:
            if isinstance(term, tc.SendT):
                ep = self._endpoint(term.session)
                msg = self.eval(term.payload)
                self.env[term.session] = ep.send(term.to, msg.sort, msg.payload)
                self.actions.append(Action(SEND, term.to, ep.role, msg.sort))
                term = term.cont
            elif isinstance(term, tc.RecvT):
                ep = self._endpoint(term.session)
                if ep.would_wait(term.frm):
                    yield ep, term.frm
                msg, succ = ep.recv(term.frm)
                self.actions.append(Action(RECV, term.frm, ep.role, msg.sort))
                arm = next((a for a in term.branches if a.sort_name == msg.sort.name), None)
                if arm is None:
                    raise ProtocolFault(f"no branch for received sort {msg.sort.name}")
                if arm.payload_var != "_":
                    endpoint = isinstance(msg.payload, Endpoint)
                    self.env[arm.payload_var] = msg.payload if endpoint else msg
                self.env[term.session] = succ
                term = arm.cont
            elif isinstance(term, tc.LoopT):
                ep = self._endpoint(term.session)
                self.env[term.session] = ep.enter_loop()
                loops.append(term)
                term = term.body
            elif isinstance(term, tc.RecurT):
                yield None
                ep = self._endpoint(term.session)
                while loops and loops[-1].recur_var != term.recur_var:
                    loops.pop()
                if not loops:
                    raise RuntimeFault(f"recur {term.recur_var} outside a loop of that name")
                loop = loops[-1]
                self.env[loop.session] = ep.recur()
                term = loop.body
            elif isinstance(term, tc.EndT):
                for name, value in self.env.items():
                    # delegated or superseded handles belong elsewhere now
                    if isinstance(value, Endpoint) and not value.consumed:
                        self.terminals[name] = value
                return RunResult(self.actions, self.terminals)
            elif isinstance(term, tc.IfT):
                cond = self.eval(term.cond)
                term = term.then if cond else term.els
            elif isinstance(term, tc.LetT):
                self.env[term.name] = self.eval(term.value)
                term = term.cont
            else:
                raise RuntimeFault(f"unknown process term {term!r}")

    def _endpoint(self, var: str) -> Endpoint:
        value = self.env.get(var)
        if not isinstance(value, Endpoint):
            raise RuntimeFault(f"{var} is not a session endpoint")
        return value


def run(endpoints: dict, term: tc.ProcessTerm) -> RunResult:
    """Interpret a process term over the given endpoints, blocking in each receive.

    The static checker is expected to have passed already; the endpoint
    guards re-verify every action dynamically regardless."""
    interp = _Interp(endpoints)
    for _ in interp.exec(term):
        pass
    return RunResult(interp.actions, interp.terminals)


def run_all(processes: list, timeout: float) -> tuple:
    """Run processes, each (name, [(session, role, var)], term), on this thread:
    claim every role, then give each process one turn in order until none can
    go on or `timeout` seconds have passed.  Returns (results by name, [(name, fault)]),
    the faults ending with each endpoint that a finished process left short of `end`."""
    results, faults, running, claimed = {}, [], {}, {}  # running: name -> (steps, wait)
    for name, bindings, term in processes:
        try:
            claimed[name] = ({var: s.join(role) for s, role, var in bindings}, term)
        except RuntimeFault as e:
            faults.append((name, e))
    for name, (eps, term) in claimed.items():
        held = [ep.session.name for ep in eps.values() if ep.session.barrier_release_seq is None]
        if held:  # as at init's barrier, a session with an unclaimed role never starts
            faults.append((name, RuntimeFault(f"session {held[0]} cancelled after a fault")))
        else:
            running[name] = (_Interp(eps).exec(term), None)
    deadline = time.monotonic() + timeout
    stepped = True
    while running and stepped:
        if time.monotonic() > deadline:
            late = RuntimeFault(f"processes did not finish in {timeout} s: {', '.join(running)}")
            faults.append(("timeout", late))
            running.clear()
            break
        stepped = False
        for name, (steps, wait) in list(running.items()):
            if wait is None or not wait[0].would_wait(wait[1]):
                stepped = True
                try:
                    running[name] = (steps, next(steps))
                except StopIteration as done:
                    del running[name]
                    results[name] = done.value
                except Exception as e:
                    faults.append((name, e))
                    del running[name]
    why = "cancelled after a fault" if faults else None
    for name, (_, (ep, peer)) in running.items():
        sorts = " or ".join(s.name for s, _ in ep.head().branches)
        reason = why or f"deadlocked: {ep.role} waits for {peer} to send {sorts}"
        faults.append((name, RuntimeFault(f"session {ep.session.name} {reason}")))
    for name, result in sorted(results.items()):
        faults += [(name, RuntimeFault(f"role {ep.role} ended with its session unfinished"))
                   for ep in result.terminals.values() if not ep.is_terminated()]
    return results, faults
