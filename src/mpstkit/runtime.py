"""In-process execution of checked process terms.

A GlobalSession owns one FIFO queue per ordered role pair and a rendezvous
barrier: init(role) blocks until every role of the protocol has joined, then
hands out that role's unique endpoint.  Endpoints are use-once handles: each
action consumes the handle and returns a fresh successor, so a stale handle
can never perform a second action (the dynamic half of linearity, kept even
though terms are also checked statically).

Delegation sends an endpoint as a message payload.  Queues are addressed by
role, not by thread, so the receiving process simply continues the delegated
role; nobody else can tell the difference.
"""

from __future__ import annotations

import threading
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
        payload: object
        if isinstance(self.payload, Endpoint):
            payload = {"endpoint": self.payload.role.name}
        else:
            payload = self.payload
        return {
            "seq": self.seq,
            "from": self.sender.name,
            "to": self.receiver.name,
            "sort": self.sort.name,
            "payload": payload,
        }


_CANCELLED = object()  # queued by cancel(); stays queued so every reader sees it


class Network:
    """One unbounded FIFO queue per ordered pair of a session's roles."""

    def __init__(self, roles, name: str):
        self.name = name
        self._queues = {(a, b): SimpleQueue() for a in roles for b in roles}

    def put(self, sender: Role, receiver: Role, msg: Message) -> None:
        self._queues[sender, receiver].put(msg)

    def get(self, sender: Role, receiver: Role, timeout: Optional[float] = None) -> Message:
        q = self._queues[sender, receiver]
        msg = q.get(timeout=timeout)
        if msg is _CANCELLED:
            q.put(msg)
            raise RuntimeFault(f"session {self.name} cancelled after a fault")
        return msg

    def cancel(self) -> None:
        for q in self._queues.values():
            q.put(_CANCELLED)


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
        self.network = Network(self.roles, name)
        self._barrier = threading.Barrier(max(len(self.roles), 1))
        self._lock = threading.Lock()
        self._initialized: set = set()
        self._trace: list = []
        self.barrier_release_seq: Optional[int] = None

    def init(self, role) -> "Endpoint":
        """Join the session as `role`; blocks until every role has joined.

        Call this from the thread that will run the role: initialising two
        roles from one thread deadlocks on the barrier."""
        if isinstance(role, str):
            role = Role(role)
        if role not in self.roles:
            raise SessionSetupFault(f"unknown role {role} for {self.name}")
        with self._lock:
            if role in self._initialized:
                raise SessionSetupFault(f"role {role} already initialised")
            self._initialized.add(role)
        try:
            local = project(self.protocol, role)
        except Exception as e:
            with self._lock:
                self._initialized.discard(role)
            raise SessionSetupFault(f"cannot project {self.name} onto {role}: {e}")
        try:
            self._barrier.wait()
        except threading.BrokenBarrierError:
            raise RuntimeFault(f"session {self.name} cancelled after a fault") from None
        with self._lock:
            if self.barrier_release_seq is None:
                self.barrier_release_seq = len(self._trace) + 1
        return Endpoint(role, self, local)

    def cancel(self) -> None:
        """Fail every pending and future receive and init of this session."""
        self.network.cancel()
        self._barrier.abort()

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


@dataclass(frozen=True)
class Action:
    kind: str  # "send" | "recv"
    self_role: Role
    peer: Role
    sort: Sort


class Endpoint:
    """Use-once handle on one role of one session."""

    def __init__(self, role: Role, session: GlobalSession, current_type: LocalType):
        self.role = role
        self.session = session
        self.current_type = current_type
        self._consumed = False
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        state = "consumed" if self._consumed else "live"
        return f"<Endpoint {self.role} ({state}) at {self.current_type}>"

    @property
    def consumed(self) -> bool:
        with self._lock:
            return self._consumed

    def _consume(self, what: str) -> None:
        with self._lock:
            if self._consumed:
                raise LinearityFault(
                    f"endpoint for {self.role} already consumed; cannot {what}"
                )
            self._consumed = True

    def _successor(self, t: LocalType) -> "Endpoint":
        return Endpoint(self.role, self.session, t)

    def send(self, to, sort: Sort, payload=None) -> "Endpoint":
        if isinstance(to, str):
            to = Role(to)
        self._consume(f"send {sort} to {to}")
        t = unfold(self.current_type)
        if not isinstance(t, Send):
            raise ProtocolFault(f"{self.role}: protocol does not allow a send (at {t})")
        if t.receiver != to:
            raise ProtocolFault(
                f"{self.role}: send addressed to {to}, protocol expects {t.receiver}"
            )
        cont = branch_lookup_name(t.branches, sort.name)
        if cont is None:
            offered = ", ".join(s.name for s, _ in t.branches)
            raise ProtocolFault(
                f"{self.role}: sort {sort.name} not offered here (offered: {offered})"
            )
        _check_payload_shape(sort, payload)
        if isinstance(payload, Endpoint):
            payload = payload.transfer()
        self.session.record(self.role, to, sort, payload)
        self.session.network.put(self.role, to, Message(sort, payload))
        return self._successor(cont)

    def recv(self, frm, timeout: Optional[float] = None) -> tuple:
        if isinstance(frm, str):
            frm = Role(frm)
        self._consume(f"receive from {frm}")
        t = unfold(self.current_type)
        if not isinstance(t, Recv):
            raise ProtocolFault(
                f"{self.role}: protocol does not allow a receive (at {t})"
            )
        if t.sender != frm:
            raise ProtocolFault(
                f"{self.role}: receive from {frm}, protocol expects {t.sender}"
            )
        msg = self.session.network.get(frm, self.role, timeout=timeout)
        cont = branch_lookup_name(t.branches, msg.sort.name)
        if cont is None:
            offered = ", ".join(s.name for s, _ in t.branches)
            raise ProtocolFault(
                f"{self.role}: received sort {msg.sort.name} not offered"
                f" (offered: {offered})"
            )
        return msg, self._successor(cont)

    def enter_loop(self) -> "Endpoint":
        self._consume("enter a loop")
        t = self.current_type
        if not isinstance(t, Loop):
            raise ProtocolFault(f"{self.role}: protocol does not loop at {t}")
        return self._successor(substitute(t.body, t.var, t))

    def recur(self) -> "Endpoint":
        self._consume("recur")
        t = self.current_type
        if not isinstance(t, Loop):
            raise ProtocolFault(
                f"{self.role}: recur where the protocol is not back at a loop ({t})"
            )
        return self._successor(substitute(t.body, t.var, t))

    def transfer(self) -> "Endpoint":
        """Hand this endpoint over (delegation): the old handle dies, the
        returned fresh handle travels to the new owner."""
        self._consume("delegate it")
        return self._successor(self.current_type)

    def is_terminated(self) -> bool:
        return isinstance(unfold(self.current_type), End)


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
    actions: list  # per-process Action list, in order
    terminals: dict  # session var -> final Endpoint

    @property
    def all_terminated(self) -> bool:
        return all(ep.is_terminated() for ep in self.terminals.values())


class _Interp:
    def __init__(self, env: dict, bindings: dict):
        self.env = dict(bindings) if bindings else {}
        self.env.update(env)
        self.actions: list = []
        self.terminals: dict = {}

    def eval(self, e: tc.Expr):
        if isinstance(e, tc.IntLit):
            return e.value
        if isinstance(e, tc.StrLit):
            return e.value
        if isinstance(e, (tc.VarRef, tc.SessionRef)):
            if e.name not in self.env:
                raise RuntimeFault(f"unbound variable {e.name}")
            return self.env[e.name]
        if isinstance(e, tc.Field):
            return self.eval(e.target)
        if isinstance(e, tc.Sub):
            return self.eval(e.a) - self.eval(e.b)
        if isinstance(e, tc.Lt):
            return self.eval(e.a) < self.eval(e.b)
        if isinstance(e, tc.NewSort):
            value = self.eval(e.args[0]) if e.args else None
            return (e.sort, value)
        raise RuntimeFault(f"cannot evaluate {e!r}")

    def exec(self, term: tc.ProcessTerm) -> None:
        loops: list = []  # the enclosing LoopT nodes, innermost last
        while True:
            if isinstance(term, tc.SendT):
                ep = self._endpoint(term.session)
                payload = self.eval(term.payload)
                if isinstance(payload, tuple):
                    sort, value = payload
                else:
                    raise RuntimeFault("send payload must be a sort constructor")
                succ = ep.send(term.to, sort, value)
                self.actions.append(Action("send", ep.role, term.to, sort))
                self.env[term.bind] = succ
                term = term.cont
            elif isinstance(term, tc.RecvT):
                ep = self._endpoint(term.session)
                msg, succ = ep.recv(term.frm)
                self.actions.append(Action("recv", ep.role, term.frm, msg.sort))
                arm = next(
                    (a for a in term.branches if a.sort_name == msg.sort.name), None
                )
                if arm is None:
                    raise ProtocolFault(
                        f"no branch for received sort {msg.sort.name}"
                    )
                if arm.payload_var != "_":
                    self.env[arm.payload_var] = msg.payload
                self.env[arm.bind] = succ
                term = arm.cont
            elif isinstance(term, tc.LoopT):
                ep = self._endpoint(term.session)
                self.env[term.bind] = ep.enter_loop()
                loops.append(term)
                term = term.body
            elif isinstance(term, tc.RecurT):
                ep = self._endpoint(term.session)
                while loops and loops[-1].recur_var != term.recur_var:
                    loops.pop()
                if not loops:
                    raise RuntimeFault(f"recur {term.recur_var} outside a loop of that name")
                loop = loops[-1]
                self.env[loop.bind] = ep.recur()
                term = loop.body
            elif isinstance(term, tc.EndT):
                for name, value in self.env.items():
                    # delegated or superseded handles belong elsewhere now
                    if isinstance(value, Endpoint) and not value.consumed:
                        self.terminals[name] = value
                return
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


def run(endpoints: dict, term: tc.ProcessTerm, bindings: Optional[dict] = None) -> RunResult:
    """Interpret a process term over the given endpoints.

    The static checker is expected to have passed already; the endpoint
    guards re-verify every action dynamically regardless."""
    interp = _Interp(endpoints, bindings or {})
    interp.exec(term)
    return RunResult(interp.actions, interp.terminals)
