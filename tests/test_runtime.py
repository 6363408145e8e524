"""Runtime behaviour: init barrier, use-once endpoints, FIFO delivery,
delegation, dynamic guards, trace safety against the global types, and the
single-threaded scheduler behind `run_protocol_file`."""

import threading
import time

import pytest

from mpstkit.cli import run_protocol_file
from mpstkit.core import Com, END, Role, Sort
from mpstkit.elaborate import load_text
from mpstkit.runtime import (
    Endpoint,
    GlobalSession,
    LinearityFault,
    Message,
    ProtocolFault,
    RuntimeFault,
    SessionSetupFault,
    new_global_session,
    run,
)

import conftest
from helpers import accepts_trace, negotiation_global


def run_fixture(name, timeout=10.0):
    pf = conftest.load_fixture(name)
    sessions, results, faults = run_protocol_file(pf, timeout=timeout)
    return pf, sessions, results, faults


class TestSessionSetup:
    def test_roles_of_negotiation(self):
        session = new_global_session(negotiation_global())
        assert {r.name for r in session.roles} == {"A", "B"}

    def test_ill_formed_protocol_rejected(self):
        bad = Com(Role("A"), Role("A"), ((Sort("Ok"), END),))
        with pytest.raises(SessionSetupFault) as exc:
            new_global_session(bad)
        assert "sender equals receiver" in str(exc.value)

    def test_unknown_role(self):
        session = new_global_session(negotiation_global())
        with pytest.raises(SessionSetupFault):
            session.init("Z")

    def test_double_init(self):
        session = new_global_session(negotiation_global())
        grabbed = {}

        def first():
            grabbed["ep"] = session.init("A")

        t = threading.Thread(target=first, daemon=True)
        t.start()
        time.sleep(0.05)
        with pytest.raises(SessionSetupFault):
            session.init("A")
        # release the barrier so the thread finishes
        session.init("B")
        t.join(timeout=2)
        assert not t.is_alive()

    def test_barrier_blocks_until_all_roles_join(self, three_buyer):
        session = GlobalSession(three_buyer.concrete["Purchase"])
        done = []

        def join(role):
            session.init(role)
            done.append(role)

        t1 = threading.Thread(target=join, args=("B1",), daemon=True)
        t2 = threading.Thread(target=join, args=("S",), daemon=True)
        t1.start()
        t2.start()
        time.sleep(0.3)
        assert done == []  # two of three roles are still blocked
        t3 = threading.Thread(target=join, args=("B2",), daemon=True)
        t3.start()
        for t in (t1, t2, t3):
            t.join(timeout=2)
        assert sorted(done) == ["B1", "B2", "S"]

    def test_run_requires_a_process_for_every_role(self):
        text = conftest.fixture_path("negotiation.mpst").read_text()
        pf = load_text(text[: text.index("proc bob")])
        with pytest.raises(Exception) as exc:
            run_protocol_file(pf, timeout=1.0)
        assert "no process" in str(exc.value)

    def test_no_action_precedes_barrier_release(self):
        _, sessions, _, faults = run_fixture("negotiation.mpst")
        assert faults == []
        session = sessions["Negotiation"]
        assert session.barrier_release_seq is not None
        assert all(e.seq >= session.barrier_release_seq for e in session.trace)


class TestNegotiationRun:
    EXPECTED = [
        ("A", "B", "Propose", 5),
        ("B", "A", "Propose", 11),
        ("A", "B", "Propose", 6),
        ("B", "A", "Propose", 11),
        ("A", "B", "Reject", None),
    ]

    def test_exact_trace(self):
        _, sessions, results, faults = run_fixture("negotiation.mpst")
        assert faults == []
        trace = [
            (e.sender.name, e.receiver.name, e.sort.name, e.payload)
            for e in sessions["Negotiation"].trace
        ]
        assert trace == self.EXPECTED

    def test_deterministic_across_runs(self):
        seen = set()
        for _ in range(5):
            _, sessions, _, faults = run_fixture("negotiation.mpst")
            assert faults == []
            seen.add(tuple(sessions["Negotiation"].trace_lines()))
        assert len(seen) == 1

    def test_terminal_endpoints(self):
        _, _, results, faults = run_fixture("negotiation.mpst")
        assert faults == []
        for result in results.values():
            assert result.all_terminated


class TestReceiveBranchCoverage:
    """Scripted proposers driving each of the responder's receive arms."""

    BOB = """
proc bob plays B in Negotiation {
  recv A { Propose(v) ->
    loop X {
      send A Propose(11);
      recv A { Accept(_)  -> send A Confirm; end
             , Reject(_)  -> end
             , Propose(_) -> recur X } } }
}
"""
    HEADER = """
sort Propose(int); sort Accept; sort Reject; sort Confirm;
global Negotiation =
  A -> B : Propose . rec X . B -> A : {
    Accept  . A -> B : Confirm . end,
    Reject  . end,
    Propose . A -> B : { Accept . B -> A : Confirm . end,
                         Reject . end, Propose . X } };
"""
    ALICES = {
        "accept": """
proc alice plays A in Negotiation {
  send B Propose(5);
  recv B { Accept(_)  -> send B Confirm; end
         , Reject(_)  -> end
         , Propose(v) -> send B Accept; recv B { Confirm(_) -> end } }
}
""",
        "reject": """
proc alice plays A in Negotiation {
  send B Propose(5);
  recv B { Accept(_)  -> send B Confirm; end
         , Reject(_)  -> end
         , Propose(v) -> send B Reject; end }
}
""",
        "one_more_round": """
proc alice plays A in Negotiation {
  send B Propose(5);
  recv B { Accept(_)  -> send B Confirm; end
         , Reject(_)  -> end
         , Propose(v) ->
             send B Propose(6);
             recv B { Accept(_)  -> send B Confirm; end
                    , Reject(_)  -> end
                    , Propose(_) -> send B Reject; end } }
}
""",
    }

    @pytest.mark.parametrize("variant", sorted(ALICES))
    def test_variant_checks_and_runs_safely(self, variant):
        from mpstkit.typecheck import check_session

        pf = load_text(self.HEADER + self.ALICES[variant] + self.BOB)
        assert check_session(pf).ok
        sessions, results, faults = run_protocol_file(pf, timeout=10.0)
        assert faults == []
        g = pf.concrete["Negotiation"]
        events = [
            (e.sender, e.receiver, e.sort.name)
            for e in sessions["Negotiation"].trace
        ]
        assert accepts_trace(g, events)
        assert all(r.all_terminated for r in results.values())


class TestFifoAndUseOnce:
    def test_per_pair_fifo(self):
        _, sessions, results, faults = run_fixture("http.mpst")
        assert faults == []
        trace = sessions["Http"].trace
        c_to_s = [e.sort.name for e in trace if e.sender.name == "C"]
        assert c_to_s == ["Request", "Header", "Header", "Body"]
        # receive order at the server equals the client's send order
        server_recvs = [
            a.sort.name for a in results["http_server"].actions
            if a.direction == "recv" and a.peer.name == "C"
        ]
        assert server_recvs == c_to_s
        client_recvs = [
            a.sort.name for a in results["http_client"].actions
            if a.direction == "recv" and a.peer.name == "S"
        ]
        s_to_c = [e.sort.name for e in trace if e.sender.name == "S"]
        assert client_recvs == s_to_c

    def test_endpoint_consumed_by_send(self):
        session = new_global_session(negotiation_global())
        eps = {}
        t = threading.Thread(
            target=lambda: eps.setdefault("b", session.init("B")), daemon=True
        )
        t.start()
        ep = session.init("A")
        t.join(timeout=2)
        ep.send("B", Sort("Propose", "int"), 5)
        with pytest.raises(LinearityFault):
            ep.send("B", Sort("Propose", "int"), 6)

    def test_double_recur_is_a_linearity_fault(self):
        # recur(s); recur(s) at the handle level: the second use of the
        # same handle must fault
        session = new_global_session(negotiation_global())
        eps = {}

        def side_b():
            ep = session.init("B")
            msg, ep = ep.recv("A")
            ep = ep.enter_loop()
            ep = ep.send("A", Sort("Propose", "int"), 11)
            msg, ep = ep.recv("A")
            eps["loop_state"] = ep

        t = threading.Thread(target=side_b, daemon=True)
        t.start()
        a = session.init("A")
        a = a.send("B", Sort("Propose", "int"), 5)
        msg, a = a.recv("B")
        a = a.send("B", Sort("Propose", "int"), 6)
        t.join(timeout=2)
        stale = eps["loop_state"]
        stale.recur()
        with pytest.raises(LinearityFault) as exc:
            stale.recur()
        assert "cannot recur" in str(exc.value)

    def test_wrong_sort_guard(self):
        pf = load_text(
            conftest.fixture_path("mutations/oneshot_bad_send.mpst").read_text()
        )
        sessions, results, faults = run_protocol_file(pf, timeout=1.0)
        assert any(isinstance(e, ProtocolFault) for _, e in faults)

    def test_stale_recur_fixture_faults_dynamically(self):
        pf = load_text(
            conftest.fixture_path("mutations/negotiation_wrong_recur.mpst").read_text()
        )
        sessions, results, faults = run_protocol_file(pf, timeout=1.0)
        assert any(isinstance(e, LinearityFault) for _, e in faults)

    def test_recur_without_its_loop_faults_and_cancels_the_peer(self):
        pf = load_text(
            "sort Ping;\n"
            "global G = rec X . A -> B : Ping . X;\n"
            "proc a plays A in G { loop X { send B Ping; recur Y } }\n"
            "proc b plays B in G { loop X { recv A { Ping(_) -> recur X } } }\n"
        )
        _, _, faults = run_protocol_file(pf, timeout=10.0)
        assert [(name, str(e)) for name, e in faults] == [
            ("a", "recur Y outside a loop of that name"),
            ("b", "session G cancelled after a fault"),
        ]

    def test_field_of_a_non_message_faults(self):
        # the checker rejects `x.value` on an int; unchecked, the interpreter does
        pf = load_text(
            "sort Num(int);\n"
            "global G = A -> B : Num . end;\n"
            "proc a plays A in G { let x = 1; send B Num(x.value); end }\n"
            "proc b plays B in G { recv A { Num(_) -> end } }\n"
        )
        _, _, faults = run_protocol_file(pf, timeout=10.0)
        assert [(name, str(e)) for name, e in faults] == [
            ("a", "field access on 1, which is not a message"),
            ("b", "session G cancelled after a fault"),
        ]


OFFER = "global G = A -> B : { M . B -> A : N . end, Q . end };\n"
SORTS = {name: Sort(name) for name in "MNQZ"}


def _stale(ep):
    ep.transfer()
    return ep


def _queued(session, ep, sort):
    session.queues[Role("A"), Role("B")].put(Message(SORTS[sort], None))
    return ep


# (id, protocol, action on the joined session and its endpoints, fault, text)
ENDPOINT_FAULTS = [
    ("send-on-consumed", OFFER, lambda s, a, b: _stale(a).send("B", SORTS["M"]),
     LinearityFault, "endpoint for A already consumed; cannot send M to B"),
    ("receive-on-consumed", OFFER, lambda s, a, b: _stale(b).recv("A"),
     LinearityFault, "endpoint for B already consumed; cannot receive from A"),
    ("loop-on-consumed", OFFER, lambda s, a, b: _stale(a).enter_loop(),
     LinearityFault, "endpoint for A already consumed; cannot enter a loop"),
    ("recur-on-consumed", OFFER, lambda s, a, b: _stale(a).recur(),
     LinearityFault, "endpoint for A already consumed; cannot recur"),
    ("send-where-receive-due", OFFER, lambda s, a, b: b.send("A", SORTS["N"]),
     ProtocolFault, "B: protocol does not allow a send (at A -> B ? { M . B -> A ! N . end, Q . end })"),
    ("send-where-receive-due-in-a-loop", "global G = rec X . A -> B : M . X;\n",
     lambda s, a, b: b.send("A", SORTS["M"]),
     ProtocolFault, "B: protocol does not allow a send (at A -> B ? M . rec X . A -> B ? M . X)"),
    ("receive-where-send-due", OFFER, lambda s, a, b: a.recv("B"),
     ProtocolFault, "A: protocol does not allow a receive (at A -> B ! { M . B -> A ? N . end, Q . end })"),
    ("wrong-addressee", OFFER, lambda s, a, b: a.send("C", SORTS["M"]),
     ProtocolFault, "A: send addressed to C, protocol expects B"),
    ("wrong-sender", OFFER, lambda s, a, b: b.recv("C"),
     ProtocolFault, "B: receive from C, protocol expects A"),
    ("unoffered-sort-on-send", OFFER, lambda s, a, b: a.send("B", SORTS["Z"]),
     ProtocolFault, "A: sort Z not offered here (offered: M, Q)"),
    ("unoffered-sort-on-receive", OFFER, lambda s, a, b: _queued(s, b, "Z").recv("A"),
     ProtocolFault, "B: received sort Z not offered (offered: M, Q)"),
    ("loop-away-from-a-loop", OFFER, lambda s, a, b: a.enter_loop(),
     ProtocolFault, "A: protocol does not loop at A -> B ! { M . B -> A ? N . end, Q . end }"),
    ("recur-away-from-a-loop", OFFER, lambda s, a, b: a.recur(),
     ProtocolFault,
     "A: recur where the protocol is not back at a loop (A -> B ! { M . B -> A ? N . end, Q . end })"),
    ("payload-off-schema", "global G = A -> B : N . end;\n",
     lambda s, a, b: a.send("B", SORTS["N"], "x"),
     ProtocolFault, "payload 'x' does not match the schema of sort N"),
]


@pytest.mark.parametrize(
    "protocol, action, fault, text",
    [case[1:] for case in ENDPOINT_FAULTS],
    ids=[case[0] for case in ENDPOINT_FAULTS],
)
def test_endpoint_fault(protocol, action, fault, text):
    g = load_text("sort M; sort N; sort Q;\n" + protocol).concrete["G"]
    session = GlobalSession(g, "G")
    a, b = session.join("A"), session.join("B")
    with pytest.raises(RuntimeFault) as exc:
        action(session, a, b)
    assert (type(exc.value), str(exc.value)) == (fault, text)


def test_an_endpoint_unrolls_its_head_once():
    g = load_text("sort M;\nglobal G = rec X . A -> B : M . X;\n").concrete["G"]
    a = GlobalSession(g, "G").join("A")
    assert a.head() is a.head()
    assert str(a.head()) == "A -> B ! M . rec X . A -> B ! M . X"


class TestDelegation:
    def test_three_buyer_completes_both_sessions(self):
        _, sessions, results, faults = run_fixture("three_buyer.mpst")
        assert faults == []
        assert set(sessions) == {"Purchase", "Handoff"}
        for result in results.values():
            assert result.all_terminated

    def test_seller_never_sees_the_third_buyer(self):
        _, _, results, faults = run_fixture("three_buyer.mpst")
        assert faults == []
        seller = results["seller"]
        assert {a.peer.name for a in seller.actions} <= {"B1", "B2"}

    def test_quit_cascade(self):
        _, sessions, _, faults = run_fixture("three_buyer.mpst")
        assert faults == []
        handoff = [
            (e.sender.name, e.receiver.name, e.sort.name)
            for e in sessions["Handoff"].trace
        ]
        assert handoff == [
            ("B2", "B3", "Int"),
            ("B2", "B3", "Delegatee"),
            ("B3", "B2", "Quit"),
        ]
        purchase = [
            (e.sender.name, e.receiver.name, e.sort.name)
            for e in sessions["Purchase"].trace
        ]
        assert purchase[-2:] == [("B2", "B1", "Quit"), ("B2", "S", "Quit")]

    def test_use_after_delegation_faults(self, three_buyer):
        decision = three_buyer.concrete["Decision"]
        handoff = three_buyer.concrete["Handoff"]
        hs = GlobalSession(handoff, "Handoff")
        delegatee_sort = three_buyer.sorts["Delegatee"]
        received = {}

        def side_b3():
            u = hs.init("B3")
            msg, u = u.recv("B2")
            msg, u = u.recv("B2")
            received["endpoint"] = msg.payload

        t = threading.Thread(target=side_b3, daemon=True)
        t.start()
        u = hs.init("B2")
        # a detached endpoint for the Decision protocol, used only as cargo
        ds = GlobalSession(decision, "Decision")
        waiter = threading.Thread(target=lambda: ds.init("B1"), daemon=True)
        waiter2 = threading.Thread(target=lambda: ds.init("S"), daemon=True)
        waiter.start()
        waiter2.start()
        s = ds.init("B2")
        u = u.send("B3", Sort("Int", "int"), 1)
        u = u.send("B3", delegatee_sort, s)
        t.join(timeout=2)
        assert isinstance(received["endpoint"], Endpoint)
        with pytest.raises(LinearityFault):
            s.send("B1", Sort("Quit"), None)
        # the transferred handle still works for its new owner
        moved = received["endpoint"]
        moved.send("B1", Sort("Quit"), None)


class TestTraceSafety:
    @pytest.mark.parametrize("fixture", conftest.RUNNABLE_FIXTURES)
    def test_every_trace_accepted_by_the_global_type(self, fixture):
        pf, sessions, results, faults = run_fixture(fixture)
        assert faults == [], faults
        for name, session in sessions.items():
            g = pf.concrete[name]
            events = [(e.sender, e.receiver, e.sort.name) for e in session.trace]
            assert accepts_trace(g, events), f"{fixture}:{name}: {events}"

    def test_acceptor_rejects_out_of_protocol_events(self):
        g = negotiation_global()
        assert not accepts_trace(g, [(Role("B"), Role("A"), "Propose")])
        assert not accepts_trace(g, [(Role("A"), Role("B"), "Confirm")])
        assert accepts_trace(g, [(Role("A"), Role("B"), "Propose")])


# p waits on G1 for q, q waits on G2 for p: each session alone is fine
CROSS_SESSION_DEADLOCK = """\
sort Ping;
global G1 = B -> A : Ping . end;
global G2 = A -> B : Ping . end;
proc p plays A in G1 as s, A in G2 as u { recv[s] B { Ping(_) -> send[u] B Ping; end } }
proc q plays B in G1 as s, B in G2 as u { recv[u] A { Ping(_) -> send[s] A Ping; end } }
"""


class TestScheduler:
    def test_cross_session_deadlock_is_reported_at_once(self):
        pf = load_text(CROSS_SESSION_DEADLOCK)
        start = time.monotonic()
        sessions, results, faults = run_protocol_file(pf, timeout=30.0)
        assert time.monotonic() - start < 1.0
        assert results == {}
        assert [(name, str(e)) for name, e in faults] == [
            ("p", "session G1 deadlocked: A waits for B to send Ping"),
            ("q", "session G2 deadlocked: B waits for A to send Ping"),
        ]
        assert all(s.trace == [] for s in sessions.values())

    def test_deadlock_names_every_offered_sort(self):
        pf = load_text(
            "sort Ok; sort No; sort Ping;\n"
            "global G1 = B -> A : { Ok . end, No . end };\n"
            "global G2 = A -> B : Ping . end;\n"
            "proc p plays A in G1 as s, A in G2 as u {\n"
            "  recv[s] B { Ok(_) -> send[u] B Ping; end, No(_) -> send[u] B Ping; end } }\n"
            "proc q plays B in G1 as s, B in G2 as u {\n"
            "  recv[u] A { Ping(_) -> send[s] A Ok; end } }\n"
        )
        _, _, faults = run_protocol_file(pf, timeout=30.0)
        assert [(name, str(e)) for name, e in faults] == [
            ("p", "session G1 deadlocked: A waits for B to send Ok or No"),
            ("q", "session G2 deadlocked: B waits for A to send Ping"),
        ]

    def test_forbidden_receive_keeps_its_protocol_fault(self):
        # a receives first although the protocol has it send first; under
        # --unchecked the endpoint guard must report it, not a deadlock
        pf = load_text(
            "sort Ping;\n"
            "global G = A -> B : Ping . B -> A : Ping . end;\n"
            "proc a plays A in G { recv B { Ping(_) -> send B Ping; end } }\n"
            "proc b plays B in G { recv A { Ping(_) -> send A Ping; end } }\n"
        )
        _, _, faults = run_protocol_file(pf, timeout=30.0)
        assert [(name, str(e)) for name, e in faults] == [
            ("a", "A: protocol does not allow a receive (at A -> B ! Ping . B -> A ? Ping . end)"),
            ("b", "session G cancelled after a fault"),
        ]
        assert isinstance(faults[0][1], ProtocolFault)

    def test_fixtures_run_on_one_thread_with_stable_traces(self, monkeypatch):
        def no_threads(self):
            raise AssertionError(f"run_protocol_file started thread {self.name}")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        for fixture in conftest.RUNNABLE_FIXTURES:
            pf = conftest.load_fixture(fixture)
            seen = set()
            for _ in range(20):
                sessions, results, faults = run_protocol_file(pf, timeout=10.0)
                assert faults == [], (fixture, faults)
                assert all(r.all_terminated for r in results.values())
                seen.add(tuple(
                    (name, tuple(s.trace_lines())) for name, s in sorted(sessions.items())
                ))
            assert len(seen) == 1, fixture
            for name, session in sessions.items():
                events = [(e.sender, e.receiver, e.sort.name) for e in session.trace]
                assert accepts_trace(pf.concrete[name], events), f"{fixture}:{name}"

    def test_a_run_that_never_ends_stops_at_the_timeout(self):
        pf = load_text(
            "sort Ping;\n"
            "global G = rec X . A -> B : Ping . X;\n"
            "proc a plays A in G { loop X { send B Ping; recur X } }\n"
            "proc b plays B in G { loop X { recv A { Ping(_) -> recur X } } }\n"
        )
        start = time.monotonic()
        sessions, results, faults = run_protocol_file(pf, timeout=0.5)
        assert time.monotonic() - start < 2.0
        assert results == {}
        assert [(name, str(e)) for name, e in faults] == [
            ("timeout", "processes did not finish in 0.5 s: a, b"),
        ]
        # one turn each: the receiver keeps up, so the queue stays short
        trace = sessions["G"].trace
        assert len(trace) > 10
        assert all(e.sort.name == "Ping" for e in trace)
        assert sessions["G"].queues[Role("A"), Role("B")].qsize() <= 1

    def test_a_role_that_cannot_be_claimed_holds_its_session(self):
        # C's projection fails, so, as at init's barrier, A and B never start
        pf = load_text(
            "sort L; sort R; sort M; sort N;\n"
            "global G = A -> B : { L . C -> A : M . end, R . C -> A : N . end };\n"
            "proc a plays A in G { send B L; recv C { M(_) -> end, N(_) -> end } }\n"
            "proc b plays B in G { recv A { L(_) -> end, R(_) -> end } }\n"
            "proc c plays C in G { send A M; end }\n"
        )
        sessions, results, faults = run_protocol_file(pf, timeout=30.0)
        assert [name for name, _ in faults] == ["c", "a", "b"]
        assert str(faults[0][1]).startswith("cannot project G onto C:")
        assert {str(e) for _, e in faults[1:]} == {"session G cancelled after a fault"}
        assert results == {} and sessions["G"].trace == []

    def test_a_second_process_for_a_role_faults_alone(self):
        pf = load_text(
            "sort Ping;\n"
            "global G = A -> B : Ping . end;\n"
            "proc a1 plays A in G { send B Ping; end }\n"
            "proc a2 plays A in G { send B Ping; end }\n"
            "proc b plays B in G { recv A { Ping(_) -> end } }\n"
        )
        sessions, results, faults = run_protocol_file(pf, timeout=30.0)
        assert [(name, str(e)) for name, e in faults] == [("a2", "role A already initialised")]
        assert sorted(results) == ["a1", "b"]
        assert sessions["G"].trace_lines() == ["seq 1: A -> B : Ping"]

    def test_a_session_left_unfinished_is_a_fault(self):
        # B ends without receiving A's Ping
        pf = load_text(
            "sort Ping;\n"
            "global G = A -> B : Ping . end;\n"
            "proc a plays A in G { send B Ping; end }\n"
            "proc b plays B in G { end }\n"
        )
        sessions, results, faults = run_protocol_file(pf, timeout=10.0)
        assert sorted(results) == ["a", "b"]
        assert [(name, str(e)) for name, e in faults] == [
            ("b", "role B ended with its session unfinished"),
        ]
        assert sessions["G"].trace_lines() == ["seq 1: A -> B : Ping"]

    def test_join_claims_a_role_without_waiting(self):
        session = new_global_session(negotiation_global())
        a = session.join("A")
        assert session.barrier_release_seq is None
        with pytest.raises(SessionSetupFault, match="already initialised"):
            session.join("A")
        with pytest.raises(SessionSetupFault, match="unknown role"):
            session.join("Z")
        b = session.join("B")
        assert session.barrier_release_seq == 1
        a = a.send("B", Sort("Propose", "int"), 5)
        msg, b = b.recv("A")
        assert msg.payload == 5

    def test_init_after_join_of_the_other_role_does_not_block(self):
        session = new_global_session(negotiation_global())
        session_b = session.join("B")
        a = session.init("A")  # B has joined, so the barrier only waits for A
        assert session.barrier_release_seq == 1
        assert not a.would_wait("B") and session_b.would_wait("A")

    def test_library_run_blocks_on_a_receive(self):
        pf = load_text(
            "sort Ping;\n"
            "global G = A -> B : Ping . end;\n"
            "proc a plays A in G { send B Ping; end }\n"
            "proc b plays B in G { recv A { Ping(_) -> end } }\n"
        )
        procs = {p.name: p for p in pf.procs}
        session = GlobalSession(pf.concrete["G"], "G")
        done = {}

        def side_b():
            (role, _, var), = procs["b"].bindings
            done["b"] = run({var: session.init(role)}, procs["b"].term)

        t = threading.Thread(target=side_b, daemon=True)
        t.start()
        (role, _, var), = procs["a"].bindings
        ep = session.init(role)
        time.sleep(0.2)
        assert t.is_alive() and "b" not in done  # b is blocked in its receive
        result_a = run({var: ep}, procs["a"].term)
        t.join(timeout=5)
        assert result_a.all_terminated and done["b"].all_terminated
        assert session.trace_lines() == ["seq 1: A -> B : Ping"]
