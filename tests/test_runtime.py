"""Runtime behaviour: init barrier, use-once endpoints, FIFO delivery,
delegation, dynamic guards, and trace safety against the global types."""

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
    ProtocolFault,
    SessionSetupFault,
    new_global_session,
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
            if a.kind == "recv" and a.peer.name == "C"
        ]
        assert server_recvs == c_to_s
        client_recvs = [
            a.sort.name for a in results["http_client"].actions
            if a.kind == "recv" and a.peer.name == "S"
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
