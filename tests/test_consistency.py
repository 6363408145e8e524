"""Partner restriction, duality, and the consistency verdicts of the corpus."""

import pytest

from mpstkit.consistency import consistent, dual, restrict_to_partner
from mpstkit.core import (
    Com,
    END,
    Loop,
    Recur,
    RecVar,
    Recv,
    Role,
    Send,
    Sort,
    UnfoldError,
    struct_eq,
    well_formed,
)
from mpstkit.projection import MergeError, project
from mpstkit.typecheck import SessionState, TypingEnv, check_process

import conftest
import helpers
from helpers import (
    A,
    B,
    long_chain,
    manual_dual,
    negotiation_global,
    random_local,
    seeded,
    synthesize_process,
)

S, C, AS = Role("S"), Role("C"), Role("A")
Login, Cancel = Sort("Login"), Sort("Cancel")
Password, Quit, Auth = Sort("Password", "string"), Sort("Quit"), Sort("Auth", "int")


def authorisation_global():
    return Com(S, C, (
        (Login, Com(C, AS, ((Password, Com(AS, S, ((Auth, END),))),))),
        (Cancel, Com(C, AS, ((Quit, END),))),
    ))


class TestRestrictToPartner:
    def test_end_unchanged(self):
        assert restrict_to_partner(END, Role("R")) == END

    def test_negotiation_responder_unchanged(self):
        # every action in the responder's type has the proposer as peer
        local = project(negotiation_global(), B)
        assert struct_eq(restrict_to_partner(local, A), local)

    def test_authorisation_server_restricted_to_service_fails(self):
        # the auth server either sends Auth to S (Login path) or says
        # nothing (Cancel path); those cannot be merged
        local = project(authorisation_global(), AS)
        with pytest.raises(MergeError) as exc:
            restrict_to_partner(local, S)
        assert isinstance(exc.value.left, Send)
        assert exc.value.left.branches[0][0].name == "Auth"
        assert exc.value.right == END

    def test_internal_choice_widens_sends(self):
        # a choice told to someone else unions the sends the partner sees
        g = helpers.two_buyer_decision_global()
        restricted = restrict_to_partner(project(g, helpers.B2), S)
        assert isinstance(restricted, Send)
        assert [s.name for s, _ in restricted.branches] == ["Ok", "Quit"]


class TestDual:
    def test_end_end(self):
        assert dual(END, END)

    def test_simple_send_recv(self):
        assert dual(Send(A, B, ((Sort("Ok"), END),)), Recv(A, B, ((Sort("Ok"), END),)))

    def test_sort_mismatch(self):
        assert not dual(Send(A, B, ((Sort("Ok"), END),)), Recv(A, B, ((Quit, END),)))

    def test_negotiation_projections_dual(self):
        g = negotiation_global()
        pa = restrict_to_partner(project(g, A), B)
        pb = restrict_to_partner(project(g, B), A)
        assert dual(pa, pb)

    def test_symmetric(self):
        rng = seeded(53)
        for _ in range(300):
            l = random_local(rng, A, B, depth=4)
            if well_formed(l):
                continue
            d = manual_dual(l)
            assert dual(l, d) == dual(d, l)

    def test_agrees_with_manual_dual_oracle(self):
        rng = seeded(59)
        for _ in range(300):
            l = random_local(rng, A, B, depth=4)
            if well_formed(l):
                continue
            assert dual(l, manual_dual(l))

    def test_through_recursion(self):
        x = RecVar("X")
        a = Loop(x, Send(A, B, ((Sort("Ok"), Recur(x)), (Quit, END))))
        assert dual(a, manual_dual(a))

    def test_long_chain_is_stack_safe(self):
        sends, recvs = long_chain(5000)
        assert dual(sends, recvs)
        assert dual(recvs, sends)

    def test_non_contractive_raises(self):
        x = RecVar("X")
        with pytest.raises(UnfoldError):
            dual(Loop(x, Recur(x)), END)

    def test_terminates_on_mismatched_loops(self):
        x = RecVar("X")
        a = Loop(x, Send(A, B, ((Sort("Ok"), Recur(x)),)))
        b = Loop(x, Recv(A, B, ((Quit, Recur(x)),)))
        assert not dual(a, b)


class TestConsistencyVerdicts:
    @pytest.mark.parametrize(
        "fixture,names",
        sorted(conftest.CONSISTENT_FIXTURES.items()),
    )
    def test_consistent_corpus(self, fixture, names):
        pf = conftest.load_fixture(fixture)
        for name in names:
            report = consistent(pf.concrete[name])
            assert report.consistent, f"{fixture}:{name}: {report.render()}"

    @pytest.mark.parametrize(
        "fixture,names",
        sorted(conftest.INCONSISTENT_FIXTURES.items()),
    )
    def test_inconsistent_corpus(self, fixture, names):
        pf = conftest.load_fixture(fixture)
        for name in names:
            report = consistent(pf.concrete[name])
            assert not report.consistent, f"{fixture}:{name} unexpectedly consistent"
            assert report.failing_pairs()

    def test_authorisation_failing_pair_names(self, authorisation):
        report = consistent(authorisation.concrete["Authorisation"])
        failing = {(p.r1.name, p.r2.name) for p in report.failing_pairs()}
        assert ("S", "A") in failing and ("A", "S") in failing

    def test_report_json_shape(self, authorisation):
        report = consistent(authorisation.concrete["Authorisation"])
        data = report.to_json()
        assert data["consistent"] is False
        assert any(not p["ok"] for p in data["pairs"])


class TestDecoupling:
    """Inconsistent-but-projectable types still project and type-check."""

    def test_authorisation_projects_onto_every_role(self):
        g = authorisation_global()
        for r in (S, C, AS):
            local = project(g, r)
            assert well_formed(local) == []

    def test_processes_checkable_against_inconsistent_projections(self):
        g = authorisation_global()
        for r in (S, C, AS):
            local = project(g, r)
            term = synthesize_process(local)
            env = TypingEnv(sessions={"s": SessionState(r, local)})
            assert check_process(env, term) == []

    def test_projectable_inconsistent_fixture(self):
        # the map/reduce corpus entry is projectable onto every role even
        # though the worker pair is inconsistent
        pf = conftest.load_fixture("rec_map_reduce.mpst")
        g = pf.concrete["RecMapReduce"]
        from mpstkit.core import roles_of

        for r in roles_of(g):
            assert well_formed(project(g, r)) == []
        assert not consistent(g).consistent
