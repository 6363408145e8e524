"""Partner restriction, duality, and the consistency verdicts of the corpus."""

import importlib
from pathlib import Path

import pytest

from mpstkit import cli, consistency, projection
from mpstkit.consistency import ConsistencyReport, PairVerdict, consistent, dual, restrict_to_partner
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
    free_rec_vars,
    roles_of,
    struct_eq,
    well_formed,
)
from mpstkit.elaborate import load_text
from mpstkit.fsm import StateGraph
from mpstkit.projection import MergeError, ProjectionError, project, result_or_error
from mpstkit.typecheck import SessionState, TypingEnv, check_process

import conftest
import helpers
from helpers import (
    A,
    B,
    benchmark_inputs,
    erasure_outcomes,
    long_chain,
    long_global,
    manual_dual,
    negotiation_global,
    oracle_consistent,
    oracle_project,
    oracle_restrict,
    random_local,
    reference_chain,
    seeded,
    synthesize_process,
    token_ring_global,
    token_ring_text,
)

ROOT = Path(__file__).resolve().parent.parent

S, C, AS = Role("S"), Role("C"), Role("A")
Login, Cancel = Sort("Login"), Sort("Cancel")
Password, Quit, Auth = Sort("Password", "string"), Sort("Quit"), Sort("Auth", "int")
Ok = Sort("Ok")


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

    def test_leftmost_failure_in_post_order_is_reported(self):
        # both branches of A's choice told to C erase a step with D whose
        # continuations do not merge, each for its own reason
        c, d, x, y = Role("C"), Role("D"), RecVar("X"), RecVar("Y")
        left = Send(A, d, ((Ok, Send(A, B, ((Ok, END),))), (Quit, END)))
        right = Loop(x, Loop(y, Send(A, d, (
            (Ok, Send(A, B, ((Ok, Recur(x)),))),
            (Quit, Send(A, B, ((Ok, Recur(y)),))),
        ))))
        l = Send(A, c, ((Ok, Send(A, B, ((Quit, left),))), (Quit, right)))
        with pytest.raises(MergeError) as exc:
            restrict_to_partner(right, B)
        assert exc.value.reason == "different recursion variables"
        with pytest.raises(MergeError) as exc:
            restrict_to_partner(l, B)
        assert exc.value.reason == "incompatible constructors"

    def test_long_chain_is_stack_safe(self):
        sends, _ = long_chain(5000)
        assert str(restrict_to_partner(sends, B)) == str(sends)
        assert restrict_to_partner(sends, Role("C")) == END


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

    def test_only_a_loop_or_a_recur_is_unfolded(self, monkeypatch):
        # each view's 5,000 steps are their own heads: only the loop at the
        # start and the recur at the end of each view unfold
        calls = []
        head = StateGraph.head
        monkeypatch.setattr(StateGraph, "head", lambda graph, i: calls.append(i) or head(graph, i))
        assert dual(*long_chain(5000))
        assert len(calls) <= 4

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


class TestSharedWork:
    """`consistent` restricts each view once and decides `dual` once per
    pair, with the verdicts of the loop that redid both for every ordered
    pair (`helpers.oracle_consistent`); projection and restriction agree
    with their recursive definitions."""

    @pytest.mark.parametrize("workload", ["corpus", "deep", "wide"])
    @pytest.mark.parametrize("seed", [1, 4242, 9101])
    def test_benchmark_inputs_agree_with_oracle(self, workload, seed):
        # the corpus workload's inputs are the fixtures
        inputs = benchmark_inputs()
        for f in inputs.family(workload, seed, ROOT):
            for g in load_text(f.text).concrete.values():
                assert consistent(g).to_json() == oracle_consistent(g).to_json(), f.name
                assert erasure_outcomes(
                    g, project, restrict_to_partner
                ) == erasure_outcomes(g, oracle_project, oracle_restrict), f.name

    @staticmethod
    def _ring(n: int):
        """`token_ring_text(n)` loaded; past 40 roles its global type is
        built with constructors in place of a stand-in `end`."""
        text = token_ring_text(n)
        if n <= 40:
            return load_text(text)
        pf = load_text("sort Go;\nglobal Ring = end;\n" + text[text.index("proc "):])
        pf.concrete["Ring"] = token_ring_global(n, sorts=pf.sorts)
        return pf

    def test_ring_work_is_linear_in_roles(self, monkeypatch):
        counts = {"dual": 0}
        restricted: list = []  # the projection of each restriction fold
        folded: list = []  # the protocol of each every-role projection
        projected: list = []  # the role of each one-role projection

        def count_erase(t, keep, *, union_sends=False, fn=projection.erase):
            restricted.append(t)
            return fn(t, keep, union_sends=union_sends)

        def count_dual(a, b, fn=dual):
            counts["dual"] += 1
            return fn(a, b)

        def count_project_all(g, fn=projection.project_all):
            folded.append(g)
            return fn(g)

        def count_project(g, role, fn=project):
            projected.append(role)
            return fn(g, role)

        monkeypatch.setattr(consistency, "erase", count_erase)
        monkeypatch.setattr(consistency, "dual", count_dual)
        # the package re-exports the function `elaborate`, so import the module by name
        elaborate = importlib.import_module("mpstkit.elaborate")
        for mod in (elaborate, consistency):
            monkeypatch.setattr(mod, "project_all", count_project_all)
        monkeypatch.setattr(elaborate, "project", count_project)
        for n in (40, 320):
            counts.update(dual=0)
            restricted.clear()
            folded.clear()
            pf = self._ring(n)
            outcome = cli.check_protocol_file(pf, "ring.mpst", True)
            assert outcome.ok
            assert len(outcome.consistency["Ring"].pairs) == n * (n - 1)
            # one restriction fold per role, of that role's projection
            projections = pf.projections("Ring")
            assert len(restricted) == n
            assert {id(l) for l in restricted} == {id(l) for l in projections.values()}
            assert counts["dual"] <= n
            # one walk projects every role, and the processes reuse its projections
            assert folded == [pf.concrete["Ring"]]
            assert projected == []
            # plain `check` projects through the same one walk, and restricts nothing
            counts.update(dual=0)
            restricted.clear()
            folded.clear()
            pf = self._ring(n)
            outcome = cli.check_protocol_file(pf, "ring.mpst", False)
            assert outcome.ok and outcome.consistency == {}
            assert folded == [pf.concrete["Ring"]]
            assert projected == [] and restricted == [] and counts["dual"] == 0

    # Projections passed in are taken as given, which reaches verdicts that
    # projections of one global type rarely or never give.
    THREE = Com(A, B, ((Ok, Com(A, C, ((Ok, END),))),))

    def _verdicts(self, projections) -> list:
        report = consistent(self.THREE, projections=projections)
        return [(p.r1.name, p.r2.name, p.reason) for p in report.pairs]

    def test_each_pair_gets_its_own_dual_verdict(self):
        assert self._verdicts({
            A: Send(A, B, ((Ok, Send(A, C, ((Ok, END),))),)),
            B: Recv(A, B, ((Quit, END),)),
            C: Recv(A, C, ((Ok, END),)),
        }) == [
            ("A", "B", "restricted views not dual"),
            ("A", "C", None),
            ("B", "A", "restricted views not dual"),
            ("B", "C", None),
            ("C", "A", None),
            ("C", "B", None),
        ]

    def test_a_view_that_talks_is_not_dual_to_silence(self):
        assert self._verdicts({
            A: Send(A, B, ((Ok, Send(A, C, ((Ok, END),))),)),
            B: Recv(A, B, ((Ok, END),)),
            C: END,
        }) == [
            ("A", "B", None),
            ("A", "C", "restricted views not dual"),
            ("B", "A", None),
            ("B", "C", None),
            ("C", "A", "restricted views not dual"),
            ("C", "B", None),
        ]

    def test_a_silent_view_that_does_not_end_is_dual_to_nothing(self):
        # a given projection that only recurs on a free variable acts with
        # no one, and its silent view is that recursion
        assert self._verdicts({
            A: Send(A, B, ((Ok, END),)),
            B: Recv(A, B, ((Ok, END),)),
            C: Recur(RecVar("X")),
        }) == [
            ("A", "B", None),
            ("A", "C", "restricted views not dual"),
            ("B", "A", None),
            ("B", "C", "restricted views not dual"),
            ("C", "A", "restricted views not dual"),
            ("C", "B", "restricted views not dual"),
        ]

    def test_first_role_of_the_pair_reports_its_restriction(self):
        x, y = RecVar("X"), RecVar("Y")
        left, right = Sort("L"), Sort("R")
        assert self._verdicts({
            A: Loop(x, Loop(y, Send(A, C, ((left, Recur(x)), (right, Recur(y)))))),
            B: Loop(x, Recv(C, B, ((left, Recur(x)), (right, END)))),
            C: Loop(x, Loop(y, Recv(A, C, (
                (left, Send(C, B, ((left, Recur(x)),))),
                (right, Send(C, B, ((right, END),))),
            )))),
        }) == [
            ("A", "B", "restriction failed: different recursion variables"),
            ("A", "C", "restricted views not dual"),
            ("B", "A", "restriction failed: incompatible constructors"),
            ("B", "C", None),
            ("C", "A", "restricted views not dual"),
            ("C", "B", None),
        ]

    def test_each_role_of_a_talking_pair_reports_its_own_restriction(self):
        # A and B talk, and each one's view of the other fails for its own reason
        x, y = RecVar("X"), RecVar("Y")
        left, right = Sort("L"), Sort("R")
        assert self._verdicts({
            A: Loop(x, Loop(y, Send(A, C, (
                (left, Send(A, B, ((Ok, Recur(x)),))),
                (right, Send(A, B, ((Ok, Recur(y)),))),
            )))),
            B: Loop(x, Recv(C, B, ((left, Recv(A, B, ((Ok, Recur(x)),))), (right, END)))),
            C: END,
        }) == [
            ("A", "B", "restriction failed: different recursion variables"),
            ("A", "C", "restricted views not dual"),
            ("B", "A", "restriction failed: incompatible constructors"),
            ("B", "C", "restricted views not dual"),
            ("C", "A", "restricted views not dual"),
            ("C", "B", "restricted views not dual"),
        ]

    def test_partners_come_from_the_global_type(self, monkeypatch):
        # R0 may stop a token ring, so most pairs never talk: their views are
        # the silent views of the one restriction fold of each projection,
        # and nothing walks g or a projection to find who talks to whom
        g = load_text(token_ring_text(5, with_exit=True)).concrete["Ring"]
        projections = {r: result_or_error(project, g, r) for r in roles_of(g)}
        walked = []

        def count_roles_of(t):
            walked.append(t)
            return roles_of(t)

        # raising=False: consistency need not import roles_of at all
        monkeypatch.setattr(consistency, "roles_of", count_roles_of, raising=False)
        report = consistent(g, projections=projections)
        assert walked == []
        assert report.to_json() == oracle_consistent(g).to_json()

    # Diamonds: each level is a choice between two references to the level
    # below, which elaboration shares, so P{n-1} has 2^(n-1) paths and n
    # distinct levels.  Nothing here walks every path of one.

    @staticmethod
    def _diamond(n: int, bystander: bool):
        """The top of an n-level `helpers.reference_chain` diamond, loaded
        as a file; with `bystander`, `P0 = B -> C : M . end`, so that C
        merges the branches of every level."""
        lines = reference_chain("diamond", n)
        if bystander:
            lines[0] = "global P0 = B -> C : M . end;"
        return load_text("\n".join(["sort M; sort Q;", *lines]) + "\n").concrete[f"P{n - 1}"]

    def test_a_diamond_merges_once_per_level(self, monkeypatch):
        # at each of the 13 choice levels, C's projection and B's view of C
        # merge, and so do the silent erasures of the global type and of A's
        # and B's projections: five merges a level, where a walk of every
        # path merged 2^13 times or more
        calls = []

        def count_merge_all(ts, union_sends, fn=projection._merge_all):
            calls.append(len(ts))
            return fn(ts, union_sends)

        monkeypatch.setattr(projection, "_merge_all", count_merge_all)
        assert consistent(self._diamond(14, bystander=True)).consistent
        assert len(calls) == 5 * 13

    @pytest.mark.parametrize("bystander", [False, True])
    def test_a_sixty_level_diamond_is_checked(self, bystander):
        g = self._diamond(60, bystander)
        report = consistent(g)
        assert report.consistent and len(report.pairs) == (6 if bystander else 2)
        assert roles_of(g) == ({A, B, C} if bystander else {A, B})
        assert free_rec_vars(g) == set()

    @pytest.mark.parametrize("n", [8, 40])
    def test_a_bystander_merges_a_shared_projection_once(self, n):
        # A, B and C never hear D's choice between two references to one
        # diamond, so each merges its projection of the diamond with itself
        top = f"P{n - 1}"
        lines = reference_chain("diamond", n)
        lines.append(f"global G = D -> E : {{ M . {top}, Q . {top} }};")
        pf = load_text("\n".join(["sort M; sort Q;", *lines]) + "\n")
        g = pf.concrete["G"]
        report = consistent(g)
        assert report.consistent and len(report.pairs) == 12
        assert struct_eq(project(g, A), project(pf.concrete[top], A))
        if n <= 8:
            assert report.to_json() == oracle_consistent(g).to_json()
            assert erasure_outcomes(g, project, restrict_to_partner) == erasure_outcomes(
                g, oracle_project, oracle_restrict
            )

    def test_a_failure_past_a_sixty_level_diamond_is_located(self):
        # the path search passes the diamond before it reaches the failing
        # choice, which C cannot merge: it sends B M or Q
        lines = [*reference_chain("diamond", 60), "global G = D -> E : { M . P59,"
                 " Q . A -> B : { M . C -> B : M . end, Q . C -> B : Q . end } };"]
        g = load_text("\n".join(["sort M; sort Q;", *lines]) + "\n").concrete["G"]
        error = result_or_error(project, g, C)
        assert isinstance(error, ProjectionError) and error.path == "$.branches[1]"

    def test_long_loop_is_stack_safe(self):
        report = consistent(long_global(5000))
        assert report.consistent
        assert len(report.pairs) == 6

    def test_silent_views_fail_alike_in_both_orders(self):
        # five roles pass a token around a loop, and the first may stop it;
        # roles that never talk cannot agree on whether the loop goes on
        g = load_text(token_ring_text(5, with_exit=True)).concrete["Ring"]
        report = consistent(g)
        assert report.to_json() == oracle_consistent(g).to_json()
        reasons = {(p.r1.name, p.r2.name): p.reason for p in report.pairs}
        talking = {(f"R{i}", f"R{(i + 1) % 5}") for i in range(5)}
        talking |= {(b, a) for a, b in talking}
        silent = [pair for pair in reasons if pair not in talking]
        assert len(silent) == 10
        for r1, r2 in silent:
            assert reasons[r1, r2] == reasons[r2, r1] == (
                "restriction failed: incompatible constructors"
            )


class TestVerdictClasses:
    """`consistent` judges each talking pair on its own and every other pair
    by its two roles' silent views or projection errors, and the report
    builds `PairVerdict`s only when they are read."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The roles of each `PairVerdict` built while the test runs."""
        made: list = []

        class Counted(PairVerdict):
            def __init__(self, *args):
                super().__init__(*args)
                made.append((self.r1, self.r2))

        monkeypatch.setattr(consistency, "PairVerdict", Counted)
        return made

    def test_a_consistent_ring_builds_verdicts_only_when_read(self, monkeypatch, built):
        counts = {"dual": 0}

        def count_dual(a, b, fn=dual):
            counts["dual"] += 1
            return fn(a, b)

        monkeypatch.setattr(consistency, "dual", count_dual)
        n = 320
        pf = TestSharedWork._ring(n)
        report = consistent(pf.concrete["Ring"], projections=pf.projections("Ring"))
        assert report.consistent and report.render() == "consistent"
        assert report.failing_pairs() == [] and built == []
        assert counts["dual"] <= n
        pairs = report.pairs
        assert len(built) == len(pairs) == n * (n - 1) and report.pairs is pairs
        assert all(p.ok for p in pairs) and len(built) == n * (n - 1)

    def test_failing_pairs_builds_only_the_failing(self, built):
        n = 40
        g = load_text(token_ring_text(n, with_exit=True)).concrete["Ring"]
        report = consistent(g)
        assert not report.consistent and built == []
        want = oracle_consistent(g)
        failing = report.failing_pairs()
        assert self._fields(failing) == self._fields(want.failing_pairs())
        assert len(built) == len(failing) < n * (n - 1)
        assert report.render() == want.render() and len(built) == 2 * len(failing)
        assert self._fields(report.pairs) == self._fields(want.pairs)
        assert len(built) == 2 * len(failing) + n * (n - 1)

    @staticmethod
    def _fields(pairs) -> list:
        return [(p.r1, p.r2, p.ok, p.reason) for p in pairs]

    @pytest.mark.parametrize("with_exit", [False, True])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_rings_agree_with_oracle(self, n, with_exit):
        self._agree(token_ring_global(n, with_exit))

    def test_unprojectable_roles_agree_with_oracle(self):
        # C and E never hear A's choice but send in one branch, and a ring
        # with an exit follows either branch, which the roles outside it
        # cannot project; a pair takes r1's projection error first
        e, ring = Role("E"), token_ring_global(4, with_exit=True)
        g = Com(A, B, ((Ok, Com(C, A, ((Ok, Com(e, A, ((Ok, ring),))),))), (Quit, ring)))
        report = self._agree(g)
        bad = {r.name for r, l in projection.project_all(g).items() if isinstance(l, ProjectionError)}
        assert bad == {"A", "B", "C", "E"}
        assert len(report.pairs) == 8 * 7
        for p in report.pairs:
            first = next((r for r in (p.r1.name, p.r2.name) if r in bad), None)
            if first is not None:
                assert p.reason.startswith(f"unprojectable: global type is not projectable onto {first} ")

    def test_a_report_from_a_list_reads_that_list(self, built):
        g = load_text(token_ring_text(4, with_exit=True)).concrete["Ring"]
        pairs = list(oracle_consistent(g).pairs)
        report = ConsistencyReport(False, pairs)
        assert report.pairs is pairs
        assert report.failing_pairs() == [p for p in pairs if not p.ok]
        assert report.render() == consistent(g).render() and report.to_json() == consistent(g).to_json()
        assert ConsistencyReport(True).pairs == [] and ConsistencyReport(True).render() == "consistent"

    @staticmethod
    def _agree(g):
        report, want = consistent(g), oracle_consistent(g)
        assert report.consistent == want.consistent
        assert report.render() == want.render()
        assert report.to_json() == want.to_json()
        return report
