"""Projection and the full-merge operator, against hand-built reference
types for the negotiation and purchase protocols."""

import importlib
import time
from pathlib import Path

import pytest

from mpstkit import core, projection
from mpstkit.consistency import restrict_to_partner
from mpstkit.core import (
    Com,
    END,
    EndpointPayload,
    Loop,
    Recur,
    RecVar,
    Recv,
    Role,
    Send,
    Sort,
    free_rec_vars,
    roles_of,
    shared_postorder,
    struct_eq,
    subterms,
    well_formed,
)
from mpstkit.elaborate import load_text
from mpstkit.projection import (
    MergeError, ProjectionError, merge, merge_all, project, result_or_error,
)

import helpers
from helpers import (
    A,
    B,
    B1,
    B2,
    S,
    eq_modulo_branch_order,
    long_global,
    mergeable_pair,
    negotiation_global,
    negotiation_local_b,
    nested_loops,
    random_global,
    random_local,
    seeded,
    seller_decision_local,
    token_ring_global,
    two_buyer_decision_global,
    two_buyer_purchase_global,
)

ROOT = Path(__file__).resolve().parent.parent
Ok = Sort("Ok")
Quit = Sort("Quit")
Auth = Sort("Auth")


class TestProjectGolden:
    def test_negotiation_onto_responder(self):
        projected = project(negotiation_global(), B)
        assert struct_eq(projected, negotiation_local_b())

    def test_end_projects_to_end(self):
        assert project(END, Role("R")) == END

    def test_decision_onto_seller_is_the_merged_receive(self):
        projected = project(two_buyer_decision_global(), S)
        assert struct_eq(projected, seller_decision_local())

    def test_full_purchase_onto_seller(self):
        projected = project(two_buyer_purchase_global(), S)
        expected = Recv(B1, S, ((helpers.STRING, Send(S, B1, ((helpers.INT,
            Send(S, B2, ((helpers.INT, seller_decision_local()),))),))),))
        assert struct_eq(projected, expected)

    def test_sender_yields_send_head_receiver_recv_head(self):
        rng = seeded(31)
        for _ in range(200):
            g = random_global(rng, ["A", "B", "C"], depth=4)
            if well_formed(g) or not isinstance(g, Com):
                continue
            try:
                ps = project(g, g.sender)
                pr = project(g, g.receiver)
            except ProjectionError:
                continue
            assert isinstance(ps, Send)
            assert isinstance(pr, Recv)

    def test_successful_projections_are_well_formed(self):
        rng = seeded(37)
        checked = 0
        for _ in range(400):
            g = random_global(rng, ["A", "B", "C"], depth=4)
            if well_formed(g):
                continue
            for role in ("A", "B", "C"):
                try:
                    local = project(g, Role(role))
                except ProjectionError:
                    continue
                checked += 1
                assert well_formed(local) == []
        assert checked > 100

    def test_unprojectable_choice_reports_path(self):
        g = Com(A, B, (
            (Ok, Com(A, Role("C"), ((Ok, END),))),
            (Quit, Com(Role("C"), A, ((Quit, END),))),
        ))
        with pytest.raises(ProjectionError) as exc:
            project(g, Role("C"))
        assert exc.value.role == Role("C")
        assert exc.value.path == "$"

    def test_nested_unprojectable_choice_reports_full_path(self):
        c, x = Role("C"), RecVar("X")
        choice = Com(A, B, (
            (Ok, Com(A, c, ((Ok, Recur(x)),))),
            (Quit, END),
        ))
        g = Com(A, B, ((Ok, END), (Quit, Loop(x, Com(B, A, ((Auth, choice),))))))
        with pytest.raises(ProjectionError) as exc:
            project(g, c)
        assert exc.value.path == "$.branches[1].body.branches[0]"
        assert str(exc.value) == (
            "global type is not projectable onto C (at $.branches[1].body.branches[0]):"
            " incompatible constructors"
        )

    def test_leftmost_failure_in_post_order_is_reported(self):
        # both branches hold a choice C cannot follow; the left one is
        # nested deeper, so only a left-to-right post-order reports it
        c = Role("C")
        left = Com(A, B, ((Ok, END), (Quit, Com(A, c, ((Ok, END),)))))
        right = Com(A, B, (
            (Ok, Com(c, A, ((Ok, END),))),
            (Quit, Com(c, A, ((Quit, END),))),
        ))
        g = Com(A, B, ((Ok, Com(B, A, ((Auth, left),))), (Quit, right)))
        with pytest.raises(ProjectionError) as exc:
            project(g, c)
        assert exc.value.path == "$.branches[0].branches[0]"
        assert exc.value.cause.reason == "incompatible constructors"

    def test_shared_subterm_reports_its_first_occurrence(self):
        c = Role("C")
        choice = Com(A, B, ((Ok, Com(A, c, ((Ok, END),))), (Quit, END)))
        g = Com(A, B, ((Ok, Com(B, A, ((Auth, choice),))), (Quit, choice)))
        with pytest.raises(ProjectionError) as exc:
            project(g, c)
        assert exc.value.path == "$.branches[0].branches[0]"

    def test_long_loop_is_stack_safe(self):
        g = long_global(5000)
        local = project(g, A)
        assert sum(isinstance(n, (Send, Recv)) for n in subterms(local)) == 5000
        x, c = RecVar("X"), Role("C")
        assert project(g, c) == Loop(x, Recv(A, c, ((Sort("M4999"), Recur(x)),)))
        assert project(g, Role("D")) == END


class TestNestedLoops:
    """Erasure closes each loop from the free variables it keeps beside the
    rebuilt body, so directly nested loops cost no walk per loop."""

    def test_loops_close_without_walking_their_bodies(self, monkeypatch):
        walked = []

        def count_free_rec_vars(t):
            walked.append(t)
            return free_rec_vars(t)

        # projection does not import free_rec_vars; a walk from it, or from a
        # core routine it calls, would go through core's name
        monkeypatch.setattr(core, "free_rec_vars", count_free_rec_vars)
        g = nested_loops(2000)
        local = project(g, A)
        view = restrict_to_partner(local, B)
        assert project(g, Role("C")) == END
        assert restrict_to_partner(local, Role("C")) == END
        assert walked == []
        # every binder but the innermost is unused, so it is dropped
        expected = "A -> B ! M . " * 1999 + "rec X1999 . A -> B ! M . X1999"
        assert str(local) == str(view) == expected
        assert well_formed(local) == []

    def test_deep_nesting_projects_in_linear_time(self):
        g = nested_loops(4000)
        start = time.perf_counter()
        project(g, A)
        assert time.perf_counter() - start < 0.25


class TestProjectAll:
    """`project_all` projects every role in one walk of the global type."""

    def test_a_ring_is_walked_once_for_all_roles(self, monkeypatch):
        walks = []

        def count_walks(t):
            walks.append(t)
            return shared_postorder(t)

        g = token_ring_global(320, with_exit=True)
        monkeypatch.setattr(projection, "shared_postorder", count_walks)
        every = projection.project_all(g)
        assert walks == [g]
        monkeypatch.undo()
        assert every == {r: project(g, r) for r in roles_of(g)}

    def test_every_input_projects_as_project_does(self):
        graphs = [nested_loops(2000), long_global(5000)]
        for path in sorted((ROOT / "fixtures").rglob("*.mpst")):
            graphs += load_text(path.read_text()).concrete.values()
        family = helpers.benchmark_inputs().family
        for workload in ("deep", "wide"):
            for f in family(workload, 1, ROOT):
                graphs += load_text(f.text).concrete.values()
        for g in graphs:
            every = projection.project_all(g)
            assert set(every) == roles_of(g)
            for r, local in every.items():
                want = result_or_error(project, g, r)
                if isinstance(want, ProjectionError):
                    assert (local.role, local.path, str(local)) == (r, want.path, str(want))
                else:
                    assert struct_eq(local, want)

    def test_a_file_keeps_one_projection_per_role(self, monkeypatch):
        pf = load_text((ROOT / "fixtures" / "negotiation.mpst").read_text())
        elaborate = importlib.import_module("mpstkit.elaborate")
        folds = []

        def count_folds(g, fn=projection.project_all):
            folds.append(g)
            return fn(g)

        monkeypatch.setattr(elaborate, "project_all", count_folds)
        responder = pf.projection("Negotiation", B)
        every = pf.projections("Negotiation")
        assert set(every) == {A, B} and every[B] is responder
        assert every[A] is pf.projection("Negotiation", A)
        assert pf.projections("Negotiation") == every and len(folds) == 1

    def test_a_role_the_protocol_never_names_is_projected_as_project_does(self):
        # not in the table: every step of the protocol is erased for it
        pf = load_text("sort L; sort R;\nglobal P = A -> B : L . end;\n"
                       "global Q = rec X . A -> B : { L . X, R . end };\n")
        d = Role("D")
        assert d not in pf.projections("P") and pf.projection("P", d) == END
        got, want = pf.projection("Q", d), result_or_error(project, pf.concrete["Q"], d)
        assert d not in pf.projections("Q") and isinstance(want, ProjectionError)
        assert (type(got), got.path, str(got)) == (ProjectionError, want.path, str(want))


class TestMerge:
    def test_union_of_distinct_receive_branches(self):
        k1 = Recv(B2, S, ((helpers.STRING, Send(S, B2, ((helpers.DATE, END),))),))
        left = Recv(B2, S, ((Ok, k1),))
        right = Recv(B2, S, ((Quit, END),))
        assert merge(left, right) == Recv(B2, S, ((Ok, k1), (Quit, END)))

    def test_separately_built_long_chains_merge(self):
        # the two 5,000-step chains share no object, so the merge meets every step
        a, b = helpers.long_chain(5000)[1], helpers.long_chain(5000)[1]
        merged = merge(a, b)
        assert struct_eq(merged, a) and struct_eq(merged, b)

    def test_a_sort_named_twice_on_the_right_merges_into_the_first_merge(self):
        # an ill-formed receive can name a sort twice: its second branch merges
        # with what the first made, as the recursive merge did
        z = Sort("Z")
        left = Recv(A, B, ((Ok, Recv(A, B, ((Quit, END),))),))
        right = Recv(A, B, ((Ok, Recv(A, B, ((Auth, END),))), (Ok, Recv(A, B, ((z, END),)))))
        merged = Recv(A, B, ((Ok, Recv(A, B, ((Quit, END), (Auth, END), (z, END)))),))
        assert merge(left, right) == merged == helpers.oracle_merge(left, right)

    def test_idempotent_on_closed_types(self):
        rng = seeded(41)
        for _ in range(300):
            l = random_local(rng, B, A, depth=4)
            if well_formed(l):
                continue
            assert struct_eq(merge(l, l), l)

    def test_mixed_constructors_fail(self):
        left = Recv(A, S, ((Ok, Send(A, S, ((Auth, END),))),))
        with pytest.raises(MergeError):
            merge(left, END)

    def test_send_sorts_must_agree(self):
        a = Send(B, A, ((Ok, END),))
        b = Send(B, A, ((Quit, END),))
        with pytest.raises(MergeError):
            merge(a, b)
        assert merge(a, b, union_sends=True) == Send(B, A, ((Ok, END), (Quit, END)))
        # paired by position, sends agree on sort names only: the merge keeps
        # the left operand's sorts; only the union compares a shared sort's payloads
        endpoint = Send(B, A, ((Sort("Aa", EndpointPayload(Role("C"), END)), END),))
        plain = Send(B, A, ((Sort("Aa"), END),))
        assert endpoint != plain and merge(endpoint, plain) == endpoint
        with pytest.raises(MergeError, match="sort Aa has conflicting payloads"):
            merge(endpoint, plain, union_sends=True)

    def test_peer_mismatch_fails(self):
        with pytest.raises(MergeError):
            merge(Recv(A, B, ((Ok, END),)), Recv(S, B, ((Ok, END),)))

    def test_loop_merge_aligns_binders(self):
        x, y = RecVar("X"), RecVar("Y")
        a = Loop(x, Recv(A, B, ((Ok, Recur(x)),)))
        b = Loop(y, Recv(A, B, ((Quit, Recur(y)),)))
        merged = merge(a, b)
        assert isinstance(merged, Loop)
        expected = Loop(x, Recv(A, B, ((Ok, Recur(x)), (Quit, Recur(x)))))
        assert struct_eq(merged, expected)

    def test_loop_merge_skips_a_free_binder_name(self):
        x, y, m0, m1 = RecVar("X"), RecVar("Y"), RecVar("M0"), RecVar("M1")
        a = Loop(x, Recv(A, B, ((Ok, Recur(x)), (Quit, Recur(m0)))))
        b = Loop(y, Recv(A, B, ((Ok, Recur(y)),)))
        assert merge(a, b) == Loop(m1, Recv(A, B, ((Ok, Recur(m1)), (Quit, Recur(m0)))))

    def test_loop_merge_skips_a_binder_name_bound_inside(self):
        # M0 is bound inside both bodies: putting M0 in for X and Y would
        # send Ok back to the inner loop instead of the outer one
        x, y, m0, m1 = RecVar("X"), RecVar("Y"), RecVar("M0"), RecVar("M1")

        def looped(v):
            inner = Loop(m0, Recv(A, B, ((Ok, Recur(v)), (Quit, Recur(m0)))))
            return Loop(v, Recv(A, B, ((Auth, inner),)))

        assert merge(looped(x), looped(y)) == looped(m1)

    def test_conflicting_delegated_types_fail(self):
        c = Role("C")
        d_send = Sort("D", EndpointPayload(c, Send(c, A, ((Ok, END),))))
        d_recv = Sort("D", EndpointPayload(c, Recv(A, c, ((Ok, END),))))
        with pytest.raises(MergeError) as exc:
            merge(Recv(A, B, ((d_send, END),)), Recv(A, B, ((d_recv, END),)))
        assert exc.value.reason == "sort D has conflicting payloads"

    def test_loop_with_non_loop_fails(self):
        a = Loop(RecVar("X"), Recv(A, B, ((Ok, Recur(RecVar("X"))),)))
        with pytest.raises(MergeError):
            merge(a, END)

    def test_commutative_up_to_branch_order(self):
        rng = seeded(43)
        done = 0
        while done < 300:
            merged = random_local(rng, S, B2, depth=4)
            if well_formed(merged) or not isinstance(merged, Recv):
                continue
            a, b = mergeable_pair(rng, merged)
            try:
                ab = merge(a, b)
                ba = merge(b, a)
            except MergeError:
                continue
            done += 1
            assert eq_modulo_branch_order(ab, ba)

    def test_associative_when_defined(self):
        rng = seeded(47)
        done = 0
        while done < 200:
            merged = random_local(rng, S, B2, depth=3)
            if well_formed(merged) or not isinstance(merged, Recv):
                continue
            a, b = mergeable_pair(rng, merged)
            c, d = mergeable_pair(rng, merged)
            try:
                left = merge(merge(a, b), c)
                right = merge(a, merge(b, c))
            except MergeError:
                continue
            done += 1
            assert eq_modulo_branch_order(left, right)


# one loop under each branch of A's choice, which C merges; both bind M0
# inside, and the second binds the variable `{0}`
CAPTURED = """sort a; sort b; sort c; sort d; sort e;
global G = A -> B : {{
  a . rec X . B -> C : e . rec M0 . B -> C : {{ c . X, d . M0 }},
  b . rec {0} . B -> C : e . rec M0 . B -> C : {{ c . {0}, d . M0 }} }};
"""


class TestBinderNames:
    """Projection and restriction do not depend on the names of binders."""

    @staticmethod
    def outcomes(g) -> dict:
        """(role, partner or None) -> the projection onto role, restricted
        to partner, or None when projecting or restricting fails."""
        out, failed = {}, (MergeError, ProjectionError)
        roles = sorted(roles_of(g), key=lambda r: r.name)
        for r in roles:
            local = result_or_error(project, g, r)
            out[r, None] = None if isinstance(local, failed) else local
            for p in roles:
                if p != r and out[r, None] is not None:
                    view = result_or_error(restrict_to_partner, local, p)
                    out[r, p] = None if isinstance(view, failed) else view
        return out

    def assert_alike(self, a, b):
        left, right = self.outcomes(a), self.outcomes(b)
        assert left.keys() == right.keys()
        for key, want in left.items():
            got = right[key]
            assert (want is None) == (got is None), key
            assert want is None or struct_eq(want, got), (key, str(want), str(got))

    def test_merged_loops_capture_no_variable(self):
        renamed, same = (load_text(CAPTURED.format(v)).concrete["G"] for v in ("Y", "X"))
        self.assert_alike(renamed, same)
        assert str(project(renamed, Role("C"))) == (
            "rec M1 . B -> C ? e . rec M0 . B -> C ? { c . M1, d . M0 }"
        )

    def test_renamed_binders_project_alike(self):
        # A chooses between two copies of a random loop nest over B, C and D,
        # which C and D merge.  The copies' binders are renamed apart, the
        # inner ones to the names a merge makes up.  oracle_project merges
        # as the library does and makes up the same names, so the renamed
        # type is compared with the choice between two copies as drawn, not
        # with the oracle.
        rng = seeded(59)
        r0, r1 = RecVar("R0"), RecVar("R1")
        names = [[RecVar("X"), RecVar("Y")], [RecVar("M0"), RecVar("M1")]]
        sorts = helpers.SORT_POOL
        for _ in range(400):
            inner = random_global(rng, ["B", "C", "D"], depth=4, bound=(r0, r1),
                                  must_act=True, relay=rng.random() < 0.5)
            g = Loop(r0, Com(B, Role("C"), ((sorts[2], Loop(r1, inner)),)))
            same = Com(A, B, ((sorts[0], g), (sorts[1], g)))
            renamed = Com(A, B, tuple((s, helpers.rename_binders(rng, g, names))
                                      for s in sorts[:2]))
            self.assert_alike(same, renamed)


class TestMergeAll:
    def test_singleton(self):
        l = Send(B, A, ((Ok, END),))
        assert merge_all([l]) == l

    def test_all_end(self):
        assert merge_all([END, END, END]) == END

    def test_left_fold_over_projected_branches(self):
        decision = two_buyer_decision_global()
        parts = [project(cont, S) for _, cont in decision.branches]
        assert struct_eq(merge_all(parts), seller_decision_local())

    def test_failure_carries_index_pair(self):
        good = Recv(A, B, ((Ok, END),))
        with pytest.raises(MergeError) as exc:
            merge_all([good, good, END])
        assert exc.value.index_pair == (1, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_all([])
