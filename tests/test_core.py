"""Core AST operations: substitution, unfolding, normalization, equality,
well-formedness, branch lookup, and the JSON encoding."""

import dataclasses
import json
from types import SimpleNamespace

import pytest

from mpstkit import core
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
    UnfoldError,
    alpha_normalize,
    branch_lookup,
    branch_lookup_name,
    free_rec_vars,
    postorder,
    Repeat,
    roles_of,
    shared_postorder,
    struct_eq,
    substitute,
    subterms,
    type_from_json,
    type_to_json,
    unfold,
    well_formed,
)
from mpstkit.consistency import dual, restrict_to_partner
from mpstkit.fsm import Action, interpret
from mpstkit.projection import project
from mpstkit.runtime import Message, TraceEvent

import helpers
from helpers import (
    break_somewhere,
    long_chain,
    negotiation_global,
    negotiation_local_b,
    random_global,
    random_local,
    seeded,
    subst_oracle,
)

A, B = Role("A"), Role("B")
X, Y = RecVar("X"), RecVar("Y")
Ok = Sort("Ok")
Propose = Sort("Propose", "int")


@pytest.mark.parametrize("name", ["A\n", "", "1x", "a b"])
@pytest.mark.parametrize("kind", [Role, Sort])
def test_a_name_that_is_not_an_identifier_is_rejected(kind, name):
    # the whole name must be an identifier: `$` would let a final newline through
    with pytest.raises(ValueError):
        kind(name)


class TestSubstitute:
    def test_direct_replacement(self):
        assert substitute(Recur(X), X, END) == END

    def test_no_occurrence(self):
        replacement = Send(B, A, ((Ok, END),))
        assert substitute(END, X, replacement) == END

    def test_under_send(self):
        target = Loop(X, Send(B, A, ((Ok, Recur(X)),)))
        body = Send(B, A, ((Propose, Recur(X)),))
        expected = subst_oracle(body, X, target)
        assert substitute(body, X, target) == expected
        assert expected == Send(B, A, ((Propose, target),))

    def test_shadowing(self):
        body = Loop(X, Send(B, A, ((Ok, Recur(X)),)))
        assert substitute(body, X, END) == body

    def test_global_types_too(self):
        body = Com(A, B, ((Ok, Recur(X)),))
        assert substitute(body, X, END) == Com(A, B, ((Ok, END),))

    def test_matches_oracle_on_random_types(self):
        rng = seeded(11)
        target = Loop(X, Recv(A, B, ((Ok, Recur(X)),)))
        for _ in range(300):
            t = random_local(rng, B, A, depth=4, bound=(X,))
            assert substitute(t, X, target) == subst_oracle(t, X, target)


class TestUnfold:
    def test_non_loop_fixed_point(self):
        assert unfold(END) == END
        action = Send(B, A, ((Ok, END),))
        assert unfold(action) == action

    def test_one_step(self):
        loop = Loop(X, Send(B, A, ((Ok, Recur(X)),)))
        expected = subst_oracle(Send(B, A, ((Ok, Recur(X)),)), X, loop)
        assert unfold(loop) == expected
        assert unfold(loop) == Send(B, A, ((Ok, loop),))

    def test_two_steps(self):
        inner = Loop(Y, Recv(A, B, ((Ok, END),)))
        loop = Loop(X, inner)
        once = subst_oracle(inner, X, loop)
        twice = subst_oracle(once.body, once.var, once)
        assert unfold(loop) == twice
        assert unfold(loop) == Recv(A, B, ((Ok, END),))

    def test_non_contractive_loop_runs_out_of_fuel(self):
        with pytest.raises(UnfoldError):
            unfold(Loop(X, Loop(Y, Recur(X))))

    def test_substitute_unfold_agreement(self):
        rng = seeded(5)
        for _ in range(200):
            body = random_local(rng, B, A, depth=3, bound=(X,), must_act=True)
            loop = Loop(X, body)
            if well_formed(loop) or isinstance(body, Loop):
                continue
            assert unfold(loop) == substitute(body, X, loop)

    def test_six_hundred_directly_nested_loops_unroll(self):
        # rec X0 . rec X1 . … rec X599 . B -> A ! Ok . X0: contractive, and
        # each unrolling has one directly nested loop fewer
        names = [RecVar(f"X{i}") for i in range(600)]
        t = Send(B, A, ((Ok, Recur(names[0])),))
        for var in reversed(names):
            t = Loop(var, t)
        head = unfold(t)
        assert isinstance(head, Send)
        assert struct_eq(head, Send(B, A, ((Ok, t),)))

    @pytest.mark.parametrize("t", [
        Loop(X, Recur(X)),
        Loop(X, Loop(Y, Recur(X))),
        Loop(X, Loop(Y, Recur(Y))),
    ], ids=str)
    def test_non_contractive_loops_raise(self, t):
        with pytest.raises(UnfoldError) as exc:
            unfold(t)
        assert str(exc.value) == "unfolding did not terminate: non-contractive type"

    def test_matches_substitution_until_the_head_is_not_a_loop(self):
        def oracle(t):
            while isinstance(t, Loop):
                t = subst_oracle(t.body, t.var, t)
            return t

        rng = seeded(19)
        roles = ["A", "B", "C"]
        z, w = RecVar("Z"), RecVar("W")
        loops = 0
        for _ in range(600):
            for t in (random_local(rng, A, B, depth=5), random_global(rng, roles, depth=5)):
                # the draw's own loops, and the draw under two more binders
                for loop in [n for n in postorder(t) if isinstance(n, Loop)] + [
                        Loop(z, Loop(w, t))]:
                    assert unfold(loop) == oracle(loop)
                    loops += 1
        assert loops > 2000


class TestAlphaNormalize:
    def test_single_binder(self):
        assert alpha_normalize(Loop(Y, Recur(Y))) == Loop(RecVar("X0"), Recur(RecVar("X0")))

    def test_end(self):
        assert alpha_normalize(END) == END

    def test_preorder_numbering(self):
        t = Loop(RecVar("A"), Loop(RecVar("B"), Recur(RecVar("A"))))
        expected = Loop(RecVar("X0"), Loop(RecVar("X1"), Recur(RecVar("X0"))))
        assert alpha_normalize(t) == expected

    def test_free_variable_not_captured(self):
        # rec Y . A -> B ! { Ok . X0, Propose . Y }: X0 is free and stays so
        x0, x1 = RecVar("X0"), RecVar("X1")
        t = Loop(Y, Send(A, B, ((Ok, Recur(x0)), (Propose, Recur(Y)))))
        expected = Loop(x1, Send(A, B, ((Ok, Recur(x0)), (Propose, Recur(x1)))))
        assert alpha_normalize(t) == expected
        assert struct_eq(t, alpha_normalize(t))

    def test_idempotent(self):
        rng = seeded(7)
        for _ in range(300):
            t = random_local(rng, B, A, depth=5)
            once = alpha_normalize(t)
            assert alpha_normalize(once) == once


class TestStructEq:
    def test_reflexive_trivial(self):
        assert struct_eq(END, END)

    def test_alpha_equivalence(self):
        assert struct_eq(Loop(X, Recur(X)), Loop(Y, Recur(Y)))

    def test_constructor_mismatch(self):
        assert not struct_eq(Send(A, B, ((Ok, END),)), Recv(A, B, ((Ok, END),)))

    def test_branch_order_significant(self):
        a = Recv(A, B, ((Ok, END), (Propose, END)))
        b = Recv(A, B, ((Propose, END), (Ok, END)))
        assert not struct_eq(a, b)

    def test_equivalence_relation(self):
        rng = seeded(13)
        pool = [random_local(rng, B, A, depth=4) for _ in range(40)]
        # reflexivity
        for t in pool:
            assert struct_eq(t, t)
        # symmetry and transitivity over the sampled pool
        for a in pool:
            for b in pool:
                assert struct_eq(a, b) == struct_eq(b, a)
        for a in pool:
            for b in pool:
                for c in pool:
                    if struct_eq(a, b) and struct_eq(b, c):
                        assert struct_eq(a, c)

    def test_long_types_compare_without_recursion(self):
        sends, recvs = long_chain(5000)
        assert struct_eq(sends, long_chain(5000)[0])
        assert not struct_eq(sends, recvs)
        assert struct_eq(helpers.long_global(5000), helpers.long_global(5000))
        assert not struct_eq(sends, long_chain(4999)[0])

    def test_free_variable_is_not_captured_by_a_fresh_binder(self):
        # alpha-normal forms name binders X0, X1, ... but skip free names:
        # `rec Y . X0` reads `rec X1 . X0`, not `rec X0 . X0` like `rec Y . Y`
        free, bound = Loop(Y, Recur(RecVar("X0"))), Loop(Y, Recur(Y))
        assert not helpers.oracle_struct_eq(free, bound)
        assert not struct_eq(free, bound)
        assert struct_eq(free, Loop(X, Recur(RecVar("X0"))))


class TestWellFormed:
    def test_negotiation_ok(self):
        assert well_formed(negotiation_global()) == []

    def test_self_communication(self):
        violations = well_formed(Com(A, A, ((Ok, END),)))
        assert any("sender equals receiver" in v.message for v in violations)

    def test_non_contractive(self):
        violations = well_formed(Loop(X, Recur(X)))
        assert any("non-contractive" in v.message for v in violations)

    def test_empty_branches(self):
        violations = well_formed(Com(A, B, ()))
        assert any("no branches" in v.message for v in violations)

    def test_duplicate_sorts(self):
        violations = well_formed(Com(A, B, ((Ok, END), (Ok, END))))
        assert any("duplicate branch sort" in v.message for v in violations)

    def test_free_recursion_variable(self):
        violations = well_formed(Com(A, B, ((Ok, Recur(X)),)))
        assert any("unbound recursion variable" in v.message for v in violations)

    def test_violations_carry_paths(self):
        violations = well_formed(Com(A, B, ((Ok, Com(B, B, ((Ok, END),))),)))
        assert violations[0].path == "$.branches[0]"

    def test_long_chain_is_stack_safe(self):
        sends, recvs = long_chain(5000)
        assert well_formed(sends) == []
        assert well_formed(recvs) == []
        assert free_rec_vars(sends.body) == {X}

    def test_deep_violations_keep_their_paths(self):
        sends, _ = long_chain(2000)
        bad = Loop(X, Com(A, B, ((Ok, Com(B, B, ((Ok, Recur(Y)), (Ok, sends.body)))),)))
        assert [str(v) for v in well_formed(bad)] == [
            "$.body.branches[0]: sender equals receiver: B",
            "$.body.branches[0].branches[0]: unbound recursion variable: Y",
            "$.body.branches[0]: duplicate branch sort: Ok",
        ]

    def test_violation_order_matches_recursive_walk(self):
        # mutate random global types at random depths, several times each
        rng = seeded(31)
        checked = 0
        while checked < 300:
            g = random_global(rng, ["A", "B", "C"], depth=5)
            for _ in range(rng.randint(1, 4)):
                g = break_somewhere(rng, g)
            assert well_formed(g) == helpers.oracle_well_formed(g)
            checked += bool(well_formed(g))

    def test_a_repeated_clean_object_is_decided_once(self, monkeypatch):
        # 2^40 paths over 40 choice objects: each is walked at its first two
        # meetings, then skipped (the objects are not compared: their
        # dataclass repr would list every path)
        t = END
        for _ in range(40):
            t = Com(A, B, ((Ok, t), (Propose, t)))
        guarded = []
        monkeypatch.setattr(core, "is_guarded", lambda v, b: guarded.append(v) or True)
        memo: dict = {}
        assert well_formed(Loop(X, t), memo=memo) == []
        assert guarded == [X]
        below = t.branches[0][1]  # met twice
        assert memo[id(below)][0] is below and memo[id(below)][1] == {X}
        assert memo[id(t)][1] is None  # met once

    def test_a_repeated_object_reports_its_violations_at_every_path(self):
        bad = Com(B, B, ((Ok, END),))
        t = Com(A, B, ((Ok, bad), (Propose, Com(A, B, ((Ok, bad), (Propose, bad))))))
        assert [str(v) for v in well_formed(t)] == [
            "$.branches[0]: sender equals receiver: B",
            "$.branches[1].branches[0]: sender equals receiver: B",
            "$.branches[1].branches[1]: sender equals receiver: B",
        ]

    @pytest.mark.parametrize("bound_first", [True, False])
    def test_a_repeated_object_is_decided_under_its_binders(self, bound_first):
        # one choice with X free, met inside a loop on X and outside it
        x = Com(A, B, ((Ok, Recur(X)), (Propose, END)))
        looped = Loop(X, Com(B, A, ((Ok, x),)))
        branches = [(Ok, looped), (Propose, x)]
        t = Com(A, B, tuple(branches if bound_first else branches[::-1]))
        assert well_formed(t) == helpers.oracle_well_formed(t)
        assert [v.message for v in well_formed(t)] == ["unbound recursion variable: X"]

    def test_a_memo_carries_verdicts_between_calls(self):
        shared = Com(A, B, ((Ok, Recur(X)), (Propose, END)))
        memo: dict = {}
        assert well_formed(Loop(X, shared), memo=memo) == []
        assert memo[id(shared)] == [shared, None]  # met once
        assert well_formed(Loop(X, Send(A, B, ((Ok, shared),))), memo=memo) == []
        assert memo[id(shared)] == [shared, frozenset({X})]
        # clean where X is bound, walked again where it is not
        assert [str(v) for v in well_formed(shared, memo=memo)] == [
            "$.branches[0]: unbound recursion variable: X"
        ]
        assert memo[id(shared)] == [shared, frozenset({X})]

    def test_mutations_always_rejected(self):
        rng = seeded(29)
        roles = ["A", "B", "C"]
        made = 0
        while made < 200:
            g = random_global(rng, roles, depth=4)
            if well_formed(g) or not isinstance(g, Com):
                continue
            made += 1
            kind = rng.randrange(3)
            if kind == 0:  # duplicate a branch sort
                s, c = g.branches[0]
                bad = Com(g.sender, g.receiver, g.branches + ((s, c),))
            elif kind == 1:  # self-communication
                bad = Com(g.sender, g.sender, g.branches)
            else:  # free recursion variable
                bad = Com(g.sender, g.receiver, ((Ok, Recur(RecVar("Zfree"))),) + g.branches)
            assert well_formed(bad), f"mutation {kind} slipped through: {bad}"


class TestBranchLookup:
    def test_found(self):
        l1, l2 = Send(B, A, ((Ok, END),)), END
        branches = ((Sort("Accept"), l1), (Sort("Reject"), l2))
        assert branch_lookup(branches, Sort("Reject")) == l2

    def test_not_found(self):
        branches = ((Sort("Accept"), END),)
        assert branch_lookup(branches, Sort("Confirm")) is None

    def test_bobs_send_branches(self):
        # looking up the counter-proposal branch of the responder's send
        # yields the nested three-way receive ending in the recursion
        local = negotiation_local_b()
        send = local.branches[0][1].body
        assert isinstance(send, Send)
        cont = branch_lookup_name(send.branches, "Propose")
        expected = Recv(A, B, (
            (Sort("Accept"), Send(B, A, ((Sort("Confirm"), END),))),
            (Sort("Reject"), END),
            (Propose, Recur(X)),
        ))
        assert struct_eq(cont, expected)


STEPS = 5000


@pytest.fixture(scope="module", params=["long_chain", "long_global"])
def long_types(request):
    """A 5000-step loop as a global type `g`, with `a` and `b` the views of
    A and B, `roles` its roles and `projected` one known projection."""
    if request.param == "long_chain":
        a, b = long_chain(STEPS)
        g = Recur(X)
        for i in reversed(range(STEPS)):
            g = Com(A, B, ((Sort(f"M{i}"), g),))
        g = Loop(X, g)
        return SimpleNamespace(g=g, a=a, b=b, roles={A, B}, projected=(A, a))
    g = helpers.long_global(STEPS)
    c = Role("C")  # a bystander of every step but the last
    last = Loop(X, Recv(A, c, ((Sort(f"M{STEPS - 1}"), Recur(X)),)))
    return SimpleNamespace(g=g, a=project(g, A), b=project(g, B), roles={A, B, c},
                           projected=(c, last))


class TestPostorder:
    def test_left_to_right_post_order(self):
        inner = Com(B, A, ((Ok, END),))
        leaf = Recur(X)
        g = Loop(X, Com(A, B, ((Ok, inner), (Propose, leaf))))
        order = postorder(g)
        expected = [inner.branches[0][1], inner, leaf, g.body, g]
        assert len(order) == len(expected)
        assert all(x is y for x, y in zip(order, expected))
        assert subterms is postorder

    def test_shared_subterm_listed_at_each_path(self):
        shared = Send(A, B, ((Ok, END),))
        t = Send(A, B, ((Ok, shared), (Propose, shared)))
        assert [x is shared for x in postorder(t)] == [False, True, False, True, False]
        assert type_to_json(t)["branches"][0][1] == type_to_json(t)["branches"][1][1]

    def test_shared_walk_is_postorder_until_a_choice_repeats(self):
        chain = Send(A, B, ((Ok, END),))  # repeated, but no choice is
        t = Send(A, B, ((Ok, chain), (Propose, chain)))
        order = shared_postorder(t)
        assert len(order) == 5 and all(x is y for x, y in zip(order, postorder(t)))

    def test_shared_walk_expands_a_repeated_object_once(self):
        back = Recur(X)
        choice = Send(A, B, ((Ok, END), (Propose, back)))
        step = Send(A, B, ((Ok, choice),))
        t = Loop(X, Send(A, B, ((Ok, step), (Propose, choice), (Sort("Quit"), step))))
        order = shared_postorder(t)
        # a Repeat follows each repeated object's expansion and stands for
        # it at each later meeting
        kept_choice, kept_step = order[3], order[5]
        assert type(kept_choice) is Repeat and type(kept_step) is Repeat
        expected = [END, back, choice, kept_choice, step, kept_step,
                    kept_choice, kept_step, t.body, t]
        assert len(order) == len(expected)
        assert all(x is y for x, y in zip(order, expected))
        assert free_rec_vars(t.body) == {X} and roles_of(t) == {A, B}

    @pytest.mark.parametrize("walk", [
        "postorder", "subterms", "free_rec_vars", "roles_of", "type_to_json",
        "project", "restrict_to_partner", "interpret", "dual",
    ])
    def test_walks_run_at_any_depth(self, long_types, walk):
        g, a, b = long_types.g, long_types.a, long_types.b
        if walk == "postorder":
            order = postorder(g)
            assert len(order) == STEPS + 2 and order[-1] is g and order[0] is not g
        elif walk == "subterms":
            assert len(subterms(a)) == STEPS + 2 and subterms(a)[-1] is a
        elif walk == "free_rec_vars":
            assert free_rec_vars(g) == set() and free_rec_vars(g.body) == {X}
            assert free_rec_vars(a.body) == {X}
        elif walk == "roles_of":
            assert roles_of(g) == roles_of(a) == long_types.roles
        elif walk == "type_to_json":
            for t in (g, a):
                assert struct_eq(type_from_json(type_to_json(t)), t)
        elif walk == "project":
            role, expected = long_types.projected
            assert struct_eq(project(g, role), expected)
        elif walk == "restrict_to_partner":
            assert struct_eq(restrict_to_partner(b, A), b)  # B talks only to A
        elif walk == "interpret":
            assert len(interpret(a).states) == STEPS  # A acts in every step
        else:
            assert dual(restrict_to_partner(a, B), b)
            assert not dual(a, a)


class TestJson:
    def test_roundtrip_corpus(self):
        for t in (negotiation_global(), negotiation_local_b(),
                  helpers.two_buyer_purchase_global(), helpers.seller_decision_local()):
            data = type_to_json(t)
            assert struct_eq(type_from_json(data), t)

    def test_byte_stable(self):
        t = alpha_normalize(negotiation_local_b())
        text = json.dumps(type_to_json(t), separators=(",", ":"))
        assert text == json.dumps(type_to_json(t), separators=(",", ":"))

    def test_tagged_union_shape(self):
        data = type_to_json(Com(A, B, ((Ok, END),)))
        assert data["kind"] == "com"
        assert data["from"] == "A" and data["to"] == "B"
        assert data["branches"][0][0]["name"] == "Ok"
        assert data["branches"][0][1] == {"kind": "end"}

    def test_long_type_roundtrip(self):
        for t in (long_chain(5000)[0], helpers.long_global(5000)):
            data = type_to_json(t)
            node, steps = data, 0
            while node["kind"] != "recur":
                if node["kind"] == "loop":
                    assert list(node) == ["kind", "var", "body"]
                    node = node["body"]
                else:
                    assert list(node) == ["kind", "from", "to", "branches"]
                    node = node["branches"][0][1]
                    steps += 1
            assert steps == 5000
            back = type_from_json(data)
            assert str(back) == str(t)
            assert struct_eq(back, t)

    def test_endpoint_sort_roundtrip(self):
        from mpstkit.core import EndpointPayload, sort_from_json, sort_to_json

        s = Sort("Delegatee", EndpointPayload(B, Send(B, A, ((Ok, END),))))
        back = sort_from_json(sort_to_json(s))
        assert back == s


class TestRender:
    def test_long_type_renders_without_recursion(self):
        sends, recvs = long_chain(3000)
        steps = " . ".join(f"A -> B ! M{i}" for i in range(3000))
        assert str(sends) == f"rec X . {steps} . X"
        assert str(recvs) == f"rec X . {steps.replace(' ! ', ' ? ')} . X"

    def test_branch_lists(self):
        one = Com(A, B, ((Ok, END),))
        assert str(one) == "A -> B : Ok . end"
        two = Send(A, B, ((Ok, END), (Propose, Recur(X))))
        assert str(Loop(X, two)) == "rec X . A -> B ! { Ok . end, Propose . X }"
        assert str(Recv(A, B, ())) == "A -> B ? {  }"


_M = Sort("M")
_STEP = ((_M, END),)


@pytest.mark.parametrize(
    "value",
    [
        A, X, _M, EndpointPayload(B, Send(B, A, _STEP)), END, Loop(X, Recur(X)), Recur(X),
        Com(A, B, _STEP), Send(A, B, _STEP), Recv(A, B, _STEP),
        Message(_M, 1), TraceEvent(1, A, B, _M, None), Action("send", B, A, _M),
    ],
    ids=lambda v: type(v).__name__,
)
def test_shared_values_stay_frozen(value):
    # type values and the runtime's values are shared between threads and
    # handed to callers, so assigning a field must fail
    name = dataclasses.fields(value)[0].name if dataclasses.fields(value) else "tag"
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, name, None)
