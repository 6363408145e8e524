"""FSM interpretation of local types and DOT export."""

import pytest

from mpstkit.core import (
    END,
    Loop,
    Recur,
    RecVar,
    Role,
    Send,
    Sort,
    UnfoldError,
    alpha_normalize,
    subterms,
    well_formed,
)
from mpstkit.fsm import Action, Fsm, canonical, interpret, isomorphic, to_dot
from mpstkit.projection import project

from helpers import (
    A,
    B,
    fsm_paths,
    long_chain,
    negotiation_global,
    negotiation_local_b,
    oracle_interpret,
    random_local,
    seeded,
    seller_decision_local,
    type_paths,
)

Ok = Sort("Ok")


def reference_responder_fsm() -> Fsm:
    """The responder's machine, written out state by state: six states, nine
    transitions, one final state."""
    send = lambda frm, to, sort: Action("send", Role(to), Role(frm), Sort(sort))
    recv = lambda frm, to, sort: Action("recv", Role(frm), Role(to), Sort(sort))
    return Fsm(
        states=[1, 2, 3, 4, 5, 6],
        initial=1,
        finals={5},
        transitions=[
            (1, recv("A", "B", "Propose"), 2),
            (2, send("B", "A", "Propose"), 3),
            (2, send("B", "A", "Accept"), 4),
            (2, send("B", "A", "Reject"), 5),
            (3, recv("A", "B", "Propose"), 2),
            (3, recv("A", "B", "Reject"), 5),
            (3, recv("A", "B", "Accept"), 6),
            (4, recv("A", "B", "Confirm"), 5),
            (6, send("B", "A", "Confirm"), 5),
        ],
    )


class TestInterpret:
    def test_responder_machine_shape(self):
        machine = interpret(project(negotiation_global(), B))
        assert len(machine.states) == 6
        assert len(machine.transitions) == 9
        assert len(machine.finals) == 1
        assert machine.initial == 1

    def test_responder_isomorphic_to_reference(self):
        machine = interpret(project(negotiation_global(), B))
        assert isomorphic(machine, reference_responder_fsm())

    def test_end_machine(self):
        machine = interpret(END)
        assert machine.states == [1]
        assert machine.transitions == []
        assert machine.finals == {1}

    def test_self_loop(self):
        x = RecVar("X")
        machine = interpret(Loop(x, Send(A, B, ((Ok, Recur(x)),))))
        assert machine.states == [1]
        assert machine.finals == set()
        assert len(machine.transitions) == 1
        src, action, dst = machine.transitions[0]
        assert (src, dst) == (1, 1)
        assert action.label() == "AB!Ok"

    def test_loop_entry_states_shared(self):
        # re-entering the loop reuses the state instead of minting a new one
        machine = interpret(negotiation_local_b())
        back_edges = [t for t in machine.transitions if t[2] <= t[0]]
        assert back_edges

    def test_isomorphic_under_alpha_renaming(self):
        rng = seeded(61)
        for _ in range(100):
            l = random_local(rng, B, A, depth=4)
            if well_formed(l):
                continue
            assert isomorphic(interpret(l), interpret(alpha_normalize(l)))

    def test_long_chain_is_stack_safe(self):
        sends, _ = long_chain(5000)
        machine = interpret(sends)
        assert len(machine.states) == 5000
        assert machine.transitions[-1][2] == machine.initial

    def test_states_tell_binders_apart(self):
        # the two inner loops differ only in which binder each Recur names:
        # different terms, so the states reached through them stay apart
        x, y = RecVar("X"), RecVar("Y")
        go, stay = Sort("Go"), Sort("Stay")

        def loops(first, second):
            inner = Send(A, B, ((go, Recur(first)), (stay, Recur(second))))
            return Send(A, B, ((Ok, Loop(x, Send(A, B, ((Ok, Loop(y, inner)),)))),))

        l = Send(A, B, ((go, loops(x, y)), (stay, loops(y, x))))
        machine = interpret(l)
        assert len(machine.states) == 7
        assert machine == oracle_interpret(l)

    def test_states_tell_closures_apart(self):
        # `A -> B ! Ok . X` occurs in two loops; closed, the two are different
        # terms, so they are two states
        x = RecVar("X")
        go = Sort("Go")
        first = Loop(x, Send(A, B, ((Ok, Recur(x)),)))
        second = Loop(x, Send(A, B, ((go, Send(A, B, ((Ok, Recur(x)),))),)))
        l = Send(A, B, ((go, first), (Ok, second)))
        machine = interpret(l)
        assert len(machine.states) == 4
        assert machine == oracle_interpret(l)

    def test_non_contractive_raises(self):
        x, y = RecVar("X"), RecVar("Y")
        for l in (Loop(x, Recur(x)), Send(A, B, ((Ok, Loop(x, Loop(y, Recur(x)))),))):
            with pytest.raises(UnfoldError):
                interpret(l)

    def test_state_count_budget(self):
        for l in (negotiation_local_b(), seller_decision_local()):
            machine = interpret(l)
            size = sum(1 for _ in subterms(l))
            assert len(machine.states) <= 10 * size


class TestLanguageAgreement:
    def test_paths_up_to_six_on_corpus_types(self):
        import conftest

        corpus = [negotiation_local_b(), seller_decision_local()]
        for fixture, role in (
            ("http.mpst", "C"),
            ("smtp.mpst", "S"),
            ("game.mpst", "A"),
            ("adder.mpst", "S"),
        ):
            pf = conftest.load_fixture(fixture)
            name = next(iter(pf.concrete))
            corpus.append(project(pf.concrete[name], Role(role)))
        for l in corpus:
            machine = interpret(l)
            for k in range(1, 7):
                assert type_paths(l, k) == fsm_paths(machine, k)

    def test_paths_on_random_types(self):
        rng = seeded(67)
        done = 0
        while done < 60:
            l = random_local(rng, B, A, depth=4)
            if well_formed(l):
                continue
            done += 1
            assert type_paths(l, 5) == fsm_paths(interpret(l), 5)


class TestDot:
    def test_end_machine_doublecircle(self):
        dot = to_dot(interpret(END))
        assert "doublecircle" in dot
        assert dot.startswith("digraph")

    def test_responder_labels_match_reference_edge_set(self):
        machine = interpret(project(negotiation_global(), B))
        dot = to_dot(machine)
        for label in ("AB?Propose", "BA!Propose", "BA!Accept", "BA!Reject",
                      "AB?Reject", "AB?Accept", "AB?Confirm", "BA!Confirm"):
            assert label in dot
        assert dot.count("->") == 9 + 1  # nine transitions plus the start arrow

    def test_deterministic(self):
        machine = interpret(negotiation_local_b())
        assert to_dot(machine) == to_dot(machine)
        again = interpret(negotiation_local_b())
        assert to_dot(again) == to_dot(machine)


class TestCanonical:
    def test_canonical_fixes_numbering(self):
        machine = interpret(negotiation_local_b())
        ref = reference_responder_fsm()
        assert canonical(machine).transitions == canonical(ref).transitions
        assert canonical(machine).finals == canonical(ref).finals

    def test_non_isomorphic_detected(self):
        a = interpret(negotiation_local_b())
        b = interpret(seller_decision_local())
        assert not isomorphic(a, b)
