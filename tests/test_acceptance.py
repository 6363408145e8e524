"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with the measured result when it holds.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import threading
import time

from mpstkit.cli import bench_file, run_protocol_file
from mpstkit.consistency import consistent
from mpstkit.core import Role, Sort, struct_eq, unfold, well_formed, Loop, RecVar
from mpstkit.elaborate import load_text
from mpstkit.fsm import interpret, isomorphic
from mpstkit.projection import MergeError, merge, project
from mpstkit.runtime import LinearityFault, new_global_session
from mpstkit.typecheck import (
    ErrorClass,
    RecvT,
    SendT,
    SessionState,
    TypingEnv,
    check_process,
    check_session,
)

import conftest
from helpers import (
    accepts_trace,
    eq_modulo_branch_order,
    manual_dual,
    mergeable_pair,
    negotiation_global,
    negotiation_local_b,
    random_global,
    random_local,
    seeded,
    seller_decision_local,
    synthesize_process,
)
from test_fsm import reference_responder_fsm


def report(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_projection_golden():
    """Projections match the published local types exactly."""
    start = time.perf_counter()
    negotiation = conftest.load_fixture("negotiation.mpst")
    projected_b = project(negotiation.concrete["Negotiation"], Role("B"))
    assert struct_eq(projected_b, negotiation_local_b())

    two_buyer = conftest.load_fixture("two_buyer.mpst")
    projected_s = project(two_buyer.concrete["Decision"], Role("S"))
    assert struct_eq(projected_s, seller_decision_local())
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"projection golden tests exact ({elapsed * 1000:.0f} ms)")


def test_criterion_2_consistency_truth_table():
    """Exact boolean verdicts for every corpus fixture."""
    failures = []
    for fixture, names in sorted(conftest.CONSISTENT_FIXTURES.items()):
        pf = conftest.load_fixture(fixture)
        for name in names:
            if not consistent(pf.concrete[name]).consistent:
                failures.append(f"{fixture}:{name} expected consistent")
    for fixture, names in sorted(conftest.INCONSISTENT_FIXTURES.items()):
        pf = conftest.load_fixture(fixture)
        for name in names:
            if consistent(pf.concrete[name]).consistent:
                failures.append(f"{fixture}:{name} expected inconsistent")
    assert failures == []
    total = sum(len(v) for v in conftest.CONSISTENT_FIXTURES.values()) + sum(
        len(v) for v in conftest.INCONSISTENT_FIXTURES.values()
    )
    report(2, f"consistency truth table exact on {total} protocols")


def test_criterion_3_mutation_suite():
    """Four static mutations with designated classes, one dynamic fault."""
    expectations = {
        "negotiation_wrong_sort.mpst": ("send A Reject", ErrorClass.WRONG_SORT),
        "negotiation_wrong_peer.mpst": ("send C Confirm", ErrorClass.WRONG_PEER),
        "negotiation_wrong_action.mpst": (
            "recv A { Confirm(_) -> end }",
            ErrorClass.WRONG_ACTION_KIND,
        ),
        "negotiation_wrong_recur.mpst": (
            "recur[error] X",
            ErrorClass.WRONG_RECURSIVE_TYPE,
        ),
    }
    passed = 0
    for name, (needle, wanted) in expectations.items():
        text = conftest.fixture_path(f"mutations/{name}").read_text()
        result = check_session(load_text(text))
        diags = result.all_diagnostics()
        line = next(
            i for i, l in enumerate(text.splitlines(), 1) if needle in l
        )
        hits = [d for d in diags if d.cls == wanted and d.pos and d.pos[0] == line]
        assert hits, f"{name}: no {wanted} at line {line}; got {diags}"
        passed += 1

    # dynamic half: recur(s); recur(s) with no static checks in the way
    session = new_global_session(negotiation_global())
    states = {}

    def side_b():
        ep = session.init("B")
        _, ep = ep.recv("A")
        ep = ep.enter_loop()
        ep = ep.send("A", Sort("Propose", "int"), 11)
        _, ep = ep.recv("A")
        states["at_loop"] = ep  # back at the loop entry, ready to recur

    t = threading.Thread(target=side_b, daemon=True)
    t.start()
    a = session.init("A")
    a = a.send("B", Sort("Propose", "int"), 5)
    _, a = a.recv("B")
    a = a.send("B", Sort("Propose", "int"), 6)
    t.join(timeout=5)
    handle = states["at_loop"]
    handle.recur()
    fault = None
    try:
        handle.recur()
    except LinearityFault as e:
        fault = e
    assert fault is not None and "recur" in str(fault)
    passed += 1

    # the same fault surfaces when the statically rejected alias fixture is
    # forced to run
    bad = load_text(
        conftest.fixture_path("mutations/negotiation_wrong_recur.mpst").read_text()
    )
    _, _, faults = run_protocol_file(bad, timeout=2.0)
    assert any(isinstance(e, LinearityFault) for _, e in faults)
    assert passed == 5
    report(3, "mutation suite 5/5 (4 static classes at mutated lines + linearity fault)")


def test_criterion_4_trace_replay_100_runs():
    """The scripted session reproduces the published run exactly, 100 times."""
    expected = [
        "seq 1: A -> B : Propose(5)",
        "seq 2: B -> A : Propose(11)",
        "seq 3: A -> B : Propose(6)",
        "seq 4: B -> A : Propose(11)",
        "seq 5: A -> B : Reject",
    ]
    pf = conftest.load_fixture("negotiation.mpst")
    for i in range(100):
        sessions, results, faults = run_protocol_file(pf, timeout=10.0)
        assert faults == [], f"run {i}: {faults}"
        assert sessions["Negotiation"].trace_lines() == expected, f"run {i}"
    report(4, "negotiation trace [Propose(5), Propose(11), Propose(6), "
              "Propose(11), Reject] deterministic over 100 runs")


def test_criterion_5_delegation():
    """Both sessions complete; the seller script is byte-identical to the
    two-buyer one; use after delegation faults."""
    two = conftest.fixture_path("two_buyer.mpst").read_text()
    three = conftest.fixture_path("three_buyer.mpst").read_text()
    seller_two = two[two.index("proc seller") :]
    seller_three = three[three.index("proc seller") :]
    assert seller_two == seller_three

    pf = conftest.load_fixture("three_buyer.mpst")
    sessions, results, faults = run_protocol_file(pf, timeout=10.0)
    assert faults == []
    for result in results.values():
        assert result.all_terminated
    assert {a.peer.name for a in results["seller"].actions} <= {"B1", "B2"}

    # use after delegation: the retained handle is dead
    bad = three.replace(
        "      send[u] B3 Delegatee(s);\n",
        "      send[u] B3 Delegatee(s);\n      send[s] B1 Quit;\n",
    )
    assert bad != three
    bad_pf = load_text(bad)
    static = check_session(bad_pf)
    assert any(
        d.cls == ErrorClass.LINEARITY_REUSE for d in static.all_diagnostics()
    )
    _, _, faults = run_protocol_file(bad_pf, timeout=2.0)
    assert any(isinstance(e, LinearityFault) for _, e in faults)
    report(5, "three-buyer delegation completes; seller byte-identical; "
              "use-after-delegation faults statically and dynamically")


def test_criterion_6_fsm_shape():
    """The responder's machine has 6 states, 9 transitions, one final state,
    and is isomorphic to the reference machine under canonical numbering."""
    machine = interpret(project(negotiation_global(), Role("B")))
    assert len(machine.states) == 6
    assert len(machine.transitions) == 9
    assert len(machine.finals) == 1
    assert isomorphic(machine, reference_responder_fsm())
    report(6, "responder FSM 6 states / 9 transitions / unique final, "
              "isomorphic to the reference machine")


def test_criterion_7_property_suites():
    """Bulk randomized properties, zero failures allowed."""
    # merge idempotence and commutativity over projectable types
    rng = seeded(101)
    roles = ["A", "B", "C"]
    projectable = 0
    commuted = 0
    while projectable < 1000:
        g = random_global(rng, roles, depth=4)
        if well_formed(g):
            continue
        for role in roles:
            try:
                local = project(g, Role(role))
            except Exception:
                continue
            projectable += 1
            assert struct_eq(merge(local, local), local)
            head = unfold(local)
            if hasattr(head, "branches") and len(getattr(head, "branches", ())) >= 2:
                a, b = mergeable_pair(rng, head)
                try:
                    ab, ba = merge(a, b), merge(b, a)
                except MergeError:
                    continue
                commuted += 1
                assert eq_modulo_branch_order(ab, ba)
    assert commuted > 200

    # duality against the syntactic flip oracle
    rng = seeded(103)
    checked = 0
    from mpstkit.consistency import dual

    while checked < 1000:
        l = random_local(rng, Role("A"), Role("B"), depth=4)
        if well_formed(l):
            continue
        checked += 1
        assert dual(l, manual_dual(l))

    # unfold stability of process checking on loop-headed types
    rng = seeded(107)
    stable = 0
    while stable < 200:
        body = random_local(
            rng, Role("B"), Role("A"), depth=3, bound=(RecVar("X"),), must_act=True
        )
        loop = Loop(RecVar("X"), body)
        if well_formed(loop) or isinstance(body, Loop):
            continue
        term = synthesize_process(unfold(loop))
        if not isinstance(term, (SendT, RecvT)):
            continue
        stable += 1
        folded = TypingEnv(sessions={"s": SessionState(Role("B"), loop)})
        unfolded = TypingEnv(
            sessions={"s": SessionState(Role("B"), unfold(loop))}
        )
        assert check_process(folded, term) == []
        assert check_process(unfolded, term) == []

    # trace-safety replay over the runnable corpus
    replayed = 0
    for fixture in conftest.RUNNABLE_FIXTURES:
        pf = conftest.load_fixture(fixture)
        sessions, results, faults = run_protocol_file(pf, timeout=10.0)
        assert faults == [], f"{fixture}: {faults}"
        for name, session in sessions.items():
            events = [(e.sender, e.receiver, e.sort.name) for e in session.trace]
            assert accepts_trace(pf.concrete[name], events), f"{fixture}:{name}"
            replayed += 1
    report(7, f"properties: {projectable} merge / 1000 duality / 200 unfold-"
              f"stability cases, {replayed} traces replayed, zero failures")


def test_criterion_8_check_time_budget():
    """Full check with consistency stays under 100 ms per paper fixture,
    averaged over 31 repeats."""
    budget_ms = 100.0
    rows = []
    for fixture in ("negotiation.mpst", "two_buyer.mpst", "three_buyer.mpst",
                    "authorisation.mpst"):
        mean, stdev, _ = bench_file(str(conftest.fixture_path(fixture)), repeat=31)
        rows.append((fixture, mean, stdev))
        assert mean < budget_ms, f"{fixture}: {mean:.1f} ms >= {budget_ms} ms"
    table = ", ".join(f"{n} {m:.1f}±{s:.1f} ms" for n, m, s in rows)
    report(8, f"check-with-consistency under {budget_ms:.0f} ms: {table}")
