"""Static process checking: the typing rules, the error catalogue, and the
linear session discipline."""

import pytest

from mpstkit import core, typecheck
from mpstkit.core import (
    END,
    EndpointPayload,
    Loop,
    Recur,
    RecVar,
    Role,
    Send,
    Sort,
    struct_eq,
    unfold,
    well_formed,
)
from mpstkit.cli import run_protocol_file
from mpstkit.elaborate import ProcDecl, ProtocolFile, load_text
from mpstkit.runtime import RuntimeFault
from mpstkit.projection import project
from mpstkit.typecheck import (
    EndpointType,
    ErrorClass,
    EndT,
    Field,
    IfT,
    IntLit,
    LoopT,
    Lt,
    RecurT,
    RecvArm,
    RecvT,
    SendT,
    NewSort,
    SessionState,
    TypingEnv,
    VarRef,
    check_expr,
    check_process,
    check_session,
)

import conftest
from helpers import (
    A,
    B,
    ROOT,
    benchmark_inputs,
    long_chain,
    oracle_check_session,
    random_local,
    seeded,
    synthesize_process,
)

Propose = Sort("Propose", "int")
Ok = Sort("Ok")


def classes(diags):
    return [d.cls for d in diags]


def line_of(text: str, needle: str) -> int:
    for i, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return i
    raise AssertionError(f"{needle!r} not found")


class TestCheckExpr:
    def test_int_literal(self):
        t, diags = check_expr(TypingEnv(), IntLit(0))
        assert t == "int" and diags == []

    def test_comparison_on_message_payload(self):
        env = TypingEnv(data={"v": Propose})
        t, diags = check_expr(env, Lt(Field(VarRef("v")), IntLit(11)))
        assert t == "bool" and diags == []

    def test_session_reference_is_an_endpoint(self, two_buyer):
        decision_b2 = project(two_buyer.concrete["Decision"], Role("B2"))
        env = TypingEnv(sessions={"s": SessionState(Role("B2"), decision_b2)})
        t, diags = check_expr(env, VarRef("s"))
        assert isinstance(t, EndpointType)
        assert t.role == Role("B2")
        assert struct_eq(t.local, decision_b2)
        assert diags == []

    def test_unbound_variable(self):
        t, diags = check_expr(TypingEnv(), VarRef("nope"))
        assert t is None
        assert classes(diags) == [ErrorClass.UNBOUND_VARIABLE]

    def test_arithmetic_needs_ints(self):
        env = TypingEnv(data={"v": "string"})
        _, diags = check_expr(env, Lt(VarRef("v"), IntLit(1)))
        assert ErrorClass.EXPR_TYPE in classes(diags)

    def test_field_on_payloadless_sort(self):
        env = TypingEnv(data={"v": Ok})
        _, diags = check_expr(env, Field(VarRef("v")))
        assert ErrorClass.EXPR_TYPE in classes(diags)


class TestFixtureProcesses:
    def test_negotiation_both_processes_ok(self, negotiation):
        result = check_session(negotiation)
        assert result.ok
        assert result.warnings == []

    def test_two_buyer_ok(self, two_buyer):
        assert check_session(two_buyer).ok

    def test_three_buyer_ok_with_two_session_vars(self, three_buyer):
        result = check_session(three_buyer)
        assert result.ok
        buyer2 = next(p for p in three_buyer.procs if p.name == "buyer2")
        assert [v for _, _, v in buyer2.bindings] == ["s", "u"]

    def test_missing_process_is_a_warning(self):
        text = conftest.fixture_path("negotiation.mpst").read_text()
        # drop the responder's process
        cut = text[: text.index("proc bob")]
        result = check_session(load_text(cut))
        assert result.ok
        assert any("role B" in w and "unimplemented" in w for w in result.warnings)


class TestExampleCatalogue:
    """The four static mutations, each with its designated error class at
    the mutated location, plus the linearity diagnostics of the alias one."""

    def run_mutation(self, name):
        text = conftest.fixture_path(f"mutations/{name}").read_text()
        result = check_session(load_text(text))
        assert not result.ok
        return text, result.all_diagnostics()

    def test_wrong_data_type(self):
        text, diags = self.run_mutation("negotiation_wrong_sort.mpst")
        assert classes(diags) == [ErrorClass.WRONG_SORT]
        assert diags[0].pos[0] == line_of(text, "send A Reject")

    def test_wrong_receiver(self):
        text, diags = self.run_mutation("negotiation_wrong_peer.mpst")
        assert classes(diags) == [ErrorClass.WRONG_PEER]
        assert diags[0].pos[0] == line_of(text, "send C Confirm")
        assert diags[0].expected == "A" and diags[0].found == "C"

    def test_wrong_communication_action(self):
        text, diags = self.run_mutation("negotiation_wrong_action.mpst")
        assert classes(diags) == [ErrorClass.WRONG_ACTION_KIND]
        assert diags[0].pos[0] == line_of(text, "recv A { Confirm(_) -> end }")

    def test_wrong_recursive_type_via_stale_alias(self):
        text, diags = self.run_mutation("negotiation_wrong_recur.mpst")
        got = classes(diags)
        assert ErrorClass.LINEARITY_REUSE in got
        assert ErrorClass.WRONG_RECURSIVE_TYPE in got
        reuse = next(d for d in diags if d.cls == ErrorClass.LINEARITY_REUSE)
        stale = next(d for d in diags if d.cls == ErrorClass.WRONG_RECURSIVE_TYPE)
        assert reuse.pos[0] == line_of(text, "send A Propose(11)")
        assert stale.pos[0] == line_of(text, "recur[error] X")

    def test_recur_at_wrong_type(self):
        text = """
sort Propose(int); sort Accept; sort Reject; sort Confirm;
global Negotiation =
  A -> B : Propose . rec X . B -> A : {
    Accept  . A -> B : Confirm . end,
    Reject  . end,
    Propose . A -> B : { Accept . B -> A : Confirm . end,
                         Reject . end, Propose . X } };
proc bob plays B in Negotiation {
  recv A { Propose(v) ->
    loop X {
      send A Propose(11);
      recv A { Accept(_)  -> recur X
             , Reject(_)  -> end
             , Propose(_) -> recur X } } }
}
"""
        result = check_session(load_text(text))
        diags = result.all_diagnostics()
        assert ErrorClass.WRONG_RECURSIVE_TYPE in classes(diags)
        bad = next(d for d in diags if d.cls == ErrorClass.WRONG_RECURSIVE_TYPE)
        assert "loop-entry" in bad.message


_SORTS = "sort Ping; sort Num(int);\n"
_PING = _SORTS + "global P = A -> B : Ping . end;\n"
_LOOP = _SORTS + "global P = rec X . A -> B : Ping . X;\n"
_TWO = _SORTS + """global P = A -> B : Num . end;
global Q = A -> C : Ping . end;
"""

# (id, file, class, message, a text on the reported line); each file yields
# exactly that one diagnostic
DIAGNOSTIC_CATALOGUE = [
    ("session-as-data", _PING + """proc a plays A in P {
  let x = s - 1;
  send B Ping; end }""",
     ErrorClass.EXPR_TYPE, "session variable s used as data", "let x"),
    ("dead-session-as-data", _PING + """proc a plays A in P {
  let t = s;
  let x = s - 1;
  send[t] B Ping; end }""",
     ErrorClass.LINEARITY_REUSE, "use of dead session variable s (aliased to t)", "let x"),
    ("field-of-non-message", _PING + """proc a plays A in P {
  let x = 1;
  let y = x.value;
  send B Ping; end }""",
     ErrorClass.EXPR_TYPE, "field access on a non-message value", "let y"),
    ("payload-for-payloadless-sort", _PING + """proc a plays A in P {
  send B Ping(1); end }""",
     ErrorClass.EXPR_TYPE, "sort Ping takes no payload", "send B"),
    ("missing-payload", _TWO + """proc a plays A in P as s, A in Q as u {
  send[s] B Num;
  send[u] C Ping; end }""",
     ErrorClass.EXPR_TYPE, "sort Num takes exactly one payload argument", "send[s]"),
    ("payload-of-wrong-type", _TWO + """proc a plays A in P as s, A in Q as u {
  send[s] B Num("x");
  send[u] C Ping; end }""",
     ErrorClass.EXPR_TYPE, "payload of sort Num has the wrong type", "send[s]"),
    ("session-to-data-sort", _TWO + """proc a plays A in P as s, A in Q as u {
  send[s] B Num(u);
  send[u] C Ping; end }""",
     ErrorClass.WRONG_SORT, "sort Num does not carry an endpoint", "send[s]"),
    ("non-boolean-condition", _PING + """proc a plays A in P {
  if 1 then { send B Ping; end } else { send B Ping; end } }""",
     ErrorClass.EXPR_TYPE, "condition is not a boolean", "if 1"),
    ("send-where-protocol-receives", _SORTS + """global P = B -> A : Ping . end;
proc a plays A in P {
  send B Ping; end }""",
     ErrorClass.WRONG_ACTION_KIND, "protocol does not allow a send here", "send B"),
    ("receive-from-wrong-role", _SORTS + """global P = B -> A : Ping . C -> A : Ping . end;
proc a plays A in P {
  recv C { Ping(_) -> recv B { Ping(_) -> end } } }""",
     ErrorClass.WRONG_PEER, "receive awaits the wrong role", "recv C"),
    ("loop-where-protocol-does-not", _PING + """proc a plays A in P {
  loop X { send B Ping; end } }""",
     ErrorClass.WRONG_ACTION_KIND, "protocol does not loop here", "loop X"),
    ("recur-without-its-loop", _LOOP + """proc a plays A in P {
  loop X { send B Ping;
    recur Y } }""",
     ErrorClass.WRONG_RECURSIVE_TYPE, "no enclosing loop Y for session s", "recur Y"),
    ("session-opened-in-loop", _LOOP + """global Q = A -> C : Ping . end;
proc a plays A in P as s, A in Q as u {
  loop X {
    let t = u;
    send[s] B Ping;
    recur X } }""",
     ErrorClass.NON_TERMINATED_SESSION,
     "session t was opened inside the loop body and is still live at recur", "recur X"),
    ("unknown-result-variable", _PING + """proc a plays A in P {
  send B Ping;
  end(r) }""",
     ErrorClass.UNBOUND_VARIABLE, "unknown result variable r", "end(r)"),
    ("let-shadows-session", _PING + """proc a plays A in P {
  let s = 1;
  send B Ping; end }""",
     ErrorClass.LINEARITY_REUSE, "binding s would shadow a live session", "let s"),
    ("plays-a-generic-protocol", _SORTS + """global G[X: role, Y: role] = X -> Y : Ping . end;
proc a plays A in G { end }""",
     ErrorClass.UNBOUND_VARIABLE, "protocol G is generic", "proc a"),
    ("unprojectable-role", _SORTS + """sort L; sort R;
global P = A -> B : { L . C -> A : Ping . end, R . C -> A : Num . end };
proc c plays C in P { end }""",
     ErrorClass.PROJECTION_FAILED,
     "cannot project P onto C: global type is not projectable onto C (at $):"
     " sends offer different sorts", "proc c"),
    ("duplicate-branch-projection", _SORTS + """global D = A -> B : { Ping . end, Ping . end };
proc a plays A in D { send B Ping; end }""",
     ErrorClass.PROJECTION_FAILED,
     "cannot project D onto A: the projection is not well formed"
     " ($: duplicate branch sort: Ping)", "proc a"),
    ("self-communication-projection", _SORTS + """global D = A -> A : Ping . end;
proc a plays A in D { send A Ping; end }""",
     ErrorClass.PROJECTION_FAILED,
     "cannot project D onto A: the projection is not well formed"
     " ($: sender equals receiver: A)", "proc a"),
]


@pytest.mark.parametrize(
    "text, cls, message, needle",
    [case[1:] for case in DIAGNOSTIC_CATALOGUE],
    ids=[case[0] for case in DIAGNOSTIC_CATALOGUE],
)
def test_diagnostic_catalogue(text, cls, message, needle):
    diags = check_session(load_text(text)).all_diagnostics()
    assert [(d.cls, d.message, d.pos[0]) for d in diags] == [
        (cls, message, line_of(text, needle))
    ]


def test_a_file_without_the_protocol_names_it_unknown():
    # built through the API, with no definition of G at all
    pf = ProtocolFile(procs=[ProcDecl("a", ((Role("A"), "G", "s"),), EndT())])
    assert not pf.is_generic("G")
    diags = check_session(pf).all_diagnostics()
    assert [(d.cls, d.message) for d in diags] == [
        (ErrorClass.UNBOUND_VARIABLE, "unknown protocol G")
    ]


def test_a_projection_is_decided_once_for_every_process_that_plays_it(monkeypatch):
    proc = "proc {} plays A in G {{ loop X {{ send B M; recur X }} }}\n"
    text = "sort M;\nglobal G = rec X . A -> B : M . X;\n"
    guarded = []
    monkeypatch.setattr(core, "is_guarded", lambda v, b: guarded.append(v) or True)
    for procs in (["a"], ["a", "b", "c"]):
        pf = load_text(text + "".join(proc.format(name) for name in procs))
        guarded.clear()
        assert check_session(pf).ok
        assert guarded == [RecVar("X")]  # the one loop of A's projection
        local = pf.projection("G", Role("A"))
        assert pf.verdicts[id(local)] == [local, frozenset()]


def test_running_a_file_without_the_protocol_names_it_unknown():
    pf = ProtocolFile(procs=[ProcDecl("a", ((Role("A"), "G", "s"),), EndT())])
    with pytest.raises(RuntimeFault, match="^cannot run G: unknown protocol G$"):
        run_protocol_file(pf)


class TestSendRecvAsymmetry:
    """A send may implement any one offered branch; a receive must
    implement them all."""

    @pytest.mark.parametrize("choice", ["Accept", "Reject", "Propose"])
    def test_any_single_send_branch_checks(self, choice):
        conts = {
            "Accept": "recv A { Confirm(_) -> end }",
            "Reject": "end",
            "Propose": "recv A { Accept(_) -> send A Confirm; end\n"
                       "       , Reject(_) -> end\n"
                       "       , Propose(_) -> recur X }",
        }
        payload = "Propose(11)" if choice == "Propose" else choice
        text = f"""
sort Propose(int); sort Accept; sort Reject; sort Confirm;
global Negotiation =
  A -> B : Propose . rec X . B -> A : {{
    Accept  . A -> B : Confirm . end,
    Reject  . end,
    Propose . A -> B : {{ Accept . B -> A : Confirm . end,
                         Reject . end, Propose . X }} }};
proc bob plays B in Negotiation {{
  recv A {{ Propose(v) ->
    loop X {{
      send A {payload};
      {conts[choice]} }} }}
}}
"""
        assert check_session(load_text(text)).ok

    def test_omitting_a_receive_branch_fails(self):
        text = """
sort Propose(int); sort Accept; sort Reject; sort Confirm;
global Negotiation =
  A -> B : Propose . rec X . B -> A : {
    Accept  . A -> B : Confirm . end,
    Reject  . end,
    Propose . A -> B : { Accept . B -> A : Confirm . end,
                         Reject . end, Propose . X } };
proc bob plays B in Negotiation {
  recv A { Propose(v) ->
    loop X {
      send A Propose(11);
      recv A { Accept(_) -> send A Confirm; end
             , Reject(_) -> end } } }
}
"""
        diags = check_session(load_text(text)).all_diagnostics()
        assert ErrorClass.MISSING_RECV_BRANCH in classes(diags)
        bad = next(d for d in diags if d.cls == ErrorClass.MISSING_RECV_BRANCH)
        assert "Propose" in bad.found

    def test_extra_receive_branch_fails(self):
        text = """
sort Ping; sort Pong; sort Other;
global P = A -> B : Ping . end;
proc b plays B in P {
  recv A { Ping(_) -> end, Other(_) -> end }
}
"""
        diags = check_session(load_text(text)).all_diagnostics()
        assert ErrorClass.WRONG_SORT in classes(diags)


class TestUnfoldStability:
    def test_checking_agrees_under_head_unfolding(self):
        rng = seeded(71)
        done = 0
        while done < 200:
            body = random_local(rng, B, A, depth=3, bound=(RecVar("X"),), must_act=True)
            loop = Loop(RecVar("X"), body)
            if well_formed(loop) or isinstance(body, Loop):
                continue
            done += 1
            term = synthesize_process(unfold(loop))
            if not isinstance(term, (SendT, RecvT)):
                continue
            folded = TypingEnv(sessions={"s": SessionState(B, loop)})
            unfolded = TypingEnv(sessions={"s": SessionState(B, unfold(loop))})
            d1 = check_process(folded, term)
            d2 = check_process(unfolded, term)
            assert (d1 == []) == (d2 == [])
            bad = _mutate_head(term)
            if bad is not None:
                b1 = check_process(folded, bad)
                b2 = check_process(unfolded, bad)
                assert b1 and b2
                assert classes(b1)[0] == classes(b2)[0]


def _mutate_head(term):
    zz = Sort("Zmut")
    if isinstance(term, SendT):
        return SendT(term.session, term.to, NewSort(zz, ()), term.cont)
    if isinstance(term, RecvT) and len(term.branches) > 1:
        return RecvT(term.session, term.frm, term.branches[1:])
    return None


class TestDelegationTyping:
    def test_delegation_consumes_the_session(self, three_buyer):
        # after handing the purchase session away, using it again is a
        # linearity error
        text = conftest.fixture_path("three_buyer.mpst").read_text()
        bad = text.replace(
            "      recv[u] B3 { Ok(_) -> end, Quit(_) -> end } } }",
            "      send[s] B1 Quit;\n"
            "      send[s] S Quit;\n"
            "      recv[u] B3 { Ok(_) -> end, Quit(_) -> end } } }",
        )
        assert bad != text
        diags = check_session(load_text(bad)).all_diagnostics()
        assert ErrorClass.LINEARITY_REUSE in classes(diags)
        reuse = next(d for d in diags if d.cls == ErrorClass.LINEARITY_REUSE)
        assert "delegated away" in reuse.message

    def test_delegated_endpoint_must_match_schema(self, three_buyer):
        # delegating too early (before the quote exchanges) sends an
        # endpoint whose state disagrees with the declared sort
        text = conftest.fixture_path("three_buyer.mpst").read_text()
        original = """proc buyer2 plays B2 in Purchase as s, B2 in Handoff as u {
  recv[s] S { Int(x) ->
    recv[s] B1 { Int(y) ->
      send[u] B3 Int(x.value - y.value);
      send[u] B3 Delegatee(s);
      recv[u] B3 { Ok(_) -> end, Quit(_) -> end } } }
}"""
        replacement = """proc buyer2 plays B2 in Purchase as s, B2 in Handoff as u {
  recv[s] S { Int(x) ->
      send[u] B3 Int(7);
      send[u] B3 Delegatee(s);
      recv[u] B3 { Ok(_) -> end, Quit(_) -> end } }
}"""
        bad = text.replace(original, replacement)
        assert bad != text
        diags = check_session(load_text(bad)).all_diagnostics()
        assert ErrorClass.WRONG_SORT in classes(diags)

    def test_received_endpoint_joins_the_environment(self, three_buyer):
        result = check_session(three_buyer)
        assert result.ok  # buyer3 finishes both its own and the received session

    def test_received_endpoint_must_be_bound(self):
        text = conftest.fixture_path("three_buyer.mpst").read_text()
        bad = text.replace("recv[u] B2 { Delegatee(s) ->", "recv[u] B2 { Delegatee(_) ->")
        assert bad != text
        diags = check_session(load_text(bad)).all_diagnostics()
        assert ErrorClass.LINEARITY_REUSE in classes(diags)


class TestTermination:
    def test_pending_session_at_end(self):
        text = """
sort Ping;
global P = A -> B : Ping . end;
proc a plays A in P { end }
"""
        diags = check_session(load_text(text)).all_diagnostics()
        assert classes(diags) == [ErrorClass.NON_TERMINATED_SESSION]

    def test_both_if_arms_must_discharge(self):
        text = """
sort Ping; sort Pong;
global P = A -> B : { Ping . end, Pong . end };
proc a plays A in P {
  if 1 < 2 then { send B Ping; end } else { end }
}
"""
        diags = check_session(load_text(text)).all_diagnostics()
        assert ErrorClass.NON_TERMINATED_SESSION in classes(diags)

    def test_alias_transfer_kills_old_name(self):
        text = """
sort Ping;
global P = A -> B : Ping . end;
proc a plays A in P {
  let t = s;
  send B Ping;
  end
}
"""
        diags = check_session(load_text(text)).all_diagnostics()
        assert ErrorClass.LINEARITY_REUSE in classes(diags)

    def test_alias_transfer_new_name_usable(self):
        text = """
sort Ping;
global P = A -> B : Ping . end;
proc a plays A in P {
  let t = s;
  send[t] B Ping;
  end
}
"""
        assert check_session(load_text(text)).ok


class TestEnvironmentValidation:
    def test_ill_formed_environment_rejected(self):
        bad = Loop(RecVar("X"), Recur(RecVar("X")))
        env = TypingEnv(sessions={"s": SessionState(B, bad)})
        with pytest.raises(ValueError):
            check_process(env, EndT())

    def test_alice_mimics_two_unfoldings(self, negotiation):
        # the proposer's script never uses loop/recur yet checks against the
        # recursive projection
        alice = next(p for p in negotiation.procs if p.name == "alice")
        local = project(negotiation.concrete["Negotiation"], A)
        env = TypingEnv(sessions={"s": SessionState(A, local)})
        assert check_process(env, alice.term) == []


def _loop_of_sends(loop, drop: int = 0):
    """`loop X { send B M0; ...; recur X }` for a loop of single sends, with
    the last `drop` sends left out."""
    sorts = []
    node = loop.body
    while isinstance(node, Send):
        sort, node = node.branches[0]
        sorts.append(sort)
    term = RecurT("X", "s")
    for sort in reversed(sorts[: len(sorts) - drop]):
        term = SendT("s", B, NewSort(sort), term)
    return LoopT("s", "X", term)


class TestLoopsOnTheStateGraph:
    def test_long_loop_checks(self):
        # one loop of 150 sends: checking and recur must not recurse per step
        sends, _ = long_chain(150)
        env = TypingEnv(sessions={"s": SessionState(A, sends)})
        assert check_process(env, _loop_of_sends(sends)) == []

    def test_longer_loop_checks(self):
        # well-formedness of the session type, run first, is a worklist too
        sends, _ = long_chain(1000)
        env = TypingEnv(sessions={"s": SessionState(A, sends)})
        assert check_process(env, _loop_of_sends(sends)) == []

    def test_long_loop_reports_an_early_recur(self):
        sends, _ = long_chain(150)
        env = TypingEnv(sessions={"s": SessionState(A, sends)})
        diags = check_process(env, _loop_of_sends(sends, drop=1))
        assert classes(diags) == [ErrorClass.WRONG_RECURSIVE_TYPE]
        assert diags[0].expected == str(sends)
        assert diags[0].found == f"A -> B ! M149 . {sends}"

    def test_recur_compares_closed_terms_not_unfoldings(self):
        # Right after `loop X` the session is at `rec Y . ...`, whose
        # unfolding equals the loop type's; the type itself does not.
        x, y, m = RecVar("X"), RecVar("Y"), Sort("M")
        loop = Loop(x, Loop(y, Send(A, B, ((m, Recur(x)),))))
        env = TypingEnv(sessions={"s": SessionState(A, loop)})
        diags = check_process(env, LoopT("s", "X", RecurT("X", "s")))
        assert [(d.cls, d.expected, d.found) for d in diags] == [
            (
                ErrorClass.WRONG_RECURSIVE_TYPE,
                "rec X . rec Y . A -> B ! M . X",
                "rec Y . A -> B ! M . rec X . rec Y . A -> B ! M . X",
            )
        ]

    def _nested(self, peer):
        # a type whose body `rec Y . ...` unfolds like the type itself
        x, y = RecVar("X"), RecVar("Y")
        return Loop(x, Loop(y, Send(A, peer, ((Sort("M"), Recur(x)),))))

    def test_other_sessions_compare_closed_terms_at_recur(self):
        # u moves from `rec X . ...` to its body, which has the same
        # unfolding, between loop entry on s and recur
        m = Sort("M")
        x = RecVar("X")
        env = TypingEnv(
            sessions={
                "s": SessionState(A, Loop(x, Send(A, B, ((m, Recur(x)),)))),
                "u": SessionState(A, self._nested(Role("C"))),
            }
        )
        term = LoopT("s", "X", SendT("s", B, NewSort(m), LoopT("u", "W", RecurT("X", "s"))))
        diags = check_process(env, term)
        assert [(d.cls, d.message) for d in diags] == [
            (
                ErrorClass.WRONG_RECURSIVE_TYPE,
                "session u changed state across the loop iteration",
            )
        ]

    def test_delegated_endpoint_compares_closed_terms(self):
        # d is inside its loop: same unfolding as the schema, other type
        schema = self._nested(Role("C"))
        deleg = Sort("D", EndpointPayload(A, schema))
        env = TypingEnv(
            sessions={
                "s": SessionState(A, Send(A, B, ((deleg, END),))),
                "d": SessionState(A, schema),
            }
        )
        term = LoopT("d", "W", SendT("s", B, NewSort(deleg, (VarRef("d"),)), EndT()))
        diags = check_process(env, term)
        assert [(d.cls, d.message) for d in diags] == [
            (
                ErrorClass.WRONG_SORT,
                "delegated endpoint does not match the declared schema",
            ),
            (
                ErrorClass.NON_TERMINATED_SESSION,
                "session d still has protocol left at termination",
            ),
        ]
        direct = SendT("s", B, NewSort(deleg, (VarRef("d"),)), EndT())
        assert check_process(env, direct) == []


def exchange_text(steps: int) -> str:
    """A two-role exchange of `steps` messages: A's chain of sends and B's
    receives, each nested in the one arm of the receive before."""
    recvs = "end"
    for _ in range(steps):
        recvs = f"recv A {{ M(_) -> {recvs} }}"
    return (
        f"sort M;\nglobal G = {'A -> B : M . ' * steps}end;\n"
        f"proc a plays A in G {{ {'send B M; ' * steps}end }}\n"
        f"proc b plays B in G {{ {recvs} }}\n"
    )


def report_json(result) -> tuple:
    reports = [(r.name, [d.to_json() for d in r.diagnostics]) for r in result.reports]
    return reports, result.warnings


class TestSavedWork:
    """A step that passes goes on in place in its typing environment; a
    branch point copies it once per successor but the last."""

    @pytest.fixture
    def copies(self, monkeypatch):
        made = []
        copy = TypingEnv.copy
        monkeypatch.setattr(TypingEnv, "copy", lambda env: made.append(env) or copy(env))
        return made

    def test_a_chain_of_one_arm_receives_copies_nothing(self, copies):
        pf = load_text(exchange_text(250))
        assert check_session(pf).ok
        assert copies == []

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_a_receive_with_k_arms_makes_k_minus_1_copies(self, copies, k):
        sorts = [Sort(f"M{i}") for i in range(k)]
        local = core.Recv(B, A, tuple((s, END) for s in sorts))
        env = TypingEnv(sessions={"s": SessionState(A, local)})
        term = RecvT("s", B, tuple(RecvArm(s.name, "_", EndT()) for s in sorts))
        assert check_process(env, term) == []
        assert len(copies) == k - 1

    def test_an_if_makes_one_copy(self, copies):
        env = TypingEnv(sessions={"s": SessionState(A, END)})
        assert check_process(env, IfT(Lt(IntLit(0), IntLit(1)), EndT(), EndT())) == []
        assert len(copies) == 1

    def test_a_poisoned_session_copies_once_per_extra_arm(self, copies):
        term = RecvT("u", B, tuple(RecvArm(n, "_", EndT()) for n in ("X", "Y", "Z")))
        diags = check_process(TypingEnv(), term)
        assert classes(diags) == [ErrorClass.UNBOUND_VARIABLE]
        assert len(copies) == 2


class TestOracleReports:
    """`check_session` reports what the checker before the inline steps
    (`helpers.OracleChecker`) does, with the roles of each played protocol
    taken from a walk of its global type."""

    def test_fixtures_and_mutations(self):
        paths = sorted(conftest.FIXTURES.rglob("*.mpst"))
        assert len(paths) > 16
        for path in paths:
            pf = load_text(path.read_text())
            assert report_json(check_session(pf)) == report_json(oracle_check_session(pf)), path.name

    @pytest.mark.parametrize("seed", [1, 4242, 9101])
    def test_benchmark_inputs(self, seed):
        inputs = benchmark_inputs()
        for workload in inputs.WORKLOADS:
            for f in inputs.family(workload, seed, ROOT):
                pf = load_text(f.text)
                assert report_json(check_session(pf)) == report_json(oracle_check_session(pf)), f.name

    @pytest.mark.parametrize("arm", ["Delegatee(s)", "Delegatee(_)", "Delegatee(u)"])
    @pytest.mark.parametrize("more", ["", ", Int(_) -> end"])
    def test_received_endpoints(self, arm, more):
        # B3's receive of the endpoint, bound or discarded or shadowing u,
        # as the one arm of its receive and with an arm the protocol lacks
        text = conftest.fixture_path("three_buyer.mpst").read_text()
        old = "recv[u] B2 { Delegatee(s) ->\n      send[u] B2 Quit;\n      send[s] B1 Quit;\n      send[s] S Quit;\n      end }"
        assert old in text
        pf = load_text(text.replace(old, old.replace("Delegatee(s)", arm)[:-1] + more + "}"))
        assert report_json(check_session(pf)) == report_json(oracle_check_session(pf))

    def test_unplayed_roles_are_the_projection_tables_keys(self):
        pf = load_text(
            "sort M;\nglobal G = A -> B : M . B -> C : M . end;\n"
            "global H[T: protocol] = T;\n"
            "proc a plays A in G { send B M; end }\n"
            "proc h plays A in H { end }\n"
        )
        assert typecheck.unplayed_roles(pf) == {"G": [Role("B"), Role("C")], "H": None}
        assert set(pf.projections("G")) == core.roles_of(pf.concrete["G"])
