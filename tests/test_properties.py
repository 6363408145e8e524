"""Hypothesis properties over randomly generated protocol types.

The strategies generate closed, contractive types directly (loops always
guard their recursion variable behind a communication), so every drawn value
is a legal input for the operations under test.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from mpstkit.consistency import dual
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
    alpha_normalize,
    struct_eq,
    substitute,
    unfold,
    well_formed,
)
from mpstkit.elaborate import load_text
from mpstkit.fsm import interpret
from mpstkit.projection import merge
from mpstkit.surface import render_global_type

from helpers import (
    SORT_POOL,
    manual_dual,
    oracle_dual,
    oracle_interpret,
    random_local,
    seeded,
    subst_oracle,
)

A, B, C = Role("A"), Role("B"), Role("C")
SORTS = [Sort("Aa"), Sort("Bb"), Sort("Cc", "int"), Sort("Dd", "string"), Sort("Ee")]
SORT_HEADER = "sort Aa; sort Bb; sort Cc(int); sort Dd(string); sort Ee;\n"


def branches_of(children):
    return st.lists(
        st.tuples(st.sampled_from(SORTS), children),
        min_size=1,
        max_size=3,
        unique_by=lambda bc: bc[0].name,
    ).map(tuple)


@st.composite
def local_types(draw, depth=3, bound=(), must_act=False):
    options = ["send", "recv"]
    if not must_act:
        options.append("end")
        if bound:
            options.append("recur")
        if depth > 0:
            options.append("loop")
    if depth <= 0:
        options = ["end", "recur"] if (bound and not must_act) else ["end"]
        if must_act:
            options = ["send", "recv"]
    kind = draw(st.sampled_from(options))
    if kind == "end":
        return END
    if kind == "recur":
        return Recur(draw(st.sampled_from(bound)))
    if kind == "loop":
        var = RecVar(f"L{len(bound)}")
        body = draw(local_types(depth=depth - 1, bound=bound + (var,), must_act=True))
        return Loop(var, body)
    children = local_types(depth=depth - 1, bound=bound)
    branches = draw(branches_of(children))
    if kind == "send":
        return Send(B, A, branches)
    return Recv(A, B, branches)


@st.composite
def global_types(draw, depth=3, bound=(), must_act=False):
    options = ["com"]
    if not must_act:
        options.append("end")
        if bound:
            options.append("recur")
        if depth > 0:
            options.append("loop")
    if depth <= 0:
        options = ["end", "recur"] if (bound and not must_act) else ["end"]
        if must_act:
            options = ["com"]
    kind = draw(st.sampled_from(options))
    if kind == "end":
        return END
    if kind == "recur":
        return Recur(draw(st.sampled_from(bound)))
    if kind == "loop":
        var = RecVar(f"L{len(bound)}")
        body = draw(global_types(depth=depth - 1, bound=bound + (var,), must_act=True))
        return Loop(var, body)
    sender, receiver = draw(st.sampled_from([(A, B), (B, A), (A, C), (C, B)]))
    children = global_types(depth=depth - 1, bound=bound)
    branches = draw(branches_of(children))
    return Com(sender, receiver, branches)


@settings(max_examples=150, deadline=None)
@given(local_types())
def test_generated_types_are_well_formed(t):
    assert well_formed(t) == []


@settings(max_examples=150, deadline=None)
@given(local_types())
def test_alpha_normalize_idempotent(t):
    once = alpha_normalize(t)
    assert alpha_normalize(once) == once


@settings(max_examples=150, deadline=None)
@given(local_types(), local_types())
def test_struct_eq_symmetric(a, b):
    assert struct_eq(a, a)
    assert struct_eq(a, b) == struct_eq(b, a)


@settings(max_examples=150, deadline=None)
@given(local_types(bound=(RecVar("Z"),)), local_types())
def test_substitute_matches_independent_oracle(body, replacement):
    z = RecVar("Z")
    assert substitute(body, z, replacement) == subst_oracle(body, z, replacement)


@settings(max_examples=150, deadline=None)
@given(local_types(must_act=True, bound=(RecVar("Z"),)))
def test_unfold_is_one_substitution_for_guarded_bodies(body):
    loop = Loop(RecVar("Z"), body)
    if isinstance(body, Loop):
        return
    assert unfold(loop) == substitute(body, RecVar("Z"), loop)


@settings(max_examples=150, deadline=None)
@given(local_types())
def test_merge_idempotent(t):
    assert struct_eq(merge(t, t), t)


@settings(max_examples=150, deadline=None)
@given(local_types())
def test_dual_of_manual_dual(t):
    assert dual(t, manual_dual(t))


@settings(max_examples=100, deadline=None)
@given(global_types())
def test_well_formed_rejects_mutants(g):
    if not isinstance(g, Com):
        return
    s, c = g.branches[0]
    duplicated = Com(g.sender, g.receiver, g.branches + ((s, c),))
    assert well_formed(duplicated)
    selfcomm = Com(g.sender, g.sender, g.branches)
    assert well_formed(selfcomm)
    freed = Com(g.sender, g.receiver, ((s, Recur(RecVar("Zfree"))),))
    assert well_formed(freed)


@settings(max_examples=100, deadline=None)
@given(global_types())
def test_render_parse_inverse_on_global_types(g):
    text = SORT_HEADER + f"global T = {render_global_type(g)};\n"
    pf = load_text(text)
    assert struct_eq(pf.concrete["T"], g)


# ---------------------------------------------------------------------------
# The state-graph `interpret` and `dual` against their substitution-based
# references, over `random_local` types drawn from a hypothesis seed.

random_locals = st.builds(
    lambda seed, depth: random_local(seeded(seed), B, A, depth=depth),
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
)


def comm_count(t) -> int:
    if isinstance(t, Loop):
        return comm_count(t.body)
    if isinstance(t, (Send, Recv)):
        return 1 + sum(comm_count(c) for _, c in t.branches)
    return 0


def mutate(t, index: int, how: str):
    """Flip one sort, or send one message to the wrong peer, at the
    `index`-th communication in preorder."""
    counter = [0]

    def walk(node):
        if isinstance(node, Loop):
            return Loop(node.var, walk(node.body))
        if not isinstance(node, (Send, Recv)):
            return node
        here = counter[0]
        counter[0] += 1
        branches = tuple((s, walk(c)) for s, c in node.branches)
        if here != index:
            return type(node)(node.sender, node.receiver, branches)
        if how == "sort":
            used = {s.name for s, _ in branches}
            fresh = next(s for s in SORT_POOL if s.name not in used)
            return type(node)(
                node.sender, node.receiver, ((fresh, branches[0][1]),) + branches[1:]
            )
        if isinstance(node, Send):
            return Send(node.sender, C, branches)
        return Recv(C, node.receiver, branches)

    return walk(t)


@settings(max_examples=300, deadline=None)
@given(random_locals)
def test_interpret_matches_substitution_oracle(l):
    machine, reference = interpret(l), oracle_interpret(l)
    assert machine.states == reference.states
    assert machine.initial == reference.initial
    assert machine.finals == reference.finals
    assert machine.transitions == reference.transitions


@settings(max_examples=300, deadline=None)
@given(random_locals, random_locals, st.data())
def test_dual_matches_substitution_oracle(l, other, data):
    d = manual_dual(l)
    assert dual(l, d) == oracle_dual(l, d) == True  # noqa: E712
    assert dual(l, other) == oracle_dual(l, other)
    n = comm_count(d)
    if n:
        index = data.draw(st.integers(0, n - 1))
        how = data.draw(st.sampled_from(["sort", "peer"]))
        m = mutate(d, index, how)
        assert dual(l, m) == oracle_dual(l, m)
        assert dual(m, l) == oracle_dual(m, l)
