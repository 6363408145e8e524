"""Hypothesis properties over randomly generated protocol types.

The strategies generate closed, contractive types directly (loops always
guard their recursion variable behind a communication), so every drawn value
is a legal input for the operations under test.
"""

import re

import hypothesis.strategies as st
from hypothesis import example, given, settings

from mpstkit.consistency import consistent, dual, restrict_to_partner
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
    alpha_normalize,
    free_rec_vars,
    postorder,
    roles_of,
    struct_eq,
    subterms,
    substitute,
    unfold,
    well_formed,
)
from mpstkit.elaborate import ElabError, load_text
from mpstkit.fsm import interpret
from mpstkit.projection import (
    MergeError, ProjectionError, merge, merge_all, project, project_all, result_or_error,
)
from mpstkit.runtime import GlobalSession, run_all
from mpstkit.surface import KEYWORDS, ParseError, render_local_type, tokenize
from mpstkit.typecheck import EndT, SessionState, TypingEnv, check_process

from helpers import (
    ROOT,
    SORT_POOL,
    accepts_trace,
    benchmark_inputs,
    erasure_outcomes,
    global_traces,
    manual_dual,
    mergeable_pair,
    mutate_process,
    oracle_check_process,
    oracle_consistent,
    oracle_dual,
    oracle_interpret,
    oracle_merge,
    oracle_merge_all,
    oracle_project,
    oracle_render_local,
    oracle_restrict,
    oracle_struct_eq,
    oracle_tokenize,
    oracle_well_formed,
    positioned,
    process_subterms,
    random_global,
    random_local,
    rename_binders,
    repeating_global,
    replace_subterm,
    seeded,
    share,
    stuck_product_states,
    subst_oracle,
    sync_product_traces,
    synthesize_process,
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


def _random_type(seed: int, depth: int, glob: bool):
    if glob:
        return random_global(seeded(seed), ["A", "B", "C"], depth=depth)
    return random_local(seeded(seed), B, A, depth=depth)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40), st.integers(0, 40), st.integers(1, 4), st.booleans())
def test_struct_eq_matches_alpha_normal_forms(seed_a, seed_b, depth, glob):
    # small seeds and depths make equal pairs common
    a, b = _random_type(seed_a, depth, glob), _random_type(seed_b, depth, glob)
    pairs = [(a, b), (a, alpha_normalize(a))]
    if isinstance(a, Loop):  # and open terms: a loop body with its variable free
        pairs += [(a, unfold(a)), (a.body, alpha_normalize(a.body))]
        pairs.append((a.body, b.body if isinstance(b, Loop) else b))
    for x, y in pairs:
        assert struct_eq(x, y) == oracle_struct_eq(x, y)


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
    text = SORT_HEADER + f"global T = {g};\n"
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


# Pairwise consistency against the loop that redid every ordered pair, over
# `random_global` types with 3 to 5 roles (so some roles are bystanders of
# most choices) and loops.  Relayed choices make more of them projectable,
# and give pairs that never talk whose silent views fail.

random_globals = st.builds(
    lambda seed, n_roles, depth, relay: random_global(
        seeded(seed), ["A", "B", "C", "D", "E"][:n_roles], depth=depth, relay=relay
    ),
    st.integers(0, 2**32 - 1),
    st.integers(3, 5),
    st.integers(1, 6),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(random_globals)
def test_consistent_matches_pairwise_oracle(g):
    assert consistent(g).to_json() == oracle_consistent(g).to_json()


# Directly nested loops: erasure drops an unused binder (Y in the first, X
# in the second), keeps a guarded loop, and turns one whose variable is
# left unguarded into `end` (C in the second; B's view of C in the first).
# The third keeps both binders, and the last rebinds X inside Y.
X, Y = RecVar("X"), RecVar("Y")
M, N = Sort("M"), Sort("N")


@settings(max_examples=300, deadline=None)
@given(random_globals)
@example(Loop(X, Loop(Y, Com(A, B, ((M, Com(C, A, ((M, Recur(X)),))),)))))
@example(Loop(X, Loop(Y, Com(A, B, ((M, Recur(Y)),)))))
@example(Loop(X, Loop(Y, Com(A, B, ((M, Recur(X)), (N, Recur(Y)))))))
@example(Loop(X, Com(A, B, ((M, Loop(Y, Loop(X, Com(B, C, ((M, Recur(X)), (N, Recur(Y))))))),))))
def test_erasure_matches_recursive_oracles(g):
    # projections or their errors (role, path, text), then every restriction
    # of each projection to another role or its MergeError reason
    assert erasure_outcomes(g, project, restrict_to_partner) == erasure_outcomes(
        g, oracle_project, oracle_restrict
    )


# Two facts erasure and `consistent` rely on, over draws with 3 or 4 roles:
# a projection, and each of its views for a partner, is well formed; and a
# projectable role's projection acts with exactly the roles it meets in g.

small_globals = st.builds(
    lambda seed, n_roles, relay: random_global(
        seeded(seed), ["A", "B", "C", "D"][:n_roles], depth=4, relay=relay
    ),
    st.integers(0, 2**32 - 1),
    st.integers(3, 4),
    st.booleans(),
)


@settings(max_examples=500, deadline=None)
@given(small_globals)
def test_projections_and_their_views_are_well_formed(g):
    assert well_formed(g) == []
    roles = roles_of(g)
    for r in roles:
        local = result_or_error(project, g, r)
        if isinstance(local, ProjectionError):
            continue
        assert well_formed(local) == [], (r, local)
        for p in roles - {r}:
            view = result_or_error(restrict_to_partner, local, p)
            if not isinstance(view, MergeError):
                assert well_formed(view) == [], (r, p, view)


@settings(max_examples=500, deadline=None)
@given(small_globals)
def test_projections_act_with_the_partners_met_in_the_global_type(g):
    partners: dict = {}
    for n in subterms(g):
        if isinstance(n, Com):
            partners.setdefault(n.sender, set()).add(n.receiver)
            partners.setdefault(n.receiver, set()).add(n.sender)
    for r in roles_of(g):
        local = result_or_error(project, g, r)
        if not isinstance(local, ProjectionError):
            assert roles_of(local) - {r} == partners[r], (r, local)


# A type and its hash-consed copy (`helpers.share`, which makes equal
# subterms one object, as elaboration does) are one protocol to every walk,
# though projection, restriction, `consistent`, `free_rec_vars` and
# `roles_of` fold a repeated subterm object only once.

def sharing_outcomes(g) -> list:
    """Every projection and view of g, or the path and text of the error
    that made it; the consistency report; and the free variables and roles
    of each subterm, listed at each path."""
    roles = sorted(roles_of(g), key=lambda r: r.name)
    out = [consistent(g).to_json()]
    out += [(free_rec_vars(t), roles_of(t)) for t in postorder(g)]
    for r in roles:
        local = result_or_error(project, g, r)
        if isinstance(local, ProjectionError):
            out.append((r, local.path, str(local), str(local.cause)))
            continue
        out.append((r, local))
        for p in roles:
            if p != r:
                view = result_or_error(restrict_to_partner, local, p)
                out.append((r, p, str(view) if isinstance(view, MergeError) else view))
    return out


def unmergeable():
    """A new copy of a choice C cannot merge: C sends B M or N."""
    return Com(A, B, ((M, Com(C, B, ((M, END),))), (N, Com(C, B, ((N, END),)))))


def doubled_global(seed: int, n_roles: int, relay: bool, levels: int):
    """A `random_global` draw under `levels` nested choices, each between
    two equal copies, built apart, of what is below it."""
    roles = ["A", "B", "C", "D"][:n_roles]
    if levels == 0:
        return random_global(seeded(seed), roles, depth=4, relay=relay)
    sender, receiver = seeded(seed + levels).sample(roles, 2)
    below = [doubled_global(seed, n_roles, relay, levels - 1) for _ in range(2)]
    return Com(Role(sender), Role(receiver), tuple(zip(SORT_POOL, below)))


@settings(max_examples=200, deadline=None)
@given(st.builds(
    doubled_global,
    st.integers(0, 2**32 - 1),
    st.integers(3, 4),
    st.booleans(),
    st.integers(0, 2),
))
@example(Com(A, B, ((M, unmergeable()), (N, Com(A, C, ((M, unmergeable()),))))))
@example(Loop(X, Com(A, B, ((M, Com(B, C, ((M, Recur(X)),))), (N, Com(B, C, ((M, Recur(X)),)))))))
def test_a_shared_copy_behaves_like_its_tree(g):
    shared = share(g)
    assert shared == g
    assert sharing_outcomes(shared) == sharing_outcomes(g)


# `well_formed` decides a repeated object once; on a shared copy it reports
# what the recursive oracle reports on the tree, every violation at every
# path, though the objects repeated hold violations or recursion variables
# that some of their meetings bind and others do not.


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_well_formed_on_a_shared_copy_matches_the_oracle(seed):
    t = repeating_global(seed)
    assert well_formed(share(t)) == oracle_well_formed(t)


# `project_all` projects every role in one fold: for each role it gives the
# recursive oracle's projection, or a ProjectionError with the same role,
# path and text, on a tree and on its shared copy.  The examples fail inside
# a repeated subterm, and make C inherit the silent erasure's failure: C
# never appears in A's choice, whose branches loop and end.


@settings(max_examples=300, deadline=None)
@given(random_globals)
@example(Com(A, B, ((M, unmergeable()), (N, Com(A, C, ((M, unmergeable()),))))))
@example(Loop(X, Com(C, A, ((M, Com(A, B, ((M, Recur(X)), (N, END)))),))))
def test_project_all_matches_the_oracle_for_every_role(g):
    for t in (g, share(g)):
        every = project_all(t)
        assert set(every) == roles_of(t)
        for r, local in every.items():
            try:
                want = oracle_project(t, r)
            except ProjectionError as e:
                assert isinstance(local, ProjectionError)
                assert (local.role, local.path, str(local)) == (e.role, e.path, str(e))
            else:
                assert local == want


# Failures in full: each role's projection, or the text and operand pair of
# the MergeError that stopped it, and then its view of every other role of
# g, met or not, or the text and operand pair of the view's MergeError, are
# the recursive oracles', on a tree and on its shared copy.  The examples
# fail on a silent erasure, a loop met in one branch and `end` in the
# other: C never acts in A's choice in the first, and in the second A's
# projection never acts with C.

def merge_outcome(fn, *args, **kwargs):
    """fn(*args, **kwargs), or the text and operand pair (None from `merge`)
    of the MergeError it raised, itself or as the cause of a ProjectionError."""
    try:
        return fn(*args, **kwargs)
    except ProjectionError as e:
        return str(e.cause), e.cause.index_pair
    except MergeError as e:
        return str(e), getattr(e, "index_pair", None)


@settings(max_examples=300, deadline=None)
@given(random_globals)
@example(Loop(X, Com(C, A, ((M, Com(A, B, ((M, Recur(X)), (N, END)))),))))
@example(Loop(X, Com(A, B, ((M, Com(B, C, ((M, Recur(X)),))), (N, Com(B, C, ((N, END),)))))))
def test_erasure_failures_match_the_oracles_in_full(g):
    roles = sorted(roles_of(g), key=lambda r: r.name)
    for t in (g, share(g)):
        for r in roles:
            local = merge_outcome(project, t, r)
            assert local == merge_outcome(oracle_project, t, r), r
            if isinstance(local, tuple):
                continue
            for p in roles:
                if p != r:
                    got = merge_outcome(restrict_to_partner, local, p)
                    assert got == merge_outcome(oracle_restrict, local, p), (r, p)


# The merge against the recursive merge that raises (`helpers.oracle_merge`):
# the same value, or a MergeError with the same text and operand pair.  The
# operands are two sides of a split receive, which merge back, and a random
# type against others with the same and with another peer, which mostly fail;
# then against three copies of it: one whose sort on one branch is declared
# again under its name with another payload, one with its loop binders
# renamed, and one whose recursions on its loops `R0` and `R1` are crossed.
# Each pair also goes as one hash-consed copy, where equal subterms are one
# object.  A tally over fixed seeds shows that these operands reach every
# reason a merge can fail for.

MERGE_REASONS = {
    "incompatible constructors", "different recursion variables", "sends to different peers",
    "receives from different peers", "sends offer different sorts",
    "sort _ has conflicting payloads",
}


def redeclared(rng, t):
    """t with the sort of one branch of one of its communications, drawn by
    rng, declared again under its name with another payload (an endpoint
    one, or none for an endpoint); what does not contain it stays shared."""
    coms = [n for n in subterms(t) if isinstance(n, (Send, Recv))]
    if not coms:
        return t
    target = rng.choice(coms)
    j = rng.randrange(len(target.branches))

    def walk(node):
        if node is target:
            s, c = node.branches[j]
            payload = "none" if isinstance(s.payload, EndpointPayload) else EndpointPayload(C, END)
            branches = (*node.branches[:j], (Sort(s.name, payload), c), *node.branches[j + 1:])
        elif isinstance(node, Loop):
            body = walk(node.body)
            return node if body is node.body else Loop(node.var, body)
        elif isinstance(node, (Send, Recv)):
            branches = tuple((s, walk(c)) for s, c in node.branches)
            if all(new is old for (_, new), (_, old) in zip(branches, node.branches)):
                return node
        else:
            return node
        return type(node)(node.sender, node.receiver, branches)

    return walk(t)


def crossed(t):
    """t with each recursion on `R0` made one on `R1` and back where both
    loops are open: still closed, but a merge with t that aligns their loops
    meets different recursion variables."""
    r0, r1 = RecVar("R0"), RecVar("R1")

    def walk(node, bound):
        if isinstance(node, Recur):
            return Recur({r0: r1, r1: r0}.get(node.var, node.var)) if len(bound) > 1 else node
        if isinstance(node, Loop):
            return Loop(node.var, walk(node.body, bound | ({node.var} & {r0, r1})))
        if isinstance(node, (Send, Recv)):
            branches = tuple((s, walk(c, bound)) for s, c in node.branches)
            return type(node)(node.sender, node.receiver, branches)
        return node

    return walk(t, frozenset())


def merge_reasons(seed: int, depth: int, union_sends: bool) -> set:
    """Assert that `merge` and `merge_all` agree with the oracles on the
    operands drawn from seed; the reasons the merges failed for, with the
    sort name left out."""
    rng = seeded(seed)
    t = random_local(rng, B, A, depth=depth)
    others = [random_local(rng, B, A, depth=depth), random_local(rng, B, C, depth=depth)]
    pairs = [mergeable_pair(rng, t), *((t, other) for other in others)]
    names = [[RecVar("X"), RecVar("Y")], [RecVar("M0"), RecVar("M1")]]
    pairs += [(t, redeclared(rng, t)), (t, rename_binders(rng, t, names)), (t, crossed(t))]
    reasons = set()
    for a, b in pairs:
        both = share(Recv(A, B, ((SORT_POOL[0], a), (SORT_POOL[1], b))))
        for x, y in [(a, b), tuple(c for _, c in both.branches)]:
            outcomes = []
            for ts in ([x, y], [x, y, others[0]], [y, x, x]):
                outcomes.append(merge_outcome(merge_all, ts, union_sends=union_sends))
                assert outcomes[-1] == merge_outcome(oracle_merge_all, ts, union_sends=union_sends)
            outcomes.append(merge_outcome(merge, x, y, union_sends=union_sends))
            assert outcomes[-1] == merge_outcome(oracle_merge, x, y, union_sends=union_sends)
            for outcome in outcomes:
                if isinstance(outcome, tuple):
                    reason = outcome[0].split("\n")[0].removeprefix("cannot merge: ")
                    reasons.add(re.sub(r"^sort \w+ ", "sort _ ", reason))
    return reasons


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.booleans())
@example(19, 4, True)  # two shared sorts whose continuations fail to merge differently
@example(102, 5, False)
def test_merge_matches_the_oracle(seed, depth, union_sends):
    merge_reasons(seed, depth, union_sends)


def test_merge_operands_reach_every_failure_reason():
    seen = set()
    for seed in range(200):
        seen |= merge_reasons(seed, 1 + seed % 5, seed % 2 == 1)
    assert seen == MERGE_REASONS


# ---------------------------------------------------------------------------
# Projection semantics: run together synchronously, the projections of a
# consistent global type make exactly its traces, and never get stuck short
# of every role at `end`.  One way only: consistency also rejects some types
# whose product is safe (a pair that never talks may fail to merge a branch
# that loops with one that ends).

TRACE_LENGTH, STUCK_STEPS = 6, 12


def assert_projections_implement(g):
    projections = {r.name: project(g, r) for r in sorted(roles_of(g), key=lambda r: r.name)}
    assert sync_product_traces(projections, TRACE_LENGTH) == global_traces(g, TRACE_LENGTH)
    assert stuck_product_states(projections, STUCK_STEPS) == []


def first_consistent_global(seed: int, n_roles: int, relay: bool):
    """The first projectable, consistent type with a communication that
    `random_global` draws from `seed`."""
    rng = seeded(seed)
    while True:
        g = random_global(rng, ["A", "B", "C", "D"][:n_roles], depth=4, relay=relay)
        if roles_of(g) and consistent(g).consistent:  # a role that does not project fails a pair
            return g


@settings(max_examples=1500, deadline=None)
@given(st.builds(first_consistent_global,
                 st.integers(0, 2**32 - 1), st.integers(3, 4), st.booleans()))
def test_consistent_projections_implement_the_global_type(g):
    assert_projections_implement(g)


# A bystander, C, merges two loops that differ: few `random_global` draws
# are consistent and do that, because a silent view of a loop that may end
# does not merge.
LOOP_MERGE = """sort L1; sort L2; sort M; sort N; sort Q;
global LoopMerge = A -> B : {
  L1 . rec X . B -> C : { M . C -> A : M . X, Q . C -> A : Q . X },
  L2 . rec X . B -> C : { M . C -> A : M . X, N . C -> A : N . X } };
"""


def test_consistent_inputs_project_to_their_global_types():
    texts = {p.read_text() for p in sorted((ROOT / "fixtures").rglob("*.mpst"))}
    texts.add(LOOP_MERGE)
    family = benchmark_inputs().family
    texts |= {f.text for seed in (1, 4242, 9101)
              for workload in ("corpus", "deep", "wide", "run")
              for f in family(workload, seed, ROOT)}
    checked = 0
    for text in sorted(texts):
        try:
            protocols = load_text(text).concrete.values()
        except (ParseError, ElabError):
            continue
        for g in protocols:
            if consistent(g).consistent:
                assert_projections_implement(g)
                checked += 1
    assert checked >= 40


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
    # one view unrolled once: its head nodes differ from l's although the
    # closed unfoldings they reach are alpha-equal
    u = manual_dual(unfold(l))
    assert dual(l, u) == oracle_dual(l, u) == True  # noqa: E712
    assert dual(l, other) == oracle_dual(l, other)
    n = comm_count(d)
    if n:
        index = data.draw(st.integers(0, n - 1))
        how = data.draw(st.sampled_from(["sort", "peer"]))
        m = mutate(d, index, how)
        assert dual(l, m) == oracle_dual(l, m)
        assert dual(m, l) == oracle_dual(m, l)


# ---------------------------------------------------------------------------
# The surface lexer and the local-type renderer against their references.

# every character class the lexer treats differently, plus characters it
# rejects, non-ASCII blanks and a non-ASCII digit; keywords are drawn whole,
# since random letters rarely spell one
LEX_ALPHABET = "abzAQZ09_{}()[];:.,=@!?<->\"\\/$ \t\n\r\x0b\x0c\x1c\u00a0\u2028\u3000\u0663"
lex_inputs = st.lists(
    st.one_of(st.text(LEX_ALPHABET, max_size=4), st.sampled_from(sorted(KEYWORDS))),
    max_size=25,
).map("".join)


def lexed(lexer, text):
    try:
        return lexer(text)
    except ParseError as e:
        return str(e)


@settings(max_examples=500, deadline=None)
@given(lex_inputs)
def test_tokenize_matches_oracle(text):
    assert lexed(lambda t: positioned(tokenize(t)), text) == lexed(oracle_tokenize, text)


@settings(max_examples=300, deadline=None)
@given(random_locals)
def test_render_local_matches_oracle(l):
    assert render_local_type(l) == oracle_render_local(l)


# ---------------------------------------------------------------------------
# Every checked program runs: the process that mimics each role's projection
# checks clean, and running them all together faults nowhere.


def first_checked_global(seed: int, n_roles: int, relay: bool):
    """The first loop-free, consistent (so projectable) global type with a
    communication that `random_global` draws from `seed`."""
    rng = seeded(seed)
    while True:
        g = random_global(rng, ["A", "B", "C", "D"][:n_roles], depth=4, relay=relay)
        if (
            isinstance(g, Com)
            and not any(isinstance(t, Loop) for t in subterms(g))
            and consistent(g).consistent
        ):
            return g


checked_globals = st.builds(
    first_checked_global, st.integers(0, 2**32 - 1), st.integers(2, 4), st.booleans()
)


@settings(max_examples=100, deadline=None)
@given(checked_globals)
def test_checked_processes_run_to_completion(g):
    session = GlobalSession(g, "G")
    processes = []
    for role in sorted(roles_of(g), key=lambda r: r.name):
        local = project(g, role)
        term = synthesize_process(local)
        assert check_process(TypingEnv(sessions={"s": SessionState(role, local)}), term) == []
        processes.append((role.name, [(session, role, "s")], term))
    results, faults = run_all(processes, timeout=10.0)
    assert faults == []
    assert all(result.all_terminated for result in results.values())
    assert accepts_trace(g, [(e.sender, e.receiver, e.sort.name) for e in session.trace])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_process_checker_matches_the_oracle(seed, two_sessions):
    """`check_process` reports, in order, what the checker before the inline
    steps reports, on a process that follows a random local type and on a
    chain of mutations of it; with `two_sessions`, a second session `u`
    follows its own type after each end of the first."""
    rng = seeded(seed)
    local = random_local(rng, A, B)
    sessions = {"s": SessionState(A, local)}
    term = synthesize_process(local)
    if two_sessions:
        other = random_local(rng, A, B)
        sessions["u"] = SessionState(A, other)
        then = synthesize_process(other, "u")
        for end in [t for t in process_subterms(term) if isinstance(t, EndT)]:
            term = replace_subterm(term, end, then)
    for _ in range(5):
        got = check_process(TypingEnv(sessions=dict(sessions)), term)
        want = oracle_check_process(TypingEnv(sessions=dict(sessions)), term)
        assert [d.to_json() for d in got] == [d.to_json() for d in want]
        term = mutate_process(rng, term)
