"""Surface syntax: parsing, rendering round trips, generic instantiation."""

import dataclasses
import re

import pytest

from mpstkit import cli, typecheck as tc
from mpstkit.core import END, Loop, Recur, RecVar, Recv, Role, Sort, struct_eq
from mpstkit.elaborate import ElabError, elaborate, instantiate, load_text
from mpstkit.surface import (
    LocalDef,
    ParseError,
    STRef,
    _Parser,
    parse_protocol_file,
    render_file,
    tokenize,
)

import conftest
from helpers import (
    ROOT,
    OracleElaborator,
    OracleParser,
    benchmark_inputs,
    cut_and_splice,
    declare_projections,
    front_end_outcome,
    negotiation_global,
    negotiation_local_b,
    oracle_tokenize,
    positioned,
)


def lexemes(text):
    return positioned(tokenize(text))


class TestTokenize:
    @pytest.mark.parametrize(
        "fixture",
        sorted(p.relative_to(conftest.FIXTURES).as_posix()
               for p in conftest.FIXTURES.rglob("*.mpst")),
    )
    def test_fixture_tokens_match_oracle(self, fixture):
        text = conftest.fixture_path(fixture).read_text()
        assert lexemes(text) == oracle_tokenize(text)

    def test_positions_after_a_string_spanning_two_lines(self):
        assert lexemes('let s = "a\nbc"; x') == [
            ("let", 1, 1),
            ("s", 1, 5),
            ("=", 1, 7),
            ('"a\nbc"', 1, 9),
            (";", 2, 4),
            ("x", 2, 6),
            ("", 2, 7),
        ]

    def test_comment_ending_the_file_without_newline(self):
        assert lexemes("end -> // done") == [
            ("end", 1, 1),
            ("->", 1, 5),
            ("", 1, 15),
        ]

    def test_illegal_character_position(self):
        with pytest.raises(ParseError) as exc:
            tokenize("sort A;\n  $")
        assert str(exc.value) == "2:3: unexpected character '$'"

    @pytest.mark.parametrize("text, error", [
        ("sort A;\r\n\tglobal G =\r\n\t\tA -> B : A . end;\r\n", None),
        ('let s = "a\\"b\nc"; x', None),
        ('sort A;\nlet s = "abc', "2:9: unexpected character '\"'"),
        ("end / end", "1:5: unexpected character '/'"),
        ("end -> // done", None),
        ("sort \u00e9;", "1:6: unexpected character '\u00e9'"),
        ("", None),
        (" \n\t \r\n ", None),
        ("sort A;\nglobal G = end;\nproc p $", "3:8: unexpected character '$'"),
        ('let s = "a//b"; x', None),
        ("end\u00a0->\u2028end\u3000", None),
        ("end// c\nend", None),
        ("a--b ->- <-", None),
        ("// only a comment", None),
        ("x\x0b\x0cy\x1cz", None),
        ('sort A;\r\n// c "\n"x"', None),
    ], ids=[
        "crlf and tabs", "escaped quote and newline in a string",
        "unterminated string at eof", "lone slash", "comment ending the file",
        "e acute", "empty", "whitespace only", "bad character on line 3",
        "comment marker in a string", "unicode blanks", "comment glued to a token",
        "minus and arrow", "comment only", "control blanks", "quote in a comment",
    ])
    def test_edge_case_matches_oracle(self, text, error):
        if error is not None:
            for lexer in (tokenize, oracle_tokenize):
                with pytest.raises(ParseError) as exc:
                    lexer(text)
                assert str(exc.value) == error
            return
        expected = oracle_tokenize(text)
        assert lexemes(text) == expected
        assert len(tokenize(text)) == len(expected)


    def test_benchmark_texts_match_oracle(self):
        # the dense, comment-free texts of every family, at three seeds
        inputs = benchmark_inputs()
        texts = [
            f.text
            for workload in inputs.WORKLOADS
            for seed in (1, 4242, 9101)
            for f in inputs.family(workload, seed, ROOT)
        ]
        assert len(texts) == 102
        for text in texts:
            assert lexemes(text) == oracle_tokenize(text)


class TestParse:
    def test_negotiation_fixture_elaborates_to_reference_ast(self, negotiation):
        assert struct_eq(negotiation.concrete["Negotiation"], negotiation_global())

    def test_declared_local_matches_reference(self, negotiation):
        (assertion,) = negotiation.local_asserts
        assert assertion.role == Role("B")
        assert struct_eq(assertion.declared, negotiation_local_b())

    def test_empty_file(self):
        result = parse_protocol_file("")
        assert result.ok
        pf = elaborate(result.file)
        assert pf.concrete == {} and pf.procs == []

    def test_parse_check_separation(self):
        # a self-communication parses fine; well-formedness rejects it later
        pf = load_text("sort Ok; global T = P -> P : Ok . end;")
        from mpstkit.core import well_formed

        violations = well_formed(pf.concrete["T"])
        assert any("sender equals receiver" in v.message for v in violations)

    def test_parse_check_separation_generic(self):
        # the generic form parses and elaborates; the violation only shows
        # once an instantiation is well-formedness checked
        pf = load_text("sort Ok; global T[P: role] = P -> P : { Ok . end };")
        from mpstkit.core import well_formed

        g = instantiate(pf, "T", [Role("A")])
        assert any("sender equals receiver" in v.message for v in well_formed(g))

    def test_syntax_error_position_and_expected(self):
        result = parse_protocol_file("global T =\n  A -> : Ok . end;")
        assert not result.ok
        err = result.errors[0]
        assert (err.line, err.col) == (2, 8)
        assert "role" in err.expected

    def test_multiple_errors_reported(self):
        text = "global T = ;\nsort ;\nglobal U = A -> B : Ok . end;"
        result = parse_protocol_file(text)
        assert len(result.errors) == 2
        # the good declaration after the bad ones still parsed
        assert any(getattr(d, "name", None) == "U" for d in result.file.decls)

    def test_too_deep_declaration_is_a_located_error(self):
        steps = "".join(f"A -> B : M{i % 3} . " for i in range(600))
        text = (
            "sort M0; sort M1; sort M2;\n"
            f"global Long = {steps}end;\n"
            "global Short = A -> B : M0 . end;\n"
        )
        result = parse_protocol_file(text)
        assert [str(e) for e in result.errors] == ["2:1: declaration nested too deeply"]
        assert [d.name for d in result.file.global_defs()] == ["Short"]

    def test_duplicate_definition_rejected(self):
        text = "sort Ok; global T = A -> B : Ok . end; global T = end;"
        with pytest.raises(ElabError) as exc:
            load_text(text)
        assert "duplicate protocol definition" in str(exc.value)

    def test_unknown_sort_rejected(self):
        with pytest.raises(ElabError) as exc:
            load_text("global T = A -> B : Mystery . end;")
        assert "unknown sort" in str(exc.value)

    @pytest.mark.parametrize("body, error", [
        ("send B X1(X2(1)); send B X3; end", "3:23: unknown sort: X1"),
        ("send B M(X2(1)); send B X3; end", "3:32: unknown sort: X2"),
        ("if X1(1) < X2(1) then { end } else { end }", "3:26: unknown sort: X1"),
        ("if 1 < 2 then { send B X1; end } else { send B X2; end }", "3:39: unknown sort: X1"),
        ("let v = 1 - X1(1) - X2(1); send B X3; end", "3:35: unknown sort: X1"),
        ("recv B { M(v) -> send B X1; end, M(w) -> send B X2; end }", "3:40: unknown sort: X1"),
    ])
    def test_first_unknown_sort_of_a_process_in_text_order(self, body, error):
        # a send's sort comes before its argument, both before the continuation
        text = f"sort M(int);\nglobal G = A -> B : M . end;\nproc a plays A in G {{ {body} }}\n"
        with pytest.raises(ElabError) as exc:
            load_text(text)
        assert str(exc.value) == error

    def test_comments_and_strings(self):
        pf = load_text(
            'sort Name(string); // trailing comment\n'
            "global T = A -> B : Name . end;\n"
            'proc a plays A in T { send B Name("he said \\"hi\\""); end }\n'
        )
        assert "T" in pf.concrete


class TestRoundTrip:
    @pytest.mark.parametrize(
        "fixture",
        sorted(list(conftest.CONSISTENT_FIXTURES) + list(conftest.INCONSISTENT_FIXTURES)),
    )
    def test_render_reparses_to_same_asts(self, fixture):
        text = conftest.fixture_path(fixture).read_text()
        first = parse_protocol_file(text)
        assert first.ok
        rendered = render_file(first.file)
        second = parse_protocol_file(rendered)
        assert second.ok, second.errors
        pf1, pf2 = elaborate(first.file), elaborate(second.file)
        assert set(pf1.concrete) == set(pf2.concrete)
        for name, g in pf1.concrete.items():
            assert struct_eq(g, pf2.concrete[name]), name
        assert [p.term for p in pf1.procs] == [p.term for p in pf2.procs]
        assert [p.bindings for p in pf1.procs] == [p.bindings for p in pf2.procs]

    def test_render_leaves_out_only_default_session_selectors(self):
        # buyer2 plays `as s, … as u` and buyer3 `as u`: their defaults are s and u
        text = conftest.fixture_path("three_buyer.mpst").read_text()
        rendered = render_file(parse_protocol_file(text).file)
        chunks = rendered.split("\n\nproc ")[1:]
        selectors = {
            chunk.split()[0]: re.findall(r"\b(send|recv|loop|recur)\[(\w+)\]", chunk)
            for chunk in chunks
        }
        assert selectors == {
            "buyer1": [],
            "buyer2": [("send", "u"), ("send", "u"), ("recv", "u")],
            "buyer3": [("send", "s"), ("send", "s")],
            "seller": [],
        }
        assert "send[s] B1 Quit;\n          send[s] S Quit;" in chunks[2]

    def test_long_subtraction_round_trips(self):
        # 5,000 terms: rendering walks the left spine of `-` without recursing;
        # nested comparisons keep their parentheses
        chain = " - ".join(["1"] * 5000)
        text = (
            "proc a plays A in P {\n"
            f"  let x = {chain};\n"
            "  let y = (1 < 2) - 3 - (4 - x);\n"
            "  let z = (1 < 2) < (3 < 4 - 5);\n"
            "  end }"
        )
        first = parse_protocol_file(text)
        assert first.ok, first.errors
        rendered = render_file(first.file)
        assert f"let x = {chain};" in rendered
        assert "let y = (1 < 2) - 3 - (4 - x);" in rendered
        assert "let z = (1 < 2) < (3 < 4 - 5);" in rendered
        second = parse_protocol_file(rendered)
        assert second.ok, second.errors
        assert render_file(second.file) == rendered

    def test_long_value_chain_round_trips(self):
        # rendering peels a 5,000-step `.value` chain without recursing
        chain = "x" + ".value" * 5000
        first = parse_protocol_file(f"proc a plays A in P {{ send B M({chain}); end }}")
        assert first.ok, first.errors
        rendered = render_file(first.file)
        assert f"send B M({chain});" in rendered
        second = parse_protocol_file(rendered)
        assert second.ok, second.errors
        assert render_file(second.file) == rendered

    def test_long_process_renders_under_a_deep_stack(self):
        # rendering walks a `;`-chain of sends and lets without recursing
        body = "send B M; let x = 1; " * 450
        result = parse_protocol_file(f"proc a plays A in P {{ {body}end }}")
        assert result.ok, result.errors

        def render_below(frames):
            return render_below(frames - 1) if frames else render_file(result.file)

        assert render_below(80) == render_file(result.file)


class TestInstantiate:
    def test_generic_negotiation_equals_concrete(self):
        pf = conftest.load_fixture("negotiation_generic.mpst")
        assert struct_eq(pf.concrete["NegotiationVia"], negotiation_global())

    def test_instantiate_api_with_roles(self):
        pf = conftest.load_fixture("negotiation_generic.mpst")
        g = instantiate(pf, "Exchange", [Role("A"), Role("B")])
        assert struct_eq(g, negotiation_global())

    def test_parameterless_instantiation_verbatim(self, negotiation):
        g = instantiate(negotiation, "Negotiation", [])
        assert struct_eq(g, negotiation.concrete["Negotiation"])

    def test_two_distinct_unrollings(self):
        # the two Round uses inside Exchange produce the two nested
        # three-way exchanges of the flat definition
        pf = conftest.load_fixture("negotiation_generic.mpst")
        g = pf.concrete["NegotiationVia"]
        loop = g.branches[0][1]
        outer = loop.body
        inner = outer.branches[2][1]
        assert outer.sender == Role("B") and outer.receiver == Role("A")
        assert inner.sender == Role("A") and inner.receiver == Role("B")
        assert isinstance(inner.branches[2][1], Recur)

    def test_arity_mismatch(self):
        pf = conftest.load_fixture("negotiation_generic.mpst")
        with pytest.raises(ElabError) as exc:
            instantiate(pf, "Exchange", [Role("A")])
        assert "expects 2 argument" in str(exc.value)

    def test_kind_mismatch(self):
        pf = conftest.load_fixture("negotiation_generic.mpst")
        with pytest.raises(ElabError):
            instantiate(pf, "Exchange", [Role("A"), END])

    def test_unbound_name(self, negotiation):
        with pytest.raises(ElabError):
            instantiate(negotiation, "NoSuch", [])

    def test_capture_avoiding_shadowed_recursion(self):
        # the argument's free recursion variable must not be captured by the
        # binder of the same name inside the generic body
        text = (
            "sort More; sort Stop; sort Begin;\n"
            "global Wrap[G: protocol] = rec X . A -> B : { More . G, Stop . X };\n"
            "global Outer = rec X . A -> B : Begin . Wrap[X];\n"
        )
        pf = load_text(text)
        outer = pf.concrete["Outer"]
        assert isinstance(outer, Loop)
        wrap = outer.body.branches[0][1]
        assert isinstance(wrap, Loop)
        assert wrap.var != outer.var
        more_cont = wrap.body.branches[0][1]
        stop_cont = wrap.body.branches[1][1]
        assert more_cont == Recur(outer.var)
        assert stop_cont == Recur(wrap.var)
        from mpstkit.core import well_formed

        assert well_formed(outer) == []

    def test_capture_avoidance_randomized_shadowing(self):
        # nesting the wrapper several levels deep keeps every binder apart
        text = (
            "sort More; sort Stop;\n"
            "global Wrap[G: protocol] = rec X . A -> B : { More . G, Stop . X };\n"
            "global Outer = rec X . A -> B : { More . Wrap[Wrap[X]], Stop . X };\n"
        )
        pf = load_text(text)
        from mpstkit.core import well_formed

        g = pf.concrete["Outer"]
        assert well_formed(g) == []
        inner_wrap = g.body.branches[0][1]
        assert inner_wrap.body.branches[0][1].body.branches[0][1] == Recur(g.var)

    def test_reference_is_the_definition_itself(self):
        # P2 names P1 and P0 before either is declared; W passes P0 through
        pf = load_text(
            "sort M; sort N;\n"
            "global P2 = A -> B : { M . P1, N . P0 };\n"
            "global P0 = A -> B : M . end;\n"
            "global P1 = A -> B : M . P0;\n"
            "global W[T: protocol] = B -> A : M . T;\n"
            "global Q = W[P0];\n"
        )
        p0, p1, p2 = (pf.concrete[f"P{i}"] for i in range(3))
        assert p1.branches[0][1] is p0
        assert p2.branches[0][1] is p1 and p2.branches[1][1] is p0
        assert pf.concrete["Q"].branches[0][1] is p0

    @pytest.mark.parametrize(
        "decls, error",
        [
            ("global P0 = A -> B : M . P1;\nglobal P1 = A -> B : M . P2;\n"
             "global P2 = A -> B : M . P1;", "4:26: recursive protocol definition: P1"),
            ("global G[T: protocol] = A -> B : M . T;\nglobal P0 = A -> B : M . end;\n"
             "global P1 = A -> B : M . P0;\nglobal P2 = A -> B : M . G;",
             "5:26: protocol G expects 1 argument(s), got 0"),
            ("global P0 = A -> B : M . end;\nglobal P1 = A -> B : M . P0;\n"
             "global P2 = A -> B : N . P1;", "4:13: unknown sort: N"),
        ],
    )
    def test_first_error_past_shared_definitions(self, decls, error):
        with pytest.raises(ElabError) as exc:
            load_text("sort M;\n" + decls)
        assert str(exc.value) == error

    def test_recursive_definition_cycle_detected(self):
        with pytest.raises(ElabError) as exc:
            load_text("sort Ok;\nglobal T = A -> B : Ok . T;")
        assert "recursive protocol definition" in str(exc.value)


class TestEndpointSortSchemas:
    def test_delegatee_schema_is_projection(self, three_buyer):
        from mpstkit.projection import project

        delegatee = three_buyer.sorts["Delegatee"]
        expected = project(three_buyer.concrete["Decision"], Role("B2"))
        assert delegatee.payload.role == Role("B2")
        assert struct_eq(delegatee.payload.local, expected)

    def test_endpoint_schema_against_unknown_protocol(self):
        with pytest.raises(ElabError):
            load_text("sort D(endpoint[B, NoSuch @ B]);\nglobal T = A -> B : D . end;")


class TestOneTypeRule:
    """Global and declared local types share one parser rule and one
    elaboration rule, with the results of a rule for each; processes parse
    straight to `typecheck` terms, with the results of parsing to surface
    nodes and copying those (`helpers.OracleParser` and
    `helpers.OracleElaborator`)."""

    def test_agrees_with_a_rule_for_each(self):
        inputs = benchmark_inputs()
        fixtures = [p.read_text() for p in sorted(conftest.FIXTURES.rglob("*.mpst"))]
        # rendered fixtures leave out default-session selectors, even where a
        # process plays several sessions
        texts = fixtures + [render_file(parse_protocol_file(t).file) for t in fixtures]
        texts += [
            f.text
            for workload in inputs.WORKLOADS
            for seed in (1, 4242, 9101)
            for f in inputs.family(workload, seed, ROOT)
        ]
        texts = list(dict.fromkeys(texts))
        # few inputs declare local types, so the small ones get their projections
        declared = [declare_projections(t) for t in texts if len(t) <= 3000]
        texts += declared + cut_and_splice(declared, 600, seed=9)
        # every token shape a rule reads by index, then a copy for each of its
        # tokens with that token blanked out and one with it replaced by `;`
        shapes = (
            "sort M(int);\nsort N;\n"
            "global G = rec X . A -> B : { M . X, N . B -> A : N . end };\n"
            "local G @ A = rec X . A -> B ! { M . X, N . B -> A ? N . end };\n"
            "proc q plays B in G as s {\n"
            "  loop L { recv [s] A { M(x) -> send [s] A M(x - 1); recur L,\n"
            "                        N(_) -> recv A { N(y) -> send A N; end } } }\n"
            "}\n"
        )
        texts.append(shapes)
        lexemes = tokenize(shapes)
        for lexeme, start in zip(lexemes.tokens, lexemes.starts):
            before, after = shapes[:start], shapes[start + len(lexeme):]
            texts += [before + " " * len(lexeme) + after, before + ";".ljust(len(lexeme)) + after]
        for text in texts:
            try:
                tokens = tokenize(text)
            except ParseError:
                continue  # both rules read the same tokens
            assert front_end_outcome(tokens) == front_end_outcome(
                tokens, OracleParser, OracleElaborator
            ), text

    def test_local_type_names_roles_as_written(self):
        # X is a recursion variable and, in the action, a role; a global type
        # rejects that, a declared local type does not (its check then fails)
        text = (
            "sort M;\nglobal G = rec X . B -> A : M . X;\n"
            "local G @ A = rec X . X -> A ? M . X;\n"
        )
        pf = load_text(text)
        x = RecVar("X")
        assert pf.local_asserts[0].declared == Loop(
            x, Recv(Role("X"), Role("A"), ((Sort("M"), Recur(x)),))
        )
        outcome = cli.check_protocol_file(pf, "g.mpst", with_consistency=False)
        assert len(outcome.assert_failures) == 1
        assert "does not match the projection" in outcome.assert_failures[0]

    @pytest.mark.parametrize("declared, error", [
        ("G", "3:15: unknown recursion variable in local type: G"),
        ("Y", "3:15: unknown recursion variable in local type: Y"),
        ("rec X . A -> B ! M . G", "3:36: unknown recursion variable in local type: G"),
    ])
    def test_local_type_names_only_recursion_variables(self, declared, error):
        # G is a protocol, but a local type never looks protocols up
        text = f"sort M;\nglobal G = A -> B : M . end;\nlocal G @ A = {declared};\n"
        with pytest.raises(ElabError) as exc:
            load_text(text)
        assert str(exc.value) == error

    def test_local_reference_with_arguments(self):
        # the parser takes no arguments in a local type; an AST built by hand can
        sf = parse_protocol_file(
            "sort M;\nglobal G[r: role] = A -> r : M . end;\n"
        ).file
        sf.decls.append(LocalDef("G", "A", STRef("G", (STRef("B"),), (3, 15)), (3, 1)))
        with pytest.raises(ElabError) as exc:
            elaborate(sf)
        assert str(exc.value) == "3:15: unknown recursion variable in local type: G"

    @pytest.mark.parametrize("step", ["A -> B : M . ", "A -> B ! M . ", "send A M; "])
    def test_longest_declaration_is_unchanged(self, step):
        # one type rule costs the stack frames per step of a rule for each, and
        # a statement parsed to a term those of one parsed to a surface node
        if step.startswith("send"):
            head, tail = "proc p plays B in G {", "end }"
        else:
            head, tail = ("global H =" if ":" in step else "local G @ B ="), "end;"

        def parses(parser, n):
            text = f"sort M;\nglobal G = end;\n{head} {step * n}{tail}\n"
            return not parser(tokenize(text)).file().errors

        def longest(parser):
            lo, hi = 1, 2000  # parses lo steps, not hi
            assert parses(parser, lo) and not parses(parser, hi)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if parses(parser, mid) else (lo, mid)
            return lo

        assert longest(_Parser) == longest(OracleParser)


class TestPlainRecords:
    """Parse-tree nodes and process terms are plain dataclasses: compared and
    hashed by value, with `pos` left out, and rebuilt by `replace`."""

    @pytest.mark.parametrize(
        "name", sorted(p.relative_to(conftest.FIXTURES).as_posix()
                       for p in conftest.FIXTURES.rglob("*.mpst")))
    def test_two_parses_are_equal_with_equal_hashes(self, name):
        text = conftest.fixture_path(name).read_text()
        a, b = (parse_protocol_file(text).file.decls for _ in range(2))
        assert a == b and a is not b
        assert [hash(d) for d in a] == [hash(d) for d in b]

    @pytest.mark.parametrize(
        "name",
        sorted(list(conftest.CONSISTENT_FIXTURES) + list(conftest.INCONSISTENT_FIXTURES)),
    )
    def test_elaboration_resolves_the_parsed_process_in_place(self, name):
        # an elaborated process is its parsed body, with each sort set in place
        text = conftest.fixture_path(name).read_text()
        sf = parse_protocol_file(text).file
        hashes, rendered = [hash(d) for d in sf.proc_defs()], render_file(sf)
        first = elaborate(sf)
        assert all(p.term is d.body for p, d in zip(first.procs, sf.proc_defs(), strict=True))
        assert [hash(d) for d in sf.proc_defs()] == hashes
        assert render_file(sf) == rendered
        before = repr(first.procs)
        second = elaborate(sf)
        assert repr(second.procs) == before
        assert second.procs == elaborate(parse_protocol_file(text).file).procs

    def test_records_differing_only_in_pos_are_equal(self):
        text = "sort M;\nglobal G = A -> B : M . end;\nproc p plays A in G { send B M; end }\n"
        a = parse_protocol_file(text).file.decls
        b = parse_protocol_file("\n\n  " + text.replace(" . ", " .\n ")).file.decls
        assert len(a) == 3 and [d.pos for d in a] != [d.pos for d in b]
        assert a == b and [hash(d) for d in a] == [hash(d) for d in b]
        send = tc.SendT("s", Role("B"), tc.NewSort(Sort("M")), tc.EndT(), (1, 1))
        moved = tc.SendT("s", Role("B"), tc.NewSort(Sort("M")), tc.EndT(), (9, 9))
        assert send == moved and hash(send) == hash(moved)

    def test_replace_round_trips(self):
        (proc,) = parse_protocol_file(
            "proc p plays A in G { send B M; end }\n").file.proc_defs()
        renamed = dataclasses.replace(proc, name="q")
        assert (renamed.name, renamed.pos) == ("q", proc.pos) and renamed != proc
        assert dataclasses.replace(renamed, name="p") == proc
        send = tc.SendT("s", Role("B"), tc.NewSort(Sort("M")), tc.EndT(), (2, 3))
        back = dataclasses.replace(dataclasses.replace(send, session="t"), session="s")
        assert back == send and back.pos == send.pos
