"""CLI behaviour: exit codes, output formats, trace files, benchmarking."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time

import pytest

import conftest
from helpers import (
    ROOT, benchmark_inputs, bystander_chains, cut_and_splice, odd_files, reference_chain,
)
from mpstkit import cli, core, surface
from mpstkit.elaborate import load_text

SRC = str(conftest.FIXTURES.parent / "src")
# the CLI runs in a child interpreter, which must find mpstkit without an install
ENV = dict(
    os.environ,
    MPSTKIT_COLOR="0",
    PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p),
)


def mpstkit(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "mpstkit.cli", *args],
        capture_output=True,
        text=True,
        env=ENV,
        cwd=cwd,
        timeout=120,
    )


def fx(name: str) -> str:
    return str(conftest.fixture_path(name))


class TestCheck:
    def test_ok_fixture_exits_zero(self):
        result = mpstkit("check", fx("negotiation.mpst"), "--consistency")
        assert result.returncode == 0
        assert "consistent" in result.stdout

    def test_inconsistent_fixture_exits_one_with_pair(self):
        result = mpstkit("check", fx("authorisation.mpst"), "--consistency")
        assert result.returncode == 1
        assert "inconsistent" in result.stdout
        assert "(S,A)" in result.stdout

    def test_consistency_off_by_default(self):
        result = mpstkit("check", fx("authorisation.mpst"))
        assert result.returncode == 0
        assert "inconsistent" not in result.stdout

    def test_mutation_exits_one_with_class_and_line(self):
        path = fx("mutations/negotiation_wrong_peer.mpst")
        result = mpstkit("check", path)
        assert result.returncode == 1
        assert "wrong-peer" in result.stdout
        text = conftest.fixture_path("mutations/negotiation_wrong_peer.mpst").read_text()
        line = next(
            i for i, l in enumerate(text.splitlines(), 1) if "send C Confirm" in l
        )
        assert f":{line}:" in result.stdout

    def test_syntax_error_exits_two(self, tmp_path):
        bad = tmp_path / "bad.mpst"
        bad.write_text("global = ;")
        result = mpstkit("check", str(bad))
        assert result.returncode == 2
        assert "1:8" in result.stderr

    def test_too_long_protocol_exits_two_without_traceback(self, tmp_path):
        steps = "A -> B : M . " * 600
        long = tmp_path / "long.mpst"
        long.write_text(f"sort M;\nglobal Long = {steps}end;\n")
        result = mpstkit("check", str(long), "--consistency")
        assert result.returncode == 2
        assert f"{long}:2:1: declaration nested too deeply" in result.stderr
        assert "Traceback" not in result.stderr

    def test_json_output_parses(self):
        result = mpstkit("check", fx("negotiation.mpst"), "--consistency", "--json")
        assert result.returncode == 0
        data = json.loads(result.stdout)
        assert data["status"] == "ok"
        assert data["wellFormed"]["Negotiation"] == []
        assert data["consistency"]["Negotiation"]["consistent"] is True
        assert all(p["ok"] for p in data["processes"])

    def test_json_diagnostics_carry_error_class(self):
        result = mpstkit("check", fx("mutations/negotiation_wrong_sort.mpst"), "--json")
        assert result.returncode == 1
        data = json.loads(result.stdout)
        diags = [d for p in data["processes"] for d in p["diagnostics"]]
        assert diags[0]["class"] == "wrong-sort"
        assert diags[0]["line"] is not None

    def test_local_assert_failure(self, tmp_path):
        bad = tmp_path / "assert.mpst"
        bad.write_text(
            "sort Ping;\nglobal P = A -> B : Ping . end;\n"
            "local P @ B = A -> B ? Ping . A -> B ? Ping . end;\n"
        )
        result = mpstkit("check", str(bad))
        assert result.returncode == 1
        assert "does not match the projection" in result.stdout

    @pytest.mark.parametrize("steps", [200, 250])
    def test_long_declared_local_type(self, tmp_path, steps):
        # comparing it with its projection once recursed once per step
        f = tmp_path / "long.mpst"
        f.write_text(
            "sort M;\n"
            f"global G = rec X . {'A -> B : M . ' * steps}X;\n"
            f"local G @ B = rec X . {'A -> B ? M . ' * steps}X;\n"
        )
        result = mpstkit("check", str(f), "--consistency")
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout == "G: well formed\nG: consistent\n"


class TestProject:
    def test_text_output_reparses(self, tmp_path):
        result = mpstkit("project", fx("negotiation.mpst"), "--role", "B")
        assert result.returncode == 0
        from mpstkit.core import struct_eq
        from mpstkit.elaborate import load_text

        roundtrip = load_text(
            "sort Propose(int); sort Accept; sort Reject; sort Confirm;\n"
            "global G = A -> B : Propose . end;\n"
            f"local G @ B = {result.stdout.strip()};\n"
        )
        from helpers import negotiation_local_b

        assert struct_eq(roundtrip.local_asserts[0].declared, negotiation_local_b())

    def test_end_only_protocol(self, tmp_path):
        f = tmp_path / "empty.mpst"
        f.write_text("global E = end;\n")
        result = mpstkit("project", str(f), "--role", "R")
        assert result.returncode == 0
        assert result.stdout.strip() == "end"

    def test_json_output(self):
        result = mpstkit(
            "project", fx("two_buyer.mpst"), "--role", "S", "--protocol", "Decision",
            "--json",
        )
        assert result.returncode == 0
        from mpstkit.core import struct_eq, type_from_json
        from helpers import seller_decision_local

        assert struct_eq(type_from_json(json.loads(result.stdout)), seller_decision_local())

    def test_protocol_required_when_ambiguous(self):
        result = mpstkit("project", fx("two_buyer.mpst"), "--role", "S")
        assert result.returncode != 0

    def test_unprojectable_exits_one(self):
        result = mpstkit(
            "project", fx("booking.mpst"), "--role", "S", "--protocol", "Booking"
        )
        assert result.returncode == 1
        assert "not projectable" in result.stderr


@pytest.mark.parametrize("command", ["project", "fsm"])
@pytest.mark.parametrize("role", ["1x", "Z"])
def test_unknown_role_is_one_line(command, role):
    # an invalid role name and a name the protocol does not use both fail
    # like an unknown --protocol: one stderr line, exit 1, no traceback
    result = mpstkit(command, fx("negotiation.mpst"), "--role", role)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == f"unknown role {role} in protocol Negotiation (roles: A, B)\n"


GENERIC_ONLY = "sort M;\nglobal G[P: role, Q: role] = P -> Q : M . end;\n"


@pytest.mark.parametrize("command", ["project", "fsm"])
@pytest.mark.parametrize("text", ["", GENERIC_ONLY], ids=["empty", "generic-only"])
def test_no_concrete_protocol_is_named(command, text, tmp_path):
    # with no --protocol, a file with nothing to pick says so, not "several"
    f = tmp_path / "f.mpst"
    f.write_text(text)
    result = mpstkit(command, str(f), "--role", "A")
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "file defines no concrete protocol\n"


@pytest.mark.parametrize("command", ["project", "fsm"])
def test_generic_protocol_is_named(command, tmp_path):
    f = tmp_path / "f.mpst"
    f.write_text(GENERIC_ONLY)
    result = mpstkit(command, str(f), "--role", "A", "--protocol", "G")
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "protocol G is generic\n"
    result = mpstkit(command, str(f), "--role", "A", "--protocol", "H")
    assert (result.returncode, result.stderr) == (1, "unknown protocol H\n")


@pytest.mark.parametrize(
    "args",
    [
        ["project", fx("three_buyer.mpst"), "--protocol", "Purchase", "--role", "B1", "--json"],
        ["bench", str(conftest.FIXTURES), "--repeat", "1"],
    ],
    ids=["project", "bench"],
)
def test_closed_stdout_is_not_a_traceback(args):
    # the child's stdout is a pipe whose reader is closed before it starts,
    # as when `| head` has exited: its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "mpstkit.cli", *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=ENV,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr == ""  # no traceback, nor an "Exception ignored" at exit


class TestFsm:
    def test_dot_file_written(self, tmp_path):
        out = tmp_path / "bob.dot"
        result = mpstkit(
            "fsm", fx("negotiation.mpst"), "--role", "B", "--dot", str(out)
        )
        assert result.returncode == 0
        assert "6 states, 9 transitions" in result.stdout
        dot = out.read_text()
        assert dot.startswith("digraph")
        assert "doublecircle" in dot

    def test_reruns_byte_equal(self, tmp_path):
        a, b = tmp_path / "a.dot", tmp_path / "b.dot"
        mpstkit("fsm", fx("negotiation.mpst"), "--role", "B", "--dot", str(a))
        mpstkit("fsm", fx("negotiation.mpst"), "--role", "B", "--dot", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_json_output(self):
        result = mpstkit("fsm", fx("negotiation.mpst"), "--role", "B", "--json")
        data = json.loads(result.stdout)
        assert len(data["states"]) == 6
        assert len(data["transitions"]) == 9
        assert len(data["finals"]) == 1


class TestRun:
    def test_negotiation_trace_file(self, tmp_path):
        trace = tmp_path / "trace.txt"
        result = mpstkit("run", fx("negotiation.mpst"), "--trace", str(trace))
        assert result.returncode == 0
        lines = [l for l in trace.read_text().splitlines() if l.startswith("seq")]
        assert lines == [
            "seq 1: A -> B : Propose(5)",
            "seq 2: B -> A : Propose(11)",
            "seq 3: A -> B : Propose(6)",
            "seq 4: B -> A : Propose(11)",
            "seq 5: A -> B : Reject",
        ]

    def test_no_processes_is_a_noop(self):
        result = mpstkit("run", fx("authorisation.mpst"))
        assert result.returncode == 0
        assert "nothing to run" in result.stdout

    def test_refuses_unchecked_fixture(self):
        result = mpstkit("run", fx("mutations/oneshot_bad_send.mpst"))
        assert result.returncode == 1
        assert "refusing to run" in result.stdout

    def test_unchecked_flag_reaches_dynamic_guard(self):
        result = mpstkit(
            "run", fx("mutations/oneshot_bad_send.mpst"), "--unchecked",
            "--timeout", "1",
        )
        assert result.returncode == 1
        assert "not offered" in result.stderr

    @pytest.mark.parametrize(
        "mutation", ["oneshot_bad_send.mpst", "negotiation_wrong_recur.mpst"]
    )
    def test_fault_cancels_peers_without_waiting_for_timeout(self, mutation):
        start = time.monotonic()
        result = mpstkit("run", fx(f"mutations/{mutation}"), "--unchecked")
        assert time.monotonic() - start < 2.0
        assert result.returncode == 1
        faults = [l for l in result.stderr.splitlines() if l.startswith("fault in")]
        assert "cancelled after a fault" not in faults[0]
        assert any("cancelled after a fault" in l for l in faults[1:])
        assert "timeout" not in result.stderr

    def test_unchecked_orphan_message_exits_one(self, tmp_path):
        # B ends without receiving A's Ping: the run must not pass
        orphan = tmp_path / "orphan.mpst"
        orphan.write_text(
            "sort Ping;\n"
            "global G = A -> B : Ping . end;\n"
            "proc a plays A in G { send B Ping; end }\n"
            "proc b plays B in G { end }\n"
        )
        result = mpstkit("run", str(orphan), "--unchecked")
        assert result.returncode == 1
        assert "role B ended with its session unfinished" in result.stderr
        assert "role A" not in result.stderr

    def test_three_buyer_two_session_trace(self, tmp_path):
        trace = tmp_path / "trace.txt"
        result = mpstkit("run", fx("three_buyer.mpst"), "--trace", str(trace))
        assert result.returncode == 0
        text = trace.read_text()
        assert "# session Purchase" in text
        assert "# session Handoff" in text

    def test_json_trace(self):
        result = mpstkit("run", fx("negotiation.mpst"), "--json")
        data = json.loads(result.stdout)
        assert [e["sort"] for e in data["sessions"]["Negotiation"]] == [
            "Propose", "Propose", "Propose", "Propose", "Reject",
        ]

    def test_delegating_a_non_session_fails_check(self, tmp_path):
        # a sort that carries an endpoint takes a session variable, not data
        text = conftest.fixture_path("three_buyer.mpst").read_text()
        bad = text.replace("send[u] B3 Delegatee(s);", "send[u] B3 Delegatee(5);")
        assert bad != text
        path = tmp_path / "deleg.mpst"
        path.write_text(bad)
        line = next(
            i for i, l in enumerate(bad.splitlines(), 1) if "Delegatee(5)" in l
        )
        for command in ("check", "run"):
            result = mpstkit(command, str(path))
            assert result.returncode == 1
            assert (
                f"{path}:{line}:7: expr-type-mismatch: sort Delegatee carries an"
                " endpoint: its payload must be a session variable" in result.stdout
            )

    def test_message_value_reads_its_payload(self, tmp_path):
        path = tmp_path / "value.mpst"
        path.write_text(
            "sort Ping(int);\n"
            "global P = A -> B : Ping . end;\n"
            "proc a plays A in P { let m = Ping(5); let x = m.value - 1;"
            " send B Ping(x); end }\n"
            "proc b plays B in P { recv A { Ping(v) -> let y = v.value - 1; end } }\n"
        )
        assert mpstkit("check", str(path)).returncode == 0
        result = mpstkit("run", str(path))
        assert result.returncode == 0, result.stderr
        assert result.stdout == "# session P\nseq 1: A -> B : Ping(4)\n"

    def test_cross_session_deadlock_is_reported_at_once(self, tmp_path):
        # each session alone is deadlock free, so check accepts the file
        path = tmp_path / "deadlock.mpst"
        path.write_text(
            "sort Ping;\n"
            "global G1 = B -> A : Ping . end;\n"
            "global G2 = A -> B : Ping . end;\n"
            "proc p plays A in G1 as s, A in G2 as u"
            " { recv[s] B { Ping(_) -> send[u] B Ping; end } }\n"
            "proc q plays B in G1 as s, B in G2 as u"
            " { recv[u] A { Ping(_) -> send[s] A Ping; end } }\n"
        )
        assert mpstkit("check", str(path)).returncode == 0
        start = time.monotonic()
        result = mpstkit("run", str(path))
        assert time.monotonic() - start < 2.0
        assert result.returncode == 1
        assert result.stdout == "# session G1\n# session G2\n"
        assert result.stderr.splitlines() == [
            "fault in p: session G1 deadlocked: A waits for B to send Ping",
            "fault in q: session G2 deadlocked: B waits for A to send Ping",
        ]

    def test_unchecked_generic_binding_fails_the_run(self, tmp_path):
        path = tmp_path / "generic.mpst"
        path.write_text(
            "sort M;\n"
            "global G[P: role, Q: role] = P -> Q : M . end;\n"
            "proc a plays A in G { send B M; end }\n"
        )
        result = mpstkit("run", "--unchecked", str(path))
        assert result.returncode == 1
        assert result.stdout == "run failed: cannot run G: protocol G is generic\n"
        assert result.stderr == ""

    @pytest.mark.parametrize("timeout", ["0", "-1", "nan"])
    def test_timeout_must_be_positive(self, timeout):
        result = mpstkit("run", fx("negotiation.mpst"), "--timeout", timeout)
        assert result.returncode == 2
        assert result.stdout == ""
        assert f"argument --timeout: must be above 0, got {timeout}" in result.stderr
        assert "Traceback" not in result.stderr


NOT_UTF8 = b"sort M;\n// caf\xff\nglobal G = A -> B : M . end;\n"


@pytest.mark.parametrize(
    "command", [("check",), ("check", "--consistency"), ("project", "--role", "A"), ("run",)]
)
def test_non_utf8_file_is_an_input_error(tmp_path, command):
    path = tmp_path / "latin.mpst"
    path.write_bytes(NOT_UTF8)
    result = mpstkit(command[0], str(path), *command[1:])
    assert result.returncode == 2
    assert result.stderr == (
        f"{path}: 'utf-8' codec can't decode byte 0xff in position 14: invalid start byte\n"
    )


@pytest.mark.parametrize("command", [
    ("check", "--consistency"), ("project", "--role", "B"), ("fsm", "--role", "B", "--json"),
    ("run",),
])
@pytest.mark.parametrize("text, code", [
    (conftest.fixture_path("negotiation.mpst").read_text(), 0),
    ("global G = A -> : M . end;\n", 2),
], ids=["negotiation", "syntax error on line 1"])
def test_byte_order_mark_is_ignored(tmp_path, capsys, text, code, command):
    path = tmp_path / "input.mpst"
    outcomes = []
    for mark in ("", "\ufeff"):
        path.write_text(mark + text, encoding="utf-8")
        try:
            exit_code = cli.main([command[0], str(path), *command[1:]])
        except SystemExit as e:  # project and fsm exit on a file that does not load
            exit_code = e.code
        outcomes.append((exit_code, *capsys.readouterr()))
    assert outcomes[1] == outcomes[0]
    assert outcomes[0][0] == code


def test_a_lone_carriage_return_is_not_a_line_break(tmp_path, capsys):
    # the file is read as it is, so the CLI places an error where
    # parse_protocol_file does
    path = tmp_path / "input.mpst"
    path.write_bytes(b"sort A;\r  $")
    assert cli.main(["check", str(path)]) == 2
    assert capsys.readouterr() == ("", f"{path}:1:11: unexpected character '$'\n")
    errors = surface.parse_protocol_file("sort A;\r  $").errors
    assert [(e.line, e.col) for e in errors] == [(1, 11)]


@pytest.mark.parametrize("command", [
    ("check", "--consistency"), ("check", "--consistency", "--json"), ("project", "--role", "B"),
])
@pytest.mark.parametrize("text", [
    conftest.fixture_path("mutations/negotiation_wrong_sort.mpst").read_text(),
    "sort M;\nglobal G = A -> B : M . end;\n\n  global H = A -> : M . end;\n",
], ids=["diagnostics", "syntax error"])
def test_crlf_line_ends_print_what_lf_ones_do(tmp_path, capsys, text, command):
    path = tmp_path / "input.mpst"
    outcomes = []
    for data in (text, text.replace("\n", "\r\n")):
        path.write_bytes(data.encode())
        try:
            code = cli.main([command[0], str(path), *command[1:]])
        except SystemExit as e:  # project exits on a file that does not load
            code = e.code
        outcomes.append((code, *capsys.readouterr()))
    assert outcomes[1] == outcomes[0]
    if command == ("check", "--consistency"):  # each input fails with a located message
        assert outcomes[0][0] in (1, 2) and f"{path}:" in outcomes[0][1] + outcomes[0][2]


@pytest.mark.parametrize("command", [
    ("check", "--consistency"), ("project", "--role", "B"), ("fsm", "--role", "B", "--json"),
    ("run",),
])
def test_over_long_integer_literal_is_a_located_syntax_error(tmp_path, capsys, command):
    # more digits than int() converts by default; the text and place of the
    # error must not depend on the interpreter's limit
    path = tmp_path / "input.mpst"
    path.write_text("sort N(int);\nglobal G = A -> B : N . end;\n"
                    f"proc a plays A in G {{\n  send B N({'9' * 4301}); end\n}}\n"
                    "proc b plays B in G { recv A { N(_) -> end } }\n")
    try:
        code = cli.main([command[0], str(path), *command[1:]])
    except SystemExit as e:  # project and fsm exit on a file that does not load
        code = e.code
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert f"{path}:4:12: integer literal too long" in err


@pytest.mark.parametrize(
    "command", [("fsm", "--role", "B", "--dot"), ("run", "--trace")], ids=["fsm", "run"]
)
def test_unwritable_output_path_is_an_input_error(tmp_path, command):
    out = tmp_path / "missing" / "out.txt"
    result = mpstkit(command[0], fx("negotiation.mpst"), *command[1:], str(out))
    assert result.returncode == 2
    assert result.stderr == f"[Errno 2] No such file or directory: '{out}'\n"


def test_parity_tool_fingerprints_two_fixtures():
    spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    inputs = [(name, conftest.fixture_path(name).read_text())
              for name in ("negotiation.mpst", "mutations/oneshot_bad_send.mpst")]
    lines = parity.parity_lines(inputs)
    assert lines == parity.parity_lines(inputs)
    rows = {tuple(line.split(" | ")[:2]): line.split(" | ")[2:] for line in lines}
    assert len(rows) == len(lines) == 26
    trace = "# session Negotiation\n" + "".join(
        f"seq {i}: {step}\n" for i, step in enumerate(
            ["A -> B : Propose(5)", "B -> A : Propose(11)", "A -> B : Propose(6)",
             "B -> A : Propose(11)", "A -> B : Reject"], start=1))
    empty = hashlib.sha256(b"").hexdigest()
    assert rows["negotiation.mpst", "run"] == [
        "exit 0", f"stdout {hashlib.sha256(trace.encode()).hexdigest()}", f"stderr {empty}"]
    assert [row[0] for key, row in rows.items() if key[0] == "negotiation.mpst"] == ["exit 0"] * 13
    bad = "mutations/oneshot_bad_send.mpst"
    assert rows[bad, "check --consistency"][0] == "exit 1"
    assert rows[bad, "run --unchecked --timeout 1"][0] == "exit 1"


def stress_protocol(sends: int) -> str:
    """A loop whose Go branch carries `sends` messages, with processes for
    both roles; A goes round three times, then stops."""
    steps = " . ".join(["A -> B : M"] * sends)
    body = "; ".join(["send B M"] * sends)
    recvs = "recur X"
    for _ in range(sends):
        recvs = f"recv A {{ M(_) -> {recvs} }}"
    return (
        "sort M; sort Go; sort Stop;\n"
        f"global G = rec X . A -> B : {{ Go . {steps} . X, Stop . end }};\n"
        "proc a plays A in G {\n"
        "  let i = 3;\n"
        f"  loop X {{ if 0 < i then {{ send B Go; {body}; let i = i - 1; recur X }}"
        " else { send B Stop; end } }\n"
        "}\n"
        "proc b plays B in G {\n"
        f"  loop X {{ recv A {{ Go(_) -> {recvs}, Stop(_) -> end }} }}\n"
        "}\n"
    )


class TestStress:
    """A 250-message loop goes through every command without a traceback."""

    @pytest.fixture(scope="class")
    def long_loop(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("stress") / "long.mpst"
        path.write_text(stress_protocol(250))
        return str(path)

    @pytest.mark.parametrize(
        "args",
        [
            ("check", "--consistency"),
            ("project", "--role", "A"),
            ("project", "--role", "A", "--json"),
            ("fsm", "--role", "B"),
        ],
    )
    def test_static_commands(self, long_loop, args):
        result = mpstkit(args[0], long_loop, *args[1:])
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr

    def test_project_text_renders_every_step(self, long_loop):
        result = mpstkit("project", long_loop, "--role", "A")
        assert result.stdout.count("A -> B ! M .") == 250

    def test_run(self, long_loop):
        result = mpstkit("run", long_loop, "--json")
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        events = json.loads(result.stdout)["sessions"]["G"]
        assert len(events) == 3 * 251 + 1

    def test_long_subtraction(self, tmp_path):
        # a 5,000-term expression checks and runs without recursing per term
        terms = 5000
        path = tmp_path / "sub.mpst"
        path.write_text(
            "sort Num(int);\n"
            "global P = A -> B : Num . end;\n"
            f"proc a plays A in P {{ let x = {' - '.join(['1'] * terms)}; send B Num(x); end }}\n"
            "proc b plays B in P { recv A { Num(_) -> end } }\n"
        )
        result = mpstkit("check", str(path))
        assert result.returncode == 0, result.stderr
        result = mpstkit("run", str(path))
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"# session P\nseq 1: A -> B : Num({2 - terms})\n"

    @pytest.mark.parametrize("command", [
        ["check"], ["check", "--consistency"], ["project", "--protocol", "G", "--role", "B"],
    ], ids=["check", "check-consistency", "project"])
    def test_deep_bystander_merge(self, tmp_path, capsys, command):
        # B merges C's two branches 1,201 steps deep: the merge keeps its own stack
        path = tmp_path / "merge.mpst"
        path.write_text(bystander_chains(12)
                        + "proc c plays C in G { recv A { x(_) -> end, y(_) -> end } }\n")
        assert cli.main([command[0], str(path), *command[1:]]) == 0
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        if command[0] == "project":
            assert out.count("A -> B ? M .") == 1200
            assert out.endswith("A -> B ? { M . end, N . end }\n")

    @pytest.mark.parametrize("command, line", [
        (["check"], "chain.mpst:3:44: expr-type-mismatch: field access on a non-message value"),
        (["check", "--json"], '"class": "expr-type-mismatch"'),
        (["run"], "chain.mpst:3:44: expr-type-mismatch: field access on a non-message value"),
        (["run", "--unchecked"], "fault in p: field access on 1, which is not a message"),
    ], ids=["check", "check-json", "run", "run-unchecked"])
    def test_long_value_chain(self, tmp_path, capsys, command, line):
        # a 5,000-step `.value` chain reports what a 3-step one does: the
        # checker, the runtime and the renderer peel the chain with a loop
        outcomes = []
        for steps in (3, 5000):
            path = tmp_path / str(steps) / "chain.mpst"
            path.parent.mkdir()
            path.write_text(
                "sort M(int);\nglobal G = A -> B : M . end;\n"
                f"proc p plays A in G {{ let x = 1; send B M(x{'.value' * steps}); end }}\n"
                "proc q plays B in G { recv A { M(_) -> end } }\n"
            )
            code = cli.main([command[0], str(path), *command[1:]])
            out, err = capsys.readouterr()
            outcomes.append((code, (out + err).replace(str(path), "chain.mpst")))
        assert outcomes[0] == outcomes[1]
        code, output = outcomes[1]
        assert code == 1 and output.count(line) == 1, output
        assert output.count("field access") == 1 and "Traceback" not in output


# (kind, declarations, command, exit code, where the one error line points)
CHAINS = [
    ("in order", 1000, ["check"], 0, None),
    ("in order", 1000, ["project", "--protocol", "P999", "--role", "B"], 0, None),
    ("in order", 1000, ["fsm", "--json", "--protocol", "P999", "--role", "B"], 0, None),
    ("in order", 300, ["check", "--consistency"], 0, None),
    ("reversed", 200, ["check"], 0, None),
    ("reversed", 1000, ["check"], 2, "2:1"),
    ("generic", 1000, ["check"], 2, "1002:1"),
    ("in order", 1000, ["project", "--json", "--protocol", "P999", "--role", "B"], 0, None),
    ("diamond", 40, ["check"], 0, None),
]


@pytest.mark.parametrize("kind, n, command, code, where", CHAINS)
def test_reference_chain(tmp_path, capsys, kind, n, command, code, where):
    """A chain of references in file order is elaborated once per
    declaration; one that recurses per reference past the stack is a
    located error at the declaration it starts from."""
    path = tmp_path / "chain.mpst"
    path.write_text("\n".join(["sort M; sort Q;", *reference_chain(kind, n)]) + "\n")
    assert cli.main([command[0], str(path), *command[1:]]) == code
    err = capsys.readouterr().err
    if where is None:
        assert err == ""
    else:
        assert err == f"{path}:{where}: protocol references nested too deeply\n"


@pytest.mark.parametrize("kind, n, limit", [
    ("diamond", 18, 0.05), ("diamond", 40, 0.5), ("in order", 800, 0.06), ("reversed", 200, 0.06),
])
def test_check_decides_each_shared_protocol_once(kind, n, limit):
    """Well-formedness is decided once per shared object: a diamond's 2^n
    paths and a chain's nested bodies cost about as much as their objects
    (best of three, in process)."""
    text = "\n".join(["sort M; sort Q;", *reference_chain(kind, n)]) + "\n"
    times = []
    for _ in range(3):
        pf = load_text(text)
        start = time.perf_counter()
        outcome = cli.check_protocol_file(pf, "chain.mpst", False)
        times.append(time.perf_counter() - start)
        assert outcome.ok and len(outcome.well_formedness) == n
    assert min(times) < limit


@pytest.mark.parametrize("order", ["in order", "reversed"])
def test_a_protocol_reuses_the_verdict_on_the_body_it_names(monkeypatch, order):
    # each `Pi = rec X . A -> B : M . P(i-1)` holds P(i-1)'s body, which is
    # decided once where X is bound and once where nothing is
    n = 100
    lines = ["global P0 = end;"]
    lines += [f"global P{i} = rec X . A -> B : M . P{i - 1};" for i in range(1, n)]
    pf = load_text("\n".join(["sort M;", *(lines if order == "in order" else lines[::-1])]))
    guarded = []
    monkeypatch.setattr(core, "is_guarded", lambda v, b: guarded.append(v) or True)
    assert cli.check_protocol_file(pf, "chain.mpst", False).ok
    assert len(guarded) < 2 * n


class TestDamagedInputs:
    """Two seeded sources of damaged input go through each command, in
    process, without a traceback: cut-and-spliced copies of every fixture
    and corpus/run input (not the ping-pongs, whose processes never stop),
    and files of whole declarations that parse but are odd."""

    COMMANDS = [
        ["check"],
        ["check", "--consistency", "--json"],
        ["run", "--unchecked", "--timeout", "0.2"],
        ["run", "--json", "--unchecked", "--timeout", "0.2"],
        ["project", "--json", "--role", "A"],
        ["fsm", "--json", "--role", "A"],
    ]

    def exit_codes(self, texts, path, capsys):
        for text in texts:
            path.write_text(text)
            for command in self.COMMANDS:
                try:
                    code = cli.main([command[0], str(path), *command[1:]])
                except SystemExit as e:
                    # a SystemExit that carries a message exits 1
                    code = 1 if isinstance(e.code, str) else e.code
                assert code in (0, 1, 2), (command, text)
            capsys.readouterr()

    def test_every_call_ends_in_an_exit_code(self, tmp_path, capsys):
        inputs = benchmark_inputs()
        texts = [p.read_text() for p in sorted(conftest.FIXTURES.rglob("*.mpst"))]
        texts += [
            f.text
            for workload in ("corpus", "run")
            for f in inputs.family(workload, 4242, ROOT)
            if not f.name.startswith("pingpong")
        ]
        damaged = cut_and_splice(list(dict.fromkeys(texts)), 400, seed=11)
        self.exit_codes(damaged, tmp_path / "damaged.mpst", capsys)

    def test_odd_declarations(self, tmp_path, capsys):
        self.exit_codes(odd_files(150, seed=12), tmp_path / "odd.mpst", capsys)


class TestBench:
    def test_empty_dir(self, tmp_path):
        result = mpstkit("bench", str(tmp_path))
        assert result.returncode == 0
        assert "no .mpst files" in result.stdout

    def test_missing_dir_is_an_input_error(self, tmp_path):
        missing = tmp_path / "missing"
        result = mpstkit("bench", str(missing))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"[Errno 2] No such file or directory: '{missing}'\n"

    def test_single_repeat_has_zero_stddev(self, tmp_path):
        (tmp_path / "p.mpst").write_text("global E = end;\n")
        result = mpstkit("bench", str(tmp_path), "--repeat", "1", "--json")
        data = json.loads(result.stdout)
        assert len(data) == 1
        assert data[0]["stdev_ms"] == 0.0
        assert data[0]["ok"] is True

    def test_non_utf8_file_fails_its_row(self, tmp_path):
        (tmp_path / "latin.mpst").write_bytes(NOT_UTF8)
        (tmp_path / "ok.mpst").write_text("global E = end;\n")
        result = mpstkit("bench", str(tmp_path), "--repeat", "1", "--json")
        assert result.returncode == 0, result.stderr
        rows = {row["file"]: row["ok"] for row in json.loads(result.stdout)}
        assert rows == {"latin.mpst": False, "ok.mpst": True}

    def test_repeat_must_be_positive(self, tmp_path):
        (tmp_path / "p.mpst").write_text("global E = end;\n")
        result = mpstkit("bench", str(tmp_path), "--repeat", "0")
        assert result.returncode == 2
        assert result.stdout == ""
        assert "argument --repeat: must be above 0, got 0" in result.stderr
        assert "Traceback" not in result.stderr

    def test_table_rows_per_file(self, tmp_path):
        for name in ("negotiation.mpst", "authorisation.mpst"):
            (tmp_path / name).write_text(conftest.fixture_path(name).read_text())
        result = mpstkit("bench", str(tmp_path), "--repeat", "2")
        assert result.returncode == 0
        assert "negotiation.mpst" in result.stdout
        assert "authorisation.mpst" in result.stdout
        assert "ms" in result.stdout
