"""CLI behaviour: exit codes, output formats, trace files, benchmarking."""

import json
import os
import subprocess
import sys

import conftest

ENV = dict(os.environ, MPSTKIT_COLOR="0")


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


class TestBench:
    def test_empty_dir(self, tmp_path):
        result = mpstkit("bench", str(tmp_path))
        assert result.returncode == 0
        assert "no .mpst files" in result.stdout

    def test_single_repeat_has_zero_stddev(self, tmp_path):
        (tmp_path / "p.mpst").write_text("global E = end;\n")
        result = mpstkit("bench", str(tmp_path), "--repeat", "1", "--json")
        data = json.loads(result.stdout)
        assert len(data) == 1
        assert data[0]["stdev_ms"] == 0.0
        assert data[0]["ok"] is True

    def test_table_rows_per_file(self, tmp_path):
        for name in ("negotiation.mpst", "authorisation.mpst"):
            (tmp_path / name).write_text(conftest.fixture_path(name).read_text())
        result = mpstkit("bench", str(tmp_path), "--repeat", "2")
        assert result.returncode == 0
        assert "negotiation.mpst" in result.stdout
        assert "authorisation.mpst" in result.stdout
        assert "ms" in result.stdout
