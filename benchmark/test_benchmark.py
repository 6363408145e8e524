"""Tests of the benchmark itself: seeded inputs and the correctness gate.

    python3 -m pytest benchmark/test_benchmark.py -q
"""

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import run  # noqa: E402

ROOT = HERE.parent
SIZE_COUNTS = ("surface.tokens", "projection.local_nodes", "fsm.states")


@pytest.fixture(scope="module")
def tk():
    return run.import_toolkit()


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = [(f.name, f.text) for f in inputs.family(workload, 5, ROOT)]
    again = [(f.name, f.text) for f in inputs.family(workload, 5, ROOT)]
    assert first == again
    assert [p.input.text for p in inputs.pingpongs(5)] == [
        p.input.text for p in inputs.pingpongs(5)]


@pytest.mark.parametrize("workload", ["deep", "wide", "run"])
def test_seed_changes_names_only(workload):
    a = {f.name: f.text for f in inputs.family(workload, 1, ROOT)}
    b = {f.name: f.text for f in inputs.family(workload, 2, ROOT)}
    assert a.keys() == b.keys()
    assert all(a[name] != b[name] for name in a if not name.endswith(".mpst"))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_different_seeds_give_the_same_sizes(tk, workload, tmp_path):
    sizes = []
    for seed in (3, 4):
        w = run.Workload(tk, workload, seed, tmp_path / str(seed))
        counts = run.census(tk, w)
        sizes.append({name: tuple(c.get(k, 0) for k in SIZE_COUNTS)
                      for name, c in counts.items() if name is not None})
        assert all(c[0] > 0 for c in sizes[-1].values())
    assert sizes[0] == sizes[1]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_one_round_matches_every_known_answer(tk, workload, tmp_path):
    w = run.Workload(tk, workload, 9, tmp_path)
    rec = run.Recorder()
    run.run_round(tk, w, rec, (2, 20, 5))
    assert w.wrong == []
    assert rec.failed == []
    assert rec.wrong == []
    assert rec.attempted == len(w.files) + len(w.pairs) + 2 + 2


def test_gate_rejects_a_wrong_verdict(tk, tmp_path):
    w = run.Workload(tk, "corpus", 1, tmp_path)
    f = next(f for f in w.files if f.name == "negotiation.mpst")
    out = run.op_check(tk, f)
    assert run.verify_check(f, out) == []
    f.expect.consistent["Negotiation"] = False
    assert run.verify_check(f, out) != []
    f.expect.procs["bob"] = [("wrong-sort", 1)]
    assert len(run.verify_check(f, out)) == 2


def test_gate_rejects_a_wrong_machine(tk, tmp_path):
    w = run.Workload(tk, "corpus", 1, tmp_path)
    f = next(f for f in w.files if f.name == "negotiation.mpst")
    out = run.op_fsm(tk, f, "Negotiation", "B")
    assert run.verify_fsm(f, "Negotiation", "B", out) == []
    f.expect.fsm[("Negotiation", "B")] = (7, 9)
    assert run.verify_fsm(f, "Negotiation", "B", out) != []
    f.expect.fsm[("Negotiation", "B")] = None
    assert run.verify_fsm(f, "Negotiation", "B", out) != []


def test_generated_verdicts_hold_for_many_seeds(tk, tmp_path):
    for seed in random.Random(0).sample(range(10**6), 3):
        w = run.Workload(tk, "wide", seed, tmp_path / str(seed))
        for f in w.files:
            assert run.verify_check(f, run.op_check(tk, f)) == []
