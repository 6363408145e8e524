"""In-process A/B timing of this checkout's front end against another's.

    python tools/ab.py OTHER_CHECKOUT [--seed 4242] [--rounds 200] [--workload wide]

This checkout's `src/mpstkit` is imported as package `mpstkit_a` and the
other checkout's as `mpstkit_b`, side by side in one process.  The inputs are
every `benchmark/inputs.family` input of the chosen workloads at the seed, as
this checkout's `benchmark/inputs.py` generates them; generated texts are
written to a temporary directory, so nothing under `benchmark/` is touched.

First, `cli.load_file` of each input must give a `repr`-identical result in
both (the surface file and the elaborated protocols, positions included),
and the check operation below an equal `CheckOutcome.to_json()`; the script
stops at the first input where they differ.  Then, per input and
for `rounds` rounds, it times A and B in turn, swapping which goes first
each round:

- `load`: one `cli.load_file`;
- `check`: what the benchmark's check operation does, `load_file` and then
  `check_protocol_file` with consistency, as `check --consistency` does;
- `fsm`: what the benchmark's FSM operation does, `load_file`, `project`,
  `interpret` and `to_dot`, on one (protocol, role) pair of the input,
  taking its pairs in turn from round to round;
- `session`: one `typecheck.check_session` of the loaded file, whose
  projection tables are filled first, so it times the process checker;
- `consistent`: `consistency.consistent(g, projections=...)` on each of the
  file's protocols in turn, its projections given, so it times restriction
  and duality.

Before `session` and `consistent` are timed, each must give equal results
in both checkouts: the diagnostics' `to_json()` and the warnings of every
process report, and each protocol's `report.to_json()`.

It prints, per input and per workload, the median time of A and of B and
the median of the per-round ratios A/B (below 1: A is faster).  A
workload's line sums the per-input medians.  Only the standard library is
used.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True  # import nothing that leaves files behind
ROOT = Path(__file__).resolve().parent.parent


def import_package(name: str, src: Path):
    """`src/mpstkit` of a checkout, imported as package `name`."""
    init = src / "mpstkit" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("cli", "core", "projection", "fsm", "typecheck", "consistency"):
        importlib.import_module(f"{name}.{module}")
    return package


def import_inputs():
    spec = importlib.util.spec_from_file_location("ab_inputs", ROOT / "benchmark" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    sys.modules["ab_inputs"] = inputs  # dataclasses look their module up
    spec.loader.exec_module(inputs)
    return inputs


def check_op(tk, path: str):
    """The benchmark's check operation on one input."""
    pf, errors = tk.cli.load_file(path)
    if errors:
        return errors
    return tk.cli.check_protocol_file(pf, path, True)


def fsm_op(tk, path: str, proto: str, role: str):
    """The benchmark's FSM operation on one (protocol, role) pair."""
    pf, errors = tk.cli.load_file(path)
    if errors:
        return errors
    try:
        local = tk.projection.project(pf.concrete[proto], tk.core.Role(role))
    except tk.projection.ProjectionError:
        return None
    machine = tk.fsm.interpret(local)
    return tk.fsm.to_dot(machine)


def filled(tk, path: str):
    """The loaded file with every protocol's projection table filled."""
    pf, errors = tk.cli.load_file(path)
    if not errors:
        for name in pf.concrete:
            pf.projections(name)
    return pf


def session_op(tk, pf):
    result = tk.typecheck.check_session(pf)
    return [(r.name, [d.to_json() for d in r.diagnostics]) for r in result.reports], result.warnings


def consistent_op(tk, pf):
    return [tk.consistency.consistent(g, projections=pf.projections(name)).to_json()
            for name, g in pf.concrete.items()]


def alternate(run_a, run_b, rounds: int) -> tuple:
    """Per-round times of A and B, timed in turn, and their ratios."""
    times_a, times_b = [], []
    for r in range(rounds):
        order = ((run_a, times_a), (run_b, times_b))
        for run, times in (order if r % 2 == 0 else order[::-1]):
            start = perf_counter()
            run(r)
            times.append(perf_counter() - start)
    return times_a, times_b, [a / b for a, b in zip(times_a, times_b)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="root of the checkout to compare with (B)")
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--rounds", type=int, default=200)
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    args = parser.parse_args(argv)

    a = import_package("mpstkit_a", ROOT / "src")
    b = import_package("mpstkit_b", args.other.resolve() / "src")
    inputs = import_inputs()
    workloads = args.workload or list(inputs.WORKLOADS)
    print(f"A = {ROOT}\nB = {args.other.resolve()}\nseed {args.seed}, {args.rounds} rounds")
    print(f"{'input':<28}{'op':<11}{'A ms':>9}{'B ms':>9}{'A/B':>8}")
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads:
            totals = {op: [0.0, 0.0] for op in ("load", "check", "fsm", "session", "consistent")}
            for f in inputs.family(workload, args.seed, ROOT):
                if f.path is None:
                    path = Path(tmp) / f"{workload}-{f.name}.mpst"
                    path.write_text(f.text)
                else:
                    path = ROOT / f.path
                path = str(path)
                pf_a, errors_a = a.cli.load_file(path)
                pf_b, errors_b = b.cli.load_file(path)
                if repr((pf_a, errors_a)) != repr((pf_b, errors_b)):
                    print(f"{workload}/{f.name}: load_file results differ", file=sys.stderr)
                    return 1
                if not errors_a and check_op(a, path).to_json() != check_op(b, path).to_json():
                    print(f"{workload}/{f.name}: check outcomes differ", file=sys.stderr)
                    return 1
                pfs = {} if errors_a else {a: filled(a, path), b: filled(b, path)}
                for name, op in (("session", session_op), ("consistent", consistent_op)):
                    if pfs and op(a, pfs[a]) != op(b, pfs[b]):
                        print(f"{workload}/{f.name}: {name} results differ", file=sys.stderr)
                        return 1
                pairs = sorted(
                    (proto, role.name)
                    for proto, g in (pf_a.concrete.items() if pf_a else ())
                    for role in a.core.roles_of(g)
                ) or [None]
                ops = {
                    "load": lambda tk: lambda r: tk.cli.load_file(path),
                    "check": lambda tk: lambda r: check_op(tk, path),
                    "fsm": lambda tk: lambda r: fsm_op(tk, path, *pairs[r % len(pairs)]),
                    "session": lambda tk: lambda r: session_op(tk, pfs[tk]),
                    "consistent": lambda tk: lambda r: consistent_op(tk, pfs[tk]),
                }
                for op, make in ops.items():
                    if op == "fsm" and pairs == [None] or op in ("session", "consistent") and not pfs:
                        continue
                    gc.collect()
                    times_a, times_b, ratios = alternate(make(a), make(b), args.rounds)
                    med_a, med_b = statistics.median(times_a), statistics.median(times_b)
                    totals[op][0] += med_a
                    totals[op][1] += med_b
                    print(f"{workload + '/' + f.name:<28}{op:<11}{med_a * 1e3:>9.3f}{med_b * 1e3:>9.3f}"
                          f"{statistics.median(ratios):>8.3f}")
            for op, (sum_a, sum_b) in totals.items():
                if sum_b:
                    print(f"{workload + ' (sum)':<28}{op:<11}{sum_a * 1e3:>9.3f}{sum_b * 1e3:>9.3f}"
                          f"{sum_a / sum_b:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
