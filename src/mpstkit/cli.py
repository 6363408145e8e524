"""Command-line interface: check, project, fsm, run, bench.

Exit codes: 0 all checks passed / command succeeded; 1 a check failed or a
run faulted; 2 the input did not parse or elaborate.  Set MPSTKIT_COLOR=0
to disable ANSI colour.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import surface
from .consistency import consistent
from .core import Role, struct_eq, type_to_json, well_formed
from .elaborate import ElabError, ProtocolFile, elaborate
from .fsm import interpret, to_dot
from .projection import ProjectionError, project
from .runtime import GlobalSession, RuntimeFault, run
from .surface import render_local_type
from .typecheck import check_session


def _color_enabled() -> bool:
    if os.environ.get("MPSTKIT_COLOR") == "0":
        return False
    return sys.stdout.isatty()


def _paint(text: str, code: str) -> str:
    if _color_enabled():
        return f"\033[{code}m{text}\033[0m"
    return text


def _ok(text: str) -> str:
    return _paint(text, "32")


def _bad(text: str) -> str:
    return _paint(text, "31")


def load_file(path: str):
    """Parse and elaborate; returns (ProtocolFile, errors).

    errors is a non-empty list of strings when the file does not parse or
    elaborate; the ProtocolFile is None in that case."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        return None, [str(e)]
    result = surface.parse_protocol_file(text)
    if result.errors:
        return None, [f"{path}:{e}" for e in result.errors]
    try:
        return elaborate(result.file), []
    except ElabError as e:
        return None, [f"{path}:{e}"]


@dataclass
class CheckOutcome:
    path: str
    well_formedness: dict = field(default_factory=dict)  # name -> [Violation]
    assert_failures: list = field(default_factory=list)
    session_result: object = None
    consistency: dict = field(default_factory=dict)  # name -> ConsistencyReport

    @property
    def ok(self) -> bool:
        return (
            all(not v for v in self.well_formedness.values())
            and not self.assert_failures
            and (self.session_result is None or self.session_result.ok)
            and all(r.consistent for r in self.consistency.values())
        )

    def to_json(self) -> dict:
        return {
            "file": self.path,
            "status": "ok" if self.ok else "fail",
            "wellFormed": {
                name: [{"path": v.path, "message": v.message} for v in violations]
                for name, violations in self.well_formedness.items()
            },
            "localAsserts": self.assert_failures,
            "processes": [
                {
                    "name": r.name,
                    "ok": r.ok,
                    "diagnostics": [d.to_json() for d in r.diagnostics],
                }
                for r in (self.session_result.reports if self.session_result else [])
            ],
            "warnings": list(self.session_result.warnings) if self.session_result else [],
            "consistency": {
                name: report.to_json() for name, report in self.consistency.items()
            },
        }


def check_protocol_file(pf: ProtocolFile, path: str, with_consistency: bool) -> CheckOutcome:
    outcome = CheckOutcome(path)
    for name, g in pf.concrete.items():
        outcome.well_formedness[name] = well_formed(g)
    for la in pf.local_asserts:
        g = pf.concrete.get(la.global_name)
        if g is None:
            outcome.assert_failures.append(
                f"local type declared for generic/unknown protocol {la.global_name}"
            )
            continue
        try:
            projected = project(g, la.role)
        except ProjectionError as e:
            outcome.assert_failures.append(str(e))
            continue
        if not struct_eq(projected, la.declared):
            outcome.assert_failures.append(
                f"declared local type for {la.global_name} @ {la.role} does not"
                f" match the projection:\n  declared:  {la.declared}\n"
                f"  projected: {projected}"
            )
    outcome.session_result = check_session(pf, path)
    if with_consistency:
        for name, g in pf.concrete.items():
            if not outcome.well_formedness.get(name):
                outcome.consistency[name] = consistent(g)
    return outcome


def cmd_check(args) -> int:
    pf, errors = load_file(args.file)
    if errors:
        for e in errors:
            print(_bad(str(e)), file=sys.stderr)
        return 2
    outcome = check_protocol_file(pf, args.file, args.consistency)
    if args.json:
        print(json.dumps(outcome.to_json(), indent=2))
        return 0 if outcome.ok else 1
    for name, violations in outcome.well_formedness.items():
        if violations:
            print(_bad(f"{name}: not well formed"))
            for v in violations:
                print(f"  {v}")
        else:
            print(f"{name}: {_ok('well formed')}")
    for failure in outcome.assert_failures:
        print(_bad(f"local-type assertion failed: {failure}"))
    for warning in outcome.session_result.warnings:
        print(f"warning: {warning}")
    for report in outcome.session_result.reports:
        if report.ok:
            print(f"process {report.name}: {_ok('ok')}")
        else:
            print(_bad(f"process {report.name}: FAIL"))
            for d in report.diagnostics:
                print("  " + d.render(args.file))
    for name, report in outcome.consistency.items():
        if report.consistent:
            print(f"{name}: {_ok('consistent')}")
        else:
            print(_bad(f"{name}: inconsistent"))
            for p in report.failing_pairs():
                print(f"  {p}")
    return 0 if outcome.ok else 1


def _pick_protocol(pf: ProtocolFile, requested) -> str:
    if requested:
        if requested not in pf.concrete:
            raise SystemExit(_bad(f"unknown protocol {requested}"))
        return requested
    if len(pf.concrete) == 1:
        return next(iter(pf.concrete))
    names = ", ".join(sorted(pf.concrete))
    raise SystemExit(_bad(f"file defines several protocols ({names}); use --protocol"))


def cmd_project(args) -> int:
    pf, errors = load_file(args.file)
    if errors:
        for e in errors:
            print(_bad(str(e)), file=sys.stderr)
        return 2
    name = _pick_protocol(pf, args.protocol)
    try:
        local = project(pf.concrete[name], Role(args.role))
    except ProjectionError as e:
        print(_bad(str(e)), file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(type_to_json(local), indent=2))
    else:
        print(render_local_type(local))
    return 0


def cmd_fsm(args) -> int:
    pf, errors = load_file(args.file)
    if errors:
        for e in errors:
            print(_bad(str(e)), file=sys.stderr)
        return 2
    name = _pick_protocol(pf, args.protocol)
    try:
        local = project(pf.concrete[name], Role(args.role))
    except ProjectionError as e:
        print(_bad(str(e)), file=sys.stderr)
        return 1
    machine = interpret(local)
    dot = to_dot(machine)
    if args.dot:
        Path(args.dot).write_text(dot)
        print(
            f"{name} @ {args.role}: {len(machine.states)} states,"
            f" {len(machine.transitions)} transitions -> {args.dot}"
        )
    elif args.json:
        print(json.dumps(machine.to_json(), indent=2))
    else:
        print(dot, end="")
    return 0


def run_protocol_file(pf: ProtocolFile, timeout: float = 30.0):
    """Execute every process script of a file; returns (sessions, results, faults).

    One thread per process; each thread initialises its sessions in binding
    order, then interprets the term."""
    needed: dict = {}
    for proc in pf.procs:
        for role, proto, _ in proc.bindings:
            needed.setdefault(proto, set()).add(role)
    sessions: dict = {}
    from .core import roles_of

    for proto, implemented in needed.items():
        g = pf.concrete[proto]
        missing = sorted(r.name for r in roles_of(g) if r not in implemented)
        if missing:
            raise RuntimeFault(
                f"cannot run {proto}: roles {', '.join(missing)} have no process"
            )
        sessions[proto] = GlobalSession(g, proto)
    results: dict = {}
    faults: list = []

    def worker(proc) -> None:
        try:
            endpoints = {}
            for role, proto, var in proc.bindings:
                endpoints[var] = sessions[proto].init(role)
            results[proc.name] = run(endpoints, proc.term)
        except BaseException as e:  # faults surface in the main thread
            faults.append((proc.name, e))

    threads = [
        threading.Thread(target=worker, args=(proc,), daemon=True, name=proc.name)
        for proc in pf.procs
    ]
    for t in threads:
        t.start()
    deadline = time.monotonic() + timeout
    for t in threads:
        t.join(max(0.0, deadline - time.monotonic()))
    alive = [t.name for t in threads if t.is_alive()]
    if alive:
        faults.append(
            (
                "timeout",
                RuntimeFault(
                    f"processes did not finish (blocked?): {', '.join(alive)}"
                ),
            )
        )
    return sessions, results, faults


def cmd_run(args) -> int:
    pf, errors = load_file(args.file)
    if errors:
        for e in errors:
            print(_bad(str(e)), file=sys.stderr)
        return 2
    if not pf.procs:
        print("nothing to run (no process scripts)")
        return 0
    outcome = check_protocol_file(pf, args.file, with_consistency=False)
    if not outcome.ok and not args.unchecked:
        print(_bad("refusing to run: static checks failed (use --unchecked to force)"))
        for report in outcome.session_result.reports:
            for d in report.diagnostics:
                print("  " + d.render(args.file))
        return 1
    try:
        sessions, results, faults = run_protocol_file(pf, timeout=args.timeout)
    except RuntimeFault as e:
        print(_bad(f"run failed: {e}"))
        return 1
    for name, result in sorted(results.items()):
        if not result.all_terminated:
            faults.extend(
                (name, RuntimeFault(f"role {ep.role} ended with its session unfinished"))
                for ep in result.terminals.values()
                if not ep.is_terminated()
            )
    lines = []
    for name in sorted(sessions):
        lines.append(f"# session {name}")
        lines.extend(sessions[name].trace_lines())
    trace_text = "\n".join(lines) + "\n"
    if args.trace:
        Path(args.trace).write_text(trace_text)
    if args.json:
        print(
            json.dumps(
                {
                    "sessions": {
                        name: [e.to_json() for e in s.trace]
                        for name, s in sessions.items()
                    },
                    "faults": [f"{name}: {e}" for name, e in faults],
                },
                indent=2,
            )
        )
    else:
        print(trace_text, end="")
    if faults:
        for name, e in faults:
            print(_bad(f"fault in {name}: {e}"), file=sys.stderr)
        return 1
    return 0


def bench_file(path: str, repeat: int):
    """Check (with consistency) `repeat` times; returns (mean_ms, stdev_ms, ok)."""
    timings = []
    ok = True
    for _ in range(repeat):
        start = time.perf_counter()
        pf, errors = load_file(path)
        if errors:
            ok = False
        else:
            outcome = check_protocol_file(pf, path, with_consistency=True)
            ok = outcome.ok
        timings.append((time.perf_counter() - start) * 1000.0)
    mean = statistics.fmean(timings)
    stdev = statistics.stdev(timings) if len(timings) > 1 else 0.0
    return mean, stdev, ok


def cmd_bench(args) -> int:
    directory = Path(args.dir)
    files = sorted(directory.glob("*.mpst"))
    rows = []
    for f in files:
        mean, stdev, ok = bench_file(str(f), args.repeat)
        rows.append((f.name, mean, stdev, ok))
    if args.json:
        print(
            json.dumps(
                [
                    {"file": name, "mean_ms": mean, "stdev_ms": stdev, "ok": ok}
                    for name, mean, stdev, ok in rows
                ],
                indent=2,
            )
        )
        return 0
    if not rows:
        print("(no .mpst files)")
        return 0
    width = max(len(name) for name, *_ in rows)
    print(f"{'file'.ljust(width)}  {'check time':>18}  verdict")
    for name, mean, stdev, ok in rows:
        verdict = _ok("ok") if ok else _bad("fail")
        print(f"{name.ljust(width)}  {mean:9.2f} ± {stdev:5.2f} ms  {verdict}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpstkit",
        description="Multiparty session type toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="well-formedness, local asserts, process typing")
    p.add_argument("file")
    p.add_argument("--consistency", action="store_true", help="also check consistency")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("project", help="project a protocol onto a role")
    p.add_argument("file")
    p.add_argument("--role", required=True)
    p.add_argument("--protocol", help="protocol name (default: the file's only one)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--text", action="store_true", help="textual local type (default)")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("fsm", help="interpret a projection as a finite-state machine")
    p.add_argument("file")
    p.add_argument("--role", required=True)
    p.add_argument("--protocol")
    p.add_argument("--dot", help="write GraphViz DOT to this path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fsm)

    p = sub.add_parser("run", help="execute all process scripts of a file")
    p.add_argument("file")
    p.add_argument("--trace", help="write the trace to this path")
    p.add_argument("--unchecked", action="store_true", help="run even if checks fail")
    p.add_argument("--timeout", type=float, default=30.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="timing table for checking every file in a directory")
    p.add_argument("dir")
    p.add_argument("--repeat", type=int, default=31)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
