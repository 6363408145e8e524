"""Command-line interface: check, project, fsm, run, bench.

Exit codes: 0 all checks passed / command succeeded; 1 a check failed, a
run faulted or stdout was closed early; 2 the input did not parse or
elaborate, or a path on the command line cannot be read or written.  Set
MPSTKIT_COLOR=0 to disable ANSI colour.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import surface
from .consistency import consistent
from .core import Role, roles_of, struct_eq, type_to_json, well_formed
from .elaborate import ElabError, ProtocolFile, elaborate
from .fsm import interpret, to_dot
from .projection import ProjectionError
from .runtime import GlobalSession, RuntimeFault, run_all
from .typecheck import check_session, unplayed_roles


def _paint(text: str, code: str) -> str:
    if os.environ.get("MPSTKIT_COLOR") != "0" and sys.stdout.isatty():
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
        # decoded as it is: a byte-order mark is dropped, and a `\r` stays
        # what the lexer sees, so line and column are the library's
        text = Path(path).read_bytes().decode("utf-8-sig")
    except OSError as e:
        return None, [str(e)]
    except UnicodeDecodeError as e:
        return None, [f"{path}: {e}"]
    result = surface.parse_protocol_file(text)
    if result.errors:
        return None, [f"{path}:{e}" for e in result.errors]
    try:
        return elaborate(result.file), []
    except ElabError as e:
        return None, [f"{path}:{e}"]


def _load_or_report(path: str):
    """load_file, printing its errors to stderr; None when there were any."""
    pf, errors = load_file(path)
    for e in errors:
        print(_bad(str(e)), file=sys.stderr)
    return pf


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
        outcome.well_formedness[name] = well_formed(g, memo=pf.verdicts)
    for la in pf.local_asserts:
        if la.global_name not in pf.concrete:
            outcome.assert_failures.append(
                f"local type declared for generic/unknown protocol {la.global_name}"
            )
            continue
        projected = pf.projection(la.global_name, la.role)
        if isinstance(projected, ProjectionError):
            outcome.assert_failures.append(str(projected))
            continue
        if not struct_eq(projected, la.declared):
            outcome.assert_failures.append(
                f"declared local type for {la.global_name} @ {la.role} does not"
                f" match the projection:\n  declared:  {la.declared}\n"
                f"  projected: {projected}"
            )
    outcome.session_result = check_session(pf)
    for name, bad in outcome.well_formedness.items():
        if with_consistency and not bad:
            outcome.consistency[name] = consistent(pf.concrete[name],
                                                   projections=pf.projections(name))
    return outcome


def cmd_check(args) -> int:
    pf = _load_or_report(args.file)
    if pf is None:
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


def _project_or_exit(args) -> tuple:
    """(protocol name, local type) for `--protocol` and `--role`; exits 2 when
    the file does not load and 1, with one line on stderr, when there is no
    protocol to pick, on an unknown or generic protocol, an unknown role or a
    failed projection."""
    pf = _load_or_report(args.file)
    if pf is None:
        raise SystemExit(2)
    if not args.protocol and not pf.concrete:
        raise SystemExit(_bad("file defines no concrete protocol"))
    if not args.protocol and len(pf.concrete) > 1:
        names = ", ".join(sorted(pf.concrete))
        raise SystemExit(_bad(f"file defines several protocols ({names}); use --protocol"))
    name = args.protocol or next(iter(pf.concrete))
    if name not in pf.concrete:
        raise SystemExit(_bad(pf.unusable(name)))
    roles = sorted(r.name for r in roles_of(pf.concrete[name]))
    # a protocol without roles (just `end`) projects to `end` onto any role
    if roles and args.role not in roles:
        raise SystemExit(
            _bad(f"unknown role {args.role} in protocol {name} (roles: {', '.join(roles)})")
        )
    try:
        local = pf.projection(name, Role(args.role))
    except ValueError as e:  # an invalid role name
        raise SystemExit(_bad(str(e)))
    if isinstance(local, ProjectionError):
        raise SystemExit(_bad(str(local)))
    return name, local


def _json_text(value) -> str:
    """`json.dumps(value, indent=2)`, written with an explicit stack so that
    a value nested as deep as a long projection prints without recursion.
    Scalars and keys (all strings) are rendered by `json.dumps` itself."""
    parts: list = []
    stack: list = [(value, 0)]  # (value, indent level) or (text, None)
    while stack:
        v, level = stack.pop()
        if level is None:
            parts.append(v)
        elif isinstance(v, (dict, list)) and v:
            is_dict = isinstance(v, dict)
            pad = "\n" + "  " * (level + 1)
            todo = [("{" if is_dict else "[", None)]
            for n, (k, x) in enumerate(v.items() if is_dict else enumerate(v)):
                key = json.dumps(k) + ": " if is_dict else ""
                todo += [(("," if n else "") + pad + key, None), (x, level + 1)]
            todo.append(("\n" + "  " * level + ("}" if is_dict else "]"), None))
            stack += reversed(todo)
        else:
            parts.append(json.dumps(v))
    return "".join(parts)


def cmd_project(args) -> int:
    _, local = _project_or_exit(args)
    if args.json:
        print(_json_text(type_to_json(local)))
    else:
        print(local)
    return 0


def cmd_fsm(args) -> int:
    name, local = _project_or_exit(args)
    machine = interpret(local)
    dot = to_dot(machine)
    if args.dot:
        try:
            Path(args.dot).write_text(dot)
        except OSError as e:
            print(_bad(str(e)), file=sys.stderr)
            return 2
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

    The processes run on this thread (see runtime.run_all), so a deadlock or
    a fault ends the run at once; `timeout` bounds only a run that never ends."""
    sessions: dict = {}
    for proto, missing in unplayed_roles(pf).items():
        if missing is None:
            raise RuntimeFault(f"cannot run {proto}: {pf.unusable(proto)}")
        if missing:
            names = ", ".join(r.name for r in missing)
            raise RuntimeFault(f"cannot run {proto}: roles {names} have no process")
        sessions[proto] = GlobalSession(pf.concrete[proto], proto)
    processes = [
        (proc.name, [(sessions[proto], role, var) for role, proto, var in proc.bindings], proc.term)
        for proc in pf.procs
    ]
    return (sessions, *run_all(processes, timeout))


def cmd_run(args) -> int:
    pf = _load_or_report(args.file)
    if pf is None:
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
    lines = []
    for name in sorted(sessions):
        lines.append(f"# session {name}")
        lines.extend(sessions[name].trace_lines())
    trace_text = "\n".join(lines) + "\n"
    if args.trace:
        try:
            Path(args.trace).write_text(trace_text)
        except OSError as e:
            print(_bad(str(e)), file=sys.stderr)
            return 2
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
    try:
        names = os.listdir(args.dir)
    except OSError as e:
        print(_bad(str(e)), file=sys.stderr)
        return 2
    files = sorted(Path(args.dir, n) for n in names if n.endswith(".mpst"))
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


def _positive(kind):
    def positive(text: str):  # an argparse type: a number of `kind` above zero
        value = kind(text)
        if not value > 0:  # also rejects nan
            raise argparse.ArgumentTypeError(f"must be above 0, got {text}")
        return value
    return positive


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
    p.add_argument("--timeout", type=_positive(float), default=30.0, metavar="S",
                   help="give up on a run that has not ended after S seconds (default 30)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="timing table for checking every file in a directory")
    p.add_argument("dir")
    p.add_argument("--repeat", type=_positive(int), default=31)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
    except BrokenPipeError:
        # the reader has gone (`| head`): send what is still buffered, which
        # Python flushes at exit, to devnull, as the Python docs' SIGPIPE note does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
