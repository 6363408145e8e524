"""mpstkit benchmark: one workload, measured end to end or traced by layer.

    python3 benchmark/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout: the program under test is imported
from the checkout's `src/` and the corpus is read from its `fixtures/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are a
readable copy.  Exit code 0 means every output matched its known answer,
1 that some output was wrong, 2 that the checkout is incomplete.

A workload runs whole rounds in a closed loop, one operation at a time,
until --seconds have passed.  A round checks every input once (what
`mpstkit check --consistency` does), builds the FSM of every (protocol,
role) pair once (what `mpstkit fsm` does), runs the negotiation fixture a
few times through `cli.run_protocol_file`, and drives one session of each
ping-pong loop through the Endpoint API.  Interleaving the four in every
round spreads slow spells of the machine evenly over all metrics.  See
README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import importlib
from contextlib import nullcontext
import json
import random
import resource
import shutil
import signal
import statistics
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from tracing import Tracer  # noqa: E402

MODULES = ("core", "surface", "elaborate", "projection", "consistency",
           "typecheck", "fsm", "runtime", "cli")
OP_LIMIT_S = 30.0  # per-operation time limit; a slower operation has failed
SETUPS = 7  # set-up is repeated this often and its median reported
WARMUP_ROUND_TRIPS = 20
# A shared machine's speed for Python swings by 2x and more within minutes,
# so end-to-end timings are scaled to PROBE_S, the time the speed probe
# takes on an uncontended core; see probe() and Recorder.
PROBE_SIZE = 400
PROBE_S = 125e-6
# FSMs per protocol and round.  Roles of the rings and chains are
# symmetric, so three of them (picked by the seed) stand for all and keep
# rounds of `deep` and `wide` short.
FSM_ROLES = 3

# Per workload: negotiation sessions, small and large ping-pong round trips
# per round.  Sessions and ping-pong take a small share of a round in the
# check workloads and most of it in `run`; every 25 s run still gets 100+
# samples of each timing.
ROUND = {
    "corpus": (10, 200, 50),
    "deep": (20, 500, 150),
    "wide": (16, 300, 100),
    "run": (20, 700, 250),
}

END_TO_END = [
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("check_ms_p50", "ms"), ("check_ms_p90", "ms"), ("checks_per_s", "1/s"),
    ("fsm_ms_p50", "ms"), ("fsm_ms_p90", "ms"),
    ("msgs_per_s", "1/s"), ("rtt_us_p50", "us"), ("rtt_us_p90", "us"),
    ("msgs_per_s_large", "1/s"),
]
# Check and FSM layers are reported per pass (every input checked once and
# every pair turned into an FSM once); runtime times per call.
LAYER_TIMES = [
    ("surface.parse_ms", ["surface.parse"]),
    ("elaborate.ms", ["elaborate"]),
    ("core.well_formed_ms", ["core.well_formed"]),
    ("projection.ms", ["projection"]),
    ("typecheck.ms", ["typecheck"]),
    ("consistency.ms", ["consistency", "consistency.restrict", "consistency.dual"]),
    ("consistency.restrict_ms", ["consistency.restrict"]),
    ("consistency.dual_ms", ["consistency.dual"]),
    ("fsm.interpret_ms", ["fsm.interpret"]),
    ("fsm.dot_ms", ["fsm.dot"]),
    # the CLI's own code in load_file and check_protocol_file (reading the
    # file, local-type asserts), plus the benchmark's call
    ("cli.ms", ["op.check", "op.fsm"]),
]
SUM_LAYERS = ["surface.parse", "elaborate", "core.well_formed", "projection",
              "typecheck", "consistency", "consistency.restrict",
              "consistency.dual", "fsm.interpret", "fsm.dot", "op.check", "op.fsm"]
COUNTS = ["surface.tokens", "elaborate.protocols", "projection.calls",
          "projection.local_nodes", "typecheck.processes",
          "typecheck.diagnostics", "consistency.pairs",
          "consistency.pairs_failed", "fsm.states", "fsm.transitions"]
PER_LAYER = (
    [(name, "ms") for name, _ in LAYER_TIMES]
    + [(name, "count") for name in COUNTS]
    + [("surface.tokens_per_ms", "1/ms"),
       ("runtime.send_us", "us"), ("runtime.recv_us", "us"),
       ("runtime.loop_us", "us"), ("runtime.actions", "count"),
       ("runtime.init_wait_ms", "ms"), ("runtime.faults", "count"),
       ("runtime.session_ms_p50", "ms"), ("runtime.session_ms_p90", "ms"),
       ("trace.untraced_ms", "ms"), ("trace.layers_ms", "ms"),
       ("trace.overhead_ms", "ms")]
)


class OpTimeout(BaseException):
    """Raised in the main thread when an operation exceeds OP_LIMIT_S.

    A BaseException, so `except Exception` inside the program cannot
    swallow it."""


FAILED = object()  # what Recorder.timed returns for a failed operation


def _alarm(signum, frame):
    raise OpTimeout(f"no result within {OP_LIMIT_S:.0f} s")


# ---------------------------------------------------------------------------
# Set-up


def import_toolkit() -> SimpleNamespace:
    """Import mpstkit afresh from the checkout (timed as part of set-up)."""
    for name in [n for n in sys.modules if n == "mpstkit" or n.startswith("mpstkit.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    tk = SimpleNamespace(**{m: importlib.import_module(f"mpstkit.{m}") for m in MODULES})
    origin = Path(tk.cli.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"mpstkit imported from {origin}, not from this checkout")
    return tk


class Workload:
    """Inputs of one workload, written where the CLI functions can load them."""

    def __init__(self, tk, name: str, seed: int, workdir: Path):
        self.tk = tk
        self.name = name
        self.files = inputs.family(name, seed, ROOT)
        workdir.mkdir(parents=True, exist_ok=True)
        for f in self.files:
            if f.path is None:
                f.path = str(workdir / f"{f.name}.mpst")
                Path(f.path).write_text(f.text)
            else:
                f.path = str(ROOT / f.path)
        rng = random.Random(seed)
        rng.shuffle(self.files)
        self.wrong: list = []
        self.pairs = []
        for f in self.files:
            pf, errors = tk.cli.load_file(f.path)
            if errors:
                raise ValueError(f"{f.name} does not load: {errors}")
            found = {(p, r.name) for p, g in pf.concrete.items()
                     for r in tk.core.roles_of(g)}
            if f.expect.fsm and not set(f.expect.fsm) <= found:
                raise ValueError(f"{f.name}: FSM answers for unknown pairs")
            for proto in sorted({p for p, _ in found}):
                roles = sorted(r for p, r in found if p == proto)
                if len(roles) > FSM_ROLES:
                    roles = sorted(rng.sample(roles, FSM_ROLES))
                self.pairs += [(f, proto, r) for r in roles]
        rng.shuffle(self.pairs)
        if name == "corpus" and len(self.pairs) != inputs.CORPUS_PAIRS:
            self.wrong.append(f"corpus: {len(self.pairs)} (protocol, role) pairs,"
                              f" expected {inputs.CORPUS_PAIRS}")
        small, large = inputs.pingpongs(seed)
        self.pingpong = [self._pingpong(small, workdir), self._pingpong(large, workdir)]
        self.negotiation, errors = tk.cli.load_file(str(ROOT / inputs.NEGOTIATION))
        if errors:
            raise ValueError(f"negotiation fixture does not load: {errors}")

    def _pingpong(self, spec: inputs.PingPong, workdir: Path) -> SimpleNamespace:
        path = workdir / f"{spec.input.name}.mpst"
        path.write_text(spec.input.text)
        pf, errors = self.tk.cli.load_file(str(path))
        if errors:
            raise ValueError(f"{spec.input.name} does not load: {errors}")
        role = self.tk.core.Role
        return SimpleNamespace(
            name=spec.input.name, protocol=pf.concrete[spec.proto], proto=spec.proto,
            a=role(spec.a), b=role(spec.b), ping=pf.sorts[spec.ping],
            pong=pf.sorts[spec.pong], stop=pf.sorts[spec.stop])


# ---------------------------------------------------------------------------
# Operations.  Each returns what it computed; `verify_*` compares that with
# the known answer and returns a list of mismatches.


def op_check(tk, f):
    pf, errors = tk.cli.load_file(f.path)
    if errors:
        return errors
    return tk.cli.check_protocol_file(pf, f.path, True)


def verify_check(f, out) -> list:
    if isinstance(out, list):
        return [f"{f.name}: does not load: {out}"]
    e = f.expect
    bad = []
    if set(out.well_formedness) != set(e.consistent):
        bad.append(f"{f.name}: protocols {sorted(out.well_formedness)}")
    for proto, want in e.consistent.items():
        if out.well_formedness.get(proto):
            bad.append(f"{f.name}: {proto} not well formed")
        report = out.consistency.get(proto)
        if report is None or report.consistent != want:
            bad.append(f"{f.name}: {proto} consistency should be {want}")
    if out.assert_failures:
        bad.append(f"{f.name}: local-type assertions failed")
    got = {r.name: r for r in out.session_result.reports}
    if set(got) != set(e.procs):
        bad.append(f"{f.name}: processes {sorted(got)}")
    for name, want in e.procs.items():
        r = got.get(name)
        if r is None:
            continue
        diags = sorted((str(d.cls), d.pos[0] if d.pos else None) for d in r.diagnostics)
        if want is None and (not r.ok or diags):
            bad.append(f"{f.name}: process {name} should check: {diags}")
        elif want is not None and (r.ok or diags != sorted(want)):
            bad.append(f"{f.name}: process {name} should fail with {want}, got {diags}")
    return bad


def op_fsm(tk, f, proto, role):
    pf, errors = tk.cli.load_file(f.path)
    if errors:
        return errors
    try:
        local = tk.projection.project(pf.concrete[proto], tk.core.Role(role))
    except tk.projection.ProjectionError:
        return None
    machine = tk.fsm.interpret(local)
    return machine, tk.fsm.to_dot(machine)


def verify_fsm(f, proto, role, out) -> list:
    where = f"{f.name}: {proto} @ {role}"
    want = f.expect.fsm.get((proto, role), "any")
    if isinstance(out, list):
        return [f"{where}: does not load: {out}"]
    if out is None:
        return [] if want is None else [f"{where}: projection failed"]
    if want is None:
        return [f"{where}: projection should fail"]
    machine, dot = out
    shape = (len(machine.states), len(machine.transitions))
    bad = []
    if want != "any" and shape != want:
        bad.append(f"{where}: FSM {shape}, expected {want}")
    if not dot.startswith("digraph") or dot.count(" -> ") != shape[1] + 1:
        bad.append(f"{where}: DOT text does not match the FSM")
    return bad


def op_session(tk, w):
    return tk.cli.run_protocol_file(w.negotiation, timeout=OP_LIMIT_S)


def verify_session(out) -> list:
    sessions, results, faults = out
    bad = [f"negotiation: fault in {name}: {e}" for name, e in faults]
    if not faults:
        trace = sessions["Negotiation"].trace_lines()
        if trace != inputs.NEGOTIATION_TRACE:
            bad.append(f"negotiation: trace {trace}")
        if not all(r.all_terminated for r in results.values()):
            bad.append("negotiation: endpoints left unterminated")
    return bad


def _enter_loops(tk, ep):
    # what the process interpreter does at directly nested `loop` statements
    while isinstance(ep.current_type, tk.core.Loop):
        ep = ep.enter_loop()
    return ep


def op_pingpong(tk, pp, round_trips: int, rtts: list) -> tuple:
    """One session of `round_trips` exchanges.  B joins from a helper
    thread, because the init barrier needs one thread per role; then this
    thread drives both endpoints in turn.  So the timings hold the
    runtime's own cost per action and no thread hand-off, whose delay on a
    shared machine swings far more than the runtime's cost.  Returns
    (seconds spent exchanging, mismatches)."""
    session = tk.runtime.GlobalSession(pp.protocol, pp.proto)
    joined = {}

    def join_b():
        try:
            joined["b"] = session.init(pp.b)
        except BaseException as e:  # reported by this thread
            joined["error"] = e

    helper = threading.Thread(target=join_b, name=f"{pp.name}-B", daemon=True)
    helper.start()
    try:
        a = _enter_loops(tk, session.init(pp.a))
    finally:
        helper.join(OP_LIMIT_S)
    if "error" in joined:
        raise joined["error"]
    if "b" not in joined:
        raise TimeoutError(f"{pp.name}: B did not join")
    b = _enter_loops(tk, joined["b"])
    bad = []
    clock = time.perf_counter
    start = clock()
    for i in range(round_trips):
        t0 = clock()
        a = a.send(pp.b, pp.ping, i)
        ping, b = b.recv(pp.a, timeout=OP_LIMIT_S)
        b = _enter_loops(tk, b.send(pp.a, pp.pong, ping.payload).recur())
        pong, a = a.recv(pp.b, timeout=OP_LIMIT_S)
        rtts.append(clock() - t0)
        if pong.sort.name != pp.pong.name or pong.payload != i or ping.payload != i:
            bad.append(f"{pp.name}: round trip {i} answered {pong.sort}({pong.payload})")
            break
        a = _enter_loops(tk, a.recur())
    elapsed = clock() - start
    a = a.send(pp.b, pp.stop)
    stop, b = b.recv(pp.a, timeout=OP_LIMIT_S)
    if stop.sort.name != pp.stop.name or not (a.is_terminated() and b.is_terminated()):
        bad.append(f"{pp.name}: session did not end after {stop.sort}")
    if len(session.trace) != 2 * round_trips + 1:
        bad.append(f"{pp.name}: {len(session.trace)} messages for {round_trips} round trips")
    return elapsed, bad


# ---------------------------------------------------------------------------
# The closed loop.


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work that does not
    touch mpstkit: how fast this machine runs Python right now."""
    t0 = time.perf_counter()
    table = {}
    for i in range(PROBE_SIZE):
        table[str(i)] = (i, (i * 7) % 13)
    chain = None
    for key, value in sorted(table.items(), key=lambda kv: kv[1]):
        if isinstance(value, tuple):
            chain = (key, value, chain)
    return time.perf_counter() - t0


def probe_mean(probes: int) -> float:
    """Mean of up to 8 probes: longer operations get a longer look."""
    return statistics.fmean(probe() for _ in range(min(probes, 8)))


class Recorder:
    """Samples per metric, attempted/failed counts and every mismatch.

    `samples` holds wall times; `scaled` the same times multiplied by
    PROBE_S / (mean of the probes taken just before and just after the
    operation), i.e. expressed at the speed of an uncontended machine."""

    def __init__(self, tracer: Tracer = None):
        self.tracer = tracer  # when set, every operation is a span
        kinds = ("check", "fsm", "session", "pingpong", "rtt")
        self.samples = {kind: [] for kind in kinds}
        self.scaled = {kind: [] for kind in kinds}
        # ping-pong, one entry per session: (messages, seconds, scaled seconds)
        self.exchange = {"small": [], "large": []}
        self.speed = PROBE_S  # the latest probe
        self.factor = 1.0  # the latest operation's scale factor
        self.probes: list = []
        self.pass_s: list = []  # per round: seconds of its check and FSM operations
        self.session_rounds: list = []  # per round: its slice of session samples
        self.attempted = 0
        self.failed: list = []  # (operation, input, error)
        self.wrong: list = []
        self.faults = 0

    def timed(self, kind: str, label: str, fn, *args):
        """Run one operation under the time limit; returns its result, or
        FAILED after recording the failure."""
        self.attempted += 1
        span = nullcontext()
        if self.tracer is not None:
            self.tracer.op = kind
            span = self.tracer.span(f"op.{kind}")
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        try:
            t0 = time.perf_counter()
            with span:
                out = fn(*args)
            dt = time.perf_counter() - t0
        except (Exception, OpTimeout) as e:
            self.failed.append((kind, label, f"{type(e).__name__}: {e}"[:300]))
            return FAILED
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.factor = self.scale(dt)
        self.samples[kind].append(dt)
        self.scaled[kind].append(dt * self.factor)
        return out

    def scale(self, seconds: float) -> float:
        """Factor for the operation that just ended, which took `seconds`;
        the probe taken now also serves as the next operation's `before`."""
        before, self.speed = self.speed, probe_mean(1 + int(seconds / 0.005))
        self.probes.append(self.speed)
        return 2 * PROBE_S / (before + self.speed)


def run_round(tk, w: Workload, rec: Recorder, sizes: tuple) -> None:
    rec.speed = probe()
    done = len(rec.samples["check"]), len(rec.samples["fsm"])
    for f in w.files:
        out = rec.timed("check", f.name, op_check, tk, f)
        if out is not FAILED:
            rec.wrong += verify_check(f, out)
    for f, proto, role in w.pairs:
        out = rec.timed("fsm", f"{f.name}:{proto}@{role}", op_fsm, tk, f, proto, role)
        if out is not FAILED:
            rec.wrong += verify_fsm(f, proto, role, out)
    rec.pass_s.append(sum(rec.samples["check"][done[0]:]) + sum(rec.samples["fsm"][done[1]:]))
    sessions, small, large = sizes
    first = len(rec.samples["session"])
    for _ in range(sessions):
        out = rec.timed("session", "negotiation", op_session, tk, w)
        if out is not FAILED:
            rec.faults += len(out[2])
            rec.wrong += verify_session(out)
    rec.session_rounds.append((first, len(rec.samples["session"])))
    for pp, n, key in ((w.pingpong[0], small, "small"), (w.pingpong[1], large, "large")):
        rtts = []
        out = rec.timed("pingpong", pp.name, op_pingpong, tk, pp, n, rtts)
        if out is FAILED:
            continue
        elapsed, bad = out
        rec.wrong += bad
        rec.exchange[key].append((2 * n, elapsed, elapsed * rec.factor))
        if key == "small":
            rec.samples["rtt"] += rtts
            rec.scaled["rtt"] += [x * rec.factor for x in rtts]


def _quantile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(rec: Recorder, setup_s: float, scaled: bool = True) -> dict:
    s = rec.scaled if scaled else rec.samples
    out = {"setup_s": setup_s,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    for kind in ("check", "fsm"):
        out[f"{kind}_ms_p50"] = _quantile(s[kind], 50) * 1e3
        out[f"{kind}_ms_p90"] = _quantile(s[kind], 90) * 1e3
    out["checks_per_s"] = len(s["check"]) / sum(s["check"])
    out["rtt_us_p50"] = _quantile(s["rtt"], 50) * 1e6
    out["rtt_us_p90"] = _quantile(s["rtt"], 90) * 1e6
    # The whole machine stalls now and then for milliseconds; a median over
    # ping-pong sessions (one per round) keeps such stalls out of the rate.
    seconds = 2 if scaled else 1
    for name, key in (("msgs_per_s", "small"), ("msgs_per_s_large", "large")):
        out[name] = statistics.median(e[0] / e[seconds] for e in rec.exchange[key])
    return out


def session_latency(rec: Recorder) -> dict:
    """Wall time of one run_protocol_file, p50 pooled and p90 per round
    (10 to 20 sessions), median over rounds.  Thread wake-up delays on a
    shared machine come in bursts, which a pooled tail would follow."""
    s = rec.samples["session"]
    return {
        "runtime.session_ms_p50": _quantile(s, 50) * 1e3,
        "runtime.session_ms_p90": statistics.median(
            _quantile(s[a:b], 90) for a, b in rec.session_rounds if b - a > 1) * 1e3,
    }


# ---------------------------------------------------------------------------
# Per-layer census: counts of work per input, from one untimed pass.


def census_hooks(tk, counts: dict) -> dict:
    lock = threading.Lock()  # session hooks run on the process threads

    def add(key, n):
        with lock:
            counts[key] = counts.get(key, 0) + n

    def parse(args, result):
        add("surface.tokens", len(tk.surface.tokenize(args[0])))

    def project(args, result):
        add("projection.calls", 1)
        add("projection.local_nodes", sum(1 for _ in tk.core.subterms(result)))

    def check(args, result):
        add("typecheck.processes", len(result.reports))
        add("typecheck.diagnostics", len(result.all_diagnostics()))

    def consistent(args, result):
        add("consistency.pairs", len(result.pairs))
        add("consistency.pairs_failed", len(result.failing_pairs()))

    def interpret(args, result):
        add("fsm.states", len(result.states))
        add("fsm.transitions", len(result.transitions))

    def action(args, result):
        add("runtime.actions", 1)

    return {
        "surface.parse": parse,
        "elaborate": lambda args, result: add("elaborate.protocols", len(result.concrete)),
        "projection": project,
        "typecheck": check,
        "consistency": consistent,
        "fsm.interpret": interpret,
        "runtime.send": action,
        "runtime.recv": action,
        "runtime.loop": action,
    }


def census(tk, w: Workload) -> dict:
    """Work counts per input (check plus every FSM pair of it), and the
    Endpoint actions of one negotiation session under key None."""
    per_input: dict = {}
    for f in w.files:
        counts = per_input.setdefault(f.name, {})
        tracer = Tracer(tk, census_hooks(tk, counts))
        tracer.install()
        try:
            op_check(tk, f)
            for g, proto, role in w.pairs:
                if g is f:
                    op_fsm(tk, f, proto, role)
        finally:
            tracer.uninstall()
    counts = per_input.setdefault(None, {})
    tracer = Tracer(tk, census_hooks(tk, counts))
    tracer.install()
    try:
        op_session(tk, w)
    finally:
        tracer.uninstall()
    return per_input


def per_layer(tk, w: Workload, plain: Recorder, traced: Recorder,
              tracer: Tracer, traced_rounds: list) -> dict:
    """Layer metrics: check and FSM layers as their mean self time per
    traced pass, runtime layers per call.  Means, so that the layers add
    up: layers_ms = untraced_ms + overhead_ms, up to the few microseconds
    per operation between the benchmark's clock and its span."""
    n = min(len(traced.pass_s), len(plain.pass_s))
    first, last = traced_rounds[0][0], traced_rounds[n - 1][1]
    totals, _ = tracer.self_times({"check", "fsm"}, first, last)
    out = {}
    for name, layers in LAYER_TIMES:
        out[name] = sum(totals.get(layer, 0.0) for layer in layers) * 1e3 / n
    counts = census(tk, w)
    for name in COUNTS:
        out[name] = sum(c.get(name, 0) for key, c in counts.items() if key is not None)
    out["surface.tokens_per_ms"] = out["surface.tokens"] / out["surface.parse_ms"]
    rt_total, rt_count = tracer.self_times({"session", "pingpong"})
    for name, layer, scale in (("runtime.send_us", "runtime.send", 1e6),
                               ("runtime.recv_us", "runtime.recv", 1e6),
                               ("runtime.loop_us", "runtime.loop", 1e6),
                               ("runtime.init_wait_ms", "runtime.init", 1e3)):
        out[name] = rt_total[layer] * scale / max(rt_count[layer], 1)
    out["runtime.actions"] = counts[None].get("runtime.actions", 0)
    out["runtime.faults"] = traced.faults + plain.faults
    out.update(session_latency(plain))
    # traced and untraced rounds alternate; comparing neighbours cancels drift
    out["trace.untraced_ms"] = statistics.fmean(plain.pass_s[:n]) * 1e3
    out["trace.layers_ms"] = sum(totals.get(layer, 0.0) for layer in SUM_LAYERS) * 1e3 / n
    out["trace.overhead_ms"] = statistics.fmean(
        t - u for t, u in zip(traced.pass_s[:n], plain.pass_s[:n])) * 1e3
    return out


# ---------------------------------------------------------------------------


def setup(name: str, seed: int, workdir: Path) -> tuple:
    """Import, generate and warm up; returns (toolkit, workload, seconds,
    seconds scaled like the operations)."""
    before = probe_mean(4)
    t0 = time.perf_counter()
    tk = import_toolkit()
    w = Workload(tk, name, seed, workdir)
    smallest = min(w.files, key=lambda f: len(f.text))
    op_check(tk, smallest)
    for f, proto, role in w.pairs:
        if f is smallest:
            op_fsm(tk, f, proto, role)
    op_session(tk, w)
    for pp in w.pingpong:
        op_pingpong(tk, pp, WARMUP_ROUND_TRIPS, [])
    elapsed = time.perf_counter() - t0
    return tk, w, elapsed, elapsed * 2 * PROBE_S / (before + probe_mean(4))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    workdir = HERE / ".work" / str(random.getrandbits(48))
    signal.signal(signal.SIGALRM, _alarm)
    probe_mean(8)  # the first probes of a process run cold
    try:
        try:
            setups = [setup(args.workload, args.seed, workdir) for _ in range(SETUPS)]
        except (ImportError, OSError, ValueError) as e:
            print(f"cannot set up {args.workload}: {e}", file=sys.stderr)
            return 2
        tk, w, _, _ = setups[-1]
        setup_s = statistics.median(s for *_, s in setups)
        setup_wall = statistics.median(s for *_, s, _ in setups)
        del setups
        tracer = Tracer(tk)
        plain, traced = Recorder(), Recorder(tracer)
        traced_rounds = []  # (first, last) span index of each traced round
        deadline = time.perf_counter() + args.seconds
        rounds = 0
        while rounds < 2 or time.perf_counter() < deadline:
            if args.trace and rounds % 2:
                first = len(tracer.spans)
                tracer.install()
                try:
                    run_round(tk, w, traced, ROUND[args.workload])
                finally:
                    tracer.uninstall()
                traced_rounds.append((first, len(tracer.spans)))
            else:
                run_round(tk, w, plain, ROUND[args.workload])
            rounds += 1
        wall = {}
        if args.trace:
            metrics = per_layer(tk, w, plain, traced, tracer, traced_rounds)
            units = dict(PER_LAYER)
        else:
            metrics, units = end_to_end(plain, setup_s), dict(END_TO_END)
            wall = end_to_end(plain, setup_wall, scaled=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (HERE / ".work").rmdir()
        except OSError:
            pass

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    wrong = w.wrong + plain.wrong + traced.wrong
    print(f"workload {args.workload}, seed {args.seed}: {rounds} rounds,"
          f" probe median {statistics.median(plain.probes) * 1e6:.1f} us")
    print("  samples: " + ", ".join(f"{k} {len(v)}" for k, v in plain.samples.items()))
    print(f"  {'metric':26s} {'value':>14s} {'unit':5s} {'unscaled':>14s}")
    for name, value in metrics.items():
        raw = f"{wall[name]:14.4f}" if name in wall else ""
        print(f"  {name:26s} {value:14.4f} {units[name]:5s} {raw}")
    print(f"  error_ratio                {len(failed) / attempted:14.4f} "
          f"({len(failed)} of {attempted} operations)")
    for kind, label, err in failed:
        print(f"  failed {kind} {label}: {err}")
    for line in dict.fromkeys(wrong):
        print(f"  WRONG {line}")
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
