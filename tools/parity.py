"""Fingerprint what the CLI prints for a fixed set of inputs, to compare two
checkouts.

    python tools/parity.py 1 4242 9101 > parity.txt

The inputs are the fixtures, every `benchmark/inputs.family` input at the
given seeds and, at each seed, `DAMAGED` copies of the fixtures made by
`tests/helpers.cut_and_splice`, `ODD` files of `tests/helpers.odd_files`,
the `CHAINS` of `tests/helpers.reference_chain`, whose protocols share
definitions, the generated `LOOPS`, the `SHARED` choices, whose repeated
subtrees elaboration shares, the `ROLES` of two 50-role token rings, the
`PROCS`, a process that plays a generic protocol and a run that leaves a
session unfinished, the `LEXED` texts that test the lexer, and the `MERGES`,
one file for each reason a merge fails, one whose merge aligns two loops and
one whose merge is 901 steps deep (duplicate texts once).  Each goes through
`cli.main`, in process, with `check --consistency` (text and `--json`),
which prints the text, line and column of every syntax or elaboration
error.  Each fixture, family input,
loop, shared choice, ring, process and merge file then goes through
`project` (text and `--json`) and `fsm --json` for every role of every
protocol; `project` and `fsm --json` once without `--protocol`, for the
first role of the first protocol (or `A` when there is none); and `run`,
`run --json` and `run --unchecked --timeout 1`, except on the ping-pong,
`deep` and ring texts, whose processes end only by timeout.
Each call prints one line: the input, the command, the exit code and the
SHA-256 of stdout and of stderr.  An exception that escapes `cli.main` reads
as exit `traceback`.  The mpstkit, benchmark inputs and test helpers used are
those of the checkout this file is in, so to compare two commits run a copy
of it in each checkout and diff the outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from helpers import (  # noqa: E402
    benchmark_inputs, bystander_chains, cut_and_splice, nested_loops, odd_files,
    reference_chain, token_ring_text,
)
from mpstkit import cli  # noqa: E402
from mpstkit.core import roles_of  # noqa: E402

DAMAGED = 100  # damaged copies of the fixtures per seed
ODD = 20  # odd files per seed
# "bystander" is the diamond with `P0 = B -> C : M . end`, so that C merges
# the branches of every level; a 16-level diamond and an 800-protocol chain
# are checked once per shared object
CHAINS = [("diamond", 8), ("in order", 40), ("reversed", 40), ("generic", 40), ("bystander", 8),
          ("diamond", 16), ("in order", 800)]
# `tests/helpers.nested_loops` at 50 and 200 levels, under the parser's
# nesting limit, and a protocol whose roles B and C meet only inside a loop,
# behind a choice of A's
LOOPS = [(f"nested {n}", f"sort M;\nglobal Nested = {nested_loops(n)};\n") for n in (50, 200)]
LOOPS.append(("behind", """sort Go; sort Stop; sort M;
global Behind = rec X . A -> B : {
  Go . B -> C : M . C -> B : M . X,
  Stop . B -> C : Stop . end };
"""))
# one choice repeated under both branches of another: C cannot merge the
# repeated choice, so projecting onto C fails inside a shared subterm; and
# one it can merge, which recurs from inside the repeated subterm
SHARED = [
    ("unmergeable", """sort L1; sort L2; sort K; sort J; sort X; sort Y;
global Twice = A -> B : {
  L1 . A -> B : { K . C -> B : X . end, J . C -> B : Y . end },
  L2 . A -> B : { K . C -> B : X . end, J . C -> B : Y . end } };
"""),
    ("looped", """sort L1; sort L2; sort K; sort J;
global Twice = rec X . A -> B : {
  L1 . A -> B : { K . B -> C : K . X, J . B -> C : J . end },
  L2 . A -> B : { K . B -> C : K . X, J . B -> C : J . end } };
"""),
]
# four bystanders of a choice between two references to one 12-level
# diamond: A and B merge their projection of the diamond with itself
SHARED.append(("bystanders", "\n".join([
    "sort M; sort Q;", *reference_chain("diamond", 12),
    "global G = D -> E : { M . P11, Q . P11 };"]) + "\n"))
# many roles: a token ring of 50 roles, and one that R0 may stop, in which
# most pairs never talk; their processes pass the token forever
ROLES = [("ring 50", token_ring_text(50)), ("ring exit 50", token_ring_text(50, with_exit=True))]
# a process bound to a generic protocol, which `check` and `run` refuse, and
# a run whose B ends without reading A's Ping, so only `run --unchecked` runs it
PROCS = [
    ("generic", "sort Ping;\nglobal G[X: role, Y: role] = X -> Y : Ping . end;\n"
                "proc a plays A in G { end }\n"),
    ("orphan", "sort Ping;\nglobal G = A -> B : Ping . end;\n"
               "proc a plays A in G { send B Ping; end }\nproc b plays B in G { end }\n"),
]
# one file for each reason a merge can fail from source text, and a merge
# of two loops that names the common binder M0.  In "union order", C merges
# two receives of P and Q that list them in opposite orders; merging P's
# continuations would fail on other grounds than Q's, so which is reported
# shows the order in which the union merges shared sorts
MERGES = [
    ("incompatible constructors", "sort M; sort N;\n"
     "global G = A -> B : { M . B -> C : M . end, N . end };\n"),
    ("different recursion variables", "sort a; sort b; sort m;\n"
     "global G = rec X1 . rec Y1 . A -> B : { a . C -> A : m . X1, b . C -> A : m . Y1 };\n"),
    ("different peers", "sort M; sort N;\n"
     "global G = A -> B : { M . A -> C : M . end, N . B -> C : M . end };\n"),
    ("different sorts", "sort M; sort N;\n"
     "global G = A -> B : { M . C -> B : M . end, N . C -> B : N . end };\n"),
    ("union order", """sort L; sort R; sort P; sort Q; sort M; sort N;
global G = A -> B : {
  L . A -> D : L . D -> C : { P . C -> D : M . end, Q . C -> D : M . end },
  R . A -> D : R . D -> C : { Q . C -> D : N . end, P . end } };
"""),
    ("aligned loops", """sort L; sort R; sort c; sort d; sort e;
global G = A -> B : {
  L . rec X . B -> C : { c . C -> A : c . X, d . C -> A : d . end },
  R . rec Y . B -> C : { c . C -> A : c . Y, e . C -> A : e . end } };
"""),
    ("deep merge", bystander_chains(9)),
]
# what the lexer must agree on: comments glued to tokens or inside a string,
# non-ASCII blanks, CRLF line ends, and characters no token starts with
TWO_BUYER = (ROOT / "fixtures" / "two_buyer.mpst").read_text()
LEXED = [
    ("glued comments", TWO_BUYER.replace(";\n", ";//;\n")),
    ("comment marker in a string", TWO_BUYER.replace("war-and-peace", "war//and//peace")),
    ("unicode blanks", TWO_BUYER.replace(" -> ", "\u00a0->\u2028")),
    ("crlf", TWO_BUYER.replace("\n", "\r\n")),
    ("lone slash", "sort M;\nglobal G = A -> B : M / end;\n"),
    ("unterminated string", TWO_BUYER + 'proc x plays B1 in Purchase { send S String("open'),
    ("e acute", "sort M\u00e9;\nglobal G = A -> B : M . end;\n"),
    ("dollar after a comment", "sort M; // note\n$ global G = A -> B : M . end;\n"),
]
CHECK_ONLY = ("damaged/", "odd/", "chain/", "lexed/")  # labels of inputs that are only checked


def chain_text(kind: str, n: int) -> str:
    """A file of the `n` declarations of one of `CHAINS`."""
    lines = reference_chain("diamond" if kind == "bystander" else kind, n)
    if kind == "bystander":
        lines[0] = "global P0 = B -> C : M . end;"
    return "\n".join(["sort M; sort Q;", *lines]) + "\n"


def inputs_for(seeds: list) -> list:
    """(label, text) for each fixture, then each family input at each seed,
    then the damaged copies of the fixtures, the odd files, the reference
    chains, the loops, the shared choices, the rings, the processes, the
    lexer's texts and the merges for each seed."""
    out = [(p.relative_to(ROOT).as_posix(), p.read_text())
           for p in sorted((ROOT / "fixtures").rglob("*.mpst"))]
    fixtures = [text for _, text in out]
    if seeds:
        family = benchmark_inputs().family
        out += [(f"{workload}/{f.name}@{seed}", f.text)
                for seed in seeds for workload in ("corpus", "deep", "wide", "run")
                for f in family(workload, seed, ROOT)]
        out += [(f"damaged/{i}@{seed}", text) for seed in seeds
                for i, text in enumerate(cut_and_splice(fixtures, DAMAGED, seed))]
        out += [(f"odd/{i}@{seed}", text) for seed in seeds
                for i, text in enumerate(odd_files(ODD, seed))]
        out += [(f"chain/{kind} {n}@{seed}", chain_text(kind, n))
                for seed in seeds for kind, n in CHAINS]
        out += [(f"loops/{label}@{seed}", text) for seed in seeds for label, text in LOOPS]
        out += [(f"shared/{label}@{seed}", text) for seed in seeds for label, text in SHARED]
        out += [(f"roles/{label}@{seed}", text) for seed in seeds for label, text in ROLES]
        out += [(f"procs/{label}@{seed}", text) for seed in seeds for label, text in PROCS]
        out += [(f"lexed/{label}@{seed}", text) for seed in seeds for label, text in LEXED]
        out += [(f"merges/{label}@{seed}", text) for seed in seeds for label, text in MERGES]
    first: dict = {}  # text -> the label it first came with
    for label, text in out:
        first.setdefault(text, label)
    return [(label, text) for text, label in first.items()]


def call(argv: list) -> tuple:
    """(exit code, stdout, stderr) of cli.main(argv), as a shell would see it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
            if isinstance(code, str):  # the interpreter prints it and exits 1
                print(code, file=err)
                code = 1
        except Exception as e:  # noqa: BLE001 - a traceback is a result here
            err.write("".join(traceback.format_exception_only(type(e), e)))
            code = "traceback"
    return code, out.getvalue(), err.getvalue()


# Family inputs whose processes end only by timeout, so that what a run
# prints depends on the machine's speed: the ping-pongs, every deep loop and
# the token rings.
ENDLESS = ("deep/", "run/pingpong", "roles/")


def commands(label: str, path: str) -> list:
    """The command lines run on the input at `path`."""
    out = [["check", path, "--consistency"], ["check", path, "--consistency", "--json"]]
    if label.startswith(CHECK_ONLY):
        return out
    pf, _ = cli.load_file(path)
    names = sorted(pf.concrete) if pf else []
    for name in names:
        for role in sorted(r.name for r in roles_of(pf.concrete[name])):
            out.append(["project", path, "--protocol", name, "--role", role])
            out.append(["project", path, "--protocol", name, "--role", role, "--json"])
            out.append(["fsm", path, "--protocol", name, "--role", role, "--json"])
    # without --protocol, the CLI picks the file's one protocol or says why it cannot
    first = sorted(r.name for r in roles_of(pf.concrete[names[0]])) if names else []
    role = first[0] if first else "A"
    out += [["project", path, "--role", role], ["fsm", path, "--role", role, "--json"]]
    if not label.startswith(ENDLESS):
        out += [["run", path], ["run", path, "--json"],
                ["run", path, "--unchecked", "--timeout", "1"]]
    return out


def parity_lines(inputs: list) -> list:
    """One line per input and command.  Every input is written to the same
    relative path, so the path the CLI prints does not depend on the label."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for label, text in inputs:
                Path("input.mpst").write_text(text)
                for argv in commands(label, "input.mpst"):
                    code, out, err = call(argv)
                    digest = [hashlib.sha256(s.encode()).hexdigest() for s in (out, err)]
                    lines.append(f"{label} | {' '.join(argv[:1] + argv[2:])} | exit {code}"
                                 f" | stdout {digest[0]} | stderr {digest[1]}")
        finally:
            os.chdir(cwd)
    return lines


if __name__ == "__main__":
    for line in parity_lines(inputs_for([int(s) for s in sys.argv[1:]])):
        print(line)
