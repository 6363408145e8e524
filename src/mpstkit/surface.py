"""Surface syntax for protocol files (.mpst): lexer, parser, renderer.

A file holds sort declarations, (possibly generic) global type definitions,
declared local types that must match a projection, and process scripts:

    sort Propose(int);
    sort Accept;

    global Haggle = A -> B : Propose . rec X . B -> A : {
        Accept . end,
        Propose . A -> B : { Accept . end, Propose . X } };

    local Haggle @ B = A -> B ? Propose . rec X . ...;

    proc bob plays B in Haggle {
      recv A { Propose(v) -> ... }
    }

A token is its lexeme: `tokenize` blanks the `//` comments, splits the text
around its lexemes with one regex into the plain list the parser indexes, and
keeps the offset each lexeme starts at.  A lexeme's `(line, col)` is computed
only where a `pos` or a `ParseError` keeps one, in one call.

Parsing is deterministic recursive descent.  The rules most tokens pass
through read their fixed token shapes by index, each token checked before the
next is read; the others take a token at a time.  Errors carry line/column and
the expected-token set; the parser resynchronises at the next top-level
keyword so several errors can be reported in one pass.

Types parse to the surface AST below, which elaboration resolves.  A process
body parses straight to the `typecheck` terms the checker and the runtime
use, with an action's omitted `[var]` filled in with the default session.
Only the whole file says what a sort name means, so each sort constructor is
a `typecheck.NewSort` holding a bare `Sort(name)`; the `ProcDef` lists these
nodes in source order, and elaboration sets each one's sort to the file's in
place.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional, Union

from . import core, typecheck as tc

KEYWORDS = {
    "sort", "global", "local", "proc", "plays", "in", "as", "rec", "end",
    "loop", "recur", "send", "recv", "if", "then", "else", "let",
    "role", "protocol", "endpoint", "int", "string",
}
# the keywords that start a declaration; the parser resynchronises at them
_DECL_KEYWORDS = ("sort", "global", "local", "proc")
# the keywords that start a statement
_STMT_KEYWORDS = ("send", "recv", "loop", "recur", "end", "if", "let")

# A token's lexeme, captured so that `re.split` keeps it between the gaps.  The
# pattern starts with the class of every character a token starts with, so
# the search skips blanks without trying each kind of token; a look back at
# that character then says how the lexeme goes on.
_TOKEN_RE = re.compile(
    r"""
    ( [A-Za-z_\d"{}()\[\];:.,=@!?<\-]
      (?: (?<![A-Za-z\d"\-])              # punctuation or `_`: one character
        | (?<=[A-Za-z]) [A-Za-z0-9_]*     # identifier or keyword
        | (?<=-) >?                       # `->` or `-`
        | (?<=\d) \d*
        | (?<=") (?:[^"\\]|\\.)* " ) )     # a string; a lone `"` is no token
    """,
    re.VERBOSE,
)
# A `//` comment, to be blanked, or a string literal, kept: scanning from the
# left finds each where the lexer would.  Both start with a literal, so the
# search skips to a `/` or a `"`.
_COMMENT_RE = re.compile(r'//[^\n]*|"((?:[^"\\]|\\.)*)"')

Pos = tuple  # (line, col)


@dataclass
class ParseError(Exception):
    line: int
    col: int
    message: str
    expected: tuple = ()

    def __str__(self) -> str:
        msg = f"{self.line}:{self.col}: {self.message}"
        if self.expected:
            msg += f" (expected {', '.join(self.expected)})"
        return msg


class Lexemes:
    """The lexemes of a text, ending with "" for eof, as a plain list `tokens`;
    `starts` holds the offset each starts at (the text's length for eof),
    `newlines` -1 and then the offset of each line break."""

    def __init__(self, tokens: list, starts: list, newlines: list):
        self.tokens, self.starts, self.newlines = tokens, starts, newlines

    def __len__(self) -> int:
        return len(self.tokens)

    def pos(self, i: int) -> Pos:
        """The (line, col) of the i-th lexeme."""
        offset = self.starts[i]
        line = bisect_right(self.newlines, offset)
        return line, offset - self.newlines[line - 1]


def tokenize(text: str) -> Lexemes:
    """The lexemes of `text`, then "" for eof, with the offset each starts at.
    Blanks and `//` comments separate lexemes, and a keyword is lexed as an
    identifier is.  The first character no token starts with (an unterminated
    string's `"` among them) is a `ParseError`."""
    if "//" in text:  # blank each comment, so that no lexeme is read inside it
        text = _COMMENT_RE.sub(lambda m: m[0] if m.lastindex else " " * len(m[0]), text)
    # lexemes at odd indices, the gaps around them at even ones
    parts = _TOKEN_RE.split(text)
    starts = list(accumulate(map(len, parts)))[0::2]  # where each gap ends
    newlines = [-1, *(m.start() for m in re.finditer("\n", text))]
    lexemes = Lexemes(parts[1::2], starts, newlines)
    lexemes.tokens.append("")
    gaps = parts[0::2]
    blanks = "".join(gaps)
    if blanks and not blanks.isspace():
        k, rest = next((k, rest) for k, gap in enumerate(gaps) if (rest := gap.lstrip()))
        starts[k] -= len(rest)  # gap k's first character that is not a blank
        raise ParseError(*lexemes.pos(k), f"unexpected character {rest[0]!r}")
    return lexemes


def _is_name(lexeme: str) -> bool:  # an identifier, but not `_` or a keyword
    return lexeme[:1].isalpha() and lexeme not in KEYWORDS


# ---------------------------------------------------------------------------
# Surface AST


@dataclass(unsafe_hash=True)
class STCom:
    """One communication step: `:` in a global type, `!` (send) or `?`
    (receive) in a declared local type."""

    sender: str
    receiver: str
    op: str  # ":" | "!" | "?"
    branches: tuple  # ((sortName, STy), ...)
    pos: Pos = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class STEnd:
    pos: Pos = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class STRec:
    var: str
    body: "STy"
    pos: Pos = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class STRef:
    name: str
    args: tuple = ()
    pos: Pos = field(default=None, compare=False)


STy = Union[STCom, STEnd, STRec, STRef]


@dataclass(unsafe_hash=True)
class SortDecl:
    name: str
    schema: object  # "none" | "int" | "string" | SEndpointSchema
    pos: Pos = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class SEndpointSchema:
    role: str
    global_name: str
    project_onto: str


@dataclass(unsafe_hash=True)
class GlobalDef:
    name: str
    params: tuple  # ((name, "role"|"protocol"), ...)
    body: STy
    pos: Pos = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class LocalDef:
    global_name: str
    role: str
    declared: STy
    pos: Pos = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class ProcDef:
    name: str
    bindings: tuple  # ((role, protocolName, var|None), ...)
    body: tc.ProcessTerm
    pos: Pos = field(default=None, compare=False)
    # the body's `NewSort` nodes in source order, each holding a bare
    # `Sort(name)` until elaboration resolves it
    constructors: list = field(default_factory=list, compare=False, repr=False)


@dataclass
class SurfaceFile:
    decls: list = field(default_factory=list)

    def sort_decls(self) -> list:
        return [d for d in self.decls if isinstance(d, SortDecl)]

    def global_defs(self) -> list:
        return [d for d in self.decls if isinstance(d, GlobalDef)]

    def local_defs(self) -> list:
        return [d for d in self.decls if isinstance(d, LocalDef)]

    def proc_defs(self) -> list:
        return [d for d in self.decls if isinstance(d, ProcDef)]


@dataclass
class ParseResult:
    file: SurfaceFile
    errors: list

    @property
    def ok(self) -> bool:
        return not self.errors


def default_session(bindings) -> str:
    """The session a process's action without `[var]` acts on: the first
    binding's variable, or `s` when that binding has no `as`."""
    return bindings[0][2] or "s"


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, lexemes: Lexemes):
        self.tokens, self.starts, self.newlines = lexemes.tokens, lexemes.starts, lexemes.newlines
        self.names = set(filter(_is_name, set(self.tokens)))  # what `ident` takes
        self.roles: dict = {}  # name -> core.Role, each built once
        self.sorts: dict = {}  # name -> bare core.Sort, each built once
        self.i = 0

    # the lexemes always end with "" for eof, and next() never steps past it
    def peek(self) -> str:
        return self.tokens[self.i]

    def next(self) -> str:
        lexeme = self.tokens[self.i]
        if lexeme:
            self.i += 1
        return lexeme

    def pos(self, back: int = 0) -> Pos:
        """The (line, col) of the next token, or of the one `back` before it."""
        offset = self.starts[self.i - back]
        line = bisect_right(self.newlines, offset)
        return line, offset - self.newlines[line - 1]

    def accept(self, text: str) -> Optional[str]:
        if self.tokens[self.i] == text:
            self.i += 1
            return text
        return None

    def unexpected(self, *expected: str):
        raise ParseError(*self.pos(), f"unexpected {self.peek()!r}", expected)

    def fail(self, i: int, *expected: str):
        """`unexpected` at token i, where parsing then resumes."""
        self.i = i
        self.unexpected(*expected)

    def expect(self, text: str) -> str:
        if self.tokens[self.i] != text:
            self.unexpected(text)
        self.i += 1
        return text

    def ident(self, what: str = "identifier") -> str:
        lexeme = self.tokens[self.i]
        if lexeme not in self.names:
            self.unexpected(what)
        self.i += 1
        return lexeme

    def role(self, i: int) -> core.Role:
        name = self.tokens[i]
        role = self.roles.get(name)
        if role is None:
            if name not in self.names:
                self.fail(i, "role")
            role = self.roles[name] = core.Role(name)
        return role

    def new_sort(self, name: str, pos: Pos) -> tc.NewSort:
        """A constructor of sort `name` with no arguments yet, listed for
        elaboration to resolve."""
        sort = self.sorts.get(name)
        if sort is None:
            sort = self.sorts[name] = core.Sort(name)
        node = tc.NewSort(sort, (), pos)
        self.constructors.append(node)
        return node

    # -- declarations --------------------------------------------------------

    def file(self) -> ParseResult:
        decls: list = []
        errors: list = []
        while self.peek():
            start = self.i
            try:
                decls.append(self.decl())
            except ParseError as e:
                errors.append(e)
                self._sync()
            except RecursionError:
                # syncing from just after the keyword always makes progress, and
                # finds the same place as syncing from where the stack ran out,
                # since no top-level keyword occurs inside a declaration
                errors.append(
                    ParseError(*self.pos(self.i - start), "declaration nested too deeply"))
                self.i = start + 1
                self._sync()
        return ParseResult(SurfaceFile(decls), errors)

    def _sync(self) -> None:
        while self.peek() and self.peek() not in _DECL_KEYWORDS:
            self.next()

    def decl(self):
        pos = self.pos()  # of the keyword, which each rule is given
        keyword = self.tokens[self.i]
        if keyword not in _DECL_KEYWORDS:
            self.unexpected(*_DECL_KEYWORDS)
        self.i += 1
        if keyword == "sort":
            return self.sort_decl(pos)
        if keyword == "global":
            return self.global_def(pos)
        if keyword == "local":
            return self.local_def(pos)
        return self.proc_def(pos)

    def sort_decl(self, pos: Pos) -> SortDecl:
        name = self.ident("sort name")
        schema: object = core.PAYLOAD_NONE
        if self.accept("("):
            if self.accept("int"):
                schema = core.PAYLOAD_INT
            elif self.accept("string"):
                schema = core.PAYLOAD_STRING
            elif self.accept("endpoint"):
                self.expect("[")
                role = self.ident("role")
                self.expect(",")
                gname = self.ident("protocol name")
                self.expect("@")
                onto = self.ident("role")
                self.expect("]")
                schema = SEndpointSchema(role, gname, onto)
            else:
                self.unexpected("int", "string", "endpoint")
            self.expect(")")
        self.expect(";")
        return SortDecl(name, schema, pos)

    def global_def(self, pos: Pos) -> GlobalDef:
        name = self.ident("protocol name")
        params: list = []
        if self.accept("["):
            while True:
                pname = self.ident("parameter name")
                self.expect(":")
                kind = self.accept("role") or self.accept("protocol")
                params.append((pname, kind or self.unexpected("role", "protocol")))
                if not self.accept(","):
                    break
            self.expect("]")
        self.expect("=")
        body = self.type_expr(local=False)
        self.expect(";")
        return GlobalDef(name, tuple(params), body, pos)

    def local_def(self, pos: Pos) -> LocalDef:
        gname = self.ident("protocol name")
        self.expect("@")
        role = self.ident("role")
        self.expect("=")
        declared = self.type_expr(local=True)
        self.expect(";")
        return LocalDef(gname, role, declared, pos)

    # -- type expressions ----------------------------------------------------

    def type_expr(self, local: bool):
        """A global type (`A -> B : …`, with protocol references `N[…]`) or,
        when `local`, a declared local type (`A -> B ! …` / `A -> B ? …`)."""
        tokens, names, i = self.tokens, self.names, self.i
        pos = self.pos()
        head = tokens[i]
        if head == "end":
            self.i = i + 1
            return STEnd(pos)
        if head == "rec":
            if tokens[i + 1] not in names:
                self.fail(i + 1, "recursion variable")
            if tokens[i + 2] != ".":
                self.fail(i + 2, ".")
            self.i = i + 3
            return STRec(tokens[i + 1], self.type_expr(local), pos)
        if head not in names:
            self.unexpected("role or recursion variable" if local else "role or protocol name")
        if tokens[i + 1] == "->":
            if tokens[i + 2] not in names:
                self.fail(i + 2, "role")
            op = tokens[i + 3]
            if op not in ("!", "?") if local else op != ":":
                self.fail(i + 3, *(("!", "?") if local else (":",)))
            self.i = i + 4
            return STCom(head, tokens[i + 2], op, self.branches(local), pos)
        self.i = i + 1
        args: list = []
        if not local and self.accept("["):
            while True:
                args.append(self.type_expr(local))
                if not self.accept(","):
                    break
            self.expect("]")
        return STRef(head, tuple(args), pos)

    def branches(self, local: bool) -> tuple:
        if self.tokens[self.i] != "{":
            return (self.branch(local),)
        self.i += 1
        out = [self.branch(local)]
        while self.accept(","):
            out.append(self.branch(local))
        self.expect("}")
        return tuple(out)

    def branch(self, local: bool) -> tuple:
        tokens, i = self.tokens, self.i
        sort = tokens[i]
        if sort not in self.names:
            self.unexpected("sort name")
        if tokens[i + 1] != ".":
            self.fail(i + 1, ".")
        self.i = i + 2
        return (sort, self.type_expr(local))

    # -- processes -----------------------------------------------------------

    def proc_def(self, pos: Pos) -> ProcDef:
        name = self.ident("process name")
        self.expect("plays")
        bindings: list = []
        while True:
            role = self.ident("role")
            self.expect("in")
            proto = self.ident("protocol name")
            var = None
            if self.accept("as"):
                var = self.ident("session variable")
            bindings.append((role, proto, var))
            if not self.accept(","):
                break
        self.default_session = default_session(bindings)
        self.constructors = constructors = []
        self.expect("{")
        body = self.stmt()
        self.expect("}")
        return ProcDef(name, tuple(bindings), body, pos, constructors)

    def stmt(self) -> tc.ProcessTerm:
        tokens, names, i = self.tokens, self.names, self.i
        pos = self.pos()
        keyword = tokens[i]
        if keyword not in _STMT_KEYWORDS:
            self.unexpected(*_STMT_KEYWORDS)
        i += 1
        sel = self.default_session
        if tokens[i] == "[" and keyword in ("send", "recv", "loop", "recur"):
            sel = tokens[i + 1]
            if sel not in names:
                self.fail(i + 1, "session variable")
            if tokens[i + 2] != "]":
                self.fail(i + 2, "]")
            i += 3
        if keyword == "send":
            to = self.role(i)
            if tokens[i + 1] not in names:
                self.fail(i + 1, "sort name")
            payload = self.new_sort(tokens[i + 1], pos)
            i += 2
            if tokens[i] == "(":
                self.i = i + 1
                payload.args = (self.expr(),)
                self.expect(")")
                i = self.i
            if tokens[i] != ";":
                self.fail(i, ";")
            self.i = i + 1
            return tc.SendT(sel, to, payload, self.stmt(), pos)
        if keyword == "recv":
            frm = self.role(i)
            if tokens[i + 1] != "{":
                self.fail(i + 1, "{")
            self.i = i + 2
            arms = [self.arm()]
            while self.accept(","):
                arms.append(self.arm())
            self.expect("}")
            return tc.RecvT(sel, frm, tuple(arms), pos)
        self.i = i
        if keyword in ("recur", "end"):  # a call below, where a chain had its deepest frame
            return self.leaf(keyword, sel, pos)
        if keyword == "loop":
            var = self.ident("loop label")
            self.expect("{")
            body = self.stmt()
            self.expect("}")
            return tc.LoopT(sel, var, body, pos)
        if keyword == "if":
            cond = self.expr()
            self.expect("then")
            self.expect("{")
            then = self.stmt()
            self.expect("}")
            self.expect("else")
            self.expect("{")
            els = self.stmt()
            self.expect("}")
            return tc.IfT(cond, then, els, pos)
        # let
        name = self.ident("variable")
        self.expect("=")
        value = self.expr()
        self.expect(";")
        cont = self.stmt()
        return tc.LetT(name, value, cont, pos)

    def leaf(self, keyword: str, sel: str, pos: Pos) -> tc.ProcessTerm:
        if keyword == "recur":
            return tc.RecurT(self.ident("loop label"), sel, pos)
        results: list = []
        if self.accept("("):
            results.append(self.ident("variable"))
            while self.accept(","):
                results.append(self.ident("variable"))
            self.expect(")")
        return tc.EndT(tuple(results), pos)

    def arm(self) -> tc.RecvArm:
        tokens, names, i = self.tokens, self.names, self.i
        pos = self.pos()
        sort = tokens[i]
        if sort not in names:
            self.unexpected("sort name")
        if tokens[i + 1] != "(":
            self.fail(i + 1, "(")
        var = tokens[i + 2]
        if var != "_" and var not in names:
            self.fail(i + 2, "variable", "_")
        if tokens[i + 3] != ")":
            self.fail(i + 3, ")")
        if tokens[i + 4] != "->":
            self.fail(i + 4, "->")
        self.i = i + 5
        return tc.RecvArm(sort, var, self.stmt(), pos)

    # -- expressions ---------------------------------------------------------

    def expr(self):
        left = self.add_expr()
        if self.accept("<"):
            pos = self.pos(back=1)
            return tc.Lt(left, self.add_expr(), pos)
        return left

    def add_expr(self):
        left = self.atom()
        while self.accept("-"):
            pos = self.pos(back=1)
            left = tc.Sub(left, self.atom(), pos)
        return left

    def atom(self):
        pos = self.pos()
        lexeme = self.peek()
        if lexeme[:1].isdecimal():
            self.next()
            try:
                return tc.IntLit(int(lexeme), pos)
            except ValueError:  # more digits than int() converts
                raise ParseError(*pos, "integer literal too long") from None
        if lexeme[:1] == '"':
            self.next()
            raw = lexeme[1:-1]
            return tc.StrLit(raw.replace('\\"', '"').replace("\\\\", "\\"), pos)
        if self.accept("("):
            e = self.expr()
            self.expect(")")
            return e
        if lexeme in self.names:
            self.next()
            if self.accept("("):
                node = self.new_sort(lexeme, pos)
                node.args = (self.expr(),)
                self.expect(")")
                return node
            e: object = tc.VarRef(lexeme, pos)
            while self.accept("."):
                dot = self.pos(back=1)
                fieldname = self.ident("value")
                if fieldname != "value":
                    raise ParseError(*self.pos(back=1), f"unknown field {fieldname!r}", ("value",))
                e = tc.Field(e, dot)
            return e
        self.unexpected("integer", "string", "variable", "(")


def parse_protocol_file(text: str) -> ParseResult:
    """Parse .mpst source; returns the (possibly partial) file plus errors."""
    try:
        tokens = tokenize(text)
    except ParseError as e:
        return ParseResult(SurfaceFile([]), [e])
    return _Parser(tokens).file()


# ---------------------------------------------------------------------------
# Rendering (the inverse of parsing, up to layout)


def render_local_type(t: core.LocalType) -> str:
    """The .mpst text of a local type; core types render themselves."""
    return str(t)


def _render_sty(t) -> str:
    if isinstance(t, STEnd):
        return "end"
    if isinstance(t, STRec):
        return f"rec {t.var} . {_render_sty(t.body)}"
    if isinstance(t, STRef):
        if t.args:
            return f"{t.name}[{', '.join(_render_sty(a) for a in t.args)}]"
        return t.name
    assert isinstance(t, STCom)
    return f"{t.sender} -> {t.receiver} {t.op} {_render_sbranches(t.branches)}"


def _render_sbranches(branches) -> str:
    if len(branches) == 1:
        name, cont = branches[0]
        return f"{name} . {_render_sty(cont)}"
    inner = ", ".join(f"{name} . {_render_sty(cont)}" for name, cont in branches)
    return "{ " + inner + " }"


def _render_expr(e) -> str:
    # subtraction is left-associative: walk its left spine with a loop, and
    # parenthesise only the right operands and a comparison at the far left
    rights = []
    while isinstance(e, tc.Sub):
        rights.append(_render_atom(e.b))
        e = e.a
    if rights:
        return " - ".join([_render_atom(e), *reversed(rights)])
    if isinstance(e, tc.IntLit):
        return str(e.value)
    if isinstance(e, tc.StrLit):
        escaped = e.value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(e, tc.VarRef):
        return e.name
    if isinstance(e, tc.NewSort):  # a send's payload may have no argument
        return e.sort.name + "".join(f"({_render_expr(a)})" for a in e.args)
    if isinstance(e, tc.Field):
        depth = 0  # a `.value` chain: a long one must not recurse per step
        while isinstance(e, tc.Field):
            depth += 1
            e = e.target
        return _render_atom(e) + ".value" * depth
    if isinstance(e, tc.Lt):
        # a comparison takes one `<`: parenthesise a nested one
        a, b = (_render_atom(x) if isinstance(x, tc.Lt) else _render_expr(x) for x in (e.a, e.b))
        return f"{a} < {b}"
    raise TypeError(f"unknown expression: {e!r}")


def _render_atom(e) -> str:
    if isinstance(e, (tc.Sub, tc.Lt)):
        return f"({_render_expr(e)})"
    return _render_expr(e)


def _selector(p, default: str) -> str:
    return "" if p.session == default else f"[{p.session}]"


def _render_proc(p, pad: str, default: str) -> str:
    steps = []  # a `;`-chain of sends and lets, walked in a loop
    while isinstance(p, (tc.SendT, tc.LetT)):
        if isinstance(p, tc.SendT):
            steps.append(f"{pad}send{_selector(p, default)} {p.to} {_render_expr(p.payload)};\n")
        else:
            steps.append(f"{pad}let {p.name} = {_render_expr(p.value)};\n")
        p = p.cont
    if isinstance(p, tc.RecvT):
        arms = []
        for arm in p.branches:
            body = _render_proc(arm.cont, pad + "    ", default)
            arms.append(f"{pad}  {arm.sort_name}({arm.payload_var}) ->\n{body}")
        joined = ",\n".join(arms)
        last = f"{pad}recv{_selector(p, default)} {p.frm} {{\n{joined}\n{pad}}}"
    elif isinstance(p, tc.LoopT):
        body = _render_proc(p.body, pad + "  ", default)
        last = f"{pad}loop{_selector(p, default)} {p.recur_var} {{\n{body}\n{pad}}}"
    elif isinstance(p, tc.RecurT):
        last = f"{pad}recur{_selector(p, default)} {p.recur_var}"
    elif isinstance(p, tc.EndT):
        last = f"{pad}end({', '.join(p.results)})" if p.results else f"{pad}end"
    elif isinstance(p, tc.IfT):
        then = _render_proc(p.then, pad + "  ", default)
        els = _render_proc(p.els, pad + "  ", default)
        last = f"{pad}if {_render_expr(p.cond)} then {{\n{then}\n{pad}}} else {{\n{els}\n{pad}}}"
    else:
        raise TypeError(f"unknown process node: {p!r}")
    return "".join(steps) + last


def render_file(sf: SurfaceFile) -> str:
    """Render a parsed file back to source that reparses to the same AST.
    A process's actions on its default session (the first binding's) are
    rendered without the `[var]` selector."""
    chunks = []
    for d in sf.decls:
        if isinstance(d, SortDecl):
            if d.schema == core.PAYLOAD_NONE:
                chunks.append(f"sort {d.name};")
            elif isinstance(d.schema, SEndpointSchema):
                chunks.append(
                    f"sort {d.name}(endpoint[{d.schema.role}, "
                    f"{d.schema.global_name} @ {d.schema.project_onto}]);"
                )
            else:
                chunks.append(f"sort {d.name}({d.schema});")
        elif isinstance(d, GlobalDef):
            params = ""
            if d.params:
                params = "[" + ", ".join(f"{n}: {k}" for n, k in d.params) + "]"
            chunks.append(f"global {d.name}{params} = {_render_sty(d.body)};")
        elif isinstance(d, LocalDef):
            chunks.append(f"local {d.global_name} @ {d.role} = {_render_sty(d.declared)};")
        elif isinstance(d, ProcDef):
            bindings = ", ".join(
                f"{r} in {p}" + (f" as {v}" if v else "")
                for r, p, v in d.bindings
            )
            body = _render_proc(d.body, "  ", default_session(d.bindings))
            chunks.append(f"proc {d.name} plays {bindings} {{\n{body}\n}}")
    return "\n\n".join(chunks) + "\n"
