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

A token is its lexeme: `tokenize` lexes the text in one regex pass, keeping
the match each lexeme was read from, and the parser reads each token's kind
off its text.  Where a lexeme starts, and its `(line, col)`, are computed only
where a `pos` or a `ParseError` keeps one.

Parsing is deterministic recursive descent.  Errors carry line/column and
the expected-token set; the parser resynchronises at the next top-level
keyword so several errors can be reported in one pass.

Types parse to the surface AST below, which elaboration resolves.  A process
body parses straight to the `typecheck` terms the checker and the runtime
use, with an action's omitted `[var]` filled in with the default session.
The one node left open is the sort constructor `SCall`: only the whole file
says what a sort name means.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional, Union

from . import core, typecheck as tc

KEYWORDS = {
    "sort", "global", "local", "proc", "plays", "in", "as", "rec", "end",
    "loop", "recur", "send", "recv", "if", "then", "else", "let",
    "role", "protocol", "endpoint", "int", "string",
}
# the keywords that start a declaration; the parser resynchronises at them
_DECL_KEYWORDS = ("sort", "global", "local", "proc")

# One match per token: the blanks and comments before it, then the lexeme in
# group 1 or, in group 2, a character no token starts with.  One of these
# always follows the blanks, so they are never given back.
_LEXEME_RE = re.compile(
    r"""
    (?:\s+|//[^\n]*)*
    (?:
        ( [A-Za-z][A-Za-z0-9_]*|_   # identifier or keyword
        | \d+
        | "(?:[^"\\]|\\.)*"
        | ->|[{}()\[\];:.,=@!?<\-]
        | \Z )                      # eof: the empty lexeme
      | (?s:(.))
    )
    """,
    re.VERBOSE,
)

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


class Lexemes(list):
    """The lexemes of a text, ending with "" for eof; `matches` holds the
    match each was read from, `newlines` -1 and then the offset of each line
    break."""

    def __init__(self, matches: list, newlines: list):
        super().__init__(map(itemgetter(1), matches))
        self.matches, self.newlines = matches, newlines

    def pos(self, i: int) -> Pos:
        """The (line, col) of the i-th lexeme."""
        m = self.matches[i]
        offset = m.start(m.lastindex)
        line = bisect_right(self.newlines, offset)
        return line, offset - self.newlines[line - 1]


def tokenize(text: str) -> Lexemes:
    """The lexemes of `text`, then "" for eof, with the match each was read
    from.  Blanks and `//` comments separate lexemes, and a keyword is lexed as
    an identifier is.  The first character no token starts with (an
    unterminated string's `"` among them) is a `ParseError`."""
    matches = list(_LEXEME_RE.finditer(text))
    if len(matches) > 1 and matches[-2][1] == "":
        matches.pop()  # after trailing blanks, `\Z` matches once more, empty
    lexemes = Lexemes(matches, [-1, *(m.start() for m in re.finditer("\n", text))])
    if None in lexemes:
        i = lexemes.index(None)
        raise ParseError(*lexemes.pos(i), f"unexpected character {matches[i][2]!r}")
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
class SCall:
    """A sort constructor `Name(arg)`, or a send's sort and argument: what the
    name means is known only once the whole file is read, so elaboration
    replaces it with a `typecheck.NewSort`."""

    name: str
    args: tuple
    pos: Pos = field(default=None, compare=False)


@dataclass(unsafe_hash=True)
class ProcDef:
    name: str
    bindings: tuple  # ((role, protocolName, var|None), ...)
    body: tc.ProcessTerm  # its sort constructors are still `SCall`s
    pos: Pos = field(default=None, compare=False)


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
    def __init__(self, tokens: Lexemes):
        self.tokens = tokens
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
        return self.tokens.pos(self.i - back)

    def accept(self, text: str) -> Optional[str]:
        if self.tokens[self.i] == text:
            self.i += 1
            return text
        return None

    def unexpected(self, *expected: str):
        raise ParseError(*self.pos(), f"unexpected {self.peek()!r}", expected)

    def expect(self, text: str) -> str:
        return self.accept(text) or self.unexpected(text)

    def ident(self, what: str = "identifier") -> str:
        lexeme = self.tokens[self.i]
        if not _is_name(lexeme):
            self.unexpected(what)
        self.i += 1
        return lexeme

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
                errors.append(ParseError(*self.tokens.pos(start), "declaration nested too deeply"))
                self.i = start + 1
                self._sync()
        return ParseResult(SurfaceFile(decls), errors)

    def _sync(self) -> None:
        while self.peek() and self.peek() not in _DECL_KEYWORDS:
            self.next()

    def decl(self):
        pos = self.pos()  # of the keyword, which each rule is given
        if self.accept("sort"):
            return self.sort_decl(pos)
        if self.accept("global"):
            return self.global_def(pos)
        if self.accept("local"):
            return self.local_def(pos)
        if self.accept("proc"):
            return self.proc_def(pos)
        self.unexpected(*_DECL_KEYWORDS)

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
        pos = self.pos()
        if self.accept("end"):
            return STEnd(pos)
        if self.accept("rec"):
            var = self.ident("recursion variable")
            self.expect(".")
            return STRec(var, self.type_expr(local), pos)
        name = self.ident("role or recursion variable" if local else "role or protocol name")
        if self.accept("->"):
            receiver = self.ident("role")
            if local:
                op = self.accept("!") or self.accept("?") or self.unexpected("!", "?")
            else:
                op = self.expect(":")
            return STCom(name, receiver, op, self.branches(local), pos)
        args: list = []
        if not local and self.accept("["):
            while True:
                args.append(self.type_expr(local))
                if not self.accept(","):
                    break
            self.expect("]")
        return STRef(name, tuple(args), pos)

    def branches(self, local: bool) -> tuple:
        if self.accept("{"):
            out = [self.branch(local)]
            while self.accept(","):
                out.append(self.branch(local))
            self.expect("}")
            return tuple(out)
        return (self.branch(local),)

    def branch(self, local: bool) -> tuple:
        sort = self.ident("sort name")
        self.expect(".")
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
        self.expect("{")
        body = self.stmt()
        self.expect("}")
        return ProcDef(name, tuple(bindings), body, pos)

    def _session_sel(self) -> str:
        if self.accept("["):
            var = self.ident("session variable")
            self.expect("]")
            return var
        return self.default_session

    def stmt(self) -> tc.ProcessTerm:
        pos = self.pos()
        if self.accept("send"):
            sel = self._session_sel()
            to = self.ident("role")
            sort = self.ident("sort name")
            args: tuple = ()
            if self.accept("("):
                args = (self.expr(),)
                self.expect(")")
            self.expect(";")
            cont = self.stmt()
            return tc.SendT(sel, core.Role(to), SCall(sort, args, pos), cont, pos)
        if self.accept("recv"):
            sel = self._session_sel()
            frm = self.ident("role")
            self.expect("{")
            arms = [self.arm()]
            while self.accept(","):
                arms.append(self.arm())
            self.expect("}")
            return tc.RecvT(sel, core.Role(frm), tuple(arms), pos)
        if self.accept("loop"):
            sel = self._session_sel()
            var = self.ident("loop label")
            self.expect("{")
            body = self.stmt()
            self.expect("}")
            return tc.LoopT(sel, var, body, pos)
        if self.accept("recur"):
            sel = self._session_sel()
            var = self.ident("loop label")
            return tc.RecurT(var, sel, pos)
        if self.accept("end"):
            results: list = []
            if self.accept("("):
                results.append(self.ident("variable"))
                while self.accept(","):
                    results.append(self.ident("variable"))
                self.expect(")")
            return tc.EndT(tuple(results), pos)
        if self.accept("if"):
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
        if self.accept("let"):
            name = self.ident("variable")
            self.expect("=")
            value = self.expr()
            self.expect(";")
            cont = self.stmt()
            return tc.LetT(name, value, cont, pos)
        self.unexpected("send", "recv", "loop", "recur", "end", "if", "let")

    def arm(self) -> tc.RecvArm:
        pos = self.pos()
        sort = self.ident("sort name")
        self.expect("(")
        if not (self.peek() == "_" or _is_name(self.peek())):
            self.unexpected("variable", "_")
        var = self.next()
        self.expect(")")
        self.expect("->")
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
        if _is_name(lexeme):
            self.next()
            if self.accept("("):
                arg = self.expr()
                self.expect(")")
                return SCall(lexeme, (arg,), pos)
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
    if isinstance(e, SCall):  # a send's payload may have no argument
        return e.name + "".join(f"({_render_expr(a)})" for a in e.args)
    if isinstance(e, tc.Field):
        return f"{_render_atom(e.target)}.value"
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
