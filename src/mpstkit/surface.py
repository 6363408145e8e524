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
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

from . import core, typecheck as tc

KEYWORDS = {
    "sort", "global", "local", "proc", "plays", "in", "as", "rec", "end",
    "loop", "recur", "send", "recv", "if", "then", "else", "let",
    "role", "protocol", "endpoint", "int", "string",
}
# the keywords that start a declaration; the parser resynchronises at them
_DECL_KEYWORDS = ("sort", "global", "local", "proc")

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*|_)
  | (?P<int>\d+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<punct>->|[{}()\[\];:.,=@!?<\-])
  | (?P<bad>(?s:.))
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "ident" | "int" | "string" | "punct" | "kw" | "eof"
    text: str
    line: int
    col: int


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


def tokenize(text: str) -> list:
    tokens = []
    line, line_start = 1, 0  # line_start: offset of the current line's first character
    for m in _TOKEN_RE.finditer(text):
        kind, lexeme, start = m.lastgroup, m.group(), m.start()
        col = start - line_start + 1
        if kind == "bad":
            raise ParseError(line, col, f"unexpected character {lexeme!r}")
        if kind == "ident" and lexeme in KEYWORDS:
            kind = "kw"
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            line_start = start + lexeme.rfind("\n") + 1
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Surface AST

Pos = tuple  # (line, col)


@dataclass(frozen=True)
class STCom:
    """One communication step: `:` in a global type, `!` (send) or `?`
    (receive) in a declared local type."""

    sender: str
    receiver: str
    op: str  # ":" | "!" | "?"
    branches: tuple  # ((sortName, STy), ...)
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
class STEnd:
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
class STRec:
    var: str
    body: "STy"
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
class STRef:
    name: str
    args: tuple = ()
    pos: Pos = field(default=None, compare=False)


STy = Union[STCom, STEnd, STRec, STRef]


@dataclass(frozen=True)
class SortDecl:
    name: str
    schema: object  # "none" | "int" | "string" | SEndpointSchema
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
class SEndpointSchema:
    role: str
    global_name: str
    project_onto: str


@dataclass(frozen=True)
class GlobalDef:
    name: str
    params: tuple  # ((name, "role"|"protocol"), ...)
    body: STy
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
class LocalDef:
    global_name: str
    role: str
    declared: STy
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
class SCall:
    """A sort constructor `Name(arg)`, or a send's sort and argument: what the
    name means is known only once the whole file is read, so elaboration
    replaces it with a `typecheck.NewSort`."""

    name: str
    args: tuple
    pos: Pos = field(default=None, compare=False)


@dataclass(frozen=True)
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
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.i = 0

    # the token list always ends with eof, and next() never steps past it
    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, text: str) -> bool:
        tok = self.tokens[self.i]
        return tok.text == text and tok.kind in ("punct", "kw")

    def accept(self, text: str) -> Optional[Token]:
        if self.at(text):
            return self.next()
        return None

    def unexpected(self, *expected: str):
        tok = self.peek()
        raise ParseError(tok.line, tok.col, f"unexpected {tok.text!r}", expected)

    def expect(self, text: str) -> Token:
        if not self.at(text):
            self.unexpected(text)
        return self.next()

    def ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text == "_":
            self.unexpected(what)
        return self.next()

    # -- declarations --------------------------------------------------------

    def file(self) -> ParseResult:
        decls: list = []
        errors: list = []
        while self.peek().kind != "eof":
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
                kw = self.tokens[start]
                errors.append(ParseError(kw.line, kw.col, "declaration nested too deeply"))
                self.i = start + 1
                self._sync()
        return ParseResult(SurfaceFile(decls), errors)

    def _sync(self) -> None:
        while self.peek().kind != "eof":
            if self.peek().kind == "kw" and self.peek().text in _DECL_KEYWORDS:
                return
            self.next()

    def decl(self):
        if self.at("sort"):
            return self.sort_decl()
        if self.at("global"):
            return self.global_def()
        if self.at("local"):
            return self.local_def()
        if self.at("proc"):
            return self.proc_def()
        self.unexpected(*_DECL_KEYWORDS)

    def sort_decl(self) -> SortDecl:
        kw = self.expect("sort")
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
                schema = SEndpointSchema(role.text, gname.text, onto.text)
            else:
                self.unexpected("int", "string", "endpoint")
            self.expect(")")
        self.expect(";")
        return SortDecl(name.text, schema, (kw.line, kw.col))

    def global_def(self) -> GlobalDef:
        kw = self.expect("global")
        name = self.ident("protocol name")
        params: list = []
        if self.accept("["):
            while True:
                pname = self.ident("parameter name")
                self.expect(":")
                if self.accept("role"):
                    kind = "role"
                elif self.accept("protocol"):
                    kind = "protocol"
                else:
                    self.unexpected("role", "protocol")
                params.append((pname.text, kind))
                if not self.accept(","):
                    break
            self.expect("]")
        self.expect("=")
        body = self.type_expr(local=False)
        self.expect(";")
        return GlobalDef(name.text, tuple(params), body, (kw.line, kw.col))

    def local_def(self) -> LocalDef:
        kw = self.expect("local")
        gname = self.ident("protocol name")
        self.expect("@")
        role = self.ident("role")
        self.expect("=")
        declared = self.type_expr(local=True)
        self.expect(";")
        return LocalDef(gname.text, role.text, declared, (kw.line, kw.col))

    # -- type expressions ----------------------------------------------------

    def type_expr(self, local: bool):
        """A global type (`A -> B : …`, with protocol references `N[…]`) or,
        when `local`, a declared local type (`A -> B ! …` / `A -> B ? …`)."""
        tok = self.peek()
        if self.accept("end"):
            return STEnd((tok.line, tok.col))
        if self.accept("rec"):
            var = self.ident("recursion variable")
            self.expect(".")
            return STRec(var.text, self.type_expr(local), (tok.line, tok.col))
        name = self.ident("role or recursion variable" if local else "role or protocol name")
        pos = (name.line, name.col)
        if self.accept("->"):
            receiver = self.ident("role").text
            if local:
                op = self.accept("!") or self.accept("?") or self.unexpected("!", "?")
            else:
                op = self.expect(":")
            return STCom(name.text, receiver, op.text, self.branches(local), pos)
        args: list = []
        if not local and self.accept("["):
            while True:
                args.append(self.type_expr(local))
                if not self.accept(","):
                    break
            self.expect("]")
        return STRef(name.text, tuple(args), pos)

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
        return (sort.text, self.type_expr(local))

    # -- processes -----------------------------------------------------------

    def proc_def(self) -> ProcDef:
        kw = self.expect("proc")
        name = self.ident("process name")
        self.expect("plays")
        bindings: list = []
        while True:
            role = self.ident("role")
            self.expect("in")
            proto = self.ident("protocol name")
            var = None
            if self.accept("as"):
                var = self.ident("session variable").text
            bindings.append((role.text, proto.text, var))
            if not self.accept(","):
                break
        self.default_session = default_session(bindings)
        self.expect("{")
        body = self.stmt()
        self.expect("}")
        return ProcDef(name.text, tuple(bindings), body, (kw.line, kw.col))

    def _session_sel(self) -> str:
        if self.accept("["):
            var = self.ident("session variable")
            self.expect("]")
            return var.text
        return self.default_session

    def stmt(self) -> tc.ProcessTerm:
        tok = self.peek()
        pos = (tok.line, tok.col)
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
            return tc.SendT(sel, core.Role(to.text), SCall(sort.text, args, pos), cont, pos)
        if self.accept("recv"):
            sel = self._session_sel()
            frm = self.ident("role")
            self.expect("{")
            arms = [self.arm()]
            while self.accept(","):
                arms.append(self.arm())
            self.expect("}")
            return tc.RecvT(sel, core.Role(frm.text), tuple(arms), pos)
        if self.accept("loop"):
            sel = self._session_sel()
            var = self.ident("loop label")
            self.expect("{")
            body = self.stmt()
            self.expect("}")
            return tc.LoopT(sel, var.text, body, pos)
        if self.accept("recur"):
            sel = self._session_sel()
            var = self.ident("loop label")
            return tc.RecurT(var.text, sel, pos)
        if self.accept("end"):
            results: list = []
            if self.accept("("):
                results.append(self.ident("variable").text)
                while self.accept(","):
                    results.append(self.ident("variable").text)
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
            return tc.LetT(name.text, value, cont, pos)
        self.unexpected("send", "recv", "loop", "recur", "end", "if", "let")

    def arm(self) -> tc.RecvArm:
        sort = self.ident("sort name")
        self.expect("(")
        if self.peek().kind != "ident":
            self.unexpected("variable", "_")
        var = self.next().text
        self.expect(")")
        self.expect("->")
        return tc.RecvArm(sort.text, var, self.stmt(), (sort.line, sort.col))

    # -- expressions ---------------------------------------------------------

    def expr(self):
        left = self.add_expr()
        tok = self.peek()
        if self.accept("<"):
            return tc.Lt(left, self.add_expr(), (tok.line, tok.col))
        return left

    def add_expr(self):
        left = self.atom()
        while True:
            tok = self.peek()
            if self.accept("-"):
                left = tc.Sub(left, self.atom(), (tok.line, tok.col))
            else:
                return left

    def atom(self):
        tok = self.peek()
        pos = (tok.line, tok.col)
        if tok.kind == "int":
            self.next()
            return tc.IntLit(int(tok.text), pos)
        if tok.kind == "string":
            self.next()
            raw = tok.text[1:-1]
            return tc.StrLit(raw.replace('\\"', '"').replace("\\\\", "\\"), pos)
        if self.accept("("):
            e = self.expr()
            self.expect(")")
            return e
        if tok.kind == "ident" and tok.text != "_":
            self.next()
            if self.accept("("):
                arg = self.expr()
                self.expect(")")
                return SCall(tok.text, (arg,), pos)
            e: object = tc.VarRef(tok.text, pos)
            while self.at("."):
                dot = self.next()
                fieldname = self.ident("value")
                if fieldname.text != "value":
                    raise ParseError(
                        fieldname.line, fieldname.col,
                        f"unknown field {fieldname.text!r}", ("value",),
                    )
                e = tc.Field(e, (dot.line, dot.col))
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


def _render_proc(p, indent: str, default: str) -> str:
    pad = indent
    if isinstance(p, tc.SendT):
        return (
            f"{pad}send{_selector(p, default)} {p.to} {_render_expr(p.payload)};\n"
            + _render_proc(p.cont, indent, default)
        )
    if isinstance(p, tc.RecvT):
        arms = []
        for arm in p.branches:
            body = _render_proc(arm.cont, indent + "    ", default)
            arms.append(f"{pad}  {arm.sort_name}({arm.payload_var}) ->\n{body}")
        joined = (",\n").join(arms)
        return f"{pad}recv{_selector(p, default)} {p.frm} {{\n{joined}\n{pad}}}"
    if isinstance(p, tc.LoopT):
        body = _render_proc(p.body, indent + "  ", default)
        return f"{pad}loop{_selector(p, default)} {p.recur_var} {{\n{body}\n{pad}}}"
    if isinstance(p, tc.RecurT):
        return f"{pad}recur{_selector(p, default)} {p.recur_var}"
    if isinstance(p, tc.EndT):
        if p.results:
            return f"{pad}end({', '.join(p.results)})"
        return f"{pad}end"
    if isinstance(p, tc.IfT):
        then = _render_proc(p.then, indent + "  ", default)
        els = _render_proc(p.els, indent + "  ", default)
        return (
            f"{pad}if {_render_expr(p.cond)} then {{\n{then}\n{pad}}} "
            f"else {{\n{els}\n{pad}}}"
        )
    if isinstance(p, tc.LetT):
        return (
            f"{pad}let {p.name} = {_render_expr(p.value)};\n"
            + _render_proc(p.cont, indent, default)
        )
    raise TypeError(f"unknown process node: {p!r}")


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
