"""Elaboration: resolve a parsed surface file into core ASTs.

Generic global definitions are instantiated by capture-avoiding substitution
of their role and protocol parameters.  Each file's types are hash-consed as
they are built (a step's key in the loop over its branches), so equal
subterms are one object.  Sort references resolve against the file's sort
table; an endpoint sort's schema is the projection of a named global onto a
role, so well-formedness of delegated types falls out of the same machinery
as everything else.  Process bodies arrive as `typecheck` terms already,
each sort constructor a `typecheck.NewSort` holding a bare `Sort(name)`;
elaboration walks no process term, but sets the sort of each constructor the
parser listed to the file's in place, and checks each process's session
bindings.  The elaborated process is the parsed one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import surface, typecheck
from .core import (
    Com,
    END,
    EndpointPayload,
    GlobalType,
    LocalType,
    Loop,
    Recur,
    RecVar,
    Recv,
    Role,
    Send,
    Sort,
    free_rec_vars,
)
from .projection import ProjectionError, project, project_all, result_or_error
from .surface import STCom, STEnd, STRec


class ElabError(Exception):
    def __init__(self, message: str, pos=None):
        self.message = message
        self.pos = pos
        line, col = pos if pos else (0, 0)
        super().__init__(f"{line}:{col}: {message}")


@dataclass(unsafe_hash=True)
class LocalAssert:
    global_name: str
    role: Role
    declared: LocalType
    pos: object = None


@dataclass(unsafe_hash=True)
class ProcDecl:
    name: str
    bindings: tuple  # ((Role, protocolName, var), ...)
    term: typecheck.ProcessTerm
    pos: object = None


@dataclass
class ProtocolFile:
    """Elaborated protocol file: the unit the checker and runtime consume."""

    sorts: dict = field(default_factory=dict)  # name -> Sort
    concrete: dict = field(default_factory=dict)  # name -> GlobalType (no params)
    local_asserts: list = field(default_factory=list)
    procs: list = field(default_factory=list)
    surface: Optional[surface.SurfaceFile] = None
    # name -> each role protocol `name` names -> what `projection` gives it
    _projections: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _verdicts: Optional[dict] = field(default=None, init=False, compare=False, repr=False)

    def projection(self, name: str, role: Role):
        """The projection of concrete protocol `name` onto `role`, or the
        ProjectionError projecting it raised: its entry in
        `projections(name)`.  A role the protocol never names gets what
        `project` gives it, the protocol with every step erased."""
        local = self.projections(name).get(role)
        return result_or_error(project, self.concrete[name], role) if local is None else local

    def projections(self, name: str) -> dict:
        """Each role concrete protocol `name` names -> its projection, or the
        ProjectionError projecting it raised.  One `project_all` on first use
        fills the table, and every check of this file reads it."""
        every = self._projections.get(name)
        if every is None:
            every = self._projections[name] = project_all(self.concrete[name])
        return every

    @property
    def verdicts(self) -> dict:
        """The memo in which `core.well_formed` keeps this file's verdicts,
        made on first use.  Each concrete protocol's body starts in it, so a
        protocol that contains another's body reuses that body's verdict in
        either declaration order, and so does every check of one projection."""
        if self._verdicts is None:
            self._verdicts = {id(g): [g, None] for g in self.concrete.values()}
        return self._verdicts

    def is_generic(self, name: str) -> bool:
        """Whether the file defines protocol `name` with parameters."""
        defs = self.surface.global_defs() if self.surface else ()
        return any(d.name == name and d.params for d in defs)

    def unusable(self, name: str) -> str:
        """Why `name`, which is not a concrete protocol of this file, cannot
        be projected, checked or run: it is generic, or it is unknown."""
        if self.is_generic(name):
            return f"protocol {name} is generic"
        return f"unknown protocol {name}"


@dataclass
class _Ctx:
    roles: dict
    protos: dict
    recvars: dict
    local: bool = False  # a declared local type: names only recursion variables


class _Elaborator:
    def __init__(self, sf: surface.SurfaceFile):
        self.sf = sf
        self.sort_decls: dict = {}
        self.defs: dict = {}
        self.sorts: dict = {}
        self._in_progress: set = set()
        self._concrete_memo: dict = {}
        # hash-cons tables of the file's types: key -> node, and name -> Role
        self._nodes: dict = {}
        self._roles: dict = {}

        for d in sf.sort_decls():
            if d.name in self.sort_decls:
                raise ElabError(f"duplicate sort declaration: {d.name}", d.pos)
            self.sort_decls[d.name] = d
        for d in sf.global_defs():
            if d.name in self.defs:
                raise ElabError(f"duplicate protocol definition: {d.name}", d.pos)
            self.defs[d.name] = d

    # -- sorts ---------------------------------------------------------------

    def sort(self, name: str, pos) -> Sort:
        if (resolved := self.sorts.get(name)) is not None:
            return resolved
        decl = self.sort_decls.get(name)
        if decl is None:
            raise ElabError(f"unknown sort: {name}", pos)
        schema = decl.schema
        if isinstance(schema, surface.SEndpointSchema):
            g = self.concrete(schema.global_name, decl.pos)
            try:
                local = project(g, Role(schema.project_onto))
            except ProjectionError as e:
                raise ElabError(
                    f"endpoint schema of sort {name}: {e}", decl.pos
                ) from e
            resolved = Sort(name, EndpointPayload(Role(schema.role), local))
        else:
            resolved = Sort(name, schema)
        self.sorts[name] = resolved
        return resolved

    # -- protocols and types -------------------------------------------------

    def concrete(self, name: str, pos=None) -> GlobalType:
        d = self.defs.get(name)
        if d is not None and d.params:
            raise ElabError(f"protocol {name} is generic; it must be instantiated", pos)
        return self.instantiate(name, [], pos)

    def instantiate(self, name: str, args: list, pos=None) -> GlobalType:
        """The body of definition `name` with its parameters bound to `args`.
        A definition without parameters is elaborated once: every reference
        to it gets the same object."""
        if not args and name in self._concrete_memo:
            return self._concrete_memo[name]
        d = self.defs.get(name)
        if d is None:
            raise ElabError(f"unknown protocol: {name}", pos)
        if name in self._in_progress:
            raise ElabError(f"recursive protocol definition: {name}", pos)
        if len(args) != len(d.params):
            raise ElabError(
                f"protocol {name} expects {len(d.params)} argument(s),"
                f" got {len(args)}",
                pos,
            )
        roles: dict = {}
        protos: dict = {}
        for (pname, kind), arg in zip(d.params, args):
            if kind == "role":
                if not isinstance(arg, Role):
                    raise ElabError(
                        f"parameter {pname} of {name} expects a role", pos
                    )
                roles[pname] = arg
            else:
                if isinstance(arg, Role):
                    raise ElabError(
                        f"parameter {pname} of {name} expects a protocol", pos
                    )
                protos[pname] = arg
        self._in_progress.add(name)
        try:
            g = self.type_expr(d.body, _Ctx(roles, protos, {}))
        finally:
            self._in_progress.discard(name)
        if not args:
            self._concrete_memo[name] = g
        return g

    def _role(self, name: str, ctx: _Ctx, pos) -> Role:
        if name in ctx.roles:
            return ctx.roles[name]
        if name in ctx.protos or name in ctx.recvars:
            raise ElabError(f"{name} is not a role here", pos)
        role = self._roles.get(name)
        if role is None:
            role = self._roles[name] = Role(name)
        return role

    def _cons(self, key: tuple, ctor, *args):
        """The file's one node `ctor(*args)`.  `key` names it by its kind,
        role names, the ids of its sorts (one object per name) and the ids
        of its children, which are this file's nodes too."""
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = ctor(*args)
        return node

    def _fresh_recvar(self, name: str, ctx: _Ctx) -> RecVar:
        # avoid capturing recursion variables that arrive free inside
        # protocol arguments (Loop binders must not bind them by accident)
        avoid = {
            v.name for g in ctx.protos.values() for v in free_rec_vars(g)
        }
        if name not in avoid:
            return RecVar(name)
        i = 1
        while f"{name}_{i}" in avoid:
            i += 1
        return RecVar(f"{name}_{i}")

    def type_expr(self, t, ctx: _Ctx):
        """A global type, or a declared local type when `ctx.local`."""
        kind = type(t)
        if kind is STCom:
            if t.op == ":":
                ctor = Com
                sender = self._role(t.sender, ctx, t.pos)
                receiver = self._role(t.receiver, ctx, t.pos)
            else:  # a local type names its roles as written, even a recursion variable's
                ctor = Send if t.op == "!" else Recv
                sender, receiver = Role(t.sender), Role(t.receiver)
            key, branches = [ctor, sender.name, receiver.name], []
            for sname, cont in t.branches:
                sort, child = self.sort(sname, t.pos), self.type_expr(cont, ctx)
                branches.append((sort, child))
                key += id(sort), id(child)
            key = tuple(key)
            node = self._nodes.get(key)
            if node is None:
                node = self._nodes[key] = ctor(sender, receiver, tuple(branches))
            return node
        if kind is STEnd:
            return END
        if kind is STRec:
            var = self._fresh_recvar(t.var, ctx)
            inner = _Ctx(ctx.roles, ctx.protos, {**ctx.recvars, t.var: var}, ctx.local)
            body = self.type_expr(t.body, inner)
            return self._cons((Loop, var.name, id(body)), Loop, var, body)
        if not t.args and t.name in ctx.recvars:
            var = ctx.recvars[t.name]
            return self._cons((Recur, var.name), Recur, var)
        if ctx.local:
            raise ElabError(
                f"unknown recursion variable in local type: {t.name}", t.pos
            )
        if not t.args and t.name in ctx.protos:
            return ctx.protos[t.name]
        if not t.args and t.name in ctx.roles:
            raise ElabError(f"role {t.name} used as a protocol", t.pos)
        d = self.defs.get(t.name)
        if d is None:
            raise ElabError(f"unknown protocol reference: {t.name}", t.pos)
        # without arguments, `instantiate` checks the arity after recursion
        if t.args and len(t.args) != len(d.params):
            raise ElabError(
                f"protocol {t.name} expects {len(d.params)} argument(s),"
                f" got {len(t.args)}",
                t.pos,
            )
        args: list = []
        for (pname, kind), sarg in zip(d.params, t.args):
            if kind == "role":
                if not isinstance(sarg, surface.STRef) or sarg.args:
                    raise ElabError(
                        f"argument for role parameter {pname} must be a role name",
                        t.pos,
                    )
                args.append(self._role(sarg.name, ctx, t.pos))
            else:
                args.append(self.type_expr(sarg, ctx))
        return self.instantiate(t.name, args, t.pos)

    # -- processes -------------------------------------------------------------

    def proc_body(self, d: surface.ProcDef) -> typecheck.ProcessTerm:
        """The body of process `d`, with the sort of each of its constructors
        set to the file's in place.  They resolve in source order, so the
        first error raised is the first in the text."""
        for node in d.constructors:
            node.sort = self.sort(node.sort.name, node.pos)
        return d.body

    # -- whole file --------------------------------------------------------------

    def run(self) -> ProtocolFile:
        pf = ProtocolFile(surface=self.sf)
        for name, d in self.defs.items():
            if not d.params:
                try:
                    pf.concrete[name] = self.concrete(name, d.pos)
                except RecursionError:  # references still recurse, each into its definition
                    raise ElabError("protocol references nested too deeply", d.pos) from None
        for name in self.sort_decls:
            pf.sorts[name] = self.sort(name, self.sort_decls[name].pos)
        for d in self.sf.local_defs():
            if d.global_name not in self.defs:
                raise ElabError(
                    f"local type declared for unknown protocol {d.global_name}", d.pos
                )
            declared = self.type_expr(d.declared, _Ctx({}, {}, {}, local=True))
            pf.local_asserts.append(
                LocalAssert(d.global_name, Role(d.role), declared, d.pos)
            )
        seen_procs: set = set()
        for d in self.sf.proc_defs():
            if d.name in seen_procs:
                raise ElabError(f"duplicate process definition: {d.name}", d.pos)
            seen_procs.add(d.name)
            bindings: list = []
            used_vars: set = set()
            for i, (role, proto, var) in enumerate(d.bindings):
                if var is None:
                    if i > 0:
                        raise ElabError(
                            f"process {d.name}: sessions after the first need"
                            " an explicit 'as' variable",
                            d.pos,
                        )
                    var = surface.default_session(d.bindings)
                if var in used_vars:
                    raise ElabError(
                        f"process {d.name}: duplicate session variable {var}", d.pos
                    )
                used_vars.add(var)
                if proto not in self.defs:
                    raise ElabError(
                        f"process {d.name} plays unknown protocol {proto}", d.pos
                    )
                bindings.append((Role(role), proto, var))
            pf.procs.append(ProcDecl(d.name, tuple(bindings), self.proc_body(d), d.pos))
        return pf


def elaborate(sf: surface.SurfaceFile) -> ProtocolFile:
    """The elaborated file.  Its types are hash-consed in a table that lives
    for this call only: every equal subterm of the file, in protocols and
    declared local types, is one object, so later walks can fold it once."""
    return _Elaborator(sf).run()


def instantiate(pf: ProtocolFile, name: str, args: list) -> GlobalType:
    """Instantiate a (possibly generic) definition of an elaborated file."""
    el = _Elaborator(pf.surface)
    return el.instantiate(name, list(args))


def load_text(text: str) -> ProtocolFile:
    """Parse and elaborate; raises on the first syntax or elaboration error."""
    result = surface.parse_protocol_file(text)
    if result.errors:
        raise result.errors[0]
    return elaborate(result.file)
