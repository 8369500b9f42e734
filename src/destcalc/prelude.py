"""Program loading: definition inlining, checking, and the shipped prelude.

Top-level definitions are transparent abbreviations: every reference is
replaced by the definition's (annotated) body before type checking, so
the calculus itself stays module-free.  When the definition is annotated
and was checked in the same type environment, desugaring puts in its
checked core with the desugarer's names renumbered (`syntax.renumbered`),
equal field by field to what desugaring the body again would build; the
copy carries the original's elaboration stamps and kept typing, so the
checker serves it whole and a load types each definition's own code once.
A program that declares no types shares its base's type environment; one
that declares types gets a new one, so its references are desugared and
typed afresh.  Recursive functions must use `fix` explicitly.  The
prelude's `.ld` sources are packaged next to this module.  Tier-1 (the
test suite) checks the library's declared types and that both scope-escape
counterexamples (`scope_escape2.ld`, `scope_escape3.ld`) are rejected with
`AgeEscape`.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from .records import field, record
from . import syntax as S
from .parser import Program, TermDef, parse
from .typecheck import Checker, TypeCheckError, TypeEnv


@record
class LoadedDef:
    name: str
    ann: object
    sugar: object  # inlined, still-sugared body
    core: object  # desugared, elaborated body (from'* kept primitive)
    ty: object
    names: int = 0  # desugarer names minted in `core`
    tyenv: Optional[TypeEnv] = None  # the type environment of the program that loaded it


@record
class ProgramEnv:
    tyenv: TypeEnv
    defs: Dict[str, LoadedDef] = field(default_factory=dict)
    order: List[str] = field(default_factory=list)
    main: Optional[str] = None
    # (name, from_prime) -> the term `runnable` built for it
    runnables: Dict[tuple, object] = field(default_factory=dict, repr=False)

    def checker(self) -> Checker:
        return Checker(self.tyenv)

    def runnable(self, name: str, from_prime: bool = False):
        """The closed, machine-ready core term for a definition.

        It is built once per environment and shared by every caller, so it
        must not be mutated: the machine and the checker only keep caches
        and elaboration stamps on its nodes.  A checker keeps its typing at
        the empty context there too, so each request re-types only what it
        adds around the shared term.
        """
        key = (name, from_prime)
        term = self.runnables.get(key)
        if term is None:
            core = self.defs[name].core
            if not from_prime:
                core = S.lower_from_prime(core)
            term = self.runnables[key] = S.erase_annots(core)
        return term

    def main_def(self) -> LoadedDef:
        if self.main is None:
            raise KeyError("program has no main")
        return self.defs[self.main]


def _inline(t, defs: Dict[str, LoadedDef]):
    def use(v):
        d = defs.get(v.name)
        if d is None:
            return v
        out = S.Annot(d.sugar, d.ann, pos=v.pos)
        out.__dict__["_def_"] = d  # lets `load_program` put in the checked core
        return out

    return S.map_free_vars(t, use)


def load_program(prog: Program, base: Optional[ProgramEnv] = None) -> ProgramEnv:
    """Inline, desugar and check every definition of a parsed program.

    A program that declares no types shares its base's type environment,
    so the definitions it inlines from there come in as checked copies.
    """
    if base is None:
        tyenv = TypeEnv(prog.type_defs)
        env = ProgramEnv(tyenv, main=prog.main)
    else:
        tyenv = TypeEnv({**base.tyenv.defs, **prog.type_defs}) if prog.type_defs else base.tyenv
        env = ProgramEnv(tyenv, dict(base.defs), list(base.order), prog.main or base.main)
    checker = env.checker()

    # only a definition loaded in this type environment, so no stamp made in
    # another is read; `tyenv`, not `env`, because `desugar`'s walker is a
    # closure cycle, freed only by the collector, that would keep `env` alive
    def known(annot):
        d = annot.__dict__.get("_def_")
        return (d.core, d.names) if d is not None and d.tyenv is tyenv else None

    for d in prog.term_defs:
        inlined = _inline(d.body, env.defs)
        fresh = S.FreshNames()
        core = S.desugar(inlined, fresh, known)
        ty = checker.check_term({}, core, d.ann)
        env.defs[d.name] = LoadedDef(d.name, d.ann, inlined, core, ty, fresh.count, tyenv)
        env.order.append(d.name)
    return env


def load_source(src: str, base: Optional[ProgramEnv] = None) -> ProgramEnv:
    return load_program(parse(src), base=base)


# ---------------------------------------------------------------------------
# The shipped prelude


PRELUDE_FILES = [
    "types.ld",
    "data.ld",
    "list.ld",
    "dlist.ld",
    "queue.ld",
    "bfs.ld",
    "alloc.ld",
]

# monomorphic instances derived from the generic sources: suffix, type
# substitution, and the files whose definitions get instantiated
INSTANTIATIONS = [
    ("N", {"T": "Nat", "U": "Nat"}, ["list.ld", "dlist.ld", "queue.ld"]),
    ("R", {"T": "1", "U": "Nat", "S": "Nat"}, ["bfs.ld"]),
]

# these reference instantiated names, so they load last
POST_FILES = [
    "minamide.ld",
    "relabel.ld",
    "sharing.ld",
]

_PRELUDE_DIR = os.path.join(os.path.dirname(__file__), "prelude")


def _read(name: str) -> str:
    with open(os.path.join(_PRELUDE_DIR, name), encoding="utf-8") as f:
        return f.read()


def prelude_path(name: str) -> str:
    """The path of the prelude file `name`, relative to the prelude directory ("" for itself)."""
    return os.path.join(_PRELUDE_DIR, name) if name else _PRELUDE_DIR


def _subst_types_in_term(t, tymap):
    from .typecheck import _subst_type

    def go(node):
        node = S.rebuild(node, go)
        if isinstance(node, S.NewAmpar) and node.ann is not None:
            node = S.NewAmpar(_subst_type(node.ann, tymap), pos=node.pos)
        elif isinstance(node, S.Fix):
            node = S.Fix(node.var, _subst_type(node.ann, tymap), node.body, pos=node.pos)
        elif isinstance(node, S.Annot):
            node = S.Annot(node.inner, _subst_type(node.ty, tymap), pos=node.pos)
        return node

    return go(t)


def _rename_refs(t, rename):
    def use(v):
        return S.Var(rename[v.name], pos=v.pos) if v.name in rename else v

    return S.map_free_vars(t, use)


def instantiate(progs: List[Program], ty_args: Dict[str, str], suffix: str) -> Program:
    """Monomorphic copy of generic definitions: substitute the opaque
    type names and append `suffix` to every definition in the group."""
    from .parser import parse_type
    from .typecheck import _subst_type

    tymap = {name: parse_type(ty_src) for name, ty_src in ty_args.items()}
    rename = {}
    for p in progs:
        for d in p.term_defs:
            rename[d.name] = d.name + suffix
    out = Program()
    for p in progs:
        for d in p.term_defs:
            body = _subst_types_in_term(_rename_refs(d.body, rename), tymap)
            out.term_defs.append(TermDef(rename[d.name], _subst_type(d.ann, tymap), body, d.pos))
    return out


def load_prelude() -> ProgramEnv:
    """Parse, desugar and check every prelude entry; abort on any failure."""
    env: Optional[ProgramEnv] = None
    parsed: Dict[str, Program] = {}

    def step(fname, prog):
        try:
            return load_program(prog, base=env)
        except TypeCheckError as e:
            raise TypeCheckError(e.kind, "prelude %s: %s" % (fname, e), pos=e.pos, **e.info)

    for fname in PRELUDE_FILES:
        parsed[fname] = parse(_read(fname))
        env = step(fname, parsed[fname])
    for suffix, ty_args, files in INSTANTIATIONS:
        inst = instantiate([parsed[f] for f in files], ty_args, suffix)
        env = step("instance %s" % suffix, inst)
    for fname in POST_FILES:
        env = step(fname, parse(_read(fname)))
    return env
