"""Recursive-descent parser for `.ld` sources.

A file is a sequence of `type` and `def` items plus at most one
`main = name`.  Comments run from `--` to end of line.  The operator
spellings are the fixed ASCII table used by the printer; identifiers
start with a letter (names starting with `_` are reserved for the
desugarer).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .modes import INF, Mode, UNIT
from . import syntax as S


class ParseError(Exception):
    def __init__(self, position: Tuple[int, int], expected: str):
        super().__init__("parse error at %d:%d: expected %s" % (position[0], position[1], expected))
        self.position = position
        self.expected = expected


@dataclass
class Token:
    kind: str  # 'ident' | 'num' | 'sym' | 'eof'
    text: str
    pos: Tuple[int, int]


_SYMBOLS = ["<|", "<!", "<o", "-o", "->", "><", "(", ")", "{", "}", "[", "]",
            ",", ";", ":", "+", "*", "!", "\\", "=", "^"]


# One alternative per token kind, tried in order.  A number is a run of
# decimal digits (`str.isdecimal`); a name starts with a letter (checked after
# the match: `[^\W\d_]` also admits numeric characters that are neither
# letters nor decimal digits, such as superscripts) and goes on with letters,
# digits, `_` and `'`; `new`, `to`, `from` and `from'` take a `*` that follows
# them directly.
_TOKEN = re.compile(
    r"[ \t\r]*(?:(?P<nl>\n)|(?P<comment>--[^\n]*)"
    r"|(?P<num>\d+)"
    r"|(?P<ident>(?:new|to|from'?)\*|[^\W\d_][\w']*)"
    r"|(?P<sym>" + "|".join(map(re.escape, _SYMBOLS)) + r")"
    r"|(?P<bad>[^ \t\r]))"
)


def tokenize(src: str) -> List[Token]:
    toks: List[Token] = []
    line, bol = 1, 0  # bol: the index where the current line begins
    m = None
    for m in _TOKEN.finditer(src):  # only spaces at the very end go unmatched
        kind = m.lastgroup
        if kind == "nl":
            line, bol = line + 1, m.end()
            continue
        if kind == "comment":
            continue
        text = m.group(kind)
        pos = (line, m.start(kind) - bol + 1)
        if kind == "bad" or (kind == "ident" and not text[0].isalpha()):
            raise ParseError(pos, "a token (found %r)" % text[0])
        toks.append(Token(kind, text, pos))
    # a comment adds nothing to the column, so input that ends in one ends
    # at the comment's own position
    end = m.start("comment") if m is not None and m.lastgroup == "comment" else len(src)
    toks.append(Token("eof", "", (line, end - bol + 1)))
    return toks


@dataclass
class TypeDef:
    name: str
    params: Tuple[str, ...]
    body: Optional[object]  # None marks an opaque base type
    pos: Tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass
class TermDef:
    name: str
    ann: object
    body: object
    pos: Tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass
class Program:
    type_defs: Dict[str, TypeDef] = field(default_factory=dict)
    term_defs: List[TermDef] = field(default_factory=list)
    main: Optional[str] = None


_KEYWORDS = {
    "type", "def", "main", "case", "of", "with", "upd", "fix",
    "new*", "to*", "from*", "from'*",
    "Unit", "Inl", "Inr", "Pair", "Mod", "Fun", "Dest", "inf",
}

_TERM_STOPPERS = {"of", "with", "type", "def", "main"}


class Parser:
    def __init__(self, src: str):
        toks = tokenize(src)
        # a second `eof` lets `peek` read past the first one without a bound check
        self.toks = toks + toks[-1:]
        self.i = 0

    # -- token helpers -----------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def at_sym(self, s: str) -> bool:
        t = self.toks[self.i]
        return t.kind == "sym" and t.text == s

    def at_word(self, w: str) -> bool:
        t = self.toks[self.i]
        return t.kind == "ident" and t.text == w

    def eat_sym(self, s: str) -> Token:
        if not self.at_sym(s):
            raise ParseError(self.peek().pos, "'%s'" % s)
        return self.next()

    def eat_word(self, w: str) -> Token:
        if not self.at_word(w):
            raise ParseError(self.peek().pos, "'%s'" % w)
        return self.next()

    def eat_name(self) -> Token:
        t = self.peek()
        if t.kind != "ident" or t.text in _KEYWORDS:
            raise ParseError(t.pos, "an identifier")
        return self.next()

    # -- modes --------------------------------------------------------------

    def at_mode(self) -> bool:
        return self.at_sym("[")

    def parse_mode(self) -> Mode:
        self.eat_sym("[")
        t = self.next()
        if t.kind == "num" and t.text == "1":
            mult = "1"
        elif t.kind == "ident" and t.text == "w":
            mult = "w"
        else:
            raise ParseError(t.pos, "a multiplicity (1 or w)")
        t = self.peek()
        if self.at_sym("^"):
            self.next()
            num = self.next()
            if num.kind != "num":
                raise ParseError(num.pos, "an age exponent")
            age = int(num.text)
        elif self.at_word("inf"):
            self.next()
            age = INF
        else:
            raise ParseError(t.pos, "an age (^k or inf)")
        self.eat_sym("]")
        return Mode(mult, age)

    def opt_mode(self) -> Mode:
        return self.parse_mode() if self.at_mode() else UNIT

    # -- types --------------------------------------------------------------

    def parse_type(self):
        left = self.parse_type_ampar()
        if self.at_sym("-o"):
            self.next()
            mode = self.opt_mode()
            right = self.parse_type()
            return S.TArrow(left, mode, right)
        return left

    def parse_type_ampar(self):
        left = self.parse_type_sum()
        if self.at_sym("><"):
            self.next()
            right = self.parse_type_sum()
            return S.TAmpar(left, right)
        return left

    def parse_type_sum(self):
        left = self.parse_type_prod()
        if self.at_sym("+"):
            self.next()
            right = self.parse_type_sum()
            return S.TSum(left, right)
        return left

    def parse_type_prod(self):
        left = self.parse_type_app()
        if self.at_sym("*"):
            self.next()
            right = self.parse_type_prod()
            return S.TProd(left, right)
        return left

    def parse_type_app(self):
        if self.at_sym("!"):
            self.next()
            mode = self.opt_mode()
            return S.TBang(mode, self.parse_type_atom())
        if self.at_word("Dest"):
            self.next()
            mode = self.opt_mode()
            return S.TDest(mode, self.parse_type_atom())
        t = self.peek()
        if t.kind == "ident" and t.text not in _KEYWORDS:
            name = self.next().text
            args = []
            while self.at_type_atom():
                args.append(self.parse_type_atom())
            return S.TNamed(name, tuple(args))
        return self.parse_type_atom()

    def at_type_atom(self) -> bool:
        t = self.peek()
        if t.kind == "num" and t.text == "1":
            return True
        if t.kind == "ident" and t.text not in _KEYWORDS:
            return True
        return self.at_sym("(")

    def parse_type_atom(self):
        t = self.peek()
        if t.kind == "num" and t.text == "1":
            self.next()
            return S.TUnit()
        if t.kind == "ident" and t.text not in _KEYWORDS:
            return S.TNamed(self.next().text, ())
        if self.at_sym("("):
            self.next()
            ty = self.parse_type()
            self.eat_sym(")")
            return ty
        raise ParseError(t.pos, "a type")

    # -- terms --------------------------------------------------------------

    def parse_term(self):
        first = self.parse_app()
        if self.at_sym(";"):
            self.next()
            rest = self.parse_term()
            return S.Seq(first, rest, pos=_pos_of(first))
        return first

    def parse_app(self):
        head = self.parse_primary()
        while self.at_primary_start():
            arg = self.parse_primary()
            head = S.App(head, arg, pos=_pos_of(head))
        return head

    def at_primary_start(self) -> bool:
        t = self.peek()
        if t.kind == "num":
            return True
        if t.kind == "ident":
            if t.text in _TERM_STOPPERS:
                return False
            return (
                t.text in ("new*", "to*", "from*", "from'*", "case", "upd", "fix", "Mod")
                or t.text not in _KEYWORDS
            )
        return t.kind == "sym" and t.text in ("(", "\\")

    def parse_primary(self):
        atom = self.parse_atom()
        while True:
            if self.at_sym("<|"):
                self.next()
                atom = self.parse_fill_ctor(atom)
            elif self.at_sym("<!"):
                pos = self.next().pos
                arg = self.parse_atom()
                atom = S.FillLeaf(atom, arg, pos=pos)
            elif self.at_sym("<o"):
                pos = self.next().pos
                child = self.parse_atom()
                atom = S.FillComp(atom, child, pos=pos)
            else:
                return atom

    def parse_fill_ctor(self, dest):
        t = self.peek()
        pos = t.pos
        if self.at_word("Unit"):
            self.next()
            return S.FillUnit(dest, pos=pos)
        if self.at_word("Inl"):
            self.next()
            return S.FillInl(dest, pos=pos)
        if self.at_word("Inr"):
            self.next()
            return S.FillInr(dest, pos=pos)
        if self.at_word("Pair"):
            self.next()
            return S.FillPair(dest, pos=pos)
        if self.at_word("Mod"):
            self.next()
            return S.FillBang(dest, self.parse_mode(), pos=pos)
        if self.at_word("Fun"):
            self.next()
            var = self.eat_name().text
            mode = self.opt_mode()
            self.eat_sym("->")
            body = self.parse_term()
            return S.FillFun(dest, var, mode, body, pos=pos)
        raise ParseError(pos, "a hollow constructor (Unit, Inl, Inr, Pair, Mod, Fun)")

    def parse_atom(self):
        t = self.peek()
        pos = t.pos
        if t.kind == "num":
            self.next()
            return S.NatLit(int(t.text), pos=pos)
        if self.at_sym("("):
            self.next()
            if self.at_sym(")"):
                self.next()
                return S.UnitS(pos=pos)
            inner = self.parse_term()
            if self.at_sym(","):
                self.next()
                snd = self.parse_term()
                self.eat_sym(")")
                return S.PairS(inner, snd, pos=pos)
            if self.at_sym(":"):
                self.next()
                ty = self.parse_type()
                self.eat_sym(")")
                if isinstance(inner, S.NewAmpar) and inner.ann is None:
                    return S.NewAmpar(ty, pos=pos)
                return S.Annot(inner, ty, pos=pos)
            self.eat_sym(")")
            return inner
        if self.at_sym("\\"):
            self.next()
            var = self.eat_name().text
            mode = self.opt_mode()
            self.eat_sym("->")
            body = self.parse_term()
            return S.LamS(var, mode, body, pos=pos)
        if t.kind != "ident":
            raise ParseError(pos, "a term")
        word = t.text
        if word == "new*":
            self.next()
            return S.NewAmpar(None, pos=pos)
        if word == "to*":
            self.next()
            return S.ToAmpar(self.parse_atom(), pos=pos)
        if word == "from*":
            self.next()
            return S.FromAmpar(self.parse_atom(), pos=pos)
        if word == "from'*":
            self.next()
            return S.FromPrimeS(self.parse_atom(), pos=pos)
        if word == "upd":
            self.next()
            scrut = self.parse_atom()
            self.eat_word("with")
            var = self.eat_name().text
            self.eat_sym("->")
            body = self.parse_term()
            return S.UpdWith(scrut, var, body, pos=pos)
        if word == "fix":
            self.next()
            var = self.eat_name().text
            self.eat_sym(":")
            ann = self.parse_type()
            self.eat_sym("->")
            body = self.parse_term()
            return S.Fix(var, ann, body, pos=pos)
        if word == "Mod":
            self.next()
            mode = self.parse_mode()
            inner = self.parse_atom()
            return S.ModS(mode, inner, pos=pos)
        if word == "case":
            self.next()
            return self.parse_case(pos)
        if word in _KEYWORDS:
            raise ParseError(pos, "a term (found keyword %r)" % word)
        self.next()
        return S.Var(word, pos=pos)

    def parse_case(self, pos):
        mode = self.opt_mode()
        scrut = self.parse_term()
        self.eat_word("of")
        if self.at_sym("{"):
            self.next()
            self.eat_word("Inl")
            lv = self.eat_name().text
            self.eat_sym("->")
            lb = self.parse_term()
            self.eat_sym(",")
            self.eat_word("Inr")
            rv = self.eat_name().text
            self.eat_sym("->")
            rb = self.parse_term()
            self.eat_sym("}")
            return S.CaseSum(mode, scrut, lv, lb, rv, rb, pos=pos)
        if self.at_sym("("):
            self.next()
            v1 = self.eat_name().text
            self.eat_sym(",")
            v2 = self.eat_name().text
            self.eat_sym(")")
            self.eat_sym("->")
            body = self.parse_term()
            return S.CasePair(mode, scrut, v1, v2, body, pos=pos)
        if self.at_word("Mod"):
            self.next()
            inner_mode = self.parse_mode()
            var = self.eat_name().text
            self.eat_sym("->")
            body = self.parse_term()
            return S.CaseBang(mode, scrut, inner_mode, var, body, pos=pos)
        raise ParseError(self.peek().pos, "a case alternative form")

    # -- items ---------------------------------------------------------------

    def parse_program(self) -> Program:
        prog = Program()
        while not self.peek().kind == "eof":
            t = self.peek()
            if self.at_word("type"):
                self.next()
                name = self.eat_name().text
                params = []
                while self.peek().kind == "ident" and self.peek().text not in _KEYWORDS and not self.at_sym("="):
                    params.append(self.eat_name().text)
                body = None
                if self.at_sym("="):
                    self.next()
                    body = self.parse_type()
                if name in prog.type_defs:
                    raise ParseError(t.pos, "a fresh type name (%r is defined twice)" % name)
                prog.type_defs[name] = TypeDef(name, tuple(params), body, t.pos)
            elif self.at_word("def"):
                self.next()
                name = self.eat_name().text
                self.eat_sym(":")
                ann = self.parse_type()
                self.eat_sym("=")
                body = self.parse_term()
                if any(d.name == name for d in prog.term_defs):
                    raise ParseError(t.pos, "a fresh def name (%r is defined twice)" % name)
                prog.term_defs.append(TermDef(name, ann, body, t.pos))
            elif self.at_word("main"):
                self.next()
                self.eat_sym("=")
                if prog.main is not None:
                    raise ParseError(t.pos, "one 'main' (it is given twice)")
                prog.main = self.eat_name().text
            else:
                raise ParseError(t.pos, "'type', 'def' or 'main'")
        return prog


def _pos_of(t):
    return getattr(t, "pos", None)


def parse(src: str) -> Program:
    return Parser(src).parse_program()


def parse_term(src: str):
    p = Parser(src)
    t = p.parse_term()
    if p.peek().kind != "eof":
        raise ParseError(p.peek().pos, "end of input")
    return t


def parse_type(src: str):
    p = Parser(src)
    t = p.parse_type()
    if p.peek().kind != "eof":
        raise ParseError(p.peek().pos, "end of input")
    return t
