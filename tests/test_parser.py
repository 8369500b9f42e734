"""Surface syntax: fixed renderings plus the print/parse round trip."""

import glob
import os
import pathlib
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from destcalc import cli
from destcalc import syntax as S
from destcalc.modes import INF, Mode, UNIT
from destcalc.parser import ParseError, parse, parse_term, parse_type, tokenize
from destcalc.prelude import prelude_path
from destcalc.printer import print_mode, print_term, print_type

from conftest import reference_tokenize


def test_fixed_renderings():
    assert print_mode(Mode("1", 2)) == "[1 ^2]"
    assert print_mode(Mode("w", INF)) == "[w inf]"
    assert print_term(S.NewAmpar(None)) == "new*"
    assert parse_term("new*") == S.NewAmpar(None)
    assert parse_term("d <| Inl") == S.FillInl(S.Var("d"))
    assert parse_term("d <! x") == S.FillLeaf(S.Var("d"), S.Var("x"))
    assert parse_term("d <o x") == S.FillComp(S.Var("d"), S.Var("x"))
    assert parse_term("()") == S.UnitS()
    assert parse_term("3") == S.NatLit(3)


def test_fill_chain_is_left_associative():
    t = parse_term("d <| Inr <| Pair")
    assert isinstance(t, S.FillPair) and isinstance(t.dest, S.FillInr)


def test_type_operators():
    ty = parse_type("T -o[w inf] List T -o List U")
    assert isinstance(ty, S.TArrow) and ty.mode == Mode("w", INF)
    assert isinstance(ty.cod, S.TArrow) and ty.cod.mode == UNIT
    amp = parse_type("List T >< Dest (List T)")
    assert isinstance(amp, S.TAmpar)
    assert isinstance(amp.right, S.TDest) and amp.right.mode == UNIT
    assert parse_type("1 + 1") == S.TSum(S.TUnit(), S.TUnit())
    bang = parse_type("![1 inf] 1")
    assert bang == S.TBang(Mode("1", INF), S.TUnit())


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse("def x : 1 = ((")
    assert e.value.position[0] == 1
    with pytest.raises(ParseError):
        parse_term("case x of")
    with pytest.raises(ParseError):
        parse_term("_hidden")  # leading underscore is reserved
    # a name given twice is refused at the line of its second item
    for src in (
        "type A = 1\ndef x : 1 = ()\ntype A = 1 + 1",
        "def x : 1 = ()\ntype A = 1\ndef x : 1 = ()",
        "def x : 1 = ()\nmain = x\nmain = x",
    ):
        with pytest.raises(ParseError) as e:
            parse(src)
        assert e.value.position[0] == 3, src


def test_program_items():
    prog = parse(
        """
        -- a comment
        type Pair2 a = a * a
        def dup : 1 -o Pair2 1 = \\u -> (u ; (), ())
        main = dup
        """
    )
    assert list(prog.type_defs) == ["Pair2"]
    assert prog.type_defs["Pair2"].params == ("a",)
    assert prog.main == "dup"


# -- round trip ---------------------------------------------------------------

_names = st.sampled_from(["x", "y", "zz", "d1"])
_modes = st.builds(Mode, st.sampled_from(["1", "w"]), st.sampled_from([0, 1, 2, INF]))


def _types(depth):
    base = st.sampled_from([S.TUnit(), S.TNamed("T", ()), S.TNamed("List", (S.TNamed("T", ()),))])
    if depth == 0:
        return base
    sub = _types(depth - 1)
    return st.one_of(
        base,
        st.builds(S.TSum, sub, sub),
        st.builds(S.TProd, sub, sub),
        st.builds(S.TAmpar, sub, sub),
        st.builds(S.TArrow, sub, _modes, sub),
        st.builds(S.TDest, _modes, sub),
        st.builds(S.TBang, _modes, sub),
    )


def _terms(depth):
    base = st.one_of(
        st.builds(S.Var, _names),
        st.just(S.UnitS()),
        st.just(S.NewAmpar(None)),
        st.builds(S.NatLit, st.integers(0, 5)),
    )
    if depth == 0:
        return base
    sub = _terms(depth - 1)
    return st.one_of(
        base,
        st.builds(S.App, sub, sub),
        st.builds(S.Seq, sub, sub),
        st.builds(S.FillInl, sub),
        st.builds(S.FillPair, sub),
        st.builds(S.FillBang, sub, _modes),
        st.builds(S.FillLeaf, sub, sub),
        st.builds(S.FillComp, sub, sub),
        st.builds(S.PairS, sub, sub),
        st.builds(S.ModS, _modes, sub),
        st.builds(S.LamS, _names, _modes, sub),
        st.builds(S.UpdWith, sub, _names, sub),
        st.builds(S.ToAmpar, sub),
        st.builds(S.FromAmpar, sub),
        st.builds(S.FromPrimeS, sub),
        st.builds(S.CaseSum, _modes, sub, _names, sub, _names, sub),
        st.builds(S.CasePair, _modes, sub, _names, _names, sub),
        st.builds(S.CaseBang, _modes, sub, _modes, _names, sub),
        st.builds(S.Fix, _names, _types(1), sub),
    )


@settings(max_examples=300, deadline=None)
@given(_terms(3))
def test_term_round_trip(t):
    assert parse_term(print_term(t)) == t


@settings(max_examples=300, deadline=None)
@given(_types(3))
def test_type_round_trip(ty):
    assert parse_type(print_type(ty)) == ty


def test_printer_ascii_only(env):
    for fname in ("types.ld", "list.ld", "queue.ld"):
        pass  # prelude sources are checked in test_prelude
    t = parse_term("upd (new* : List T >< Dest (List T)) with d -> d <| Inl <| Unit")
    assert print_term(t).isascii()


def test_prelude_source_round_trip(env):
    # whole-program round trip on a small real source
    src = """
    def swap : (1 * 1) -o (1 * 1) = \\p -> case p of (a, b) -> (b, a)
    main = swap
    """
    prog = parse(src)
    body = prog.term_defs[0].body
    assert parse_term(print_term(body)) == body


def test_whole_prelude_round_trip():
    # every type body, and every definition's annotation and body, prints in
    # ASCII and parses back to itself
    from destcalc.prelude import PRELUDE_FILES, POST_FILES, _read

    for fname in PRELUDE_FILES + POST_FILES:
        src = _read(fname)
        assert src.isascii()
        prog = parse(src)
        types = [td.body for td in prog.type_defs.values() if td.body is not None]
        assert types or prog.term_defs, fname
        for ty in types + [d.ann for d in prog.term_defs]:
            txt = print_type(ty)
            assert txt.isascii() and parse_type(txt) == ty, (fname, txt)
        for d in prog.term_defs:
            txt = print_term(d.body)
            assert txt.isascii() and parse_term(txt) == d.body, (fname, d.name)


def _tokens(tok, src):
    try:
        return [(t.kind, t.text, t.pos) for t in tok(src)]
    except ParseError as e:
        return ("error", e.position, e.expected)


EDGE_SOURCES = [
    "new*", "new *", "news*", "from'*", "from''*", "to*x", "(new*)",
    "a $ b", "x -- c  ", "def x : Nat = -- no body", "--", "a\n--c\n", "x  ",
    "x\r\ny \r\n -- c\r\n", "\tx\t-o\ty", "<oops <|<! -o->><", "- x",
    "\u00e9lan \u03bbx x\u0663 \u0663\u0664 \u4e00", "\u00b23 3\u00b2", "\u00bd", "a\u00bd",
    "\u216b",
]


def test_tokenizer_matches_the_character_loop():
    sources = [pathlib.Path(p).read_text() for p in glob.glob(
        os.path.join(prelude_path(""), "**", "*.ld"), recursive=True)]
    assert len(sources) >= 13
    for src in sources + EDGE_SOURCES:
        assert _tokens(tokenize, src) == _tokens(reference_tokenize, src), src
    # end of input after a comment is at the comment's column
    assert tokenize("def x : Nat = -- no body")[-1].pos == (1, 15)
    with pytest.raises(ParseError, match="parse error at 1:15"):
        parse("def x : Nat = -- no body")


def test_numeric_characters_beyond_decimal_digits_are_no_token(capsys, tmp_path):
    # a number is a run of decimal digits; every other character `str.isdigit`
    # accepts (superscripts, circled digits, ...) is the ordinary token error,
    # alone, after a digit and as a mode age
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    others = [c for c in every if c.isdigit() and not re.fullmatch(r"\d", c)]
    assert len(others) == 128 and not any(c.isdecimal() for c in others)
    for c in others:
        for src, col in (("def x : Nat = %s", 15), ("def x : Nat = 1%s", 16),
                         ("def x : 1 -o[1 ^%s] 1 = 0", 17)):
            with pytest.raises(ParseError) as e:
                parse(src % c)
            assert (e.value.position, e.value.expected) == ((1, col), "a token (found %r)" % c)
    f = tmp_path / "sup.ld"
    f.write_text("def x : Nat = \u00b2\nmain = x\n", encoding="utf-8")
    assert cli.main(["check", str(f)]) == 2
    assert capsys.readouterr().err == "parse error at 1:15: expected a token (found '\u00b2')\n"
