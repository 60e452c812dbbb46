"""The one-pattern line parser against the per-token parser it replaced."""

import re

from hypothesis import given, settings, strategies as st

from qborel import ParseError, Poset
from qborel.poset import poset_from_text

_REFERENCE_INTEGER_RE = re.compile(r"\s*[+-]?[0-9]+\s*")


def _reference_integer(text):
    if not _REFERENCE_INTEGER_RE.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _reference_token(tok, lineno):
    tok = tok.strip()
    if tok.startswith("x"):
        tok = tok[1:]
    try:
        return _reference_integer(tok)
    except ValueError:
        raise ParseError(f"line {lineno}: expected a variable index, got {tok!r}") from None


def reference_poset_from_text(text):
    """The line format read one token at a time, splitting each line on '<'."""
    lines = [(k + 1, ln.partition("#")[0].strip()) for k, ln in enumerate(text.splitlines())]
    lines = [(k, ln) for k, ln in lines if ln]
    if not lines:
        raise ParseError("empty poset description")
    lineno, head = lines[0]
    try:
        n = _reference_integer(head)
    except ValueError:
        raise ParseError(f"line {lineno}: expected the ground set size, got {head!r}") from None
    rels = []
    for lineno, ln in lines[1:]:
        parts = ln.split("<")
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'j < i', got {ln!r}")
        rels.append((_reference_token(parts[0], lineno), _reference_token(parts[1], lineno)))
    try:
        return Poset(n, rels)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


# ASCII and Unicode whitespace (NBSP, em space, ideographic space, VT,
# FF, and the separators \x1c-\x1f that str.isspace accepts), and
# digits of other scripts and '_', which int() reads, and a superscript
_SPACE = st.text(st.sampled_from(" \t\x0b\x0c\x1c\x1f\xa0 　"), max_size=2)
_DIGITS = st.text(st.sampled_from("0123456789" * 3 + "١３²_"), min_size=1, max_size=3)
_TOKEN = st.tuples(_SPACE, st.sampled_from(["", "", "x", "xx", "y"]), _SPACE,
                   st.sampled_from(["", "", "+", "-", "+-"]), _DIGITS, _SPACE).map("".join)
_RELATION = st.tuples(st.integers(1, 6), _SPACE, st.integers(1, 6)).map(
    lambda r: f"{r[0]}{r[1]}<{r[1]}x{r[2]}")
# mostly relations, so that many texts get past their last line
_LINE = st.sampled_from([
    st.lists(_TOKEN, min_size=1, max_size=3).map("<".join), *[st.tuples(_TOKEN, _TOKEN).map("<".join)] * 2,
    st.integers(0, 9).map(str), _SPACE, *[_RELATION] * 4]).flatmap(lambda line: line)
_COMMENT = st.sampled_from(["", "", "", "#", "# 1 < 2", "#<<"])
# mostly a valid size first, so that the relation lines are reached
_HEAD = st.sampled_from([_LINE, *[st.integers(0, 9).map(str)] * 3]).flatmap(lambda head: head)
_TEXT = st.tuples(
    _HEAD, st.lists(st.tuples(_LINE, _COMMENT).map("".join), max_size=6),
    st.sampled_from(["\n", "\r\n", "\r", "\u2028"]),
).map(lambda t: t[2].join([t[0], *t[1]]))


@settings(max_examples=500, deadline=None)
@given(_TEXT)
def test_line_parser_matches_the_per_token_reference(text):
    # the same poset, or a ParseError with the same text
    assert _outcome(poset_from_text, text) == _outcome(reference_poset_from_text, text)


def test_reference_agrees_on_handwritten_lines():
    for text in ("3\n1 < 3\nx2<x3\n", " +3 \n x1 <  +2\n", "3\n1 < 2 < 3\n",
                 "3\nx 1 < x　3\n", "3\nxx1 < 2\n", "3\n1 <\n", "3\n< 2\n",
                 "2\n1 < 2\n2 < 1\n", "١\n", "3\n-1 < 2\n", "3\n1 < -3\n",
                 "3\n١ < 2\n", "3\n1 < x٢\n", "3\n1_0 < 2\n", "3\n+1<+2\n",
                 "3\n1 < x\x1f2\n", "3\nx\x1f1 < 2\n", "3\n1 <\x1f2\n"):
        assert _outcome(poset_from_text, text) == _outcome(reference_poset_from_text, text)
