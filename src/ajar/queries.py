"""Query text parsing.

Grammar:

    query := head '=' agg* body ('@' 'semiring' '=' NAME)?
    head  := NAME '(' attrs? ')'
    agg   := OPNAME '[' ATTR ']'
    body  := atom (',' atom)*
    atom  := NAME '(' attrs ')'

The aggregation prefix reads outermost first; head attributes must be
exactly the attributes missing from the prefix.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import ParseError
from .hypergraph import Hypergraph
from .ordering import AggregationOrdering
from .semirings import get_semiring

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_BODY = _NAME_START | set("0123456789")


class Token(NamedTuple):
    kind: str  # name | punct | end
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, column = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            column += 1
            i += 1
            continue
        if ch in _NAME_START:
            start = i
            while i < len(text) and text[i] in _NAME_BODY:
                i += 1
            tokens.append(Token("name", text[start:i], line, column))
            column += i - start
            continue
        if ch in "()[]=,@":
            tokens.append(Token("punct", ch, line, column))
            column += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)
    tokens.append(Token("end", "", line, column))
    return tokens


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {tok.text or 'end of input'!r}", tok.line, tok.column)
        self.pos += 1
        return tok


class Atom(NamedTuple):
    relation: str  # relation (file) name
    edge_name: str  # unique per atom; differs from relation when repeated
    attrs: tuple[str, ...]


class ParsedQuery(NamedTuple):
    head_name: str
    head_attrs: tuple[str, ...]
    ordering: AggregationOrdering
    atoms: tuple[Atom, ...]
    hypergraph: Hypergraph
    semiring_name: Optional[str]


def parse_query(text: str) -> ParsedQuery:
    cursor = _Cursor(_tokenize(text))
    head_name = cursor.take("name").text
    cursor.take("punct", "(")
    head: list[Token] = []
    if cursor.peek().text != ")":
        head.append(cursor.take("name"))
        while cursor.peek().text == ",":
            cursor.take("punct", ",")
            head.append(cursor.take("name"))
    head_end = cursor.take("punct", ")")
    cursor.take("punct", "=")

    aggs: list[tuple[Token, Token]] = []  # (operator, attribute)
    while cursor.peek().kind == "name" and _next_is_agg(cursor):
        op = cursor.take("name")
        cursor.take("punct", "[")
        attr = cursor.take("name")
        cursor.take("punct", "]")
        aggs.append((op, attr))

    atoms: list[Atom] = []
    counts: dict[str, int] = {}
    while True:
        tok = cursor.take("name")
        cursor.take("punct", "(")
        attrs = [cursor.take("name").text]
        while cursor.peek().text == ",":
            cursor.take("punct", ",")
            attrs.append(cursor.take("name").text)
        closing = cursor.take("punct", ")")
        if len(set(attrs)) != len(attrs):
            _fail(f"atom {tok.text!r} repeats an attribute", closing)
        counts[tok.text] = counts.get(tok.text, 0) + 1
        atoms.append(Atom(relation=tok.text, edge_name="", attrs=tuple(attrs)))
        if cursor.peek().text == ",":
            cursor.take("punct", ",")
            continue
        break

    semiring_name = None
    if cursor.peek().text == "@":
        cursor.take("punct", "@")
        cursor.take("name", "semiring")
        cursor.take("punct", "=")
        semiring_name = cursor.take("name").text
    cursor.take("end")

    # tag repeated relation atoms with an ordinal
    seen: dict[str, int] = {}
    tagged = []
    for atom in atoms:
        if counts[atom.relation] > 1:
            ordinal = seen.get(atom.relation, 0)
            seen[atom.relation] = ordinal + 1
            name = f"{atom.relation}#{ordinal + 1}"
        else:
            name = atom.relation
        tagged.append(Atom(atom.relation, name, atom.attrs))
    # every atom has an attribute and tagged names are distinct, so this holds
    h = Hypergraph.build([(a.edge_name, a.attrs) for a in tagged])

    # semantic errors point at the offending token
    aggregated: set[str] = set()
    for _, attr in aggs:
        if attr.text in aggregated:
            _fail(f"attribute {attr.text!r} aggregated twice", attr)
        if attr.text not in h.vertices:
            _fail(f"aggregated attribute {attr.text!r} not in the body", attr)
        aggregated.add(attr.text)
    expected = h.vertices - aggregated
    listed: set[str] = set()
    for tok in head:
        if tok.text in aggregated:
            _fail("head attributes may not be aggregated", tok)
        if tok.text in listed or tok.text not in expected:
            _fail(f"head attributes must be exactly {sorted(expected)}", tok)
        listed.add(tok.text)
    if listed != expected:
        _fail(f"head attributes must be exactly {sorted(expected)}", head_end)
    if semiring_name is not None:
        semiring = get_semiring(semiring_name)
        for op, _ in aggs:
            if not semiring.knows_op(op.text):
                _fail(f"operator {op.text!r} unknown to semiring {semiring_name!r}", op)
    return ParsedQuery(
        head_name=head_name,
        head_attrs=tuple(tok.text for tok in head),
        ordering=AggregationOrdering(tuple((attr.text, op.text) for op, attr in aggs)),
        atoms=tuple(tagged),
        hypergraph=h,
        semiring_name=semiring_name,
    )


def _fail(message: str, tok: Token) -> None:
    raise ParseError(message, tok.line, tok.column)


def _next_is_agg(cursor: _Cursor) -> bool:
    after = cursor.tokens[cursor.pos + 1]
    return after.text == "["


def print_query(q: ParsedQuery) -> str:
    """Render back to query text; parse(print(q)) == q."""
    head = f"{q.head_name}({','.join(q.head_attrs)})"
    aggs = " ".join(f"{op}[{attr}]" for attr, op in q.ordering.items)
    body = ", ".join(f"{a.relation}({','.join(a.attrs)})" for a in q.atoms)
    parts = [head, "="]
    if aggs:
        parts.append(aggs)
    parts.append(body)
    text = " ".join(parts)
    if q.semiring_name:
        text += f" @ semiring={q.semiring_name}"
    return text


def parse_agg_list(text: str, reference: AggregationOrdering) -> AggregationOrdering:
    """Parse a bare aggregation prefix like "sum[C] max[B]" for `equiv`.

    Also accepts a plain attribute list like "C A B", copying operators from
    the reference ordering.
    """
    cursor = _Cursor(_tokenize(text))
    items: list[tuple[str, str]] = []
    while cursor.peek().kind == "name":
        attr = first = cursor.take("name")
        if cursor.peek().text == "[":
            cursor.take("punct", "[")
            attr = cursor.take("name")
            cursor.take("punct", "]")
            op = first.text
        elif attr.text in reference.attrs():
            op = reference.operator(attr.text)
        else:
            _fail(
                f"attribute {attr.text!r} is not aggregated by the query; "
                f"write its operator, as op[{attr.text}]",
                attr,
            )
        if any(a == attr.text for a, _ in items):
            _fail(f"attribute {attr.text!r} aggregated twice", attr)
        items.append((attr.text, op))
        if cursor.peek().text == ",":
            cursor.take("punct", ",")
    cursor.take("end")
    return AggregationOrdering(tuple(items))
