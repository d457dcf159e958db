"""Surface syntax for algebra elements: parser, AST printer, and the
canonical renderer for normal forms.

Grammar (whitespace-insensitive, products left-associative, ^ binds
tightest):

    expr    := ['-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := atom ['^' ['-'] int]
    atom    := '(' expr ')' | rational | 'q' | generator | dividedpower
    generator := ('E'|'F'|'K'|'Kinv') '[' int ']'
    dividedpower := ('E'|'F') '(' int ')'
    rational := int ['/' int]

`q` denotes the root of unity; negative exponents are legal on q and on
K-type generators only.  Coefficients of rendered elements are canonical
polynomials in q (reduced modulo the cyclotomic polynomial, ascending
powers), and monomials print as F(m), K[i]^d factors, E(p).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraParams, AlgElement, divided_power, generator
from .cyclotomic import CycNum
from .qcomb import to_digits


class ExprSyntaxError(ValueError):
    """Parse failure with byte offset and the set of expected tokens."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + ", ".join(sorted(expected)) + ")"
        super().__init__(detail)
        self.offset = offset
        self.expected = tuple(sorted(expected))


@dataclass(frozen=True)
class Scalar:
    value: Fraction


@dataclass(frozen=True)
class QPow:
    exp: int


@dataclass(frozen=True)
class Gen:
    kind: str
    index: int


@dataclass(frozen=True)
class DivPow:
    kind: str
    count: int


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exp: int


@dataclass(frozen=True)
class Mul:
    factors: tuple["Node", ...]


@dataclass(frozen=True)
class Add:
    terms: tuple[tuple[int, "Node"], ...]  # (sign, node), sign in {+1, -1}


Node = Scalar | QPow | Gen | DivPow | Pow | Mul | Add

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|([-+*^/()\[\]]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", at)
        if match.group(1) is not None:
            tokens.append(("INT", match.group(1), match.start(1)))
        elif match.group(2) is not None:
            tokens.append(("NAME", match.group(2), match.start(2)))
        else:
            tokens.append((match.group(3), match.group(3), match.start(3)))
        pos = match.end()
    tokens.append(("END", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, params: AlgebraParams | None):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.params = params

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ExprSyntaxError(f"unexpected token {tok[1]!r}", tok[2], (kind,))
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "END":
            raise ExprSyntaxError(f"trailing input {tok[1]!r}", tok[2],
                                  ("+", "-", "*", "^", "END"))
        return node

    def expr(self) -> Node:
        terms: list[tuple[int, Node]] = []
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = -1 if self.advance()[0] == "-" else 1
        terms.append((sign, self.term()))
        while self.peek()[0] in ("+", "-"):
            sign = -1 if self.advance()[0] == "-" else 1
            terms.append((sign, self.term()))
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return Add(tuple(terms))

    def term(self) -> Node:
        factors = [self.factor()]
        while self.peek()[0] == "*":
            self.advance()
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else Mul(tuple(factors))

    def factor(self) -> Node:
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        self.advance()
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        tok = self.expect("INT")
        exp = sign * int(tok[1])
        if exp < 0 and not (isinstance(base, QPow) or isinstance(base, Gen)
                            and base.kind in ("K", "Kinv")):
            raise ExprSyntaxError("negative powers are legal on q and K only", tok[2])
        if isinstance(base, QPow):
            return QPow(base.exp * exp)
        return Pow(base, exp)

    def atom(self) -> Node:
        tok = self.peek()
        if tok[0] == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if tok[0] == "INT":
            self.advance()
            if self.peek()[0] == "/":
                self.advance()
                den = self.expect("INT")
                if int(den[1]) == 0:
                    raise ExprSyntaxError("zero denominator", den[2])
                return Scalar(Fraction(int(tok[1]), int(den[1])))
            return Scalar(Fraction(int(tok[1])))
        if tok[0] == "NAME":
            return self.name_atom()
        raise ExprSyntaxError(f"unexpected token {tok[1]!r}", tok[2],
                              ("(", "INT", "E", "F", "K", "Kinv", "q"))

    def name_atom(self) -> Node:
        tok = self.advance()
        name = tok[1]
        if name == "q":
            return QPow(1)
        if name not in ("E", "F", "K", "Kinv"):
            raise ExprSyntaxError(f"unknown name {name!r}", tok[2],
                                  ("E", "F", "K", "Kinv", "q"))
        nxt = self.peek()
        if nxt[0] == "[":
            self.advance()
            idx = self.expect("INT")
            self.expect("]")
            index = int(idx[1])
            if self.params is not None and index > self.params.level:
                raise ExprSyntaxError(
                    f"index {index} exceeds level {self.params.level}", idx[2])
            return Gen(name, index)
        if nxt[0] == "(" and name in ("E", "F"):
            self.advance()
            count = self.expect("INT")
            self.expect(")")
            m = int(count[1])
            if self.params is not None and m >= self.params.bound:
                raise ExprSyntaxError(
                    f"divided-power index {m} exceeds bound {self.params.bound - 1}",
                    count[2])
            return DivPow(name, m)
        raise ExprSyntaxError(f"generator {name} needs [index]", nxt[2],
                              ("[",) + (("(",) if name in ("E", "F") else ()))


def parse_expr(text: str, params: AlgebraParams | None = None) -> Node:
    return _Parser(text, params).parse()


def ast_to_string(node: Node) -> str:
    """Canonical rendering; parse(ast_to_string(parse(s))) == parse(s)."""
    if isinstance(node, Scalar):
        return str(node.value)
    if isinstance(node, QPow):
        if node.exp == 1:
            return "q"
        return f"q^{node.exp}"
    if isinstance(node, Gen):
        return f"{node.kind}[{node.index}]"
    if isinstance(node, DivPow):
        return f"{node.kind}({node.count})"
    if isinstance(node, Pow):
        base = ast_to_string(node.base)
        if isinstance(node.base, (Add, Mul, Pow)):
            base = f"({base})"
        return f"{base}^{node.exp}"
    if isinstance(node, Mul):
        parts = []
        for f in node.factors:
            s = ast_to_string(f)
            if isinstance(f, Add):
                s = f"({s})"
            parts.append(s)
        return "*".join(parts)
    if isinstance(node, Add):
        out = []
        for i, (sign, term) in enumerate(node.terms):
            s = ast_to_string(term)
            if isinstance(term, Add):
                s = f"({s})"
            if i == 0:
                out.append(("-" if sign < 0 else "") + s)
            else:
                out.append((" - " if sign < 0 else " + ") + s)
        return "".join(out)
    raise TypeError(f"not an AST node: {node!r}")


def evaluate(node: Node, params: AlgebraParams) -> AlgElement:
    field = params.field
    if isinstance(node, Scalar):
        return AlgElement.unit(params).scaled(node.value)
    if isinstance(node, QPow):
        return AlgElement.unit(params).scaled(field.lambda_pow(node.exp))
    if isinstance(node, Gen):
        return generator(params, node.kind, node.index)
    if isinstance(node, DivPow):
        return divided_power(params, node.kind, node.count)
    if isinstance(node, Pow):
        if node.exp < 0:
            if isinstance(node.base, Gen) and node.base.kind in ("K", "Kinv"):
                flipped = "Kinv" if node.base.kind == "K" else "K"
                return generator(params, flipped, node.base.index) ** (-node.exp)
            raise ValueError("negative powers are legal on q and K only")
        return evaluate(node.base, params) ** node.exp
    if isinstance(node, Mul):
        result = AlgElement.unit(params)
        for f in node.factors:
            result = result * evaluate(f, params)
        return result
    if isinstance(node, Add):
        result = AlgElement.zero(params)
        for sign, term in node.terms:
            value = evaluate(term, params)
            result = result + (value if sign > 0 else -value)
        return result
    raise TypeError(f"not an AST node: {node!r}")


# -- canonical rendering of elements -------------------------------------------


def _poly_term(coeff: Fraction, k: int) -> tuple[bool, str]:
    """One term coeff*q^k as its sign and its body: '3', 'q^2' or '3/2*q'."""
    mag = abs(coeff)
    if k == 0:
        return coeff < 0, str(mag)
    qs = "q" if k == 1 else f"q^{k}"
    return coeff < 0, qs if mag == 1 else f"{mag}*{qs}"


def _signed_sum(terms: list[tuple[bool, str]]) -> str:
    """Join (negative, body) terms: '-a + b - c'."""
    first_negative, first = terms[0]
    return ("-" if first_negative else "") + first + "".join(
        (" - " if negative else " + ") + body for negative, body in terms[1:])


def format_cyc(c: CycNum) -> str:
    """Canonical polynomial in q, ascending powers: e.g. '1 - 2*q + q^2'."""
    terms = [_poly_term(coeff, k) for k, coeff in enumerate(c.coeffs) if coeff]
    return _signed_sum(terms) if terms else "0"


def _format_monomial(params: AlgebraParams, mono: tuple[int, int, int]) -> str:
    m, n, p = mono
    factors = []
    if m:
        factors.append(f"F({m})")
    for i, d in enumerate(to_digits(n, params.ell)):
        if d == 1:
            factors.append(f"K[{i}]")
        elif d:
            factors.append(f"K[{i}]^{d}")
    if p:
        factors.append(f"E({p})")
    return "*".join(factors) if factors else "1"


def format_element(elem: AlgElement) -> str:
    """Deterministic text form: terms in lexicographic monomial order,
    coefficients as canonical q-polynomials."""
    if elem.is_zero():
        return "0"
    rendered = []
    for mono, coeff in elem.items():
        ms = _format_monomial(elem.params, mono)
        terms = [(c, k) for k, c in enumerate(coeff.coeffs) if c]
        if len(terms) == 1:
            negative, cs = _poly_term(*terms[0])
            body = cs if ms == "1" else ms if cs == "1" else f"{cs}*{ms}"
        else:
            negative, cs = False, f"({format_cyc(coeff)})"
            body = cs if ms == "1" else f"{cs}*{ms}"
        rendered.append((negative, body))
    return _signed_sum(rendered)


def element_to_json(elem: AlgElement) -> dict:
    """Structured form with exact rational coefficient strings."""
    params = elem.params
    terms = []
    for (m, n, p), coeff in elem.items():
        terms.append({
            "f": m,
            "k": n,
            "e": p,
            "coeff": [str(c) for c in coeff.coeffs],
        })
    return {"ell": params.ell, "level": params.level,
            "root_exponent": params.root_exponent, "terms": terms}
