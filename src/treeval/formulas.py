"""The supported formula fragment: AST, parser, printer, evaluator.

Grammar (whitespace-insensitive):

    formula := disj
    disj    := conj { "|" conj }
    conj    := neg { "&" neg }
    neg     := "~" neg | "(" formula ")" | atom | binder
    binder  := "exists" ident "root" polylit ":" neg
    atom    := term "=" "0" | term "in" ("O"|"m") "[" ident "]"
    polylit := "[" rational { "," rational } "]"   constant first, monic
    term    := arithmetic over integers, bound idents, parameters $name,
               with + - * / and ^ (nonnegative integer exponents)

Quantification is root-bounded: an existential ranges over the roots of
its monic polynomial in the ambient field.  Terms with division are
totalized: an atom whose evaluation divides by zero is false.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from treeval.errors import ParseError, PreconditionError
from treeval.numfield import NumberField, roots_in_field
from treeval.padic import Membership
from treeval.polys import QQ, Poly
from treeval.ratfunc import RatFuncField

# -- AST ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TNum:
    value: int


@dataclass(frozen=True)
class TVar:
    name: str


@dataclass(frozen=True)
class TParam:
    name: str


@dataclass(frozen=True)
class TAdd:
    left: object
    right: object


@dataclass(frozen=True)
class TSub:
    left: object
    right: object


@dataclass(frozen=True)
class TMul:
    left: object
    right: object


@dataclass(frozen=True)
class TDiv:
    left: object
    right: object


@dataclass(frozen=True)
class TPow:
    base: object
    exponent: int


@dataclass(frozen=True)
class TNeg:
    arg: object


@dataclass(frozen=True)
class FEqZero:
    term: object


@dataclass(frozen=True)
class FIn:
    term: object
    sort: str  # "O" or "m"
    node: str


@dataclass(frozen=True)
class FNot:
    arg: object


@dataclass(frozen=True)
class FAnd:
    left: object
    right: object


@dataclass(frozen=True)
class FOr:
    left: object
    right: object


@dataclass(frozen=True)
class FExistsRoot:
    var: str
    poly: tuple  # coefficients of the monic binder polynomial, constant first
    body: object

    def poly_qq(self) -> Poly:
        return Poly(QQ, [Fraction(c) for c in self.poly])


# -- tokenizer ----------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>\d+)
  | (?P<param>\$[A-Za-z_][A-Za-z_0-9]*)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[()\[\],:=&|~+\-*/^<>])
    """,
    re.VERBOSE,
)


class _Tok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group(0)
        if kind != "ws":
            toks.append(_Tok(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str, nodes=None):
        self.toks = _tokenize(text)
        self.pos = 0
        self.nodes = None if nodes is None else set(nodes)

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str) -> _Tok:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def error(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    # formula := disj
    def parse_formula(self, bound):
        f = self.parse_conj(bound)
        while self.peek().text == "|":
            self.next()
            f = FOr(f, self.parse_conj(bound))
        return f

    def parse_conj(self, bound):
        f = self.parse_neg(bound)
        while self.peek().text == "&":
            self.next()
            f = FAnd(f, self.parse_neg(bound))
        return f

    def parse_neg(self, bound):
        t = self.peek()
        if t.text == "~":
            self.next()
            return FNot(self.parse_neg(bound))
        if t.text == "exists":
            return self.parse_binder(bound)
        if t.text == "(":
            # could be a parenthesized formula or a parenthesized term
            save = self.pos
            try:
                self.next()
                f = self.parse_formula(bound)
                self.expect(")")
                if self.peek().text in ("=", "in", "+", "-", "*", "/", "^"):
                    raise ParseError("term context", t.line, t.col)
                return f
            except ParseError:
                self.pos = save
                return self.parse_atom(bound)
        return self.parse_atom(bound)

    def parse_binder(self, bound):
        self.expect("exists")
        var_tok = self.next()
        if var_tok.kind != "ident":
            raise ParseError("expected a variable name", var_tok.line, var_tok.col)
        self.expect("root")
        coeffs = self.parse_polylit()
        self.expect(":")
        body = self.parse_neg(bound | {var_tok.text})
        return FExistsRoot(var_tok.text, tuple(coeffs), body)

    def parse_polylit(self):
        self.expect("[")
        coeffs = [self.parse_rational()]
        while self.peek().text == ",":
            self.next()
            coeffs.append(self.parse_rational())
        self.expect("]")
        if coeffs[-1] != 1:
            self.error("binder polynomial must be monic")
        if len(coeffs) < 2:
            self.error("binder polynomial must be nonconstant")
        return coeffs

    def parse_rational(self) -> Fraction:
        neg = False
        if self.peek().text == "-":
            self.next()
            neg = True
        t = self.next()
        if t.kind != "num":
            raise ParseError("expected a number", t.line, t.col)
        num = int(t.text)
        den = 1
        if self.peek().text == "/":
            self.next()
            d = self.next()
            if d.kind != "num":
                raise ParseError("expected a denominator", d.line, d.col)
            den = int(d.text)
        q = Fraction(num, den)
        return -q if neg else q

    def parse_atom(self, bound):
        term = self.parse_term(bound)
        t = self.next()
        if t.text == "=":
            z = self.next()
            if z.text != "0":
                raise ParseError("atoms compare against 0 only", z.line, z.col)
            return FEqZero(term)
        if t.text == "in":
            sort = self.next()
            if sort.text not in ("O", "m"):
                raise ParseError(
                    "membership sort must be O or m", sort.line, sort.col
                )
            self.expect("[")
            node = self.next()
            if node.kind != "ident":
                raise ParseError("expected a node name", node.line, node.col)
            if self.nodes is not None and node.text not in self.nodes:
                raise ParseError(f"unknown node {node.text!r}", node.line, node.col)
            self.expect("]")
            return FIn(term, sort.text, node.text)
        raise ParseError(f"expected '=' or 'in', found {t.text!r}", t.line, t.col)

    # term := sum
    def parse_term(self, bound):
        return self.parse_sum(bound)

    def parse_sum(self, bound):
        t = self.parse_product(bound)
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self.parse_product(bound)
            t = TAdd(t, rhs) if op == "+" else TSub(t, rhs)
        return t

    def parse_product(self, bound):
        t = self.parse_unary(bound)
        while self.peek().text in ("*", "/"):
            op = self.next().text
            rhs = self.parse_unary(bound)
            t = TMul(t, rhs) if op == "*" else TDiv(t, rhs)
        return t

    def parse_unary(self, bound):
        if self.peek().text == "-":
            self.next()
            return TNeg(self.parse_unary(bound))
        return self.parse_power(bound)

    def parse_power(self, bound):
        base = self.parse_primary(bound)
        if self.peek().text == "^":
            self.next()
            e = self.next()
            if e.kind != "num":
                raise ParseError("exponent must be a nonnegative integer", e.line, e.col)
            return TPow(base, int(e.text))
        return base

    def parse_primary(self, bound):
        t = self.next()
        if t.kind == "num":
            return TNum(int(t.text))
        if t.kind == "param":
            return TParam(t.text[1:])
        if t.kind == "ident":
            if t.text not in bound:
                raise ParseError(f"unbound variable {t.text!r}", t.line, t.col)
            return TVar(t.text)
        if t.text == "(":
            inner = self.parse_sum(bound)
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {t.text!r}", t.line, t.col)


def parse(text: str, nodes=None, free_vars=frozenset()):
    """Parse a formula; raises ParseError with position on bad input.

    If ``nodes`` is given, membership atoms must reference only those
    node names.  ``free_vars`` declares names that may occur free (used
    for the one-variable conditions of root-bounded sentences).
    """
    p = _Parser(text, nodes)
    f = p.parse_formula(frozenset(free_vars))
    tail = p.peek()
    if tail.kind != "eof":
        raise ParseError(f"trailing input {tail.text!r}", tail.line, tail.col)
    return f


# -- printer -----------------------------------------------------------------------


def _print_term(t, prec=0) -> str:
    # precedence levels: 0 sum, 1 product, 2 unary, 3 power, 4 primary
    if isinstance(t, TNum):
        return str(t.value) if t.value >= 0 else f"({t.value})"
    if isinstance(t, TVar):
        return t.name
    if isinstance(t, TParam):
        return f"${t.name}"
    if isinstance(t, TAdd):
        s = f"{_print_term(t.left, 0)} + {_print_term(t.right, 1)}"
        return f"({s})" if prec > 0 else s
    if isinstance(t, TSub):
        s = f"{_print_term(t.left, 0)} - {_print_term(t.right, 1)}"
        return f"({s})" if prec > 0 else s
    if isinstance(t, TMul):
        s = f"{_print_term(t.left, 1)} * {_print_term(t.right, 2)}"
        return f"({s})" if prec > 1 else s
    if isinstance(t, TDiv):
        s = f"{_print_term(t.left, 1)} / {_print_term(t.right, 2)}"
        return f"({s})" if prec > 1 else s
    if isinstance(t, TNeg):
        s = f"-{_print_term(t.arg, 2)}"
        return f"({s})" if prec > 2 else s
    if isinstance(t, TPow):
        s = f"{_print_term(t.base, 4)}^{t.exponent}"
        return f"({s})" if prec > 3 else s
    raise TypeError(f"not a term: {t!r}")


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def print_formula(f) -> str:
    if isinstance(f, FEqZero):
        return f"{_print_term(f.term)} = 0"
    if isinstance(f, FIn):
        return f"{_print_term(f.term)} in {f.sort}[{f.node}]"
    if isinstance(f, FNot):
        return f"~({print_formula(f.arg)})"
    if isinstance(f, FAnd):
        return f"({print_formula(f.left)}) & ({print_formula(f.right)})"
    if isinstance(f, FOr):
        return f"({print_formula(f.left)}) | ({print_formula(f.right)})"
    if isinstance(f, FExistsRoot):
        coeffs = ", ".join(_frac_str(Fraction(c)) for c in f.poly)
        return f"exists {f.var} root [{coeffs}] : ({print_formula(f.body)})"
    raise TypeError(f"not a formula: {f!r}")


# -- structural queries --------------------------------------------------------------


def binder_polynomials(f) -> list[Poly]:
    """All binder polynomials, outermost first."""
    if isinstance(f, (FEqZero, FIn)):
        return []
    if isinstance(f, FNot):
        return binder_polynomials(f.arg)
    if isinstance(f, (FAnd, FOr)):
        return binder_polynomials(f.left) + binder_polynomials(f.right)
    if isinstance(f, FExistsRoot):
        return [f.poly_qq()] + binder_polynomials(f.body)
    raise TypeError(f"not a formula: {f!r}")


def mentioned_nodes(f) -> set[str]:
    if isinstance(f, FEqZero):
        return set()
    if isinstance(f, FIn):
        return {f.node}
    if isinstance(f, FNot):
        return mentioned_nodes(f.arg)
    if isinstance(f, (FAnd, FOr)):
        return mentioned_nodes(f.left) | mentioned_nodes(f.right)
    if isinstance(f, FExistsRoot):
        return mentioned_nodes(f.body)
    raise TypeError(f"not a formula: {f!r}")


def parameters(f) -> set[str]:
    def of_term(t):
        if isinstance(t, TParam):
            return {t.name}
        if isinstance(t, (TNum, TVar)):
            return set()
        if isinstance(t, (TAdd, TSub, TMul, TDiv)):
            return of_term(t.left) | of_term(t.right)
        if isinstance(t, TNeg):
            return of_term(t.arg)
        if isinstance(t, TPow):
            return of_term(t.base)
        raise TypeError(f"not a term: {t!r}")

    if isinstance(f, FEqZero):
        return of_term(f.term)
    if isinstance(f, FIn):
        return of_term(f.term)
    if isinstance(f, FNot):
        return parameters(f.arg)
    if isinstance(f, (FAnd, FOr)):
        return parameters(f.left) | parameters(f.right)
    if isinstance(f, FExistsRoot):
        return parameters(f.body)
    raise TypeError(f"not a formula: {f!r}")


# -- evaluation -----------------------------------------------------------------------


class BinderSplitError(PreconditionError):
    """A binder polynomial does not split in the evaluation field."""


def field_roots(field, qpoly: Poly):
    """Roots of a monic QQ-polynomial in the structure field.

    For a rational function field the roots are searched among the
    constants (binder coefficients are constants); raises
    BinderSplitError unless every irreducible factor is linear.
    """
    if isinstance(field, RatFuncField):
        consts = field.coeff_field
        factors = _factor_in(consts, qpoly)
        if any(g.degree > 1 for g, _ in factors):
            raise BinderSplitError(
                "binder polynomial does not split in the constant field"
            )
        return [field.coerce(-g.coeffs[0]) for g, _ in factors if g.degree == 1]
    factors = _factor_in(field, qpoly)
    if any(g.degree > 1 for g, _ in factors):
        raise BinderSplitError("binder polynomial does not split in the field")
    return [-g.coeffs[0] for g, _ in factors if g.degree == 1]


def _factor_in(nf: NumberField, qpoly: Poly):
    from treeval.numfield import factor_over_field

    return factor_over_field(nf, qpoly.map_coeffs(nf, nf.coerce))


class BinderRoots:
    """The roots of each binder polynomial in one structure field.

    A binder is split with `field_roots` at its first use and at most
    once per table, so formulas evaluated over many structures on the
    same field can share one table.  ``known`` maps binder coefficient
    tuples (constant first) to roots already computed elsewhere, in the
    order `field_roots` returns them; they are coerced into the field.
    """

    __slots__ = ("field", "_roots")

    def __init__(self, field, known=None):
        self.field = field
        self._roots = {
            key: tuple(field.coerce(r) for r in roots)
            for key, roots in (known or {}).items()
        }

    def of(self, binder: FExistsRoot) -> tuple:
        roots = self._roots.get(binder.poly)
        if roots is None:
            roots = tuple(field_roots(self.field, binder.poly_qq()))
            self._roots[binder.poly] = roots
        return roots


def evaluate(f, structure, bindings=None, env=None, roots=None) -> bool:
    """Truth value of a formula over a structure.

    ``bindings`` maps parameter names to elements of the structure
    field; ``env`` pre-binds free variables (for one-variable condition
    formulas).  ``roots`` is a `BinderRoots` table on the structure
    field to share across calls; without one, each binder is split once
    per call.  Every binder polynomial must split in the field;
    division by zero inside a term makes the enclosing atom false.
    """
    bindings = bindings or {}
    field = structure.field
    if roots is None:
        roots = BinderRoots(field)
    elif roots.field is not field and roots.field != field:
        raise PreconditionError("binder root table is on a different field")

    def term_value(t, env):
        if isinstance(t, TNum):
            return field.coerce(t.value)
        if isinstance(t, TVar):
            return env[t.name]
        if isinstance(t, TParam):
            if t.name not in bindings:
                raise PreconditionError(f"unbound parameter ${t.name}")
            return field.coerce(bindings[t.name])
        if isinstance(t, TAdd):
            return term_value(t.left, env) + term_value(t.right, env)
        if isinstance(t, TSub):
            return term_value(t.left, env) - term_value(t.right, env)
        if isinstance(t, TMul):
            return term_value(t.left, env) * term_value(t.right, env)
        if isinstance(t, TDiv):
            denom = term_value(t.right, env)
            if denom.is_zero():
                raise ZeroDivisionError
            return term_value(t.left, env) / denom
        if isinstance(t, TNeg):
            return -term_value(t.arg, env)
        if isinstance(t, TPow):
            base = term_value(t.base, env)
            if t.exponent == 0:
                return field.coerce(1)
            return base**t.exponent
        raise TypeError(f"not a term: {t!r}")

    def go(f, env) -> bool:
        if isinstance(f, FEqZero):
            try:
                return term_value(f.term, env).is_zero()
            except ZeroDivisionError:
                return False
        if isinstance(f, FIn):
            if f.node not in structure.assignment:
                raise PreconditionError(f"formula mentions unknown node {f.node!r}")
            try:
                val = term_value(f.term, env)
            except ZeroDivisionError:
                return False
            membership = structure.assignment[f.node].membership(val)
            if f.sort == "O":
                return membership in (Membership.UNIT, Membership.IN_MAXIMAL_IDEAL)
            return membership == Membership.IN_MAXIMAL_IDEAL
        if isinstance(f, FNot):
            return not go(f.arg, env)
        if isinstance(f, FAnd):
            return go(f.left, env) and go(f.right, env)
        if isinstance(f, FOr):
            return go(f.left, env) or go(f.right, env)
        if isinstance(f, FExistsRoot):
            for root in roots.of(f):
                env2 = dict(env)
                env2[f.var] = root
                if go(f.body, env2):
                    return True
            return False
        raise TypeError(f"not a formula: {f!r}")

    return go(f, dict(env) if env else {})
