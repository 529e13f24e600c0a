"""Text formats for fields, handles, structures, sentences, choice systems.

All formats are line-oriented and exact; rationals are written num/den,
finite-field elements as dot-joined digit vectors (constant first).
"""

from __future__ import annotations

from fractions import Fraction

from treeval.decide import PsiSentence
from treeval.errors import ParseError, PreconditionError
from treeval.formulas import parse as parse_formula
from treeval.funcfield import ComposedHandle, GaussHandle, Place, trivial_gauss
from treeval.gf import GF, FFElem, Poly as GFPoly
from treeval.numfield import NumberField, QQ_FIELD
from treeval.padic import (
    PIN_PRECISION,
    ValuationHandle,
    padic_handles,
    trivial_handle,
)
from treeval.polys import QQ, Poly
from treeval.qfactor import is_irreducible_over_Q
from treeval.ratfunc import RatFuncField
from treeval.structures import TP0Structure
from treeval.trees import CharFunction, ChoiceSystem, FiniteTree, Poset

# -- rationals and fields -------------------------------------------------------------


def frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_frac(tok: str) -> Fraction:
    try:
        if "/" in tok:
            num, den = tok.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(tok))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {tok!r}") from exc


def field_line(field: NumberField) -> str:
    coeffs = " ".join(frac_str(c) for c in field.minpoly.coeffs)
    return f"field {field.label} minpoly {coeffs}"


def parse_field_line(line: str) -> NumberField:
    toks = line.split()
    if len(toks) < 4 or toks[0] != "field" or toks[2] != "minpoly":
        raise ParseError(f"bad field line {line!r}")
    label = toks[1]
    coeffs = [parse_frac(t) for t in toks[3:]]
    minpoly = Poly(QQ, coeffs)
    if not minpoly.is_monic():
        raise ParseError("field minpoly must be monic")
    if minpoly.degree > 1 and not is_irreducible_over_Q(minpoly):
        raise ParseError("field minpoly is not irreducible")
    if minpoly.degree == 1 and minpoly == Poly.x(QQ):
        return NumberField(minpoly, label=label, check=False)
    return NumberField(minpoly, label=label, check=False)


def load_field(path: str) -> NumberField:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                return parse_field_line(line)
    raise ParseError(f"no field line in {path}")


# -- field elements and finite field tokens ---------------------------------------------


def elem_str(x) -> str:
    """Serialize a number-field element as dot-joined rational coefficients."""
    coeffs = [x.rep[i] for i in range(max(1, x.rep.degree + 1))]
    return ".".join(frac_str(c) for c in coeffs)


def parse_elem(tok: str, field: NumberField):
    return field.elem([parse_frac(t) for t in tok.split(".")])


def ff_elem_str(c: FFElem) -> str:
    return ".".join(str(d) for d in c.vec)


def parse_ff_elem(tok: str, gf) -> FFElem:
    return gf.elem([int(d) for d in tok.split(".")])


# -- handles -------------------------------------------------------------------------


def handle_str(h, pin_precision: int = PIN_PRECISION) -> str:
    if isinstance(h, ValuationHandle):
        if h.is_trivial():
            return "trivial"
        pin, k = h.pin(pin_precision)
        fp = h.fingerprint()
        fp_str = ff_elem_str(fp) if fp is not None else "-"
        return f"padic p={h.prime} e={h.e} f={h.f} pin={pin:x} k={k} fp={fp_str}"
    if isinstance(h, GaussHandle):
        return f"gauss base={handle_str(h.base, pin_precision)}"
    if isinstance(h, ComposedHandle):
        place = h.place
        if place.kind == "inf":
            ptxt = "inf"
        else:
            k = place.poly.field
            if isinstance(k, NumberField):
                ptxt = ",".join(elem_str(c) for c in place.poly.coeffs)
            else:
                ptxt = ",".join(ff_elem_str(c) for c in place.poly.coeffs)
        return f"composed coarse={handle_str(h.coarse, pin_precision)} place={ptxt}"
    raise ParseError(f"cannot serialize handle {h!r}")


def parse_handle(text: str, field):
    """Reconstruct a handle on the given field (NumberField or RatFuncField)."""
    text = text.strip()
    if isinstance(field, RatFuncField):
        if text.startswith("gauss base="):
            base = parse_handle(text[len("gauss base=") :], field.coeff_field)
            if base.is_trivial():
                return trivial_gauss(field)
            return GaussHandle(base, field)
        if text.startswith("composed coarse="):
            body = text[len("composed coarse=") :]
            idx = body.rfind(" place=")
            if idx < 0:
                raise ParseError("composed handle needs a place")
            coarse = parse_handle(body[:idx], field)
            ptxt = body[idx + len(" place=") :].strip()
            if not isinstance(coarse, GaussHandle):
                raise ParseError("composed handle needs a gauss coarse handle")
            return ComposedHandle(coarse, _parse_place(ptxt, coarse))
        if text == "trivial":
            return trivial_gauss(field)
        raise ParseError(f"bad function-field handle {text!r}")
    if text == "trivial":
        return trivial_handle(field)
    if text.startswith("padic"):
        kv = {}
        for tok in text.split()[1:]:
            if "=" not in tok:
                raise ParseError(f"bad handle token {tok!r}")
            key, val = tok.split("=", 1)
            kv[key] = val
        p = int(kv["p"])
        e, f = int(kv["e"]), int(kv["f"])
        pin = int(kv["pin"], 16)
        k = int(kv["k"])
        cands = [
            h for h in padic_handles(field, p) if h.e == e and h.f == f
        ]
        if kv.get("fp", "-") != "-":
            fp_vec = tuple(int(d) for d in kv["fp"].split("."))
            cands = [
                h
                for h in cands
                if h.fingerprint() is not None and h.fingerprint().vec == fp_vec
            ]
        if not cands:
            raise ParseError("no matching extension for the serialized handle")
        if len(cands) == 1:
            return cands[0]
        # tie-break on pin agreement depth
        def agreement(h):
            hp, hk = h.pin(k)
            kk = min(k, hk)
            depth = 0
            mod = 1
            while depth < kk and (hp - pin) % (mod * p) == 0:
                mod *= p
                depth += 1
            return depth

        best = max(cands, key=lambda h: (agreement(h), -h.index))
        return best
    raise ParseError(f"bad handle {text!r}")


def _parse_place(ptxt: str, coarse: GaussHandle) -> Place:
    if ptxt == "inf":
        return Place.infinite()
    consts = coarse.residue_constants()
    toks = ptxt.split(",")
    try:
        if isinstance(consts, NumberField):
            coeffs = [parse_elem(t, consts) for t in toks]
            return Place.finite(Poly(consts, coeffs))
        coeffs = [parse_ff_elem(t, consts) for t in toks]
        return Place.finite(GFPoly(consts, coeffs))
    except ValueError as exc:
        raise ParseError(f"bad place {ptxt!r}: {exc}") from exc


# -- structures ------------------------------------------------------------------------


def structure_text(S: TP0Structure, pin_precision: int = PIN_PRECISION) -> str:
    lines = ["tree"]
    if S.tree.parent:
        lines += [f"{c}<{p}" for c, p in sorted(S.tree.parent.items())]
    else:
        lines.append(S.tree.bottom)
    lines.append("endtree")
    if S.is_function_field():
        lines.append(
            f"funcfield {S.field.variable} {field_line(S.field.coeff_field)}"
        )
    else:
        lines.append(field_line(S.field))
    for n in S.tree.nodes_sorted():
        lines.append(f"node {n} = {handle_str(S.assignment[n], pin_precision)}")
    return "\n".join(lines) + "\n"


def parse_structure(text: str) -> TP0Structure:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != "tree":
        raise ParseError("structure file must start with a tree block")
    try:
        end = lines.index("endtree")
    except ValueError:
        raise ParseError("unterminated tree block") from None
    tree = FiniteTree.from_text("\n".join(lines[1:end]))
    rest = lines[end + 1 :]
    if not rest:
        raise ParseError("missing field line")
    field_ln = rest[0]
    if field_ln.startswith("funcfield "):
        toks = field_ln.split(None, 2)
        if len(toks) < 3:
            raise ParseError(f"bad funcfield line {field_ln!r}")
        constants = parse_field_line(toks[2])
        field = RatFuncField(constants, toks[1])
    else:
        field = parse_field_line(field_ln)
    assignment = {}
    for ln in rest[1:]:
        if not ln.startswith("node "):
            raise ParseError(f"bad structure line {ln!r}")
        body = ln[len("node ") :]
        if "=" not in body:
            raise ParseError(f"bad node line {ln!r}")
        name, handle_txt = body.split("=", 1)
        assignment[name.strip()] = parse_handle(handle_txt.strip(), field)
    return TP0Structure(tree, field, assignment)


def load_structure(path: str) -> TP0Structure:
    with open(path, encoding="utf-8") as fh:
        return parse_structure(fh.read())


# -- sentences -------------------------------------------------------------------------


def parse_sentence(text: str):
    """Returns (PsiSentence, FiniteTree, CharFunction) for a flat tree."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("Q:"):
        raise ParseError("sentence file must start with 'Q: [c0,...,1]'")
    body = lines[0][2:].strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ParseError("bad polynomial literal")
    coeffs = [parse_frac(t.strip()) for t in body[1:-1].split(",")]
    Q = Poly(QQ, coeffs)
    conditions = {}
    chars = {}
    bottom_char = 0
    for ln in lines[1:]:
        if ln.startswith("bottom char "):
            bottom_char = int(ln[len("bottom char ") :])
            continue
        if not ln.startswith("node "):
            raise ParseError(f"bad sentence line {ln!r}")
        head, _, formula_txt = ln.partition(":")
        toks = head.split()
        if len(toks) != 4 or toks[2] != "char":
            raise ParseError(f"bad sentence line {ln!r}")
        node = toks[1]
        chars[node] = int(toks[3])
        conditions[node] = parse_formula(
            formula_txt.strip(), nodes={node}, free_vars={"x"}
        )
    tree = FiniteTree.flat("_", sorted(conditions))
    if bottom_char:
        chars = {n: bottom_char for n in chars}
    chi = CharFunction(tree, {"_": bottom_char, **chars})
    return PsiSentence(Q, conditions), tree, chi


def load_sentence(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_sentence(fh.read())


# -- choice systems ----------------------------------------------------------------------


def parse_choice_system(text: str) -> ChoiceSystem:
    """Line format::

        elements x y z
        order x<y
        set x: a b
        rel y>x: c>a d>b
    """
    elements = []
    order_pairs = []
    sets = {}
    rels = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if ln.startswith("elements "):
            elements += ln.split()[1:]
        elif ln.startswith("order "):
            body = ln[len("order ") :].strip()
            if "<" not in body:
                raise ParseError(f"bad order line {ln!r}")
            a, b = (t.strip() for t in body.split("<", 1))
            order_pairs.append((a, b))
        elif ln.startswith("set "):
            head, _, members = ln[len("set ") :].partition(":")
            sets[head.strip()] = members.split()
        elif ln.startswith("rel "):
            head, _, pairs = ln[len("rel ") :].partition(":")
            if ">" not in head:
                raise ParseError(f"bad rel line {ln!r}")
            x, y = (t.strip() for t in head.split(">", 1))
            rel = set()
            for tok in pairs.split():
                if ">" not in tok:
                    raise ParseError(f"bad rel pair {tok!r}")
                a, b = tok.split(">", 1)
                rel.add((a, b))
            rels[(x, y)] = rel
        else:
            raise ParseError(f"bad choice-system line {ln!r}")
    poset = Poset(elements, order_pairs)
    return ChoiceSystem(poset, sets, rels)


def load_choice_system(path: str) -> ChoiceSystem:
    with open(path, encoding="utf-8") as fh:
        return parse_choice_system(fh.read())


def load_formula(path: str, nodes=None):
    with open(path, encoding="utf-8") as fh:
        return parse_formula(fh.read().strip(), nodes=nodes)
