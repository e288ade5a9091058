"""Parser for the quadric equations of the degree-12 model in P^7.

The data file `data/quadrics_p7.txt` lists ten quadratic polynomials in
x1..x8 whose coefficients live in Z[a] (a a primitive 20th root of unity),
one term per line, records separated by `---` lines.  The parser checks
well-formedness only: term grammar, balanced coefficient polynomials,
variables restricted to x1..x8 and a, every monomial of degree exactly 2.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_MONO_RE = re.compile(r"^(x[1-8])\*(x[1-8])$|^(x[1-8])\^2$")
_INT_COEFF_RE = re.compile(r"^-?\d+$")
_POLY_TERM_RE = re.compile(r"^[+-]?\s*(?:\d+\s*\*\s*)?a(?:\^\d+)?$|^[+-]?\s*\d+$")


@dataclass(frozen=True)
class QuadricTerm:
    """One monomial term: (numerator / denominator) * variables."""

    numerator: str  # integer or polynomial in a, as written
    denominator: int
    variables: tuple[str, str]


@dataclass(frozen=True)
class QuadricPolynomial:
    terms: tuple[QuadricTerm, ...]

    @property
    def monomials(self) -> tuple[tuple[str, str], ...]:
        return tuple(t.variables for t in self.terms)


def _parse_monomial(text: str) -> tuple[str, str]:
    m = _MONO_RE.match(text.replace(" ", ""))
    if not m:
        raise ValueError(f"bad monomial (need degree 2 in x1..x8): {text!r}")
    if m.group(3):
        return (m.group(3), m.group(3))
    return (m.group(1), m.group(2))


def _check_coeff_poly(poly: str) -> None:
    if not poly.strip():
        raise ValueError("empty coefficient polynomial")
    # split into signed monomials in a and validate each
    pieces = re.findall(r"[+-]?[^+-]+", poly.replace(" ", ""))
    for piece in pieces:
        if not _POLY_TERM_RE.match(piece):
            raise ValueError(f"bad coefficient term: {piece!r}")


def _parse_term(line: str) -> QuadricTerm:
    if line.count("(") != line.count(")"):
        raise ValueError(f"unbalanced parentheses: {line!r}")
    head, sep, mono = line.rpartition("*")
    if not sep:
        raise ValueError(f"term needs a coefficient and a monomial: {line!r}")
    head = head.strip()
    mono = mono.strip()
    # x5^2 style monomials keep their variable in `mono`; x1*x7 style puts
    # the second variable there and the first at the tail of `head`
    tail = head.rsplit("*", 1)
    if re.fullmatch(r"x[1-8]", tail[-1].strip()) and len(tail) == 2:
        head, mono = tail[0].strip(), f"{tail[1].strip()}*{mono}"
    variables = _parse_monomial(mono)
    denominator = 1
    coeff = head
    frac = re.fullmatch(r"\((?P<poly>[^()]*)\)\s*/\s*(?P<den>\d+)", coeff)
    paren = re.fullmatch(r"\((?P<poly>[^()]*)\)", coeff)
    if frac:
        denominator = int(frac.group("den"))
        if denominator <= 0:
            raise ValueError(f"bad denominator in {line!r}")
        numerator = frac.group("poly").strip()
        _check_coeff_poly(numerator)
    elif paren:
        numerator = paren.group("poly").strip()
        _check_coeff_poly(numerator)
    elif _INT_COEFF_RE.fullmatch(coeff):
        numerator = coeff
    else:
        raise ValueError(f"bad coefficient: {coeff!r}")
    return QuadricTerm(numerator=numerator, denominator=denominator, variables=variables)


def parse_quadrics(text: str) -> tuple[QuadricPolynomial, ...]:
    records: list[QuadricPolynomial] = []
    terms: list[QuadricTerm] = []
    saw_content = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "---":
            if not terms:
                raise ValueError("empty record before separator")
            records.append(QuadricPolynomial(terms=tuple(terms)))
            terms = []
            continue
        saw_content = True
        terms.append(_parse_term(line))
    if terms:
        records.append(QuadricPolynomial(terms=tuple(terms)))
    if not saw_content or not records:
        raise ValueError("no quadric records found")
    return tuple(records)

