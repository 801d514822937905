"""Words and elements of a free associative algebra on weighted generators.

A word is a tuple of generator indices; the empty tuple is the unit.  The
monomial order everywhere is deglex: compare total (weighted) degree first,
then the index sequences left to right in listing order.  Elements are sparse
dicts word -> scalar over a FieldSpec from `exactla`.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .exactla import FieldSpec, Scalar

Word = tuple  # tuple[int, ...]
EMPTY_WORD: Word = ()


class GeneratorInfo(NamedTuple):
    name: str
    degree: int


def word_degree(word: Word, degrees: tuple) -> int:
    return sum(degrees[g] for g in word)


def deglex_key(word: Word, degrees: tuple):
    """Sort key realizing deglex: ascending degree, then ascending lex."""
    return (word_degree(word, degrees), word)


class FreeElement:
    """Sparse free-algebra element: dict word -> nonzero scalar."""

    __slots__ = ("field", "degrees", "terms")

    def __init__(self, field: FieldSpec, degrees: tuple, terms: dict | None = None):
        self.field = field
        self.degrees = degrees
        self.terms: dict = {}
        if terms:
            for w, c in terms.items():
                if not field.is_zero(c):
                    self.terms[w] = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: FieldSpec, degrees: tuple) -> "FreeElement":
        return cls(field, degrees)

    @classmethod
    def monomial(cls, field: FieldSpec, degrees: tuple, word: Word,
                 coeff: Scalar | None = None) -> "FreeElement":
        c = field.one() if coeff is None else coeff
        return cls(field, degrees, {word: c})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def lead_word(self) -> Word:
        """Deglex-maximal word.  Raises on zero."""
        if not self.terms:
            raise ValueError("zero element has no lead word")
        return max(self.terms, key=lambda w: deglex_key(w, self.degrees))

    def degree(self) -> int:
        """Degree of a homogeneous element (checked)."""
        degs = {word_degree(w, self.degrees) for w in self.terms}
        if len(degs) != 1:
            raise ValueError(f"element not homogeneous, degrees {sorted(degs)}")
        return degs.pop()

    def is_homogeneous(self) -> bool:
        return len({word_degree(w, self.degrees) for w in self.terms}) <= 1

    def homogeneous_parts(self) -> dict:
        """Map degree -> homogeneous FreeElement (zero element: empty map)."""
        parts: dict[int, dict] = {}
        for w, c in self.terms.items():
            parts.setdefault(word_degree(w, self.degrees), {})[w] = c
        return {d: FreeElement(self.field, self.degrees, t)
                for d, t in sorted(parts.items())}

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "FreeElement") -> None:
        if self.field != other.field or self.degrees != other.degrees:
            raise ValueError("mixed free algebras")

    def __add__(self, other: "FreeElement") -> "FreeElement":
        self._check(other)
        out = dict(self.terms)
        f = self.field
        for w, c in other.terms.items():
            s = f.add(out.get(w, f.zero()), c)
            if f.is_zero(s):
                out.pop(w, None)
            else:
                out[w] = s
        return FreeElement(f, self.degrees, out)

    def __sub__(self, other: "FreeElement") -> "FreeElement":
        return self + other.scaled(self.field.neg(self.field.one()))

    def __neg__(self) -> "FreeElement":
        return self.scaled(self.field.neg(self.field.one()))

    def scaled(self, coeff: Scalar) -> "FreeElement":
        f = self.field
        if f.is_zero(coeff):
            return FreeElement(f, self.degrees)
        return FreeElement(f, self.degrees,
                           {w: f.mul(coeff, c) for w, c in self.terms.items()})

    def __mul__(self, other: "FreeElement") -> "FreeElement":
        self._check(other)
        f = self.field
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                s = f.add(out.get(w, f.zero()), f.mul(c1, c2))
                if f.is_zero(s):
                    out.pop(w, None)
                else:
                    out[w] = s
        return FreeElement(f, self.degrees, out)

    # -- misc ----------------------------------------------------------------

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda t: deglex_key(t[0], self.degrees))

    def __eq__(self, other) -> bool:
        return (isinstance(other, FreeElement) and self.field == other.field
                and self.degrees == other.degrees and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, self.degrees, tuple(sorted(self.terms.items()))))

    def format(self, names: Iterable[str]) -> str:
        names = list(names)
        if not self.terms:
            return "0"
        bits = []
        for w, c in reversed(self.sorted_terms()):
            word = "*".join(names[g] for g in w) if w else "1"
            bits.append(f"({c})*{word}" if w else f"({c})")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"FreeElement({len(self.terms)} terms)"
