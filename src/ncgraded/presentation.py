"""Finitely presented connected graded algebras: input side.

A `Presentation` is a field, an ordered tuple of weighted generators, and a
tuple of homogeneous defining relations in the free algebra on those
generators.  The listing order of the generators matters: it induces the
deglex monomial order used by the rewriting engine.  `FilteredPresentation`
drops the homogeneity requirement and exists to be homogenized.

The module also houses the small text format for presentations, with the
one expression parser that reads both its relations and the rational series
claims of `hilbert` under one set of input bounds, the standard
constructions (opposite algebra, enveloping algebra, skew polynomial rings,
graded Ore extensions, central homogenization), a corpus of built-in
presentations, and an independent multiplication oracle for the built-in
group-algebra subalgebra both as a cross-check and as the source of its
defining relations.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .exactla import F32003, FieldSpec, field_from_name
from .freealg import EMPTY_WORD, FreeElement, GeneratorInfo, Word, deglex_key, word_degree

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


class PresentationError(ValueError):
    """Input error with a source position when one is known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line, self.col = line, col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


def _validate_generators(generators) -> tuple:
    gens = tuple(GeneratorInfo(str(n), int(d)) for n, d in generators)
    seen = set()
    for g in gens:
        if not _NAME_RE.match(g.name):
            raise PresentationError(f"generator name {g.name!r} is not an identifier")
        if g.name in seen:
            raise PresentationError(f"duplicate generator {g.name!r}")
        if g.degree < 1:
            raise PresentationError(f"generator {g.name!r} has degree {g.degree} < 1")
        seen.add(g.name)
    return gens


@dataclass(frozen=True)
class Presentation:
    field: FieldSpec
    generators: tuple
    relations: tuple
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "generators", _validate_generators(self.generators))
        object.__setattr__(self, "relations", tuple(self.relations))
        degs = self.degree_vector()
        for r in self.relations:
            if r.is_zero():
                raise PresentationError("zero relation")
            if r.degrees != degs:
                raise PresentationError("relation built over wrong generator weights")
            if not r.is_homogeneous():
                raise PresentationError("inhomogeneous relation in graded presentation")
            if r.degree() < 2:
                raise PresentationError(
                    "relation of degree < 2 would make a listed generator redundant")

    def degree_vector(self) -> tuple:
        return tuple(g.degree for g in self.generators)

    def names(self) -> tuple:
        return tuple(g.name for g in self.generators)

    def ngens(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class FilteredPresentation:
    """Same data as Presentation but relations may be inhomogeneous."""

    field: FieldSpec
    generators: tuple
    relations: tuple
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "generators", _validate_generators(self.generators))
        object.__setattr__(self, "relations", tuple(self.relations))
        degs = self.degree_vector()
        for r in self.relations:
            if r.is_zero():
                raise PresentationError("zero relation")
            if r.degrees != degs:
                raise PresentationError("relation built over wrong generator weights")

    degree_vector = Presentation.degree_vector
    names = Presentation.names
    ngens = Presentation.ngens


# ---------------------------------------------------------------------------
# text format
#
#   algebra qplane over Q          (or: filtered algebra weyl over F32003)
#   deg x = 1, y = 1
#   rel y*x - 2*x*y                (# comment to end of line)
#
# A relation, like a rational series claim (`hilbert`), is an expression
#
#   sum    := [+-] term {(+|-) term}
#   term   := factor {(*|/) factor}
#   factor := (int | name | '(' sum ')') ['^' int]
#
# read by one parser, `_Expr`, which evaluates it as it goes in the ring it
# is given: `_Relations` here, `hilbert._Rat` for a claim.

_TOKEN_RE = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<int>\d+)"
                       r"|(?P<sym>[=+*^/(),-]))")


# Bounds that keep the parse cheap in the length of the text, in both
# languages.  An integer literal has at most _MAX_DIGITS digits (int()
# converts 640 under any setting of the interpreter's limit) and an
# exponent is at most _MAX_DEGREE.  In a relation a product or a power may
# reach degree _MAX_DEGREE and may have at most _MAX_TERMS terms before
# cancellation; in a claim a numerator or denominator may reach degree
# _MAX_DEGREE.
_MAX_DIGITS = 600
_MAX_DEGREE = 256
_MAX_TERMS = 1 << 16


def _tokenize(text: str, lineno: int, error=PresentationError) -> list:
    toks, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise error(f"unexpected character {stripped[0]!r}", lineno, pos + 1)
        kind = m.lastgroup
        toks.append((kind, m.group(kind), lineno, m.start(kind) + 1))
        pos = m.end()
    return toks


def _literal(tok, error=PresentationError) -> int:
    """The value of an integer token of at most _MAX_DIGITS digits."""
    if len(tok[1]) > _MAX_DIGITS:
        raise error(f"integer literal longer than {_MAX_DIGITS} digits",
                    tok[2], tok[3])
    return int(tok[1])


class _Expr:
    """Recursive descent over the expression grammar, evaluating in `ring`.

    The ring supplies `error`, the exception raised with a message, line
    and column; `what`, the input named in "unexpected end of ...";
    `literal_denominator`, whether only an integer literal may follow '/';
    `number(n)` and `name(tok)`, the values of a literal and a name; and
    `mul(a, b, tok)`, `div(a, b, tok)` and `power(a, n, tok)`, each given
    the token to blame when a bound is crossed.  Sums, differences and
    negation are the values' own + and -."""

    def __init__(self, toks: list, ring):
        self.toks, self.i, self.ring, self.error = toks, 0, ring, ring.error

    def _peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _take(self, sym=None):
        t = self._peek()
        if t is None:
            last = self.toks[-1]
            raise self.error(f"unexpected end of {self.ring.what}", last[2], last[3])
        if sym is not None and (t[0] != "sym" or t[1] != sym):
            raise self.error(f"expected {sym!r}, found {t[1]!r}", t[2], t[3])
        self.i += 1
        return t

    def _sym(self, syms: str):
        """The next token, taken, when it is one of the symbols `syms`."""
        t = self._peek()
        if t is None or t[0] != "sym" or t[1] not in syms:
            return None
        self.i += 1
        return t

    def _take_int(self, what: str) -> tuple:
        """(value, token) of the next token, which must be an integer
        literal."""
        t = self._take()
        if t[0] != "int":
            raise self.error(f"{what} must be an integer", t[2], t[3])
        return _literal(t, self.error), t

    def parse(self):
        e = self._sum()
        t = self._peek()
        if t is not None:
            raise self.error(f"trailing input {t[1]!r}", t[2], t[3])
        return e

    def _sum(self):
        sign = self._sym("+-")
        e = self._term()
        if sign is not None and sign[1] == "-":
            e = -e
        while (t := self._sym("+-")) is not None:
            rhs = self._term()
            e = e - rhs if t[1] == "-" else e + rhs
        return e

    def _term(self):
        ring = self.ring
        e = self._factor()
        while (t := self._sym("*/")) is not None:
            if t[1] == "*":
                e = ring.mul(e, self._factor(), t)
            elif ring.literal_denominator:
                n, d = self._take_int("denominator")
                e = ring.div(e, ring.number(n), d)
            else:
                e = ring.div(e, self._factor(), t)
        return e

    def _factor(self):
        ring, t = self.ring, self._take()
        if t[0] == "int":
            e = ring.number(_literal(t, self.error))
        elif t[0] == "name":
            e = ring.name(t)
        elif t[1] == "(":
            e = self._sum()
            self._take(")")
        else:
            raise self.error(f"unexpected {t[1]!r}", t[2], t[3])
        if self._sym("^") is None:
            return e
        n, x = self._take_int("exponent")
        if n > _MAX_DEGREE:
            raise self.error(f"exponent above {_MAX_DEGREE}", x[2], x[3])
        return ring.power(e, n, x)


def evaluate(text: str, ring):
    """The value in `ring` of one line of text in the expression grammar."""
    return _Expr(_tokenize(text, 1, ring.error), ring).parse()


class _Relations:
    """The free algebra on the generators as `_Expr`'s ring.  A product or
    a power is refused before it is built when it would pass degree
    _MAX_DEGREE or _MAX_TERMS terms, and only an integer literal divides."""

    error, what, literal_denominator = PresentationError, "relation", True

    def __init__(self, field: FieldSpec, degrees: tuple, index: dict):
        self.field, self.degrees, self.index = field, degrees, index

    def number(self, n: int) -> FreeElement:
        return FreeElement.monomial(self.field, self.degrees, EMPTY_WORD,
                                    self.field.from_int(n))

    def name(self, tok) -> FreeElement:
        if tok[1] not in self.index:
            raise PresentationError(f"unknown generator {tok[1]!r}", tok[2], tok[3])
        return FreeElement.monomial(self.field, self.degrees, (self.index[tok[1]],))

    def _check_size(self, degree: int, terms: int, tok) -> None:
        if degree > _MAX_DEGREE or terms > _MAX_TERMS:
            raise PresentationError(
                f"product of degree {degree} with up to {terms} terms; at "
                f"most degree {_MAX_DEGREE} and {_MAX_TERMS} terms",
                tok[2], tok[3])

    def _degree(self, e: FreeElement) -> int:
        return max((word_degree(w, self.degrees) for w in e.terms), default=0)

    def mul(self, a: FreeElement, b: FreeElement, tok) -> FreeElement:
        self._check_size(self._degree(a) + self._degree(b),
                         len(a.terms) * len(b.terms), tok)
        return a * b

    def div(self, a: FreeElement, b: FreeElement, tok) -> FreeElement:
        if b.is_zero():
            raise PresentationError("division by zero in coefficient", tok[2], tok[3])
        return a.scaled(self.field.inv(b.terms[EMPTY_WORD]))

    def power(self, a: FreeElement, n: int, tok) -> FreeElement:
        self._check_size(n * self._degree(a), len(a.terms) ** n, tok)
        out = self.number(1)
        for _ in range(n):
            out = out * a
        return out


_HEADER_RE = re.compile(r"\s*(filtered\s+)?algebra\s+([A-Za-z_][A-Za-z_0-9]*)"
                        r"\s+over\s+(\S+)\s*\Z")


def parse(text: str):
    """Parse the text format; returns Presentation or FilteredPresentation."""
    lines = text.splitlines()
    header = None
    gens: list[tuple[str, int]] = []
    rel_sources: list[tuple[list, int]] = []
    filtered = False
    label = ""
    field: FieldSpec | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if header is None:
            m = _HEADER_RE.match(line)
            if not m:
                raise PresentationError(
                    "expected header 'algebra NAME over FIELD'", lineno, 1)
            filtered = bool(m.group(1))
            label = m.group(2)
            try:
                field = field_from_name(m.group(3))
            except ValueError as exc:
                raise PresentationError(str(exc), lineno, line.find(m.group(3)) + 1)
            header = line
            continue
        toks = _tokenize(line, lineno)
        head = toks[0]
        if head[0] == "name" and head[1] == "deg":
            body = toks[1:]
            while body:
                if body[0][0] != "name":
                    raise PresentationError("expected generator name",
                                            body[0][2], body[0][3])
                name = body[0][1]
                if len(body) < 3 or body[1][1] != "=" or body[2][0] != "int":
                    raise PresentationError(f"expected '{name} = <int>'",
                                            head[2], body[0][3])
                gens.append((name, _literal(body[2])))
                body = body[3:]
                if body:
                    if body[0][1] != ",":
                        raise PresentationError("expected ','", body[0][2], body[0][3])
                    body = body[1:]
        elif head[0] == "name" and head[1] == "rel":
            if not gens:
                raise PresentationError("rel before any deg line", head[2], head[3])
            rel_sources.append((toks[1:], lineno))
        else:
            raise PresentationError(f"expected 'deg' or 'rel', found {head[1]!r}",
                                    head[2], head[3])
    if header is None:
        raise PresentationError("empty input: missing 'algebra' header")
    geninfos = _validate_generators(gens)
    degrees = tuple(g.degree for g in geninfos)
    index = {g.name: i for i, g in enumerate(geninfos)}
    ring = _Relations(field, degrees, index)
    relations = []
    for toks, lineno in rel_sources:
        if not toks:
            raise PresentationError("empty relation", lineno, 1)
        elem = _Expr(toks, ring).parse()
        if elem.is_zero():
            raise PresentationError("relation simplifies to zero", lineno, toks[0][3])
        if not filtered and not elem.is_homogeneous():
            degs = sorted({word_degree(w, degrees) for w in elem.terms})
            raise PresentationError(
                f"inhomogeneous relation (degrees {degs}); use a "
                f"'filtered algebra' header and homogenize", lineno, toks[0][3])
        relations.append(elem)
    cls = FilteredPresentation if filtered else Presentation
    return cls(field, geninfos, tuple(relations), label)


# ---------------------------------------------------------------------------
# constructions


def _reverse_element(e: FreeElement, shift: int = 0, ndeg: tuple | None = None) -> FreeElement:
    degs = ndeg if ndeg is not None else e.degrees
    return FreeElement(e.field, degs,
                       {tuple(reversed([g + shift for g in w])): c
                        for w, c in e.terms.items()})


def opposite(p: Presentation) -> Presentation:
    """Same generators, every relation word reversed."""
    rels = tuple(_reverse_element(r) for r in p.relations)
    return Presentation(p.field, p.generators, rels, f"op({p.label})")


def enveloping(p: Presentation) -> Presentation:
    """Tensor of the algebra with its opposite.

    Generators: the originals, then one copy per original renamed with the
    suffix `_op` (same listing order).  Relations: the originals verbatim,
    the reversed relations on the renamed copy, and all cross commutators
    g'*h - h*g'  making the two blocks commute.
    """
    n = p.ngens()
    names = p.names()
    for g in p.generators:
        if g.name + "_op" in names:
            raise PresentationError(
                f"name collision: {g.name + '_op'!r} already a generator")
    gens = list(p.generators) + [GeneratorInfo(g.name + "_op", g.degree)
                                 for g in p.generators]
    degrees = tuple(g.degree for g in gens)
    f = p.field
    rels: list[FreeElement] = []
    for r in p.relations:
        rels.append(FreeElement(f, degrees, dict(r.terms)))
    for r in p.relations:
        rels.append(_reverse_element(r, shift=n, ndeg=degrees))
    one = f.one()
    for j in range(n):
        for i in range(n):
            rels.append(FreeElement(f, degrees,
                                    {(n + j, i): one, (i, n + j): f.neg(one)}))
    return Presentation(f, tuple(gens), tuple(rels), f"env({p.label})")


def skew_polynomial(n: int, params, field: FieldSpec = F32003) -> Presentation:
    """Skew polynomial ring on x1..xn:  xj*xi = q_ij * xi*xj  for i < j.

    `params` is either a single nonzero scalar used for every pair or a dict
    {(i, j): scalar} on 0-based pairs i < j (missing pairs default to 1).
    """
    if n < 1:
        raise PresentationError("need at least one generator")
    gens = tuple(GeneratorInfo(f"x{i + 1}", 1) for i in range(n))
    degrees = (1,) * n
    if not isinstance(params, dict):
        params = {(i, j): params for i in range(n) for j in range(i + 1, n)}
    rels = []
    for i in range(n):
        for j in range(i + 1, n):
            q = field.from_int(1) if (i, j) not in params else params[(i, j)]
            if field.kind == "Fp" and not isinstance(q, int):
                raise PresentationError(f"q_{i}{j} not a prime-field scalar")
            if field.is_zero(q):
                raise PresentationError(f"q_{i}{j} must be nonzero")
            rels.append(FreeElement(field, degrees,
                                    {(j, i): field.one(), (i, j): field.neg(q)}))
    return Presentation(field, gens, tuple(rels), f"skew-{n}")


def ore_extension(p: Presentation, alpha: dict) -> Presentation:
    """Graded Ore extension by a degree-preserving endomorphism.

    `alpha` maps each generator name to its image (a FreeElement over p's
    generators, homogeneous of the same degree).  The new generator t, of
    degree 1, obeys t*g = alpha(g)*t.  The endomorphism property is verified
    by reducing alpha(r) to normal form for every defining relation r
    (`groebner.substitute`); only that check is performed, so the result is
    sound for presentations, not for arbitrary maps that fail to descend.
    """
    names = p.names()
    if "t" in names:
        raise PresentationError("name collision: 't' already a generator")
    missing = [nm for nm in names if nm not in alpha]
    if missing:
        raise PresentationError(f"alpha missing images for {missing}")
    degrees = p.degree_vector()
    for nm, img in alpha.items():
        i = names.index(nm)
        if img.is_zero() or not img.is_homogeneous() or img.degree() != degrees[i]:
            raise PresentationError(f"alpha({nm}) is not homogeneous of degree "
                                    f"{degrees[i]}")
    # endomorphism check: alpha(r) must vanish modulo the defining ideal
    from .groebner import complete, substitute

    bound = max((r.degree() for r in p.relations), default=2)
    rs = complete(p, bound)
    images = [alpha[nm].terms for nm in names]
    for r in p.relations:
        if substitute(rs, images, r.terms):
            raise PresentationError(
                f"alpha does not preserve the relation with lead "
                f"{r.lead_word()}; not an endomorphism of the presented algebra")

    gens = tuple(p.generators) + (GeneratorInfo("t", 1),)
    ndeg = tuple(g.degree for g in gens)
    tdx = len(names)
    f = p.field
    rels = [FreeElement(f, ndeg, dict(r.terms)) for r in p.relations]
    for i, nm in enumerate(names):
        lhs = FreeElement(f, ndeg, {(tdx, i): f.one()})
        rhs = FreeElement(f, ndeg,
                          {w + (tdx,): c for w, c in alpha[nm].terms.items()})
        rels.append(lhs - rhs)
    return Presentation(f, gens, tuple(rels), f"ore({p.label})")


def homogenize(fp: FilteredPresentation) -> Presentation:
    """Central homogenization.

    Appends a degree-1 generator `t` *last*, pads each relation part up to the
    relation's top degree with right multiplications by t, and adds the
    centrality relations t*g - g*t.  (Left vs right padding generates the same
    ideal once t is central.)
    """
    names = fp.names()
    if "t" in names:
        raise PresentationError("name collision: 't' already a generator")
    gens = tuple(fp.generators) + (GeneratorInfo("t", 1),)
    ndeg = tuple(g.degree for g in gens)
    tdx = len(names)
    f = fp.field
    rels: list[FreeElement] = []
    for r in fp.relations:
        parts = r.homogeneous_parts()
        top = max(parts)
        terms: dict = {}
        for d, part in parts.items():
            pad = (tdx,) * (top - d)
            for w, c in part.terms.items():
                terms[w + pad] = c
        rels.append(FreeElement(f, ndeg, terms))
    one = f.one()
    for i in range(len(names)):
        rels.append(FreeElement(f, ndeg, {(tdx, i): one, (i, tdx): f.neg(one)}))
    return Presentation(f, gens, tuple(rels), f"homog({fp.label})")


# ---------------------------------------------------------------------------
# the group-algebra oracle
#
# The built-in 'smith-zhang' algebra is the subalgebra of a group algebra kG
# generated by four specific group elements of a common length.  G has
# generators a, b, c with a central, and c*b = a^(-1)*b*c, so every element
# has the unique normal form a^i b^j c^m and the product rule is
#
#   (i1, j1, m1) * (i2, j2, m2) = (i1 + i2 - m1*j2, j1 + j2, m1 + m2).
#
# Degree counts the number of c-type factors, so the four chosen elements sit
# in degree 1 and the oracle works entirely inside Z^3, with no rewriting.

_ORACLE_GENS = {
    "x": (0, 0, 1),   # c
    "z": (0, 1, 1),   # bc
    "t": (1, 1, 1),   # abc
    "y": (1, 0, 1),   # ac
}

SMITH_ZHANG_ORDER = ("x", "z", "t", "y")


def group_oracle_product(t1: tuple, t2: tuple) -> tuple:
    return (t1[0] + t2[0] - t1[2] * t2[1], t1[1] + t2[1], t1[2] + t2[2])


def group_oracle_word_image(word: Word) -> tuple:
    acc = (0, 0, 0)
    for g in word:
        acc = group_oracle_product(acc, _ORACLE_GENS[SMITH_ZHANG_ORDER[g]])
    return acc


@dataclass(frozen=True)
class OracleReport:
    dmax: int
    image_dims: tuple      # dim of the span of all degree-d generator words
    relation_counts: tuple  # 4^d - image_dims[d]


def group_algebra_oracle(dmax: int) -> OracleReport:
    """Span dimensions of generator words inside the ambient group algebra.

    Distinct group elements are linearly independent over any field, so the
    image dimension is the number of distinct normal-form triples and the
    whole report is field independent.
    """
    if dmax < 0:
        raise ValueError("negative degree")
    dims = [1]
    frontier = {(0, 0, 0)}
    gens = [_ORACLE_GENS[nm] for nm in SMITH_ZHANG_ORDER]
    for _ in range(dmax):
        frontier = {group_oracle_product(tpl, g) for tpl in frontier for g in gens}
        dims.append(len(frontier))
    rel = tuple(4 ** d - dims[d] for d in range(dmax + 1))
    return OracleReport(dmax, tuple(dims), rel)


def group_algebra_relations(field: FieldSpec = F32003, degree: int = 2) -> list:
    """Canonical basis of the degree-`degree` relation space of the oracle
    subalgebra: for every fiber of the image map, each non-minimal word minus
    the deglex-least word of its fiber, listed by ascending lead."""
    degrees = (1, 1, 1, 1)
    fibers: dict[tuple, list] = {}
    for w in itertools.product(range(4), repeat=degree):
        fibers.setdefault(group_oracle_word_image(w), []).append(w)
    rels = []
    for words in fibers.values():
        words = sorted(words, key=lambda w: deglex_key(w, degrees))
        base = words[0]
        for w in words[1:]:
            rels.append(FreeElement(field, degrees,
                                    {w: field.one(), base: field.neg(field.one())}))
    rels.sort(key=lambda e: deglex_key(e.lead_word(), degrees))
    return rels


# ---------------------------------------------------------------------------
# corpus


def builtin_names() -> list:
    return ["free-2", "free-3", "polynomial-1", "polynomial-2", "polynomial-3",
            "quantum-plane-2", "smith-zhang", "weyl-filtered", "weyl-homogenized"]


_WEYL_TEXT = """
filtered algebra weyl over {field}
deg x = 1, y = 1
rel y*x - x*y - 1
"""


def builtin(name: str, field: FieldSpec = F32003):
    """Fetch a presentation from the corpus (see builtin_names())."""
    if name not in builtin_names():
        raise PresentationError(f"unknown builtin {name!r}; have {builtin_names()}")
    fname = field.describe()
    if name.startswith("free-"):
        n = int(name.split("-")[1])
        gens = tuple(GeneratorInfo(f"x{i + 1}", 1) for i in range(n))
        return Presentation(field, gens, (), name)
    if name.startswith("polynomial-"):
        n = int(name.split("-")[1])
        p = skew_polynomial(n, field.from_int(1), field)
        return Presentation(field, p.generators, p.relations, name)
    if name == "quantum-plane-2":
        degrees = (1, 1)
        rel = FreeElement(field, degrees,
                          {(1, 0): field.one(), (0, 1): field.neg(field.from_int(2))})
        return Presentation(field, (GeneratorInfo("x", 1), GeneratorInfo("y", 1)),
                            (rel,), name)
    if name == "smith-zhang":
        # listing order x, z, t, y orients the oracle relations into a full
        # descending staircase, which keeps the rewrite system quadratic
        gens = tuple(GeneratorInfo(nm, 1) for nm in SMITH_ZHANG_ORDER)
        rels = tuple(group_algebra_relations(field, 2))
        return Presentation(field, gens, rels, name)
    if name == "weyl-filtered":
        return parse(_WEYL_TEXT.format(field=fname))
    # weyl-homogenized, the last listed name
    return homogenize(parse(_WEYL_TEXT.format(field=fname)))
