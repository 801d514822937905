"""Graded dimension counting, rational Hilbert series claims, growth flags.

Dimensions are the counts of normal words that a completed rewrite system
reads off the automaton of its leads (`RewriteSystem.dim`), so they are
certified exactly as far as the completion certificate reaches.
Rational-series claims p(t)/q(t) are parsed by a tiny recursive descent
parser, which refuses any exponent, numerator or denominator of degree
above 256 and any integer literal of more than 600 digits, and checked by
exact power series division; the growth estimator works on the
partial-sum sequence with a discrete log derivative, which is exact on
polynomial growth.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .groebner import RewriteSystem


@dataclass(frozen=True)
class GradedDims:
    dims: tuple
    certified_to: int

    def dim(self, d: int) -> int:
        return self.dims[d] if 0 <= d < len(self.dims) else 0


def hilbert_function(rs: RewriteSystem, dmax: int) -> GradedDims:
    """Graded dimensions for degrees 0..dmax.

    certified_to is dmax when the rewrite system is globally complete and
    min(dmax, complete_below) otherwise; entries beyond certified_to are not
    produced at all rather than flagged.
    """
    cert = dmax if rs.globally_complete else min(dmax, rs.complete_below)
    return GradedDims(tuple(rs.dim(d) for d in range(cert + 1)), cert)


# ---------------------------------------------------------------------------
# rational series claims


class ClaimSyntaxError(ValueError):
    pass


# Highest degree of an exponent, and of any numerator or denominator along
# the way, that a claim may use, and the most digits of an integer literal
# (int() converts 640 under any setting of the interpreter's limit); keeps
# the parser's work bounded
_CLAIM_MAX_DEGREE = 256
_CLAIM_MAX_DIGITS = 600


_CLAIM_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<t>t)|(?P<sym>[-+*/^()]))")


def _poly_add(a: list, b: list) -> list:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def _poly_neg(a: list) -> list:
    return [-c for c in a]


def _poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1 if a and b else 0)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


class _Rat:
    """Rational function as a (num, den) pair of Fraction-coefficient polys."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        self.num = num
        self.den = den if den is not None else [Fraction(1)]
        for poly in (self.num, self.den):
            deg = max((i for i, c in enumerate(poly) if c), default=0)
            if deg > _CLAIM_MAX_DEGREE:
                raise ClaimSyntaxError(f"series claim reaches degree {deg}, "
                                       f"above {_CLAIM_MAX_DEGREE}")

    def __add__(self, o):
        return _Rat(_poly_add(_poly_mul(self.num, o.den), _poly_mul(o.num, self.den)),
                    _poly_mul(self.den, o.den))

    def __sub__(self, o):
        return self + _Rat(_poly_neg(o.num), o.den)

    def __mul__(self, o):
        return _Rat(_poly_mul(self.num, o.num), _poly_mul(self.den, o.den))

    def __truediv__(self, o):
        if not any(o.num):
            raise ClaimSyntaxError("division by zero in series claim")
        return _Rat(_poly_mul(self.num, o.den), _poly_mul(self.den, o.num))

    def power(self, n: int):
        out = _Rat([Fraction(1)])
        for _ in range(n):
            out = out * self
        return out


class _ClaimParser:
    def __init__(self, text: str):
        self.toks = []
        pos = 0
        while pos < len(text):
            m = _CLAIM_TOKEN.match(text, pos)
            if not m or m.end() == pos:
                rest = text[pos:].strip()
                if not rest:
                    break
                raise ClaimSyntaxError(f"bad character {rest[0]!r} in series claim")
            self.toks.append((m.lastgroup, m.group(m.lastgroup)))
            pos = m.end()
        self.i = 0

    def _peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _take(self):
        t = self._peek()
        if t is None:
            raise ClaimSyntaxError("unexpected end of series claim")
        self.i += 1
        return t

    def parse(self) -> _Rat:
        r = self._sum()
        if self._peek() is not None:
            raise ClaimSyntaxError(f"trailing input {self._peek()[1]!r}")
        return r

    def _sum(self) -> _Rat:
        t = self._peek()
        neg = False
        if t and t[0] == "sym" and t[1] in "+-":
            self._take()
            neg = t[1] == "-"
        r = self._term()
        if neg:
            r = _Rat(_poly_neg(r.num), r.den)
        while True:
            t = self._peek()
            if t is None or t[0] != "sym" or t[1] not in "+-":
                return r
            self._take()
            rhs = self._term()
            r = r - rhs if t[1] == "-" else r + rhs

    def _term(self) -> _Rat:
        r = self._factor()
        while True:
            t = self._peek()
            if t is None or t[0] != "sym" or t[1] not in "*/":
                return r
            self._take()
            rhs = self._factor()
            r = r * rhs if t[1] == "*" else r / rhs

    def _factor(self) -> _Rat:
        t = self._take()
        if t[0] == "int":
            if len(t[1]) > _CLAIM_MAX_DIGITS:
                raise ClaimSyntaxError("integer literal longer than "
                                       f"{_CLAIM_MAX_DIGITS} digits")
            r = _Rat([Fraction(int(t[1]))])
        elif t[0] == "t":
            r = _Rat([Fraction(0), Fraction(1)])
        elif t[1] == "(":
            r = self._sum()
            close = self._take()
            if close[1] != ")":
                raise ClaimSyntaxError("expected ')'")
        else:
            raise ClaimSyntaxError(f"unexpected {t[1]!r}")
        nxt = self._peek()
        if nxt and nxt[0] == "sym" and nxt[1] == "^":
            self._take()
            e = self._take()
            if e[0] != "int":
                raise ClaimSyntaxError("exponent must be an integer")
            digits = e[1].lstrip("0") or "0"
            if len(digits) > 3 or int(digits) > _CLAIM_MAX_DEGREE:
                raise ClaimSyntaxError(f"exponent above {_CLAIM_MAX_DEGREE} "
                                       "in series claim")
            r = r.power(int(digits))
        return r


def series_coefficients(claim: str, n: int) -> list:
    """First n+1 Taylor coefficients of a rational claim at t = 0."""
    rat = _ClaimParser(claim).parse()
    den = list(rat.den)
    if not den or den[0] == 0:
        raise ClaimSyntaxError("claim has a pole at t = 0")
    num = list(rat.num)
    coeffs = []
    for k in range(n + 1):
        acc = num[k] if k < len(num) else Fraction(0)
        for i in range(1, min(k, len(den) - 1) + 1):
            acc -= den[i] * coeffs[k - i]
        coeffs.append(acc / den[0])
    return coeffs


@dataclass(frozen=True)
class RationalCheck:
    ok: bool
    compared_to: int
    first_mismatch: int | None
    detail: str


def verify_rational(gd: GradedDims, claim: str) -> RationalCheck:
    """Compare certified dimensions against a rational series claim.

    The comparison runs over the certified range only; a True result means
    'consistent as far as certified', never a statement about all degrees.
    """
    n = gd.certified_to
    coeffs = series_coefficients(claim, n)
    for d in range(n + 1):
        if coeffs[d] != gd.dim(d):
            return RationalCheck(False, n, d,
                                 f"degree {d}: claimed {coeffs[d]}, actual {gd.dim(d)}")
    return RationalCheck(True, n, None, f"matches through degree {n}")


# ---------------------------------------------------------------------------
# growth


@dataclass(frozen=True)
class GKEstimate:
    value: float | None
    exponential: bool
    window: tuple
    detail: str


def gk_estimate(gd: GradedDims, window: tuple | None = None) -> GKEstimate:
    """Growth estimate from certified dimensions.

    Exponential growth is flagged when the one-step dimension ratios stay
    above 3/2 across the whole inspection window; otherwise the estimate is
    the mean of the discrete log derivatives d * dims[d] / F[d-1] of the
    partial sums F, which reproduces the growth degree exactly on polynomial
    growth (e.g. 4.0 on the rank-4 binomial series, 2.0 on a plane).
    """
    dims = gd.dims
    top = gd.certified_to
    if window is None:
        window = (max(1, top // 2), top)
    lo, hi = window
    if hi > top or lo < 1 or lo > hi:
        raise ValueError(f"window {window} outside certified range (1, {top})")
    ratios_big = all(dims[d - 1] >= 0 and 2 * dims[d] > 3 * dims[d - 1] and dims[d] > 0
                     for d in range(lo, hi + 1))
    if ratios_big and dims[hi] > dims[lo - 1]:
        return GKEstimate(None, True, window,
                          "dimension ratios stay above 3/2 across the window")
    partial = []
    acc = 0
    for v in dims:
        acc += v
        partial.append(acc)
    locs = []
    for d in range(lo, hi + 1):
        prev = partial[d - 1]
        locs.append(float(d * dims[d] / prev) if prev else 0.0)
    value = sum(locs) / len(locs) if locs else 0.0
    return GKEstimate(value, False, window,
                      f"mean discrete log derivative over degrees {lo}..{hi}")
