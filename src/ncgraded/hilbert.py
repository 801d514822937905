"""Graded dimension counting, rational Hilbert series claims, growth flags.

Dimensions are the counts of normal words that a completed rewrite system
reads off the automaton of its leads (`RewriteSystem.dim`), so they are
certified exactly as far as the completion certificate reaches.
Rational-series claims p(t)/q(t) are read by the parser of the relations
(`presentation.evaluate`), in the ring of rational functions in t, `_Rat`,
under the same input bounds: no integer literal of more than 600 digits, no
exponent above 256, and here no numerator or denominator of degree above
256 along the way.  They are checked by exact power series division; the
growth estimator works on the partial-sum sequence with a discrete log
derivative, which is exact on polynomial growth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .groebner import RewriteSystem
from .presentation import _MAX_DEGREE, evaluate


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
    """A bad series claim, with the column at fault when one is known."""

    def __init__(self, message: str, line: int | None = None,
                 col: int | None = None):
        super().__init__(message if col is None
                         else f"series claim, col {col}: {message}")


def _poly_add(a: list, b: list) -> list:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def _poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1 if a and b else 0)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


class _Rat:
    """Rational function as a (num, den) pair of Fraction-coefficient polys,
    neither of degree above the parser's _MAX_DEGREE.  The class is the
    ring `presentation.evaluate` reads a claim in: `t` is its one name, and
    any factor may divide."""

    __slots__ = ("num", "den")
    error, what, literal_denominator = ClaimSyntaxError, "claim", False

    def __init__(self, num, den=None):
        self.num = num
        self.den = den if den is not None else [Fraction(1)]
        for poly in (self.num, self.den):
            deg = max((i for i, c in enumerate(poly) if c), default=0)
            if deg > _MAX_DEGREE:
                raise ClaimSyntaxError(f"series claim reaches degree {deg}, "
                                       f"above {_MAX_DEGREE}")

    @staticmethod
    def number(n: int) -> _Rat:
        return _Rat([Fraction(n)])

    @staticmethod
    def name(tok) -> _Rat:
        if tok[1] != "t":
            raise ClaimSyntaxError(f"unknown name {tok[1]!r}; a claim is in t",
                                   tok[2], tok[3])
        return _Rat([Fraction(0), Fraction(1)])

    def __neg__(self):
        return _Rat([-c for c in self.num], self.den)

    def __add__(self, o):
        return _Rat(_poly_add(_poly_mul(self.num, o.den), _poly_mul(o.num, self.den)),
                    _poly_mul(self.den, o.den))

    def __sub__(self, o):
        return self + -o

    def mul(self, o, tok=None):
        return _Rat(_poly_mul(self.num, o.num), _poly_mul(self.den, o.den))

    def div(self, o, tok):
        if not any(o.num):
            raise ClaimSyntaxError("division by zero", tok[2], tok[3])
        return _Rat(_poly_mul(self.num, o.den), _poly_mul(self.den, o.num))

    def power(self, n: int, tok):
        out = _Rat([Fraction(1)])
        for _ in range(n):
            out = out.mul(self)
        return out


def series_coefficients(claim: str, n: int) -> list:
    """First n+1 Taylor coefficients of a rational claim at t = 0."""
    if not claim.strip():
        raise ClaimSyntaxError("empty series claim")
    rat = evaluate(claim, _Rat)
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
