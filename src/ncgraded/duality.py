"""Graded Ext tables with values in the algebra, and the verdicts built on
them: the Gorenstein/regularity pattern test, the diagonal-bimodule Ext table,
twist extraction from the lowest cohomology class, and the invariant report.

Dualization convention.  A stage P_i = (+)_g B e_g of a minimal resolution
has Hom_B(P_i, B) = (+)_g B, a functional phi recorded by its values
b_g = phi(e_g).  The dual differential acts by left multiplication with the
stage columns: (d* phi)(e_h) = sum_g a_(h,g) * b_g.  A functional of degree
mu sends the degree-j part of P_i into B_(j+mu), so the bidegree (i, mu)
problem is finite linear algebra over the normal-word basis.

Certification discipline, derived from the truncation direction: when the
stage-i generator list is complete (chain certificate), the computed
cohomology dimension at every (i, mu) in the window is an upper bound for
the true one, so computed zeros are proven zeros; the computed value is
exact when stages i-1, i, i+1 are all complete (stage 0 and the empty
stages below it always are).  Entries at levels whose stage list is not
certified complete are reported but flagged, and no verdict treats them as
facts.

Levels the one-sided table proves zero.  Let F = Hom_(A^e)(P, A^e) for the
minimal bimodule resolution P.  The dual differentials multiply the
functional values on the left, so F is a complex of free right modules over
1 (x) A^op, and modulo the positive part of A^op it is Hom_A(P (x) k, A),
where P (x) k, which kills the opposite letters, is the minimal resolution
of k as a left A-module.  Its cohomology is the left one-sided table E, and
filtering F by the degree in A^op gives dim H^i(F)_mu <= sum_nu E^i_nu *
dim A_(mu - nu).  So where E has no entry at level i and is certified zero
there, H^i(F) vanishes in the window.  Given E and the left Betti table,
`hochschild_ext` uses this at a level i when also the one-sided stages
i-1, i and i+1 are complete: the bimodule Betti numbers are the one-sided
ones (Tor is balanced), so the computed bimodule complex is the true one at
those levels.  Then the rank of d* out of level i is dim C^i_mu minus the
rank of d* into it, and that d* is never built.  Counting from level 0 up,
this decides every level of a table concentrated in one level (the
polynomial rings, the quantum plane, the Weyl algebras, the free
algebras), where the one level left has no stage above it.  The flags are
those of the computed route, which stays the reference without E.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactla import (SparseMatrix, RowSpan, combination, kernel_basis, rank,
                      solve_columns)
from .freealg import FreeElement
from .groebner import EnvelopingSystem, RewriteSystem, substitute
from .hilbert import GradedDims
from .presentation import Presentation
from .resolution import (Resolution, betti, BettiTable,
                         GlobalDimReport, resolve_cyclic, word_blocks)


@dataclass
class ExtTable:
    side: str                    # "overA" | "overAe"
    entries: dict                # (level i, reported degree j) -> dim, nonzero only
    certified: dict              # same keys -> bool (value is exact)
    zero_certified: dict         # level -> bool (in-window zeros at the level are proven)
    window: tuple                # inspected functional-degree interval (raw)
    levels: tuple                # (lowest, highest) cohomological level inspected
    level_shift: dict            # level -> reported j minus raw functional degree
    notes: tuple = ()

    def nonzero_levels(self) -> list:
        return sorted({i for (i, _) in self.entries})


def _blocks(res: Resolution, i: int, mu: int) -> tuple:
    """`word_blocks` of C^i_mu, the functionals of degree mu on stage i: a
    block of the normal words of degree deg g + mu per generator g."""
    return word_blocks(res.rs, [g.degree + mu for g in res.stages[i].gens],
                       res.dbound)


def _dual_matrix(res: Resolution, i: int, mu: int) -> SparseMatrix:
    """d*: C^i_mu -> C^(i+1)_mu, one column per functional of `_blocks`,
    the one with value w at generator g mapped to  sum_h a_(h,g) * w  at
    generator h.  Each block of columns is one call of the system's
    `products` (`Resolution.block_map`), so over the enveloping algebra a
    product is a row of A's table times a row of A^op's.  Inside the window
    each h with a_(h,g) nonzero has a block: C^(i+1)_mu = 0 gives zeros."""
    cod, height = _blocks(res, i + 1, mu)
    gens = res.stages[i + 1].gens
    cols = res.block_map(_blocks(res, i, mu)[0], cod,
                         lambda g: [(h, t, c) for h, gen in enumerate(gens)
                                    if g in gen.column
                                    for t, c in gen.column[g].items()])
    return SparseMatrix(height, cols, res.rs.field)


def _window(res: Resolution) -> tuple:
    """The functional-degree window (lo, hi) that the degree bound
    certifies."""
    degrees_present = [g.degree for st in res.stages for g in st.gens]
    max_s = max(degrees_present) if degrees_present else 0
    return -max_s, res.dbound - max_s


def _complete(stages: dict, k: int) -> bool:
    """Whether stage k's generator list is complete, given the certificates
    `stages` of stages 1 and up: stage 0 holds the one generator 1, and no
    stage lies below it."""
    return k <= 0 or stages.get(k, False)


def _ext_table(res: Resolution, side: str, shifts: dict, notes: tuple = (),
               vanishing: frozenset = frozenset()) -> ExtTable:
    """The table over the window, the entry of level i at functional
    degree mu reported at degree mu + shifts[i].  At a level in
    `vanishing`, where the caller has proven the cohomology zero, the rank
    of d* is the dimension left by the rank into it, and no d* is built;
    nor is one without rows."""
    lo, hi = _window(res)
    cert = res.stage_complete
    top_level = res.hbound - 1
    ranks: dict = {}      # (i, mu) -> rank of d* out of level i
    nullity: dict = {}
    for mu in range(lo, hi + 1):
        size = _blocks(res, 0, mu)[1]
        for i in range(0, top_level + 1):
            above = _blocks(res, i + 1, mu)[1]
            if i in vanishing:
                rk = size - ranks.get((i - 1, mu), 0)
            elif above:
                rk = rank(_dual_matrix(res, i, mu))
            else:
                rk = 0
            ranks[(i, mu)], nullity[(i, mu)] = rk, size - rk
            size = above
    entries: dict = {}
    certified: dict = {}
    zero_cert: dict = {}
    for i in range(0, top_level + 1):
        zero_cert[i] = _complete(cert, i)
        for mu in range(lo, hi + 1):
            h = nullity[(i, mu)] - ranks.get((i - 1, mu), 0)
            if h:
                key = (i, mu + shifts[i])
                entries[key] = h
                certified[key] = all(_complete(cert, k)
                                     for k in (i - 1, i, i + 1))
    return ExtTable(side, entries, certified, zero_cert, (lo, hi),
                    (0, top_level), shifts, notes)


def ext_k_A(res: Resolution) -> ExtTable:
    """Graded Ext of the trivial module with values in the algebra, from a
    minimal resolution over its system `res.rs`.  Entries keyed by (level,
    functional degree)."""
    return _ext_table(res, "overA", dict.fromkeys(range(res.hbound), 0))


# ---------------------------------------------------------------------------
# Gorenstein / regularity pattern


@dataclass(frozen=True)
class ASVerdict:
    status: str                  # "regular" | "gorenstein_conditions_hold" |
                                 # "fails" | "inconclusive"
    n: int | None = None
    l: int | None = None
    witness: tuple | None = None  # (side, level, degree, dim, reason)
    certified_bounds: str = ""
    notes: tuple = ()

    def describe(self) -> str:
        if self.status == "regular":
            return f"regular({self.n},{self.l})"
        if self.status == "gorenstein_conditions_hold":
            return f"gorenstein_conditions_hold({self.n},{self.l})"
        if self.status == "fails":
            return f"fails(witness={self.witness})"
        return "inconclusive"


def _pattern_violation(t: ExtTable, side: str):
    """A certified entry that already contradicts the one-entry pattern."""
    cert_nonzero = [(i, j, n) for (i, j), n in sorted(t.entries.items())
                    if t.certified.get((i, j))]
    levels = sorted({i for i, _, _ in cert_nonzero})
    if len(levels) >= 2:
        i, j, n = next(e for e in cert_nonzero if e[0] == levels[0])
        return (side, i, j, n,
                f"nonzero entries at levels {levels}, concentration impossible")
    if len(levels) == 1:
        i0 = levels[0]
        at_level = [(j, n) for i, j, n in cert_nonzero if i == i0]
        if len(at_level) >= 2:
            j, n = at_level[0]
            return (side, i0, j, n,
                    f"level {i0} nonzero in degrees "
                    f"{[j for j, _ in at_level]}, not one-dimensional")
        j, n = at_level[0]
        if n != 1:
            return (side, i0, j, n, f"level {i0} entry has dimension {n}")
    return None


def as_check(t_left: ExtTable, t_right: ExtTable,
             gldim: GlobalDimReport | None = None) -> ASVerdict:
    """Match the two one-sided Ext tables against the concentration pattern:
    zero away from a single level n, one-dimensional in a single degree -l
    there, on both sides.  `gldim` upgrades the verdict to regular when it
    certifies n."""
    bounds = (f"left window {t_left.window}, right window {t_right.window}, "
              f"levels {t_left.levels}")
    for side, t in (("left", t_left), ("right", t_right)):
        v = _pattern_violation(t, side)
        if v:
            return ASVerdict("fails", witness=v, certified_bounds=bounds)

    def single(t):
        items = sorted(t.entries.items())
        if len(items) != 1:
            return None
        (i, j), n = items[0]
        if n != 1 or not t.certified.get((i, j)):
            return None
        if not all(t.zero_certified.get(k, False)
                   for k in range(t.levels[0], t.levels[1] + 1)):
            return None
        return (i, j)

    sl, sr = single(t_left), single(t_right)
    if sl is None or sr is None:
        uncert = []
        for side, t in (("left", t_left), ("right", t_right)):
            levels = sorted({i for i, j in t.entries
                             if not t.certified.get((i, j))})
            if levels:
                uncert.append(f"{side} at levels {levels}")
        notes = (("uncertified nonzero entries present: " + ", ".join(uncert),)
                 if uncert else
                 ("no certified concentration pattern in the window",))
        return ASVerdict("inconclusive", certified_bounds=bounds, notes=notes)
    if sl != sr:
        return ASVerdict("fails",
                         witness=("right", sr[0], sr[1], 1,
                                  f"left side concentrated at {sl}, right at {sr}"),
                         certified_bounds=bounds)
    n, j = sl
    l = -j
    if gldim is not None and gldim.certified and gldim.value == n:
        return ASVerdict("regular", n=n, l=l, certified_bounds=bounds)
    note = ("global dimension not certified finite; Ext pattern alone",)
    return ASVerdict("gorenstein_conditions_hold", n=n, l=l,
                     certified_bounds=bounds, notes=note)


# ---------------------------------------------------------------------------
# diagonal bimodule and its Ext


def diagonal_bimodule_resolution(rs: RewriteSystem, rs_op: RewriteSystem,
                                 hbound: int, dbound: int,
                                 table: BettiTable | None = None):
    """Resolve the algebra A as a cyclic module over its enveloping algebra,
    killing the differences x_i - x_i_op.  Returns (Resolution, BettiTable).

    `rs` and `rs_op` are completed systems of A and of its opposite; the
    enveloping system is a view of the two (`groebner.EnvelopingSystem`),
    not completed and with no rules of its own: it reduces every product
    as a pair of one-sided products, and its leads are theirs and the
    commutators of a letter of each side that is no lead.  `table`, the
    one-sided Betti table of A, guides `resolve_cyclic` by its support:
    the minimal bimodule resolution has the one-sided Betti numbers."""
    env = EnvelopingSystem(rs, rs_op)
    n = len(rs.degrees)
    f = env.field
    deltas = [FreeElement(f, env.degrees, {(i,): f.one(),
                                           (n + i,): f.neg(f.one())})
              for i in range(n)]
    res = resolve_cyclic(env, deltas, hbound, dbound,
                         table.support() if table is not None else None)
    return res, betti(res)


def hochschild_ext(res: Resolution, one_sided: tuple | None = None) -> ExtTable:
    """Ext of the diagonal bimodule with values in the enveloping algebra,
    from its resolution over the enveloping system `res.rs`, the view of
    the systems of A and A^op.  The dual differentials multiply in
    A (x) A^op as pairs of rows, one of A's multiplication table and one
    of A^op's (`_dual_matrix`).

    `one_sided`, the pair (E, table) of the left one-sided Ext table
    ext_k_A(res_A) and the Betti table of the same left resolution, lets
    the levels it proves zero skip their d* (module docstring): a level i
    where E has no entry, E is certified zero, the one-sided stages i-1, i
    and i+1 are complete, and E's window reaches the top of this one.  The
    result is the one computed without it.

    Raw functional degrees are relabeled per level: when stage i is
    concentrated in one internal degree s, entries are reported at
    j = mu + 2s, which aligns level i with the graded pieces of the algebra
    it matches (a shift by s for the module grading and another s for the
    functional grading).  Non-concentrated levels stay in raw degrees, with
    a note."""
    vanishing = frozenset()
    if one_sided is not None:
        e, table = one_sided
        if e.window[1] >= _window(res)[1]:
            zero = set(range(res.hbound)) - set(e.nonzero_levels())
            vanishing = frozenset(
                i for i in zero if e.zero_certified.get(i, False)
                and all(_complete(table.stage_complete, k)
                        for k in (i - 1, i, i + 1)))
    shifts = {}
    notes = []
    for i in range(res.hbound):
        degs = {g.degree for g in res.stages[i].gens}
        shifts[i] = 2 * next(iter(degs)) if len(degs) == 1 else 0
        if len(degs) > 1:
            notes.append(f"level {i} spans degrees {sorted(degs)}; "
                         "reported in raw functional degree")
    return _ext_table(res, "overAe", shifts, tuple(notes), vanishing)


# ---------------------------------------------------------------------------
# rigidity and the twist


@dataclass(frozen=True)
class RigidityVerdict:
    concentrated_at: int | None
    graded_match: bool
    twist_on_generators: dict | None   # generator name -> FreeElement over A
    certified_bounds: str
    notes: tuple = ()


def _coboundaries(res: Resolution, i: int, mu: int) -> list:
    """The nonzero columns of d* into (i, mu), which span its image."""
    return ([c for c in _dual_matrix(res, i - 1, mu).columns if c]
            if i >= 1 else [])


def _cohomology_rep(res: Resolution, i: int, mu: int) -> dict | None:
    """A cocycle at (i, mu) outside the coboundaries, over the functionals
    of `_blocks(res, i, mu)`, or None when H^i_mu = 0."""
    kern = kernel_basis(_dual_matrix(res, i, mu))
    span = RowSpan(res.rs.field)
    for col in _coboundaries(res, i, mu):
        span.add(col)
    for v in kern:
        if span.add(v):
            return v
    return None


def rigidity_check(p: Presentation, res: Resolution, t: ExtTable,
                   hilbert: GradedDims) -> RigidityVerdict:
    """Concentration and graded-match test for the bimodule Ext table
    t = hochschild_ext(res) of the algebra p, with twist extraction from
    the lowest cohomology class.

    The two module actions on a class [c] (right multiplication of the
    functional values by a generator, and by its opposite-copy partner) agree
    up to a linear substitution on generators; solving for it in the basis of
    H at the next degree yields the twist.  The twist is then checked on the
    defining relations: each relation, with the twist substituted and
    multiplied out one letter at a time through `nf` of the algebra's
    system, must vanish."""
    if t.side != "overAe":
        return RigidityVerdict(None, False, None, "",
                               ("table is not over the enveloping algebra",))
    bounds = f"window {t.window}, levels {t.levels}"
    levels = t.nonzero_levels()
    if len(levels) != 1:
        return RigidityVerdict(None, False, None, bounds,
                               (f"nonzero at levels {levels}, "
                                "not concentrated in the window",))
    i0 = levels[0]
    shift = t.level_shift.get(i0, 0)
    s = shift // 2
    lo, hi = t.window
    match = True
    for mu in range(lo, min(hi, hilbert.certified_to - s) + 1):
        expect = hilbert.dim(mu + s) if mu + s >= 0 else 0
        got = t.entries.get((i0, mu + shift), 0)
        if got != expect:
            match = False
            break
    if not match:
        return RigidityVerdict(i0, False, None, bounds,
                               ("graded dimensions do not match the algebra "
                                f"shifted by {s}",))
    notes = []
    mu0 = -s
    if t.entries.get((i0, mu0 + shift), 0) != 1:
        return RigidityVerdict(i0, True, None, bounds,
                               ("lowest class not one-dimensional; "
                                "twist not extracted",))
    # the twist is solved for in the blocks of degree mu0 + 1, as a
    # combination of the letters: that takes generators of degree 1
    if any(g.degree != 1 for g in p.generators):
        return RigidityVerdict(i0, True, None, bounds,
                               ("a generator has degree above 1; "
                                "twist not extracted",))
    rs = res.rs
    f = rs.field
    rep = _cohomology_rep(res, i0, mu0)
    if rep is None:
        return RigidityVerdict(i0, True, None, bounds,
                               ("no representative found at the lowest degree",))
    n = len(p.generators)

    img_cols1 = _coboundaries(res, i0, mu0 + 1)
    blocks1, size1 = _blocks(res, i0, mu0 + 1)

    def times_letter(letter: int) -> dict:
        """rep times the letter on the right, over C^i0_(mu0 + 1)."""
        rows = res.block_map(_blocks(res, i0, mu0)[0], blocks1,
                             lambda g: [(g, (letter,), 1)], left=False)
        return combination(rows, rep, f.p)

    right_plain = [times_letter(g) for g in range(n)]
    right_op = [times_letter(n + g) for g in range(n)]
    rows = []
    for g in range(n):
        sol = solve_columns(right_plain + img_cols1, right_op[g], size1, f)
        if sol is None:
            return RigidityVerdict(i0, True, None, bounds,
                                   ("opposite action not expressible through "
                                    "the plain action in the window",))
        rows.append([sol.get(k, f.zero()) for k in range(n)])
    names = [g.name for g in p.generators]
    images = [{(k,): c for k, c in enumerate(row) if not f.is_zero(c)}
              for row in rows]
    twist = {names[g]: FreeElement(f, rs.algebra.degrees, images[g])
             for g in range(n)}
    # invertibility of the substitution matrix
    mm = SparseMatrix(n, [{g: rows[g][k] for g in range(n)} for k in range(n)], f)
    if rank(mm) != n:
        notes.append("substitution matrix is singular")
    # endomorphism property on the defining relations, through the normal
    # forms of the system of the algebra that the enveloping system views
    ok = not any(substitute(rs.algebra, images, r.terms)
                 for r in p.relations)
    notes.append("twist respects the defining relations" if ok else
                 "twist fails on a defining relation")
    return RigidityVerdict(i0, True, twist, bounds, tuple(notes))


# ---------------------------------------------------------------------------
# assembled invariants


def invariant_report(asv: ASVerdict, rig: RigidityVerdict | None,
                     gk=None) -> dict:
    """Derived invariant summary.  Claims are made only along certified
    routes; everything else stays commentary."""
    report: dict = {"fhtr": None, "htr_QA_conditional": None,
                    "hammerhead": None, "unchecked_hypotheses": [], "notes": []}
    if rig is not None and rig.concentrated_at is not None and rig.graded_match:
        report["fhtr"] = {"value": rig.concentrated_at,
                          "certified_in_window": True,
                          "source": "bimodule Ext concentration"}
    if asv.status == "regular":
        if report["fhtr"] is None:
            report["fhtr"] = {"value": asv.n, "certified_in_window": True,
                              "source": "one-sided Ext concentration with "
                                        "certified global dimension"}
        report["htr_QA_conditional"] = {
            "value": asv.n,
            "hypotheses": ["prime Goldie with a graded division ring of "
                           "fractions; not machine-checked"]}
        report["unchecked_hypotheses"].append(
            "primeness/Goldie condition for the fraction-ring statement")
        report["hammerhead"] = {"value": asv.n,
                                "context": "twisted shifted bimodule over the "
                                           "regular base"}
    elif asv.status == "fails":
        report["notes"].append(
            f"one-sided Ext pattern fails at {asv.witness}; no fraction-ring "
            "homological claim is derived from this window")
        if gk is not None and not gk.exponential and gk.value is not None:
            report["notes"].append(
                f"growth estimate {gk.value:.2f} remains finite; fraction-ring "
                "transcendence measures can sit strictly below it, and none is "
                "certified here")
    else:
        report["notes"].append("raw tables only; verdict " + asv.describe())
    if rig is not None and rig.twist_on_generators is not None:
        report["notes"].append("twist extracted on generators; " +
                               "; ".join(rig.notes))
    return report
