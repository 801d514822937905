"""Minimal graded free resolutions over a completed rewrite system.

The engine resolves cyclic modules B/J degree by degree: the trivial module
(J generated by the algebra generators) and diagonal-type bimodules (J
generated by explicit elements over an enveloping presentation) run through
the same code path.  One sieve loop serves every stage: stage i generators at
internal degree j are chosen as a complement of  sum_g g * S_(j - deg g)
inside S_j, where S is the ideal J for stage 1 (candidates: the module
relations) and the kernel K of the previous differential after it
(candidates: a kernel basis).  The resolution is therefore minimal by
construction (differentials land in the augmentation ideal, which is
asserted).  A degree piece of a free module is laid out in blocks, one per
generator, each the normal words of one degree (`word_blocks`), and every
product is read from the system's multiplication tables (`products`): the
kernel columns multiply on the right by the differential's entries, the
sieve on the left by a generator.  Over the enveloping algebra each product
is a pair of one-sided table rows.

Two rules end the sieve early without changing what it finds:

* Stage 1 stops at the highest relation degree.  No candidate lies above
  it, and the span S_j of a higher degree would only serve still higher
  degrees of the same stage.
* Given a guide, the cells (i, j) where a stage-i generator may sit, a
  stage i >= 2 computes kernels only at its degrees j in the guide and
  stops at the last of them.  Elsewhere beta_(i,j) = 0, so the kernel K_j
  equals sum_g g * K_(j - deg g), which the sieve builds anyway, and that
  span stands in for K_j.  A guide is only an upper bound on where
  generators sit, and two theorems supply one:
  - the Betti table of the same algebra, or of its opposite, read as its
    support.  Tor is balanced, so Tor^A(k, k) = Tor^(A^op)(k, k) and the
    opposite side has the same Betti numbers; and the minimal resolution
    P of A over A^e has P_i = A (x) Tor_i^A(k, k) (x) A, because
    P (x)_A k is a minimal resolution of k, so the bimodule Betti numbers
    are the one-sided ones;
  - the chains of a globally complete rewrite system, for the trivial
    module.  Its minimal resolution is a direct summand of Anick's (Anick
    1986, Trans. AMS 296), which has one stage-i generator per chain of
    stage i, so beta_(i,j) is at most the number of such chains in degree
    j, and zero where none sits.
  The RREF of a subspace is unique, so every S_j, every generator and
  every column come out as the full sieve finds them.

Certification discipline: every Betti entry inside the searched window
(homological index <= hbound, internal degree <= dbound) is exact.  Claims
*beyond* the window (a stage being finished, global dimension, Koszulity)
are made only when backed by the chain certificate: potential stage-i
generators live on left-extension chains of the lead words, so when the
chain degrees for a stage all fall inside the searched window, the absence
of further generators is a theorem rather than an observation.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass

from .exactla import RowSpan, SparseMatrix, combination, kernel_basis
from .freealg import EMPTY_WORD, deglex_key, word_degree
from .groebner import RewriteSystem, normal_form


class ResolutionError(RuntimeError):
    pass


@dataclass
class StageGen:
    degree: int
    column: dict        # previous-stage generator index -> terms dict
                        # word -> scalar, the generator's image there


@dataclass
class ResolutionStage:
    index: int
    gens: list


@dataclass
class Resolution:
    rs: RewriteSystem
    stages: list
    hbound: int
    dbound: int
    relations: tuple    # the module relations in normal form, none zero

    def blocks(self, i: int, j: int) -> tuple:
        """`word_blocks` of stage i at internal degree j."""
        return word_blocks(self.rs, [j - g.degree for g in self.stages[i].gens],
                           self.dbound)

    def top_nonzero_stage(self) -> int:
        top = 0
        for st in self.stages:
            if st.gens:
                top = st.index
        return top


def resolve_cyclic(rs: RewriteSystem, module_relations, hbound: int,
                   dbound: int, guide: Guide | None = None) -> Resolution:
    """Minimal free resolution of B/(module_relations) out to stage hbound,
    internal degree dbound.  Relations are reduced to normal form first,
    and the nonzero ones are kept as `Resolution.relations`; redundant ones
    are dropped by the minimality sieve, not by the caller.

    Stage 1 ends at the highest relation degree.  `guide`, when given,
    lists the cells (i, j) where a stage-i generator of this module may
    sit: an upper bound, not the Betti numbers.  Two theorems supply one
    (see the module docstring): the support of the trivial module's Betti
    table over the algebra or its opposite, which bounds the trivial module
    over either and the diagonal bimodule over the enveloping algebra; and
    the chains of a globally complete system, which bound the trivial
    module (`chain_guide`).  Neither bounds any other module.  Stage i >= 2
    then computes kernels only at its cells and ends at the last one.  The
    guide must certify the whole window, since an absent cell reads as no
    generator.  Without a guide every stage runs the full sieve."""
    if not rs.globally_complete and dbound > rs.complete_below:
        raise ResolutionError(
            f"degree bound {dbound} exceeds rewrite certificate "
            f"{rs.complete_below}")
    if guide is not None and (guide.hbound < hbound
                              or guide.dbound < dbound):
        raise ResolutionError(
            f"{guide.source} certified to stage {guide.hbound} and degree "
            f"{guide.dbound} cannot guide a resolution to stage {hbound} "
            f"and degree {dbound}")
    f = rs.field
    rels = []
    for r in module_relations:
        if r.degrees != rs.degrees:
            raise ResolutionError("module relation over the wrong free algebra")
        nf = normal_form(rs, r)
        if nf.is_zero():
            continue
        if not nf.is_homogeneous():
            raise ResolutionError("inhomogeneous module relation")
        if nf.degree() == 0:
            raise ResolutionError("unit module relation: the module is zero")
        rels.append(nf)
    res = Resolution(rs, [ResolutionStage(0, [StageGen(0, {})])], hbound, dbound,
                     tuple(rels))

    for i in range(1, hbound + 1):
        prev = res.stages[i - 1]
        stage = ResolutionStage(i, [])
        res.stages.append(stage)
        if not prev.gens:
            continue
        # S_j is the degree-j image of stage i in stage i-1: the ideal J for
        # i = 1, the kernel K of the previous differential after it.  A
        # candidate (a relation, or a kernel basis vector) is a generator
        # exactly when it falls outside  sum_g g * S_(j - deg g).  `top` is
        # the last degree that can hold a generator: a relation degree for
        # i = 1, the last cell of stage i when a guide is given.
        if i == 1:
            top = max((r.degree() for r in rels), default=-1)
        elif guide is not None:
            top = max((j for ii, j in guide.cells if ii == i), default=-1)
        else:
            top = dbound
        sub: dict[int, list] = {}      # j -> echelon basis of S_j
        # the entries of each differential column
        entries = [[(tgt, tw, tc) for tgt, a in gen.column.items()
                    for tw, tc in a.items()] for gen in prev.gens]
        min_deg = min(g.degree for g in prev.gens)
        for j in range(min_deg, min(top, dbound) + 1):
            dom, size = res.blocks(i - 1, j)
            if not size and i > 1:    # stage 1 records J_j = 0 all the same
                continue
            if i == 1:
                cands = [{rs.position(w): c for w, c in r.terms.items()}
                         for r in rels if r.degree() == j]
            elif guide is not None and (i, j) not in guide.cells:
                cands = []     # K_j is the span below, by the theorem
            else:
                cod, height = res.blocks(i - 2, j)
                cod_at = {gi: off for gi, _, off in cod}
                cols = []
                for gi, m, _ in dom:
                    cols += rs.products([(cod_at[tgt], tw, tc)
                                         for tgt, tw, tc in entries[gi]],
                                        m, left=False)
                cands = kernel_basis(SparseMatrix(height, cols, f))
            span = RowSpan(f)
            dom_at = {gi: off for gi, _, off in dom}
            for g, dg in enumerate(rs.degrees):
                if not sub.get(j - dg):
                    continue
                rows = []
                for gi, m, _ in res.blocks(i - 1, j - dg)[0]:
                    rows += rs.products([(dom_at[gi], (g,), 1)], m)
                for v in sub[j - dg]:
                    span.add(combination(rows, v, f.p))
            for v in cands:
                if span.add(v):
                    stage.gens.append(StageGen(j, _vector_to_column(rs, v, dom)))
            sub[j] = span.basis()
    return res


def _vector_to_column(rs: RewriteSystem, vec: dict, blocks: list) -> dict:
    col: dict[int, dict] = {}
    starts = [off for _, _, off in blocks]
    for pos, c in vec.items():
        gi, m, off = blocks[bisect_right(starts, pos) - 1]
        w = rs.word_at(m, pos - off)
        if w == EMPTY_WORD:
            raise ResolutionError(
                "unit coefficient in a syzygy: previous stage was not minimal")
        col.setdefault(gi, {})[w] = c
    return col


def word_blocks(rs: RewriteSystem, degrees: list, top: int) -> tuple:
    """The layout of a degree piece of a free module over rs, whose
    generator gi contributes the normal words of degree degrees[gi]: a
    block (gi, degree, offset) for each degree in 0..top, in generator
    order, and the dimension of the piece.  Each block holds rs's normal
    words of its degree in order; only their number is read here."""
    blocks, size = [], 0
    for gi, m in enumerate(degrees):
        if 0 <= m <= top:
            blocks.append((gi, m, size))
            size += rs.dim(m)
    return blocks, size


def minimal_resolution(rs: RewriteSystem, hbound: int, dbound: int,
                       table: BettiTable | None = None) -> Resolution:
    """Minimal resolution of the trivial module: the augmentation ideal is
    generated by the algebra generators.

    Guided by the support of `table`, the Betti table of the algebra or of
    its opposite (Tor is balanced), when one is given; else, on a globally
    complete system, by its chains (Anick's resolution contains the minimal
    one).  Each is only an upper bound on where generators sit, and the
    resolution equals the full sieve's.  A system that is not globally
    complete runs the full sieve: its chains bound nothing there."""
    rels = [rs.monomial((g,)) for g in range(len(rs.degrees))]
    if table is not None:
        guide = table.support()
    elif rs.globally_complete:
        guide = chain_guide(rs, hbound, dbound)
    else:
        guide = None
    return resolve_cyclic(rs, rels, hbound, dbound, guide)


# ---------------------------------------------------------------------------
# chain certificates


def chain_counts(leads: list, lambda_words: list, degrees: tuple,
                 max_level: int, cap: int):
    """Potential generators per stage and degree via left-extension chains.

    Stage 1 chains are the given lead words of the stage-1 generators; a
    stage i+1 chain extends a stage-i chain on the left by a lead word
    overlapping its head, the piece added last.  Returns a list indexed by
    stage (0 unused) of (Counter degree -> number of chains, truncated at
    cap; overflow) pairs; overflow records that some chain passed the cap,
    so vanishing above the cap is not certified there.

    Every Anick chain is one of these, so the counts bound the ranks of
    Anick's resolution from above.  The walk does not ask that the lead be
    the only one in the extended head, so where a lead overlaps a head in
    two ways it counts chains Anick's do not (over x^3 = 0, stage 3 has a
    chain in degree 5 as well as 4)."""
    leads = [tuple(L) for L in leads]
    out = [(Counter(), False)]  # stage 0 placeholder
    frontier: Counter = Counter()   # (head, degree) -> number of chains
    overflow = False
    for w in lambda_words:
        d = word_degree(tuple(w), degrees)
        if d > cap:
            overflow = True
        else:
            frontier[(tuple(w), d)] += 1
    for i in range(1, max_level + 1):
        if i > 1:
            nxt: Counter = Counter()
            for (head, d), m in frontier.items():
                for o in leads:
                    for k in range(1, min(len(head), len(o) - 1) + 1):
                        if o[-k:] == head[:k]:
                            u = o[:-k]
                            dd = d + word_degree(u, degrees)
                            if dd > cap:
                                overflow = True
                            else:
                                nxt[(u, dd)] += m
            frontier = nxt
        counts: Counter = Counter()
        for (_, d), m in frontier.items():
            counts[d] += m
        out.append((counts, overflow))
    return out


def chain_guide(rs: RewriteSystem, hbound: int, dbound: int) -> Guide:
    """The cells of the trivial module's resolution that hold a chain of a
    globally complete system, through stage hbound and degree dbound."""
    if not rs.globally_complete:
        raise ResolutionError("chains of a truncated rewrite system bound "
                              "nothing")
    levels = chain_counts(rs.leads(), [(g,) for g in range(len(rs.degrees))],
                          rs.degrees, hbound, dbound)
    cells = frozenset((i, j) for i, (counts, _) in enumerate(levels)
                      for j in counts)
    return Guide(cells, hbound, dbound, "chain set")


def stage_certificates(res: Resolution) -> dict:
    """For each stage 1..hbound: True when every potential generator degree
    falls inside the searched window, so the stage's generator list is
    complete as found."""
    rs = res.rs
    if not rs.globally_complete:
        return {i: False for i in range(1, res.hbound + 1)}
    lam = [max(g.column[0], key=lambda w: deglex_key(w, rs.degrees))
           for g in res.stages[1].gens]
    levels = chain_counts(rs.leads(), lam, rs.degrees, res.hbound, res.dbound)
    # the counts stop at the cap dbound, so only an overflow leaves a stage
    # uncertified
    cert = {i: not levels[i][1] for i in range(1, res.hbound + 1)}
    # stage-1 generators can only sit at the degrees of the relations
    if res.relations and max(r.degree() for r in res.relations) <= res.dbound:
        cert[1] = True
    return cert


# ---------------------------------------------------------------------------
# Betti data and the derived checks


@dataclass(frozen=True)
class Guide:
    """Where the generators of a resolution may sit: a stage-i generator of
    internal degree j, i >= 2, needs (i, j) in `cells`.  An upper bound
    only, certified through stage `hbound` and degree `dbound`; `source`
    names the bound in errors."""
    cells: frozenset
    hbound: int
    dbound: int
    source: str


@dataclass(frozen=True)
class BettiTable:
    entries: dict               # (stage, internal degree) -> count
    hbound: int
    dbound: int
    certified_internal: int
    certified_homological: int
    stage_complete: dict        # stage -> bool (complete beyond the window too)

    def total(self, i: int) -> int:
        return sum(n for (ii, _), n in self.entries.items() if ii == i)

    def support(self) -> Guide:
        """The cells with a generator, certified as far as the table."""
        return Guide(frozenset(k for k, n in self.entries.items() if n),
                     self.certified_homological, self.certified_internal,
                     "Betti table")


def betti(res: Resolution) -> BettiTable:
    entries: dict = {}
    for st in res.stages:
        for g in st.gens:
            key = (st.index, g.degree)
            entries[key] = entries.get(key, 0) + 1
    rs = res.rs
    cert_int = res.dbound if rs.globally_complete else min(res.dbound,
                                                           rs.complete_below)
    return BettiTable(entries, res.hbound, res.dbound, cert_int, res.hbound,
                      stage_certificates(res))


@dataclass(frozen=True)
class GlobalDimReport:
    value: int | None
    certified: bool
    reason: str


def gldim_upto(res: Resolution, table: BettiTable | None = None) -> GlobalDimReport:
    """Global dimension when certifiable inside the window.

    Certified means: the top nonzero stage n has an empty, chain-complete
    stage n+1 above it and every stage up to n+1 is chain-complete, so the
    kernel of the last differential has no generators at all and the
    resolution provably stops.
    """
    table = table or betti(res)
    top = res.top_nonzero_stage()
    if top >= res.hbound:
        return GlobalDimReport(None, False,
                               f"stage {top} still nonzero at the homological "
                               f"bound {res.hbound}; raise -h")
    nxt = top + 1
    complete = all(table.stage_complete.get(i, False) for i in range(1, nxt + 1))
    if not complete:
        missing = [i for i in range(1, nxt + 1)
                   if not table.stage_complete.get(i, False)]
        return GlobalDimReport(top, False,
                               f"stages {missing} not certified complete "
                               f"within degree {res.dbound}")
    return GlobalDimReport(top, True,
                           f"stage {nxt} certifiably empty; resolution stops")


@dataclass(frozen=True)
class KoszulReport:
    applicable: bool
    verdict: bool | None
    diagonal_in_window: bool | None
    identity_to: int | None
    certified_stages: int | None
    detail: str


def koszul_check(res: Resolution, table: BettiTable, dims) -> KoszulReport:
    """Koszul pattern check: diagonal Betti table plus the numerical identity
    sum_i beta_(i,i) (-t)^i * H(t) = 1 through the certified window.

    `dims` is a hilbert.GradedDims for the same algebra.  The verdict is a
    windowed statement; `certified_stages` reports how many stages are also
    chain-complete, i.e. diagonal beyond the window as well."""
    if any(d != 1 for d in res.rs.degrees):
        return KoszulReport(False, None, None, None, None,
                            "only defined for generators in degree 1")
    off = [(i, j) for (i, j), n in table.entries.items() if n and i != j]
    diagonal = not off
    n_id = min(table.hbound, table.certified_internal, dims.certified_to)
    coeffs = [0] * (n_id + 1)
    for (i, j), n in table.entries.items():
        if i == j and i <= n_id:
            coeffs[i] = n * (-1) ** i
    ok = True
    for d in range(n_id + 1):
        acc = sum(coeffs[i] * dims.dim(d - i) for i in range(0, d + 1))
        if acc != (1 if d == 0 else 0):
            ok = False
            break
    certified = 0
    for i in range(1, table.hbound + 1):
        if table.stage_complete.get(i, False):
            certified = i
        else:
            break
    verdict = diagonal and ok
    detail = ("diagonal through the window and series identity holds to "
              f"degree {n_id}" if verdict else
              (f"off-diagonal entries {sorted(off)}" if off else
               f"series identity fails within degree {n_id}"))
    return KoszulReport(True, verdict, diagonal, n_id, certified, detail)
