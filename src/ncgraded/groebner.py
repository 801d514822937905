"""Truncated overlap completion for graded rewriting systems.

A presentation's relations are oriented into rewrite rules lead -> tail
(deglex lead, tail strictly smaller), and ambiguities (overlaps of lead
words) are resolved degree by degree up to a requested bound.  The result is
a `RewriteSystem` whose certificate is explicit: every ambiguity of total
degree <= complete_below has been checked to resolve, and `globally_complete`
is decided once, from the rules completion returns: it is False when a
polynomial was skipped for its degree, or when two final leads overlap
above the bound and one of their tails is nonzero.  Otherwise the system is
a full noncommutative Groebner basis and normal-word data is valid in every
degree.

The rules are one dict, `RewriteSystem.rules`, from each lead to its tail,
a terms dict word -> scalar, in the order the rules were added.  A rule
that completion retires leaves the dict, and its lead never comes back: a
lead is retired only by a new lead that divides it, so from then on some
lead in the dict divides it, and a new lead is reduced.  So a pending
ambiguity is named by its two leads, and is still open while both are
keys.  The final rule set is reduced: no lead contains another
lead as a subword and every tail is in normal form.  A closing
verification pass re-checks all ambiguities among the rules, so the
certificate does not depend on the bookkeeping of the main loop.

Every rewrite of a word, in completion and in the normal form of an
element, goes through `nf` (the multiplication tables below take the same
steps in positions), which builds the normal form of a word by left
multiplication: the word's letters multiply the normal form of the empty
word one at a time, last letter first, each product memoized under its
word.  The leads are an antichain
under the subword relation (a new lead is reduced against the leads, and
inserting it retires every lead that contains it), so at most one lead
starts at any position of a word, and for g * u with u normal only a lead
that starts at g can apply: finding the rewrite costs one hash lookup per
lead length.  The terms are sorted into descending tuple order,
which within one degree is descending deglex.  The words a normal form
waits on are kept on an explicit stack, so no recursion grows with the
length of a word, and those above `degree_bound`, which no basis of the
system reaches, in a scratch dict that lives for one reduction only: the
words of one element share it.  `normal_form` is the linear extension of
`nf` to elements.

Any full reduction yields an irreducible element congruent to the word, and
where the system is confluent (everywhere when it is `globally_complete`,
else in degrees up to `complete_below`) that element is the normal form,
whatever the order of the rewrites (Bergman 1978, Adv. Math. 29, the
diamond lemma).  So completion reduces through `nf` too: its S-polynomials
are terms dicts, summed from memoized normal forms.  A word's normal form
reads only rules of degree up to its own, so `add_rule` and `retire` drop
the memoized normal forms from the rule's degree up and keep those below,
and the words of the degrees completion has closed stay memoized.  A sound
memo leaves no alive lead in a reduced lead, so completion raises
RuntimeError on one instead of inserting it forever.

Downstream products in the algebra go through the multiplication tables.
The system keeps one table per word t, degree m and side: for each normal
word w of degree m, in order, NF(t * w) (or NF(w * t)) as (position,
scalar) pairs over the normal words of degree m + deg t, in descending
position.  `products` reads a sum of such tables into the coordinate
vectors of a block of normal words, one vector per word, each product
placed in a block of its own degree at a given offset.  That is the shape
of every differential, dual differential and action map built from the
system, so its callers never hash a word: a column is block offsets plus
table rows.

The tables are built in positions, from the left letter tables, and no
word's normal form is taken.  The left tables of the letters are built one
target degree D at a time, their rows in the tuple order of the products
g * w.  Tuple order puts the normal words of D that start with g in one
block, ordered by the rest, so when no lead is a prefix of g * w, g * w is
the next normal word of D.  Else exactly one lead L is (the leads are an
antichain and w is normal), g * w = L * r, and the row is the sum of
c * T_u1(... T_um(e_r)) over the tail terms c * u of L: as u * r < g * w,
that reads tables into lower degrees and earlier rows into D only.  The
left table of a word is T_t1 applied to that of t[1:], and the row of
w * t is T_w1 applied to the row of w[1:] * t, a row of lower degree; the
row of the empty word is NF(t).  So every row is the one `nf` builds, by
the same left multiplication, even where the system is not confluent.

The normal words, those that contain no lead, are read off one
automaton of the leads, Ufnarovski's graph of normal words
(Ufnarovski 1982, Mat. Zametki 31).  Its states are the proper prefixes of
leads, numbered; a normal word is in the state of its longest suffix that
is one, and a letter moves it to the state of the longer word, or nowhere
when that word ends in a lead.  As the leads are an antichain, a word is
normal exactly when its path from the start, the empty word, never stops.
`dim` counts the paths of each degree, one degree after another, and
`normal_words` walks them depth first, smallest letter first, so it lists
the words in tuple order.  The automaton, the counts, the listings and the
tables are cleared whole whenever the rules change.

The enveloping algebra A (x) A^op is neither completed nor given rules of
its own: `EnvelopingSystem` is a view of completed systems of A and A^op.
Its Groebner basis (that of a tensor product, Bergman 1978, Adv. Math. 29,
the diamond lemma) is A's, A^op's on the opposite letters n..2n-1, and the
commutators g' * h -> h * g' of an opposite letter g' and an original
letter h, and the view lists only its leads.  A commutator whose letter h
(or g') is itself a lead is left out: its lead contains that letter, so the
leads would not be an antichain, and the reduced basis needs no such rule,
since h rewrites to normal words of A, whose letters the other commutators
move past g'.
A normal word of the enveloping algebra is a normal word u of A followed by
one v of A^op, and the normal form of any word is the product of the normal
forms of its original and of its opposite letters.  The normal words of
one degree come in tuple order, which groups them into one run per u: an
opposite letter sorts after every original one, so the runs follow the
order of the tuples u + (n,), and within a run the words follow v.  The
position of u v is the start of u's run plus the index of v among the
normal words of A^op.  So `EnvelopingSystem.products` multiplies by a pair
(t_A, t_op) on the run of u through A^op's `products`: the row of A's
table for t_A at u lists NF(t_A * u) (or NF(u * t_A)) as pairs (u', s),
and each pair turns a term (offset, (t_A, t_op), c) into the term
(offset + start of the run of u', t_op, c * s) of A^op.  So one
accumulation loop serves both systems: no word of A (x) A^op is built, no
normal form of a whole word is memoized, and no table is stored at that
level.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field as dc_field

from .exactla import FieldSpec, reduce_vector
from .freealg import EMPTY_WORD, FreeElement, Word, deglex_key, word_degree


def find_subword(word: Word, sub: Word) -> int:
    """Leftmost start index of sub in word, or -1."""
    n, m = len(word), len(sub)
    if m == 0 or m > n:
        return -1
    first = sub[0]
    for i in range(n - m + 1):
        if word[i] == first and word[i:i + m] == sub:
            return i
    return -1


@dataclass
class RewriteSystem:
    """A rule set and the one path that rewrites with it, `nf`.

    `rules` maps each lead to its tail, a terms dict whose words are all
    deglex smaller, in the order the rules were added; it holds no retired
    rule.  The constructor copies it (ValueError when the leads are not an
    antichain) and keeps the sorted lead lengths beside it.  Afterwards the
    rules change only through `add_rule` and `retire`, which drop the
    normal forms that `nf` memoizes (per degree) from the rule's degree up,
    and clear the automaton of the leads, the counts and listings of normal
    words read from it, their positions and the multiplication tables.
    Completion also rewrites tails in place: a memoized normal form stays
    irreducible and congruent when a tail it read is reduced."""

    field: FieldSpec
    degrees: tuple
    names: tuple
    degree_bound: int
    rules: dict = dc_field(default_factory=dict)
    complete_below: int = 0
    globally_complete: bool = False
    stats: dict = dc_field(default_factory=dict)
    _lengths: list = dc_field(init=False, repr=False, compare=False)
    _nf: dict = dc_field(init=False, repr=False, compare=False)
    _nf_at: dict = dc_field(init=False, repr=False, compare=False)
    _moves: list | None = dc_field(init=False, repr=False, compare=False)
    _dims: list = dc_field(init=False, repr=False, compare=False)
    _layers: dict = dc_field(init=False, repr=False, compare=False)
    _nw: dict = dc_field(init=False, repr=False, compare=False)
    _pos: dict = dc_field(init=False, repr=False, compare=False)
    _tables: dict = dc_field(init=False, repr=False, compare=False)
    _splits: list = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.rules = dict(self.rules)
        for a in self.rules:
            for b in self.rules:
                if a != b and find_subword(b, a) >= 0:
                    raise ValueError(f"lead {a} is a subword of lead {b}")
        self._nf = {}           # word -> normal form
        self._nf_at = {}        # degree -> the words of _nf of that degree
        self._reindexed(0)

    def _reindexed(self, degree: int) -> None:
        """After a change to the rules of a degree: a word's normal form
        reads only rules of degree up to its own, so the memoized normal
        forms below that degree stay."""
        self._lengths = sorted({len(L) for L in self.rules})
        for d in [d for d in self._nf_at if d >= degree]:
            for w in self._nf_at.pop(d):
                del self._nf[w]
        self._moves = None
        self._dims = []
        self._layers = {0: {0: 1}}
        self._nw = {}
        self._pos = {}
        self._tables = {}
        self._splits = [[]]     # degree -> (letter, position of the rest)

    def add_rule(self, lead: Word, tail: dict) -> None:
        """Add the rule lead -> tail, a lead that no lead divides or is
        divided by (completion retires those first)."""
        self.rules[lead] = tail
        self._reindexed(word_degree(lead, self.degrees))

    def retire(self, lead: Word) -> dict:
        """Drop the rule of a lead; returns its tail."""
        tail = self.rules.pop(lead)
        self._reindexed(word_degree(lead, self.degrees))
        return tail

    def leads(self) -> list:
        return list(self.rules)

    def monomial(self, w: Word) -> FreeElement:
        return FreeElement.monomial(self.field, self.degrees, w)

    def normal_words(self, degree: int) -> list:
        """The words of a degree that contain no lead, in deglex order:
        valid in every degree when globally complete, else up to
        `complete_below`.  Listed once per degree for the rule set as it
        stands; callers share the list and must not change it."""
        words = self._nw.get(degree)
        if words is None:
            words = self._nw[degree] = self._list_normal_words(degree)
        return words

    def _list_normal_words(self, degree: int) -> list:
        # depth first over the automaton, the smallest letter popped first:
        # the words come out in tuple order, with no recursion however long
        # they are
        moves, out = self._automaton(), []
        stack = [(EMPTY_WORD, 0, 0)] if degree >= 0 else []
        while stack:
            word, deg, state = stack.pop()
            if deg == degree:
                out.append(word)
                continue
            for g, k, nxt in moves[state]:
                if deg + k <= degree:
                    stack.append((word + (g,), deg + k, nxt))
        return out

    def dim(self, degree: int) -> int:
        """The number of normal words of a degree, 0 below degree 0: the
        paths of that degree from the start of the automaton, counted one
        degree after another."""
        if degree < 0:
            return 0
        dims, layers = self._dims, self._layers
        if degree >= len(dims):
            moves = self._automaton()
            while len(dims) <= degree:
                d = len(dims)
                layer = layers.pop(d, {})     # state -> words of degree d
                dims.append(sum(layer.values()))
                for state, c in layer.items():
                    for _, k, nxt in moves[state]:
                        at = layers.setdefault(d + k, {})
                        at[nxt] = at.get(nxt, 0) + c
        return dims[degree]

    def _automaton(self) -> list:
        """The automaton of the leads (module docstring), built once for
        the rule set as it stands: for each state, its moves (letter,
        degree of the letter, next state), largest letter first."""
        if self._moves is None:
            self._moves = _lead_automaton(self.leads(), self.degrees)
        return self._moves

    def position(self, w: Word) -> int:
        """The index of a normal word among the normal words of its
        degree."""
        return self._index(word_degree(w, self.degrees))[w]

    def word_at(self, degree: int, k: int) -> Word:
        """The normal word at index k of a degree."""
        return self.normal_words(degree)[k]

    def _index(self, degree: int) -> dict:
        index = self._pos.get(degree)
        if index is None:
            index = self._pos[degree] = {
                w: k for k, w in enumerate(self.normal_words(degree))}
        return index

    def table(self, t: Word, degree: int, left: bool = True) -> tuple:
        """The multiplication table of the word t on the normal words of a
        degree: for each normal word w, in order, NF(t * w) (left) or
        NF(w * t) as (position, scalar) pairs over the normal words of
        degree + deg t, in descending position.  Built once for the rule
        set as it stands, from the left letter tables (module docstring)."""
        key, tables, degs = (t, degree, left), self._tables, self.degrees
        rows = tables.get(key)
        if rows is not None:
            return rows
        if not t:
            rows = tables[key] = tuple(((k, 1),)
                                       for k in range(self.dim(degree)))
            return rows
        self._letter_tables(degree + word_degree(t, degs))
        rows = tables.get(key)          # a letter's left table is built
        if rows is not None:
            return rows
        if left:
            # T_t = T_t1 . T_t[1:]
            first = tables[(t[:1], degree + word_degree(t[1:], degs), True)]
            rows = tables[key] = tuple([self._apply(first, row) for row in
                                        self.table(t[1:], degree)])
            return rows
        # the row of w * t is T_w1 applied to the row of w[1:] * t, one
        # degree after another; the row of the empty word is NF(t)
        for d in range(degree + 1):
            if (t, d, False) not in tables:
                e = d + word_degree(t, degs)
                tables[(t, d, False)] = self.table(t, 0) if d == 0 else tuple(
                    [self._apply(tables[((g,), e - degs[g], True)],
                                 tables[(t, d - degs[g], False)][k])
                     for g, k in self._splits[d]])
        return tables[key]

    def _apply(self, rows, vec) -> tuple:
        """The image under a table of a coordinate vector given as
        (position, scalar) pairs, in descending position."""
        if len(vec) == 1 and vec[0][1] == 1:
            return rows[vec[0][0]]
        acc: dict = {}
        for k, c in vec:
            for r, s in rows[k]:
                acc[r] = acc.get(r, 0) + c * s
        return tuple(sorted(reduce_vector(acc, self.field.p).items(),
                            reverse=True))

    def _letter_tables(self, target: int) -> None:
        """Build the left table of every letter into each degree up to
        target, one degree D at a time.  The rows into D come in the tuple
        order of their products g * w, g ascending, then w.  When no lead
        is a prefix of g * w, it is the next normal word of D, whose split
        (g, position of w) is recorded.  Else the one lead L that is, say
        g * w = L * r, gives the row sum c * T_u1(... T_um(e_r)) over the
        tail terms c * u of L, which reads tables into lower degrees or
        earlier rows into D, as u * r < g * w."""
        split, degs = self._splits, self.degrees
        if len(split) > target:
            return
        tables, p = self._tables, self.field.p
        # the leads as a trie: letter -> (tail, None) at the end of a lead,
        # else (None, the next letters)
        trie: dict = {}
        for lead, tail in self.rules.items():
            node = trie
            for h in lead[:-1]:
                node = node.setdefault(h, (None, {}))[1]
            node[lead[-1]] = (tail, None)
        while len(split) <= target:
            top = len(split)
            placed: list = []       # the split of each normal word of top
            for g, k in enumerate(degs):
                d = top - k
                if d < 0:
                    continue
                rows: list = []
                tables[((g,), d, True)] = rows
                for i, w in enumerate(self.normal_words(d)):
                    entry, m = trie.get(g), 0
                    while (entry is not None and entry[0] is None
                           and m < len(w)):
                        entry, m = entry[1].get(w[m]), m + 1
                    if entry is None or entry[0] is None:
                        rows.append(((len(placed), 1),))
                        placed.append((g, i))
                        continue
                    # r = w[m:], split off w's first m letters
                    at, r = d, i
                    for _ in range(m):
                        h, r = split[at][r]
                        at -= degs[h]
                    parts = []
                    for u, c in entry[0].items():
                        vec, e = ((r, c),), at
                        for h in reversed(u):
                            vec = self._apply(tables[((h,), e, True)], vec)
                            e += degs[h]
                        parts.append(vec)
                    if len(parts) != 1:
                        acc: dict = {}
                        for vec in parts:
                            for q, s in vec:
                                acc[q] = acc.get(q, 0) + s
                        parts = [tuple(sorted(reduce_vector(acc, p).items(),
                                              reverse=True))]
                    rows.append(parts[0])
                tables[((g,), d, True)] = tuple(rows)
            split.append(placed)

    def products(self, terms, degree: int, left: bool = True) -> list:
        """For each normal word w of a degree, in order, the coordinate
        vector of  sum c * NF(t * w)  (left) or  sum c * NF(w * t)  over
        (offset, t, c) in `terms`: the product with t is written into the
        normal words of its own degree, from position `offset` on."""
        p = self.field.p
        tables = [(off, self.table(t, degree, left), c)
                  for off, t, c in terms]
        out = []
        for k in range(self.dim(degree)):
            acc: dict = {}
            for off, rows, c in tables:
                for pos, s in rows[k]:
                    r = off + pos
                    acc[r] = acc.get(r, 0) + c * s
            out.append(reduce_vector(acc, p))
        return out

    def nf(self, word: Word, scratch: dict | None = None) -> dict:
        """Normal form of a word as a dict normal word -> scalar, by left
        multiplication (module docstring).  A word of degree up to
        `degree_bound` is computed once for the rules of its degree as they
        stand; the words above it that a left multiplication passes through
        are kept in `scratch`, a dict that the words of one reduction may
        share, and else for that call only, so one long word cannot fill
        the memo."""
        terms = self._nf.get(word)
        if terms is None:
            terms = self._normal_form(word, word_degree(word, self.degrees),
                                      {} if scratch is None else scratch)
        return terms

    def _normal_form(self, word: Word, deg: int, scratch: dict) -> dict:
        """`nf` of a word of degree deg that is not memoized."""
        memo, at = self._nf, self._nf_at
        p, degs, top = self.field.p, self.degrees, self.degree_bound
        todo = [(word, deg)]  # the words whose normal forms it waits on
        while todo:
            w, d = todo[-1]
            known = memo if d <= top else scratch
            if w in known:
                todo.pop()
                continue
            if w:
                s, ds = w[1:], d - degs[w[0]]
                inner = (memo if ds <= top else scratch).get(s)
                if inner is None:
                    todo.append((s, ds))
                    continue
            else:
                s, inner = w, {w: 1}
            parts = self._left_step(w, s, inner)
            if parts is None:
                terms = {w: 1}
            else:
                missing = [(u, d) for _, u in parts if u not in known]
                if missing:
                    todo += missing
                    continue
                acc: dict = {}
                for c, u in parts:
                    for v, cv in known[u].items():
                        acc[v] = acc.get(v, 0) + c * cv
                terms = dict(sorted(reduce_vector(acc, p).items(),
                                    reverse=True))
            known[w] = terms
            if known is memo:
                at.setdefault(d, []).append(w)
        return (memo if deg <= top else scratch)[word]

    def _left_step(self, w: Word, s: Word, inner: dict):
        """One step of the left multiplication w = g * s, given NF(s):
        NF(w) as a list of (scalar, word) whose normal forms sum to it, or
        None when w is normal.  With s normal only a lead that starts at g
        can apply; else g multiplies each term of NF(s)."""
        if s not in inner:
            g = w[:1]
            return [(cu, g + u) for u, cu in inner.items()]
        for m in self._lengths:
            if m > len(w):
                break
            tail = self.rules.get(w[:m])
            if tail is not None:
                rest = w[m:]
                return [(tc, tw + rest) for tw, tc in tail.items()]
        return None


class EnvelopingSystem:
    """A (x) A^op as a view of the completed systems `algebra` of A and
    `opposite` of A^op (same generators, relations reversed), with the
    generators of `presentation.enveloping`: the originals, then one `_op`
    copy of each.  It is certified below the lower of the two bounds, and
    globally complete when both systems are.

    `leads` lists the leads of the module docstring; `nf`, `dim`,
    `position`, `word_at` and `products` take the split: a word factors
    into its original letters and its opposite letters (shifted back to
    0..n-1), its normal form is NF_A(original) (x) NF_A^op(opposite), and
    its position follows from the runs of the module docstring.  Only the
    run starts and dimensions of each degree are kept here; the normal
    forms and the tables are those of A and A^op."""

    def __init__(self, rs: RewriteSystem, rs_op: RewriteSystem):
        if rs.field != rs_op.field or rs.degrees != rs_op.degrees:
            raise ValueError("the opposite system is over another free "
                             "algebra")
        self.algebra, self.opposite = rs, rs_op
        self.field = rs.field
        self.degrees = rs.degrees + rs.degrees
        self.complete_below = min(rs.complete_below, rs_op.complete_below)
        self.globally_complete = (rs.globally_complete
                                  and rs_op.globally_complete)
        self._runs: dict = {}
        self._dims: dict = {}

    def leads(self) -> list:
        """A's leads, A^op's on the opposite letters, then the commutator
        leads (n + j, i), j before i, of the letters that are no lead of
        A^op (j) and of A (i)."""
        a_leads, o_leads = self.algebra.leads(), self.opposite.leads()
        n = len(self.algebra.degrees)
        return (a_leads + [tuple(g + n for g in L) for L in o_leads]
                + [(n + j, i) for j in range(n) if (j,) not in o_leads
                   for i in range(n) if (i,) not in a_leads])

    def _split(self, w: Word) -> tuple:
        """(original letters, opposite letters shifted back to 0..n-1)."""
        n = len(self.algebra.degrees)
        return (tuple(g for g in w if g < n), tuple(g - n for g in w if g >= n))

    def _layout(self, degree: int) -> tuple:
        """(runs, starts) of the normal words of a degree.  `runs` lists
        (start, a, i, degree - a) for the i-th normal word u of A_a, in the
        order of the tuples u + (n,), when A^op has normal words of degree
        degree - a; starts[a][i] is where the run of that u starts (or would
        start, when it is empty)."""
        layout = self._runs.get(degree)
        if layout is None:
            a_rs, o_rs = self.algebra, self.opposite
            n = len(a_rs.degrees)
            order = sorted((u + (n,), a, i) for a in range(degree + 1)
                           for i, u in enumerate(a_rs.normal_words(a)))
            runs: list = []
            starts = {a: [0] * a_rs.dim(a) for a in range(degree + 1)}
            at = 0
            for _, a, i in order:
                starts[a][i] = at
                size = o_rs.dim(degree - a)
                if size:
                    runs.append((at, a, i, degree - a))
                    at += size
            layout = self._runs[degree] = (runs, starts)
        return layout

    def dim(self, degree: int) -> int:
        size = self._dims.get(degree)
        if size is None:
            a_rs, o_rs = self.algebra, self.opposite
            size = self._dims[degree] = sum(a_rs.dim(a) * o_rs.dim(degree - a)
                                            for a in range(degree + 1))
        return size

    def position(self, w: Word) -> int:
        u, v = self._split(w)
        a = word_degree(u, self.algebra.degrees)
        starts = self._layout(a + word_degree(v, self.opposite.degrees))[1]
        return starts[a][self.algebra.position(u)] + self.opposite.position(v)

    def word_at(self, degree: int, k: int) -> Word:
        runs = self._layout(degree)[0]
        start, a, i, b = runs[bisect_right(runs, (k, math.inf)) - 1]
        n = len(self.algebra.degrees)
        return (self.algebra.word_at(a, i)
                + tuple(g + n for g in self.opposite.word_at(b, k - start)))

    def nf(self, word: Word, scratch: dict | None = None) -> dict:
        """NF_A(original letters) (x) NF_A^op(opposite letters).  A shared
        `scratch` keeps one scratch dict of each system under the key None,
        which is no word."""
        a, o = self._split(word)
        n, mul = len(self.algebra.degrees), self.field.mul
        sa, so = (None, None) if scratch is None else scratch.setdefault(
            None, ({}, {}))
        vs = [(tuple(g + n for g in v), cv)
              for v, cv in self.opposite.nf(o, so).items()]
        return {u + v: mul(cu, cv)
                for u, cu in self.algebra.nf(a, sa).items() for v, cv in vs}

    def products(self, terms, degree: int, left: bool = True) -> list:
        """As `RewriteSystem.products`, each t a pair (t_A, t_op): for each
        run of a normal word u of A, the row of A's table for t_A at u
        turns each term into terms (offset, t_op, c * s) of A^op's
        `products` on the run.  The tables and the run starts of the
        products are looked up once per degree of u."""
        a_rs, o_rs = self.algebra, self.opposite
        split = []
        for off, t, c in terms:
            ta, to = self._split(t)
            split.append((off, ta, to, word_degree(ta, a_rs.degrees),
                          word_degree(to, o_rs.degrees), c))
        out: list = []
        by_split: dict = {}     # a -> per term: A table, t_op, starts
        for _, a, i, b in self._layout(degree)[0]:
            tables = by_split.get(a)
            if tables is None:
                tables = by_split[a] = [
                    (off, c, a_rs.table(ta, a, left), to,
                     self._layout(degree + da + do)[1][a + da])
                    for off, ta, to, da, do, c in split]
            out += o_rs.products([(off + starts[pa], to, c * sa)
                                  for off, c, a_rows, to, starts in tables
                                  for pa, sa in a_rows[i]], b, left)
        return out


def normal_form(rs: RewriteSystem, elem: FreeElement) -> FreeElement:
    """Fully reduce an element: the sum of c * `rs.nf`(w) over its terms,
    written in descending tuple order."""
    return FreeElement(rs.field, rs.degrees, _reduce(rs, elem.terms))


def _reduce(rs: RewriteSystem, terms: dict) -> dict:
    """`normal_form` of the terms dict word -> scalar, as a dict; the
    scalars may be summed with the raw operators.  Its words share one
    scratch dict for the normal forms above the degree bound."""
    acc: dict = {}
    scratch: dict = {}
    for w, c in terms.items():
        for v, cv in rs.nf(w, scratch).items():
            acc[v] = acc.get(v, 0) + c * cv
    return dict(sorted(reduce_vector(acc, rs.field.p).items(), reverse=True))


def substitute(rs: RewriteSystem, images: list, terms: dict) -> dict:
    """The normal form of the image of the terms dict word -> scalar under
    the map that sends generator g to the terms dict images[g]: each
    word's image multiplied out one letter at a time, from the left,
    through `rs.nf`.  The scalars may be summed with the raw operators."""
    p, acc = rs.field.p, {}
    for w, c in terms.items():
        part = {EMPTY_WORD: c}
        for g in w:
            step: dict = {}
            for u, cu in part.items():
                for x, cx in images[g].items():
                    for v, cv in rs.nf(u + x).items():
                        step[v] = step.get(v, 0) + cu * cx * cv
            part = reduce_vector(step, p)
        for v, cv in part.items():
            acc[v] = acc.get(v, 0) + cv
    return reduce_vector(acc, p)


def _overlaps(u: Word, v: Word):
    """Proper overlaps: suffix of u of length k equals prefix of v.
    Yields (k, ambiguity word u + v[k:])."""
    for k in range(1, min(len(u), len(v))):
        if u[-k:] == v[:k]:
            yield k, u + v[k:]


class _Completion:
    """Overlap completion of `rs`.  A pending ambiguity is (u, v, k), the
    overlap of the leads u and v in k letters.  A polynomial or an
    ambiguity above the degree bound is skipped.  A skipped polynomial
    leaves the system truncated; a skipped ambiguity is counted only, as
    the tails it reads may still be reduced.  `truncated` reads the final
    rules: an overlap of two of their leads above the bound leaves the
    system truncated unless both tails are zero, when its S-polynomial is
    0 - 0 in every degree."""

    def __init__(self, rs: RewriteSystem):
        self.rs = rs
        self.heap: list = []
        self.counter = itertools.count()
        self.skipped = False
        self.stats = {"polys_processed": 0, "pairs_processed": 0,
                      "pairs_skipped_degree": 0}

    def push_poly(self, terms: dict) -> None:
        deg = max(word_degree(w, self.rs.degrees) for w in terms)
        if deg > self.rs.degree_bound:
            self.skipped = True
            return
        heapq.heappush(self.heap, (deg, next(self.counter), "poly", terms))

    def push_pair(self, u: Word, v: Word, k: int, word: Word) -> None:
        deg = word_degree(word, self.rs.degrees)
        if deg > self.rs.degree_bound:
            self.stats["pairs_skipped_degree"] += 1
            return
        heapq.heappush(self.heap, (deg, next(self.counter), "pair", (u, v, k)))

    def spoly(self, u: Word, v: Word, k: int) -> dict:
        """The raw terms of  tail_u * v[k:] - u[:len(u) - k] * tail_v  for
        the ambiguity u + v[k:] of the leads u and v."""
        rules = self.rs.rules
        suffix, prefix = v[k:], u[:len(u) - k]
        acc = {w + suffix: c for w, c in rules[u].items()}
        for w, c in rules[v].items():
            acc[prefix + w] = acc.get(prefix + w, 0) - c
        return acc

    def insert(self, terms: dict) -> None:
        rs, f = self.rs, self.rs.field
        terms = _reduce(rs, terms)
        if not terms:
            return
        lead = max(terms, key=lambda w: deglex_key(w, rs.degrees))
        # a sound memo reduces every word, so an alive lead in the new lead
        # is a fault, and inserting it would go on forever
        if any(lead[a:a + m] in rs.rules for m in rs._lengths
               for a in range(len(lead) - m + 1)):
            raise RuntimeError(f"completion reduced an element to the lead "
                               f"{lead}, which contains an alive lead")
        inv = f.inv(terms[lead])
        tail = {w: f.neg(f.mul(inv, c)) for w, c in terms.items() if w != lead}
        # retire rules whose lead the new lead divides; requeue their content
        for old in [L for L in rs.rules if find_subword(L, lead) >= 0]:
            old_tail = rs.retire(old)
            self.push_poly({old: 1, **{w: -c for w, c in old_tail.items()}})
        rs.add_rule(lead, tail)
        # keep tails reduced: they were, so only the new lead can sit in one
        for old, t in list(rs.rules.items())[:-1]:
            if any(find_subword(w, lead) >= 0 for w in t):
                rs.rules[old] = _reduce(rs, t)
        for old in rs.rules:
            for k, word in _overlaps(old, lead):
                self.push_pair(old, lead, k, word)
            if old != lead:
                for k, word in _overlaps(lead, old):
                    self.push_pair(lead, old, k, word)

    def drain(self) -> None:
        rules = self.rs.rules
        while self.heap:
            _, _, kind, payload = heapq.heappop(self.heap)
            if kind == "poly":
                self.stats["polys_processed"] += 1
                self.insert(payload)
            else:
                u, v, k = payload
                if u not in rules or v not in rules:
                    continue
                self.stats["pairs_processed"] += 1
                self.insert(self.spoly(u, v, k))

    def verify(self) -> None:
        """Re-check every ambiguity among surviving rules; resolve stragglers.
        On exit the complete_below certificate holds by direct inspection.
        Its S-polynomials are formed and reduced as in `drain`."""
        rules = self.rs.rules
        while True:
            leads = list(rules)
            dirty = False
            for u in leads:
                for v in leads:
                    for k, word in _overlaps(u, v):
                        if u not in rules or v not in rules:
                            break       # an insert retired one of them
                        deg = word_degree(word, self.rs.degrees)
                        if deg > self.rs.degree_bound:
                            continue
                        s = _reduce(self.rs, self.spoly(u, v, k))
                        if s:
                            dirty = True
                            self.insert(s)
                if dirty:
                    break
            if not dirty:
                return
            self.drain()

    def truncated(self) -> bool:
        """Whether a polynomial was skipped, or an overlap of two final
        leads above the bound has a nonzero tail."""
        rs, rules = self.rs, self.rs.rules
        return self.skipped or any(
            (rules[u] or rules[v])
            and word_degree(word, rs.degrees) > rs.degree_bound
            for u in rules for v in rules for _, word in _overlaps(u, v))


def complete(p, degree_bound: int) -> RewriteSystem:
    """Run overlap completion on a Presentation up to `degree_bound`.

    Postconditions: all ambiguities of degree <= degree_bound resolve;
    `globally_complete` is True when no polynomial was dropped for
    exceeding the bound and every overlap of the returned leads above it
    has two zero tails, in which case the rule set is a full Groebner basis
    of the defining ideal.
    """
    if degree_bound < 1:
        raise ValueError("degree bound must be >= 1")
    rs = RewriteSystem(p.field, p.degree_vector(), p.names(), degree_bound)
    comp = _Completion(rs)
    for r in p.relations:
        comp.push_poly(r.terms)
    comp.drain()
    comp.verify()
    rs.complete_below = degree_bound
    rs.globally_complete = not comp.truncated()
    comp.stats["rules"] = len(rs.rules)
    rs.stats = dict(comp.stats)
    return rs


def _lead_automaton(leads: list, degrees: tuple) -> list:
    """Ufnarovski's graph of the words that contain none of `leads`, an
    antichain under the subword relation.  State 0 is the empty word and
    the other states are the other proper prefixes of leads, shortest
    first.  A normal word is in the state of its longest suffix that is a
    proper prefix of a lead; a letter that makes a lead the suffix has no
    move.  Returns, for each state, its moves (letter, degree of the
    letter, next state), largest letter first."""
    leads = set(leads)
    prefixes = sorted({EMPTY_WORD} | {L[:k] for L in leads
                                      for k in range(1, len(L))}, key=len)
    index = {w: s for s, w in enumerate(prefixes)}
    rows: list = []         # state -> next state per letter, -1 for none
    for w in prefixes:
        # the state of w[1:], from rows of shorter states
        back = 0
        for g in w[1:]:
            back = rows[back][g]
        row = []
        for g in range(len(degrees)):
            u = w + (g,)
            if u in leads:
                row.append(-1)
            elif u in index:
                row.append(index[u])
            else:
                row.append(rows[back][g] if w else 0)
        rows.append(row)
    return [[(g, degrees[g], row[g]) for g in reversed(range(len(degrees)))
             if row[g] >= 0] for row in rows]
