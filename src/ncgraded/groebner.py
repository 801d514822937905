"""Truncated overlap completion for graded rewriting systems.

A presentation's relations are oriented into rewrite rules lead -> tail
(deglex lead, tail strictly smaller), and ambiguities (overlaps of lead
words) are resolved degree by degree up to a requested bound.  The result is
a `RewriteSystem` whose certificate is explicit: every ambiguity of total
degree <= complete_below has been checked to resolve, and `globally_complete`
records whether anything at all was skipped for degree reasons.  When the
queue drains without skipping, the system is a full noncommutative Groebner
basis and normal-word data is valid in every degree.

The final rule set is reduced: no lead contains another lead as a subword and
every tail is in normal form.  A closing verification pass re-checks all
ambiguities among the surviving rules, so the certificate does not depend on
the bookkeeping of the main loop.

Every rewrite, during completion and after it, goes through the system's
own lead index.  Because the alive leads are an antichain under the subword
relation (a new lead is reduced against the alive leads, and inserting it
retires every lead that contains it), at most one lead starts at any
position of a word, so the rewrite site is found by hash lookups of the
subwords at each start position, shortest lead length first.  Completion
updates the index through `add_rule` and `retire`.

Downstream products in the algebra go through `nf` and `combine`: the
system memoizes the normal form of each word for as long as its rule set
stands, and writes sums of normal forms of products left * right into
coordinate vectors over (slot, normal word) bases, which is the shape of
every differential, dual differential and action map built from the system.
Callers hand `combine` each factor as `factor` writes it and index the
basis through `basis_index`, so one caller serves every system.

`nf` builds the normal form of a word by left multiplication: the word's
letters multiply the normal form of the empty word one at a time, last
letter first, each product memoized under its word.  For g * u with u
normal, a lead can only start at g, so finding the rewrite costs one lookup
per lead length instead of `site`'s scan of every position; the terms are
sorted into the order `normal_form` writes them.  The order of the rewrites
does not matter only where the system is confluent: everywhere when it is
`globally_complete`, else in degrees up to `complete_below`.  Above that
`nf` rewrites the whole word through `normal_form`.  The words a normal
form waits on are kept on an explicit stack, so no recursion grows with
the length of a word.

The enveloping algebra A (x) A^op is not completed: `enveloping_system`
builds its rewrite system from completed systems of A and A^op.  Its rules
are A's rules, A^op's rules on the opposite letters n..2n-1, and the
commutators g' * h -> h * g' of an opposite letter g' and an original
letter h.  Overlaps of a commutator with another rule resolve at every
degree, by commuting the other rule's tail past the letter, so together
the rules form a Groebner basis as far as A's and A^op's do (the Groebner
basis of a tensor product, Bergman 1978, Adv. Math. 29, the diamond lemma).
A normal word of the enveloping algebra is a normal word of A followed by
one of A^op, and the normal form of any word is the product of the normal
forms of its original and of its opposite letters.  So `EnvelopingSystem`
reduces a product as a pair of one-sided products through the two
one-sided memos, and memoizes no normal form of a whole word.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field as dc_field

from .exactla import FieldSpec
from .freealg import EMPTY_WORD, FreeElement, Word, word_degree


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
class RewriteRule:
    lead: Word
    tail: FreeElement      # lead rewrites to tail; every tail word < lead
    degree: int
    alive: bool = True

    def as_element(self) -> FreeElement:
        f = self.tail.field
        lead_elem = FreeElement.monomial(f, self.tail.degrees, self.lead)
        return lead_elem - self.tail


@dataclass
class RewriteSystem:
    """A rule set and the one path that rewrites with it.

    The alive rules are indexed by lead word, together with the sorted lead
    lengths; `site` finds a rewrite with one hash lookup per start position
    and lead length.  The index is built from `rules` (ValueError when the
    alive leads are not an antichain) and afterwards changes only through
    `add_rule` and `retire`, which also clear the memos that depend on the
    rules: the normal forms that `nf` and `combine` read, and the normal
    words of each degree that `normal_words` lists."""

    field: FieldSpec
    degrees: tuple
    names: tuple
    degree_bound: int
    rules: list = dc_field(default_factory=list)
    complete_below: int = 0
    globally_complete: bool = False
    stats: dict = dc_field(default_factory=dict)
    _leads: dict = dc_field(init=False, repr=False, compare=False)
    _lengths: list = dc_field(init=False, repr=False, compare=False)
    _nf: dict = dc_field(init=False, repr=False, compare=False)
    _nw: dict = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        alive = self.alive_rules()
        for a in alive:           # also catches two rules with one lead
            for b in alive:
                if a is not b and find_subword(b.lead, a.lead) >= 0:
                    raise ValueError(f"alive lead {a.lead} is a subword of "
                                     f"alive lead {b.lead}")
        self._leads = {r.lead: r for r in alive}
        self._reindexed()

    def _reindexed(self) -> None:
        self._lengths = sorted({len(L) for L in self._leads})
        self._nf = {}
        self._nw = {}

    def add_rule(self, rule: RewriteRule) -> None:
        """Append and index a rule whose lead no alive lead divides or is
        divided by (completion retires those first)."""
        self.rules.append(rule)
        self._leads[rule.lead] = rule
        self._reindexed()

    def retire(self, rule: RewriteRule) -> None:
        rule.alive = False
        del self._leads[rule.lead]
        self._reindexed()

    def alive_rules(self) -> list:
        return [r for r in self.rules if r.alive]

    def leads(self) -> list:
        return [r.lead for r in self.rules if r.alive]

    def site(self, w: Word):
        """(position, rule) of the leftmost reducible spot of w, or None
        when w is normal.  On an antichain of leads at most one lead starts
        at any position, so the first hit is the only candidate there."""
        leads, n = self._leads, len(w)
        for i in range(n):
            for m in self._lengths:
                if i + m > n:
                    break
                rule = leads.get(w[i:i + m])
                if rule is not None:
                    return i, rule
        return None

    def is_normal_word(self, w: Word) -> bool:
        return self.site(w) is None

    def monomial(self, w: Word, coeff=None) -> FreeElement:
        return FreeElement.monomial(self.field, self.degrees, w, coeff)

    def normal_words(self, degree: int) -> list:
        """See the module function `normal_words`.  Listed once per degree
        for the rule set as it stands; callers share the list and must not
        change it."""
        words = self._nw.get(degree)
        if words is None:
            words = self._nw[degree] = self._list_normal_words(degree)
        return words

    def _list_normal_words(self, degree: int) -> list:
        leads, lengths = self._leads, self._lengths
        out: list = []

        def ok(word: Word) -> bool:
            # only a lead ending at the last letter can be new
            for m in lengths:
                if m > len(word):
                    return True
                if word[-m:] in leads:
                    return False
            return True

        # depth first, the smallest letter popped first: the words come out
        # in tuple order, with no recursion however long they are
        letters = list(enumerate(self.degrees))[::-1]
        stack = [(EMPTY_WORD, 0)] if degree >= 0 else []
        while stack:
            word, deg = stack.pop()
            if deg == degree:
                out.append(word)
                continue
            for g, k in letters:
                if deg + k <= degree and ok(w := word + (g,)):
                    stack.append((w, deg + k))
        return out

    def factor(self, w: Word):
        """A word as `combine` takes it: the word itself here."""
        return w

    def basis_index(self, basis: list) -> dict:
        """Position of each (slot, normal word) of `basis`, keyed as
        `combine` looks it up."""
        return {bw: k for k, bw in enumerate(basis)}

    def nf(self, word: Word) -> dict:
        """Normal form of a word as a dict normal word -> scalar, computed
        once per word for the rule set as it stands: by left multiplication
        in a degree where the system is confluent, by `normal_form` above
        it."""
        memo = self._nf
        terms = memo.get(word)
        if terms is not None:
            return terms
        if not (self.globally_complete or word_degree(word, self.degrees)
                <= self.complete_below):
            terms = memo[word] = normal_form(self, self.monomial(word)).terms
            return terms
        p = self.field.p
        todo = [word]       # a stack of the words whose normal forms it needs
        while todo:
            w = todo[-1]
            if w in memo:
                todo.pop()
                continue
            if w and w[1:] not in memo:
                todo.append(w[1:])
                continue
            parts = self._left_step(w)
            if parts is None:
                memo[w] = {w: 1}
                continue
            missing = [u for _, u in parts if u not in memo]
            if missing:
                todo += missing
                continue
            acc: dict = {}
            for c, u in parts:
                for v, cv in memo[u].items():
                    acc[v] = acc.get(v, 0) + c * cv
            memo[w] = dict(sorted(_reduced(acc, p).items(), reverse=True))
        return memo[word]

    def combine(self, products, index: dict) -> dict:
        """Coordinates of  sum coef * NF(left * right)  over
        (slot, left, right, coef) in `products`, each factor as `factor`
        writes it; the normal words of slot sit where `basis_index` put
        them."""
        cache = self._nf
        acc: dict = {}
        for slot, left, right, coef in products:
            word = left + right
            terms = cache.get(word)
            if terms is None:
                terms = self.nf(word)
            for u, cu in terms.items():
                r = index[(slot, u)]
                acc[r] = acc.get(r, 0) + coef * cu
        return _reduced(acc, self.field.p)

    def _left_step(self, w: Word):
        """One step of the left multiplication w = g * s, with NF(s)
        memoized: NF(w) as a list of (scalar, word) whose normal forms sum
        to it, or None when w is normal.  With s normal only a lead that
        starts at g can apply; else g multiplies each term of NF(s)."""
        s = w[1:]
        inner = self._nf[s] if s else {s: 1}
        if s not in inner:
            g = w[:1]
            return [(cu, g + u) for u, cu in inner.items()]
        for m in self._lengths:
            if m > len(w):
                break
            rule = self._leads.get(w[:m])
            if rule is not None:
                rest = w[m:]
                return [(tc, tw + rest) for tw, tc in rule.tail.terms.items()]
        return None


def _reduced(acc: dict, p) -> dict:
    """The nonzero entries of a coordinate vector, over F_p reduced mod p
    (p is None over Q)."""
    if p is None:
        return {r: v for r, v in acc.items() if v}
    return {r: v % p for r, v in acc.items() if v % p}


@dataclass
class EnvelopingSystem(RewriteSystem):
    """The rewrite system of A (x) A^op, built by `enveloping_system` from
    the completed systems `algebra` of A and `opposite` of A^op.

    Its rules and lead index are those of the module docstring, and
    `normal_form` and `site` rewrite with them.  `nf`, `combine` and
    `normal_words` take the split instead: a word factors into its original
    letters and its opposite letters (shifted back to 0..n-1), and its
    normal form is NF_A(original) (x) NF_A^op(opposite).  No normal form of
    a whole word is memoized; only the factors of each normal word that
    `normal_words` lists are kept, since the bases are factored over and
    over."""

    algebra: RewriteSystem | None = None
    opposite: RewriteSystem | None = None
    _factors: dict = dc_field(init=False, default_factory=dict, repr=False,
                              compare=False)
    _shifted: dict = dc_field(init=False, default_factory=dict, repr=False,
                              compare=False)

    def factor(self, w: Word):
        """(original letters, opposite letters shifted back to 0..n-1)."""
        pair = self._factors.get(w)
        if pair is None:
            n = len(self.algebra.degrees)
            pair = (tuple(g for g in w if g < n),
                    tuple(g - n for g in w if g >= n))
        return pair

    def basis_index(self, basis: list) -> dict:
        fac = self.factor
        return {(slot,) + fac(w): k for k, (slot, w) in enumerate(basis)}

    def nf(self, word: Word) -> dict:
        a, o = self.factor(word)
        n, mul = len(self.algebra.degrees), self.field.mul
        vs = [(tuple(g + n for g in v), cv)
              for v, cv in self.opposite.nf(o).items()]
        return {u + v: mul(cu, cv)
                for u, cu in self.algebra.nf(a).items() for v, cv in vs}

    def combine(self, products, index: dict) -> dict:
        """As `RewriteSystem.combine`, each factor a pair (original,
        opposite) and each basis word keyed (slot, u, v): two one-sided
        memo lookups per product, and no word of A (x) A^op is built."""
        a_rs, o_rs = self.algebra, self.opposite
        a_cache, o_cache = a_rs._nf, o_rs._nf
        acc: dict = {}
        for slot, (la, lo), (ra, ro), coef in products:
            word = la + ra
            a_terms = a_cache.get(word)
            if a_terms is None:
                a_terms = a_rs.nf(word)
            word = lo + ro
            o_terms = o_cache.get(word)
            if o_terms is None:
                o_terms = o_rs.nf(word)
            for u, cu in a_terms.items():
                cu *= coef
                for v, cv in o_terms.items():
                    r = index[(slot, u, v)]
                    acc[r] = acc.get(r, 0) + cu * cv
        return _reduced(acc, self.field.p)

    def _list_normal_words(self, degree: int) -> list:
        """The words u + v' over the pairs of a normal word u of A of
        degree a and v' one of A^op of degree degree - a, shifted to the
        opposite letters, sorted in tuple order as the search over all 2n
        letters lists them.  u and v come from the memos of A and A^op, and
        the pairs (v, v') of each degree are built once."""
        n = len(self.algebra.degrees)
        out: list = []
        factors, shifted = self._factors, self._shifted
        for a in range(degree + 1):
            us = self.algebra.normal_words(a)
            if not us:
                continue
            vs = shifted.get(degree - a)
            if vs is None:
                vs = shifted[degree - a] = [
                    (v, tuple(g + n for g in v))
                    for v in self.opposite.normal_words(degree - a)]
            for u in us:
                for v, v_op in vs:
                    w = u + v_op
                    factors[w] = (u, v)
                    out.append(w)
        out.sort()
        return out


def enveloping_system(rs: RewriteSystem,
                      rs_op: RewriteSystem) -> EnvelopingSystem:
    """The rewrite system of A (x) A^op from a completed system `rs` of A
    and one `rs_op` of its opposite (same generators, relations reversed),
    with the generators of `presentation.enveloping`: the originals, then
    one `_op` copy of each.  It is certified below the lower of the two
    bounds, and globally complete when both systems are."""
    if rs.field != rs_op.field or rs.degrees != rs_op.degrees:
        raise ValueError("the opposite system is over another free algebra")
    f, n = rs.field, len(rs.degrees)
    degrees = rs.degrees + rs.degrees

    def embed(elem: FreeElement, shift: int) -> FreeElement:
        return FreeElement(f, degrees, {tuple(g + shift for g in w): c
                                        for w, c in elem.terms.items()})

    rules = [RewriteRule(tuple(g + shift for g in r.lead),
                         embed(r.tail, shift), r.degree)
             for shift, side in ((0, rs), (n, rs_op))
             for r in side.alive_rules()]
    one = f.one()
    rules += [RewriteRule((n + j, i), FreeElement(f, degrees, {(i, n + j): one}),
                          degrees[i] + degrees[j])
              for j in range(n) for i in range(n)]
    return EnvelopingSystem(
        f, degrees, rs.names + tuple(name + "_op" for name in rs.names),
        rs.degree_bound, rules,
        complete_below=min(rs.complete_below, rs_op.complete_below),
        globally_complete=rs.globally_complete and rs_op.globally_complete,
        algebra=rs, opposite=rs_op)


def normal_form(rs: RewriteSystem, elem: FreeElement) -> FreeElement:
    """Fully reduce an element.  A rewrite replaces a word with words of the
    same degree that are deglex-smaller, and inside one degree deglex is
    tuple order.  So taking the largest pending word in tuple order never
    meets a word twice: a normal word goes straight into the result."""
    p = rs.field.p          # None over Q
    if p:
        work = {w: c % p for w, c in elem.terms.items() if c % p}
    else:
        work = {w: c for w, c in elem.terms.items() if c}
    out: dict = {}
    while work:
        w = max(work)
        c = work.pop(w)
        occ = rs.site(w)
        if occ is None:
            out[w] = c
            continue
        pos, rule = occ
        pre, post = w[:pos], w[pos + len(rule.lead):]
        for tw, tc in rule.tail.terms.items():
            w2 = pre + tw + post
            s = work.get(w2, 0) + c * tc
            if p:
                s %= p
            if s:
                work[w2] = s
            else:
                work.pop(w2, None)
    return FreeElement(rs.field, rs.degrees, out)


def _overlaps(u: Word, v: Word):
    """Proper overlaps: suffix of u of length k equals prefix of v.
    Yields (k, ambiguity word u + v[k:])."""
    for k in range(1, min(len(u), len(v))):
        if u[-k:] == v[:k]:
            yield k, u + v[k:]


def _resolves_everywhere(ri: RewriteRule, rj: RewriteRule) -> bool:
    """An ambiguity of two rules with zero tails resolves in every degree:
    its S-polynomial is 0 - 0.  Tails are only ever reduced, so a zero tail
    stays zero."""
    return ri.tail.is_zero() and rj.tail.is_zero()


def _tail_reducible(rs: RewriteSystem, rule: RewriteRule) -> bool:
    return any(not rs.is_normal_word(w) for w in rule.tail.terms)


class _Completion:
    def __init__(self, rs: RewriteSystem):
        self.rs = rs
        self.heap: list = []
        self.counter = itertools.count()
        self.skipped = False
        self.stats = {"polys_processed": 0, "pairs_processed": 0,
                      "pairs_skipped_degree": 0}

    def push_poly(self, elem: FreeElement) -> None:
        deg = max(word_degree(w, self.rs.degrees) for w in elem.terms)
        if deg > self.rs.degree_bound:
            self.skipped = True
            return
        heapq.heappush(self.heap, (deg, next(self.counter), "poly", elem))

    def push_pair(self, i: int, j: int, k: int, word: Word) -> None:
        deg = word_degree(word, self.rs.degrees)
        if deg > self.rs.degree_bound:
            if not _resolves_everywhere(self.rs.rules[i], self.rs.rules[j]):
                self.skipped = True
            self.stats["pairs_skipped_degree"] += 1
            return
        heapq.heappush(self.heap, (deg, next(self.counter), "pair", (i, j, k)))

    def spoly(self, i: int, j: int, k: int) -> FreeElement:
        rs = self.rs
        ri, rj = rs.rules[i], rs.rules[j]
        u, v = ri.lead, rj.lead
        # ambiguity word u + v[k:], reduced via ri at 0 and via rj at len(u)-k
        suffix = rs.monomial(v[k:]) if len(v) > k else rs.monomial(EMPTY_WORD)
        prefix = rs.monomial(u[:len(u) - k]) if len(u) > k else rs.monomial(EMPTY_WORD)
        return ri.tail * suffix - prefix * rj.tail

    def insert(self, elem: FreeElement) -> None:
        rs = self.rs
        nf = normal_form(rs, elem)
        if nf.is_zero():
            return
        nf = nf.monic()
        lead = nf.lead_word()
        f = rs.field
        tail = FreeElement(f, rs.degrees,
                           {w: f.neg(c) for w, c in nf.terms.items() if w != lead})
        new_idx = len(rs.rules)
        # retire rules whose lead the new lead divides; requeue their content
        for r in rs.rules:
            if r.alive and find_subword(r.lead, lead) >= 0:
                rs.retire(r)
                self.push_poly(r.as_element())
        rs.add_rule(RewriteRule(lead, tail, word_degree(lead, rs.degrees)))
        # keep tails reduced; nothing has read the memo since add_rule
        # cleared it, so rewriting tails in place leaves it valid
        for r in rs.rules[:new_idx]:
            if r.alive and _tail_reducible(rs, r):
                r.tail = normal_form(rs, r.tail)
        for i, r in enumerate(rs.rules):
            if not r.alive and i != new_idx:
                continue
            for k, word in _overlaps(r.lead, lead):
                self.push_pair(i, new_idx, k, word)
            if i != new_idx:
                for k, word in _overlaps(lead, r.lead):
                    self.push_pair(new_idx, i, k, word)

    def drain(self) -> None:
        rs = self.rs
        while self.heap:
            _, _, kind, payload = heapq.heappop(self.heap)
            if kind == "poly":
                self.stats["polys_processed"] += 1
                self.insert(payload)
            else:
                i, j, k = payload
                if not (rs.rules[i].alive and rs.rules[j].alive):
                    continue
                self.stats["pairs_processed"] += 1
                self.insert(self.spoly(i, j, k))

    def verify(self) -> None:
        """Re-check every ambiguity among surviving rules; resolve stragglers.
        On exit the complete_below certificate holds by direct inspection."""
        while True:
            alive = [i for i, r in enumerate(self.rs.rules) if r.alive]
            dirty = False
            for i in alive:
                for j in alive:
                    ri, rj = self.rs.rules[i], self.rs.rules[j]
                    if not (ri.alive and rj.alive):
                        continue
                    for k, word in _overlaps(ri.lead, rj.lead):
                        deg = word_degree(word, self.rs.degrees)
                        if deg > self.rs.degree_bound:
                            if not _resolves_everywhere(ri, rj):
                                self.skipped = True
                            continue
                        s = normal_form(self.rs, self.spoly(i, j, k))
                        if not s.is_zero():
                            dirty = True
                            self.insert(s)
                if dirty:
                    break
            if not dirty:
                return
            self.drain()


def complete(p, degree_bound: int) -> RewriteSystem:
    """Run overlap completion on a Presentation up to `degree_bound`.

    Postconditions: all ambiguities of degree <= degree_bound resolve;
    `globally_complete` is True when no candidate or ambiguity was dropped
    for exceeding the bound, in which case the rule set is a full Groebner
    basis of the defining ideal.
    """
    if degree_bound < 1:
        raise ValueError("degree bound must be >= 1")
    rs = RewriteSystem(p.field, p.degree_vector(), p.names(), degree_bound)
    comp = _Completion(rs)
    for r in p.relations:
        comp.push_poly(r)
    comp.drain()
    comp.verify()
    rs.complete_below = degree_bound
    rs.globally_complete = not comp.skipped
    comp.stats["rules"] = len(rs.alive_rules())
    rs.stats = dict(comp.stats)
    return rs


# ---------------------------------------------------------------------------
# normal words


def normal_words(rs: RewriteSystem, degree: int) -> list:
    """Irreducible words of the given total degree, in deglex order.
    Valid in every degree when globally_complete, else for
    degree <= complete_below."""
    return rs.normal_words(degree)


class NormalWordDFA:
    """Deterministic automaton of lead-avoiding words.

    States are proper prefixes of lead words (the empty word is the start
    state); `step(state, g)` returns the successor state or None when the
    extended word acquires a lead as a suffix.  Only the dimension counter
    `count_avoiding_words` drives it; the chain certificates in `resolution`
    walk the leads themselves.
    """

    def __init__(self, leads: list):
        self.leads = [tuple(L) for L in leads]
        prefixes = {EMPTY_WORD}
        for L in self.leads:
            for k in range(1, len(L)):
                prefixes.add(L[:k])
        self.states = sorted(prefixes, key=lambda w: (len(w), w))
        self.index = {s: i for i, s in enumerate(self.states)}
        self._table: dict = {}

    def step(self, state: Word, g: int):
        key = (state, g)
        if key in self._table:
            return self._table[key]
        w = state + (g,)
        nxt = None
        if not any(len(L) <= len(w) and w[-len(L):] == L for L in self.leads):
            for k in range(len(w), -1, -1):
                if w[len(w) - k:] in self.index:
                    nxt = w[len(w) - k:]
                    break
        self._table[key] = nxt
        return nxt


def normal_word_counts(rs: RewriteSystem, dmax: int) -> list:
    """Dimensions of the degree-d normal-word spaces for d = 0..dmax, by
    dynamic programming on the lead-avoidance automaton."""
    return count_avoiding_words(rs.leads(), rs.degrees, dmax)


def count_avoiding_words(leads: list, degrees: tuple, dmax: int) -> list:
    dfa = NormalWordDFA(leads)
    ngens = len(degrees)
    dims = [0] * (dmax + 1)
    # layer by layer in total degree; weighted generators spread across layers
    layers: dict[int, dict] = {0: {EMPTY_WORD: 1}}
    for d in range(0, dmax + 1):
        layer = layers.pop(d, None)
        if not layer:
            continue
        dims[d] = sum(layer.values())
        if d == dmax:
            break
        for state, cnt in layer.items():
            for g in range(ngens):
                dd = d + degrees[g]
                if dd > dmax:
                    continue
                nxt = dfa.step(state, g)
                if nxt is None:
                    continue
                tgt = layers.setdefault(dd, {})
                tgt[nxt] = tgt.get(nxt, 0) + cnt
    return dims
