"""Words, the degree-first order, and free-algebra elements."""

from hypothesis import given, strategies as st

from ncgraded.exactla import field_from_name
from ncgraded.freealg import FreeElement, deglex_key, word_degree

F5 = field_from_name("F5")

words2 = st.lists(st.integers(0, 1), max_size=5).map(tuple)


@st.composite
def elements(draw, degrees=(1, 1), maxdeg=3):
    terms = {}
    for w in draw(st.lists(
            st.lists(st.integers(0, len(degrees) - 1), max_size=maxdeg).map(tuple),
            max_size=4)):
        c = F5.from_int(draw(st.integers(0, 4)))
        if not F5.is_zero(c):
            terms[w] = c
    return FreeElement(F5, degrees, terms)


def test_word_degree_weighted():
    assert word_degree((0, 1, 0), (1, 2)) == 4
    assert word_degree((), (1, 2)) == 0


@given(u=words2, v=words2)
def test_deglex_is_degree_then_lex(u, v):
    ku, kv = deglex_key(u, (1, 1)), deglex_key(v, (1, 1))
    assert (ku < kv) == ((len(u), u) < (len(v), v))


@given(a=elements(), b=elements(), c=elements())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + (-a)).is_zero()


@given(a=elements())
def test_scaling(a):
    assert a.scaled(F5.from_int(2)) + a.scaled(F5.from_int(3)) == a.scaled(F5.zero())


def test_lead_and_degree():
    e = FreeElement(F5, (1, 1), {(0, 1): F5.one(), (1, 0): F5.from_int(2)})
    assert e.lead_word() == (1, 0)
    assert e.degree() == 2
    assert e.is_homogeneous()


def test_homogeneous_parts_reassemble():
    e = FreeElement(F5, (1, 1), {(): F5.one(), (0,): F5.one(),
                                 (0, 1): F5.from_int(3)})
    assert not e.is_homogeneous()
    parts = e.homogeneous_parts()
    assert sorted(parts) == [0, 1, 2]
    total = FreeElement.zero(F5, (1, 1))
    for part in parts.values():
        assert part.is_homogeneous()
        total = total + part
    assert total == e


def test_format():
    z = FreeElement.zero(F5, (1, 1))
    assert z.format(["x", "y"]) == "0"
    e = FreeElement(F5, (1, 1), {(0, 1): F5.from_int(2)})
    assert e.format(["x", "y"]) == "(2)*x*y"
