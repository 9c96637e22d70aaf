"""Partial bijection arithmetic against brute-force oracles."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invwreath.base import builtin
from invwreath.pperm import (
    CapExceededError,
    CompositionError,
    PartialBijection,
    code_rows,
    drop1,
    enumerate_partial_bijections,
    identity,
    inclusion,
    lift1,
    omit,
    partial_identity,
    projection,
    swap2,
    swap_adjacent,
    transfer,
)
from invwreath.wreath import count_wreath

TRIVIAL = builtin("trivial").monoid
FIG_A = PartialBijection(6, 8, (0, 0, 4, 1, 0, 7))
FIG_B = PartialBijection(8, 7, (2, 0, 1, 0, 5, 0, 4, 0))


def brute_compose(a: PartialBijection, b: PartialBijection) -> PartialBijection:
    # relational composition over all pairs of points
    row = [0] * a.m
    for i in range(1, a.m + 1):
        for j in range(1, a.n + 1):
            for k in range(1, b.n + 1):
                if a(i) == j and b(j) == k:
                    row[i - 1] = k
    return PartialBijection(a.m, b.n, tuple(row))


@st.composite
def pbijections(draw, max_size=5, m=None, n=None):
    if m is None:
        m = draw(st.integers(0, max_size))
    if n is None:
        n = draw(st.integers(0, max_size))
    targets = draw(st.permutations(range(1, n + 1)))
    row = []
    used = 0
    for i in range(m):
        if used < n and draw(st.booleans()):
            row.append(targets[used])
            used += 1
        else:
            row.append(0)
    return PartialBijection(m, n, tuple(row))


def test_pictured_composition():
    assert FIG_A.compose(FIG_B) == PartialBijection(6, 7, (0, 0, 0, 2, 0, 4))


def test_identity_composition():
    for alpha in enumerate_partial_bijections(3, 4):
        assert identity(3).compose(alpha) == alpha
        assert alpha.compose(identity(4)) == alpha


@given(pbijections(), st.data())
@settings(max_examples=200, deadline=None)
def test_compose_matches_brute_force(a, data):
    b = data.draw(pbijections(m=a.n))
    assert a.compose(b) == brute_compose(a, b)


def test_pictured_tensor():
    b = PartialBijection(7, 6, (2, 0, 1, 0, 5, 0, 4))
    expect = PartialBijection(13, 14, (0, 0, 4, 1, 0, 7, 10, 0, 9, 0, 13, 0, 12))
    assert FIG_A.tensor(b) == expect


def test_tensor_unit_and_assoc():
    empty = identity(0)
    for alpha in enumerate_partial_bijections(2, 3):
        assert alpha.tensor(empty) == alpha
        assert empty.tensor(alpha) == alpha
    a, b, c = FIG_A, FIG_B, identity(2)
    assert a.tensor(b).tensor(c) == a.tensor(b.tensor(c))


@given(pbijections(max_size=3), st.data())
@settings(max_examples=150, deadline=None)
def test_interchange(a, data):
    b = data.draw(pbijections(max_size=3, m=a.n))
    c = data.draw(pbijections(max_size=3))
    d = data.draw(pbijections(max_size=3, m=c.n))
    lhs = a.compose(b).tensor(c.compose(d))
    rhs = a.tensor(c).compose(b.tensor(d))
    assert lhs == rhs


def test_identity_tensor_is_identity():
    assert identity(2).tensor(identity(3)) == identity(5)


def test_compose_associative_exhaustive():
    maps23 = list(enumerate_partial_bijections(2, 3))
    maps32 = list(enumerate_partial_bijections(3, 2))
    maps22 = list(enumerate_partial_bijections(2, 2))
    for a in maps23:
        for b in maps32:
            for c in maps22:
                assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_compose_associative_endos_up_to_size_four():
    # exhaustively over each endomorphism monoid, via an index table
    for n in range(5):
        elems = list(enumerate_partial_bijections(n, n))
        index = {e: i for i, e in enumerate(elems)}
        table = [[index[a.compose(b)] for b in elems] for a in elems]
        size = len(elems)
        for i in range(size):
            row_i = table[i]
            for j in range(size):
                left = table[row_i[j]]
                row_j = table[j]
                for k in range(size):
                    assert left[k] == row_i[row_j[k]]


def test_named_generators():
    assert transfer(1, 2, 3) == PartialBijection(3, 3, (0, 1, 3))
    assert swap_adjacent(1, 3) == PartialBijection(3, 3, (2, 1, 3))
    for n in range(1, 5):
        for i in range(1, n + 1):
            e = omit(i, n)
            assert e.compose(e) == e
    for n in range(5):
        assert inclusion(n).compose(projection(n)) == identity(n)
    assert swap2() == swap_adjacent(1, 2)
    assert drop1() == PartialBijection(1, 0, (0,))
    assert lift1() == PartialBijection(0, 1, ())
    assert lift1().compose(drop1()) == identity(0)


def test_generator_errors():
    with pytest.raises(ValueError):
        swap_adjacent(3, 3)
    with pytest.raises(ValueError):
        omit(0, 3)
    with pytest.raises(ValueError):
        transfer(2, 2, 3)


def test_invert():
    assert identity(4).invert() == identity(4)
    assert FIG_A.invert() == PartialBijection(8, 6, (4, 0, 0, 3, 0, 0, 6, 0))
    for alpha in enumerate_partial_bijections(3, 4):
        assert alpha.compose(alpha.invert()) == partial_identity(alpha.dom, 3)


def test_enumeration_counts_and_order():
    assert len(list(enumerate_partial_bijections(0, 0))) == 1
    for m, n in [(3, 3), (4, 4), (2, 4), (4, 2)]:
        elems = list(enumerate_partial_bijections(m, n))
        assert len(elems) == count_wreath(TRIVIAL, m, n)
        assert len(set(elems)) == len(elems)
        assert [e.images for e in elems] == sorted(e.images for e in elems)
    assert count_wreath(TRIVIAL, 3, 3) == 34
    assert count_wreath(TRIVIAL, 4, 4) == 209


def test_code_rows_against_a_filtered_product():
    # every row of m codes in 0..(n+1)(labels+1), kept when it names a
    # labelled partial bijection of the flags' kind, sorted
    for m, n, labels in product(range(4), range(4), range(3)):
        width = labels + 1
        for fixed, singular in product((False, True), repeat=2):
            def names_one(row):
                images = [c // width for c in row]
                defined = [v for v in images if v]
                return (all((c % width > 0) == (c >= width) if labels else True for c in row)
                        and len(set(defined)) == len(defined)
                        and not (fixed and any(v not in (0, i) for i, v in enumerate(images, 1)))
                        and not (singular and all(images)))
            expected = [row for row in product(range((n + 1) * width), repeat=m)
                        if names_one(row)]
            assert list(code_rows(m, n, labels, fixed, singular)) == expected, \
                (m, n, labels, fixed, singular)


def test_domain_image_bookkeeping():
    for a in enumerate_partial_bijections(3, 3):
        for b in enumerate_partial_bijections(3, 3):
            c = a.compose(b)
            assert set(c.dom) <= set(a.dom)
            assert set(c.im) <= set(b.im)


def test_errors():
    with pytest.raises(CompositionError):
        FIG_A.compose(FIG_A)
    with pytest.raises(CapExceededError):
        list(enumerate_partial_bijections(7, 2))
    with pytest.raises(ValueError):
        PartialBijection(2, 2, (1, 1))
    with pytest.raises(ValueError):
        PartialBijection(2, 2, (3, 0))
    with pytest.raises(ValueError):
        PartialBijection(2, 2, (1,))


def test_json_round_trip():
    for alpha in (FIG_A, identity(0), omit(2, 4)):
        assert PartialBijection.from_json(alpha.to_json()) == alpha


def test_render():
    out = transfer(1, 2, 3).render()
    assert out.splitlines() == ["1 2 3", "2-1 3-3", "1 2 3"]
