"""Group elements and their actions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_frames import (
    AffineElement, GroupElement, Polynomial, PolyMatrix, PolyVector, ratlin,
)

from conftest import (
    p,
    polynomials_up_to,
    random_affine,
    random_group,
    random_regular_vector,
    random_unimodular,
    vec,
)


def test_determinant_one_enforced():
    with pytest.raises(ValueError, match="determinant 1"):
        GroupElement([[2, 0], [0, 1]])
    with pytest.raises(ValueError, match="determinant 1"):
        AffineElement([[1, 0], [0, -1]], [0, 0])
    with pytest.raises(ValueError, match="square"):
        GroupElement([[1, 0, 0], [0, 1, 0]])
    GroupElement([[0, -1], [1, 0]], Fraction(1, 2))


def test_identity_element():
    e = GroupElement.identity(3)
    assert e == GroupElement([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 0)
    assert GroupElement([[1, 1], [0, 1]]) != GroupElement.identity(2)
    assert GroupElement.identity(2).compose(
        GroupElement([[1, 0], [0, 1]], 1)
    ) != GroupElement.identity(2)


def test_action_golden():
    g = GroupElement([[0, -1], [1, 0]], 1)
    v = vec((0, 0, 1), (1,))
    # shift first, then the linear map
    assert g.apply(v) == vec((-1,), (1, 2, 1))
    with pytest.raises(TypeError):
        g.apply("not a vector")


def test_action_axioms():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice((2, 3))
        v = random_regular_vector(rng, n, 5)
        g1 = random_group(rng, n)
        g2 = random_group(rng, n)
        assert GroupElement.identity(n).apply(v) == v
        assert g1.apply(g2.apply(v)) == g1.compose(g2).apply(v)
        assert g1.inverse().apply(g1.apply(v)) == v
        assert g1.compose(g1.inverse()) == GroupElement.identity(n)


def test_action_preserves_degree():
    rng = random.Random(11)
    for _ in range(15):
        v = random_regular_vector(rng, 3, 6)
        g = random_group(rng, 3)
        assert g.apply(v).degree == v.degree


def test_action_on_matrix():
    g = GroupElement([[1, 1], [0, 1]], Fraction(1, 2))
    m = PolyMatrix([[p(0, 1), p(1)], [p(1), p(0)]])
    acted = g.apply(m)
    assert acted.column(0) == g.apply(m.column(0))
    assert acted.column(1) == g.apply(m.column(1))


def _rational_unimodular(seed: int, q: Fraction, n: int) -> list[list[Fraction]]:
    """Shears times diag(1/q, q, 1, ...): rational entries, determinant 1."""
    if n == 1:
        return [[Fraction(1)]]
    diagonal = [1 / q, q] + [1] * (n - 2)
    shears = random_unimodular(random.Random(seed), n)
    return [[x * d for x, d in zip(row, diagonal)] for row in shears]


# Shifts of every kind the integer Taylor shift treats apart: zero, an
# integer (b = 1) and a fraction whose denominator exceeds 1.
shifts = st.one_of(
    st.just(Fraction(0)),
    st.integers(-6, 6).map(Fraction),
    st.fractions(-6, 6, max_denominator=5).filter(lambda s: s.denominator > 1),
)


def _rational_groups(n: int):
    q = st.fractions(-9, 9, max_denominator=7).filter(bool)
    matrix = st.builds(_rational_unimodular, st.integers(0, 2**32), q, st.just(n))
    return st.builds(GroupElement, matrix, shifts)


def _apply_reference(g: GroupElement, column: PolyVector) -> PolyVector:
    """``L . v(t + s)`` as sums of number multiples."""
    shifted = [c.shift(g.shift) for c in column]
    return PolyVector(
        sum((c * x for x, c in zip(row, shifted)), Polynomial.zero())
        for row in g.matrix
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_action_on_matrix_is_columnwise(data):
    n = data.draw(st.integers(1, 5), label="n")
    m = data.draw(st.integers(1, 4), label="m")
    g = data.draw(_rational_groups(n), label="g")
    target = data.draw(st.lists(
        st.lists(polynomials_up_to(5), min_size=m, max_size=m),
        min_size=n, max_size=n,
    ).map(PolyMatrix), label="target")
    acted = g.apply(target)
    assert acted.columns() == [g.apply(col) for col in target.columns()]
    assert acted.columns() == [_apply_reference(g, col) for col in target.columns()]
    vector = data.draw(st.lists(polynomials_up_to(7), min_size=n, max_size=n).map(
        PolyVector), label="vector")
    moved = g.apply(vector)
    assert type(moved) is PolyVector
    assert moved == _apply_reference(g, vector)
    assert all(type(c) is Fraction for comp in moved for c in comp.coeffs)


def test_action_on_matrix_clears_the_group_matrix_once(monkeypatch):
    rng = random.Random(19)
    cases = []
    for n in (2, 3, 4):
        g = GroupElement(_rational_unimodular(n, Fraction(2, 3), n), Fraction(1, 3))
        frame = PolyMatrix.from_columns([random_regular_vector(rng, n, 5)] * n)
        cases.append((g, frame))
    cleared = []
    clear = ratlin.clear_denominators
    monkeypatch.setattr(
        ratlin, "clear_denominators",
        lambda rows: cleared.append(len(rows)) or clear(rows),
    )
    for g, frame in cases:
        cleared.clear()
        acted = g.apply(frame)
        assert cleared == [g.dim]
        assert acted.columns() == [_apply_reference(g, c) for c in frame.columns()]


def test_affine_compose_inverse():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.choice((2, 3))
        c = random_regular_vector(rng, n, 5)
        a1 = random_affine(rng, n)
        a2 = random_affine(rng, n)
        assert a1.apply(a2.apply(c)) == a1.compose(a2).apply(c)
        assert a1.inverse().apply(a1.apply(c)) == c
        ident = a1.compose(a1.inverse())
        assert ident.matrix == AffineElement.identity(n).matrix
        assert ident.translation == (Fraction(0),) * n
        assert ident.shift == 0


def test_affine_chain_rule():
    # derivative of the moved curve equals the linear part acting on the tangent
    rng = random.Random(17)
    for _ in range(20):
        c = random_regular_vector(rng, 3, 6)
        a = random_affine(rng, 3)
        assert a.apply(c).derivative() == a.linear_part.apply(c.derivative())


def test_translation_only():
    a = AffineElement([[1, 0], [0, 1]], [Fraction(3), Fraction(-1, 2)])
    c = vec((0, 1), (0, 0, 1))
    assert a.apply(c) == vec((3, 1), (Fraction(-1, 2), 0, 1))
    assert a.linear_part == GroupElement.identity(2)
    with pytest.raises(TypeError, match="cannot act on PolyMatrix"):
        a.apply(PolyMatrix.identity(2))
    with pytest.raises(ValueError, match="translation dimension"):
        AffineElement([[1, 0], [0, 1]], [1, 2, 3])


def test_linear_part_is_stored_not_rebuilt(monkeypatch):
    a = random_affine(random.Random(5), 3)
    calls = []
    det = ratlin.det
    monkeypatch.setattr(ratlin, "det", lambda rows: calls.append(rows) or det(rows))
    parts = [a.linear_part for _ in range(3)]
    assert calls == []
    assert all(part is parts[0] for part in parts)
    assert (a.matrix, a.shift, a.dim) == (parts[0].matrix, parts[0].shift, 3)
    twin = AffineElement(a.matrix, a.translation, a.shift)
    assert len(calls) == 1  # the constructor checks the determinant once
    assert twin == a and hash(twin) == hash(a)
    assert AffineElement(a.matrix, a.translation, a.shift + 1) != a
    assert AffineElement(a.matrix, [0, 0, 0], a.shift) != a
