"""Group elements and their actions."""

import random
from fractions import Fraction

import pytest

from affine_frames import AffineElement, GroupElement, PolyMatrix, ratlin

from conftest import (
    p,
    random_affine,
    random_group,
    random_regular_vector,
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


def test_identity_and_is_identity():
    e = GroupElement.identity(3)
    assert e.is_identity()
    assert not GroupElement([[1, 1], [0, 1]]).is_identity()
    assert not GroupElement.identity(2).compose(
        GroupElement([[1, 0], [0, 1]], 1)
    ).is_identity()


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
        assert g1.compose(g1.inverse()).is_identity()


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
    assert a.linear_part.is_identity()
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
