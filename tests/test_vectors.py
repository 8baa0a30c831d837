"""Polynomial vectors, matrices, and the regularity predicate."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_frames import (
    NEG_INF,
    Polynomial,
    PolyMatrix,
    PolyVector,
    RegularityError,
    RegularVector,
    outer_product,
    pivot_profile,
    require_regular,
)

from conftest import p, quartic_tangent, vec


def test_vector_degree():
    assert vec((0, 1), (1,)).degree == 1
    assert vec((1, 0, 0, 0, 0, 0, 1), (0, 0, 0, 1), (0, 1)).degree == 6
    assert PolyVector([Polynomial.zero(), Polynomial.zero()]).degree == NEG_INF
    assert vec((5,), (0,)).degree == 0


def test_matrix_degree_examples():
    # completion of the tangent of [t, t^2, t^4+1]: column degrees 3 + 0 + 0
    f = PolyMatrix(
        [
            [p(1), p(0), p(0)],
            [p(0, 2), p(2), p(0)],
            [p(0, 0, 0, 4), p(0), p(Fraction(1, 2))],
        ]
    )
    assert f.degree == 3
    # same matrix with a huge monomial in a middle column
    g = PolyMatrix(
        [
            [p(1), p(0), p(0)],
            [p(0, 2), p(2), p(0)],
            [p(0, 0, 0, 4), Polynomial.monomial(2023), p(Fraction(1, 2))],
        ]
    )
    assert g.degree == 2026
    assert PolyMatrix.identity(4).degree == 0


def test_matrix_degree_absorbing_zero_column():
    m = PolyMatrix([[p(0, 1), p(0)], [p(1), p(0)]])
    assert m.degree == NEG_INF


def test_vector_ops():
    a = vec((1, 1), (0, 2))
    b = vec((3,), (1,))
    assert a + b == vec((4, 1), (1, 2))
    assert a - b == vec((-2, 1), (-1, 2))
    assert -a == vec((-1, -1), (0, -2))
    assert a.scale(2) == vec((2, 2), (0, 4))
    assert a.scale(p(0, 1)) == vec((0, 1, 1), (0, 0, 2))
    with pytest.raises(ValueError):
        a + vec((1,), (2,), (3,))


def test_dot_golden():
    v = vec((1, 0, 0, 0, 0, 0, 1), (0, 0, 0, 1), (0, 1))
    b = vec((1,), (0, 0, 0, -1), (0,))
    assert v.dot(b) == Polynomial.one()
    assert vec((0, 1), (1,)).dot(vec((1,), (0, -1))) == Polynomial.zero()


def test_shift_golden():
    shifted = quartic_tangent().shift(Fraction(-1, 3))
    expected = vec(
        (Fraction(97, 81), Fraction(-31, 27), Fraction(5, 3), Fraction(-1, 3), 1),
        (Fraction(188, 81), Fraction(-53, 27), Fraction(10, 3), Fraction(-5, 3), 2),
        (Fraction(16, 9), Fraction(20, 9), 5, -3, 3),
    )
    assert shifted == expected
    assert shifted.shift(Fraction(1, 3)) == quartic_tangent()


def test_translate_and_linear_map():
    v = vec((0, 1), (0, 0, 1))
    assert v.translate([Fraction(2), Fraction(-1)]) == vec((2, 1), (-1, 0, 1))
    mapped = v.linear_map([[0, 1], [1, 0]])
    assert mapped == vec((0, 0, 1), (0, 1))
    with pytest.raises(ValueError):
        v.translate([Fraction(1)])


def test_gcd_examples():
    assert vec((1, 0, 0, 0, 0, 0, 1), (0, 0, 0, 1), (0, 1)).gcd() == p(1)
    assert vec((0, 2), (0, 0, 4)).gcd() == p(0, 1)
    assert quartic_tangent().gcd() == p(1)
    with pytest.raises(RegularityError):
        PolyVector([Polynomial.zero(), Polynomial.zero()]).gcd()


def test_coefficient_matrix():
    coeffs = quartic_tangent().coefficient_matrix()
    assert coeffs == (
        (1, 0, 2, 1, 1),
        (2, 0, 3, 1, 2),
        (3, 5, 4, 1, 3),
    )
    wide = vec((0, 1), (1,)).coefficient_matrix(width=4)
    assert wide == ((0, 1, 0, 0), (1, 0, 0, 0))
    with pytest.raises(ValueError):
        vec((0, 0, 1), (1,)).coefficient_matrix(width=2)
    with pytest.raises(ValueError):
        PolyVector([Polynomial.zero()]).coefficient_matrix()


def test_matrix_construction_and_access():
    cols = [vec((1,), (0, 1)), vec((0, 0, 1), (2,))]
    m = PolyMatrix.from_columns(cols)
    assert m.column(0) == cols[0]
    assert m.column(1) == cols[1]
    assert m.columns() == cols
    assert m.transpose().transpose() == m
    with pytest.raises(ValueError):
        PolyMatrix([[p(1), p(2)], [p(3)]])
    with pytest.raises(ValueError):
        PolyMatrix.from_columns([])


def test_matmul_and_scale_column():
    m = PolyMatrix([[p(0, 1), p(1)], [p(1), p(0)]])
    ident = PolyMatrix.identity(2)
    assert m @ ident == m
    assert ident @ m == m
    sq = m @ m
    assert sq.entry(0, 0) == p(1, 0, 1)
    assert m.scale_column(1, Fraction(1, 2)).entry(0, 1) == p(Fraction(1, 2))


def test_determinant_goldens():
    m1 = PolyMatrix(
        [
            [p(1, 0, 0, 0, 0, 0, 1), p(0), p(0, 0, 0, 1)],
            [p(0, 0, 0, 1), p(0), p(1)],
            [p(0, 1), p(-1), p(0)],
        ]
    )
    assert m1.determinant() == Polynomial.one()
    assert PolyMatrix.identity(5).determinant() == Polynomial.one()
    col = vec((1, 2), (0, 1))
    assert PolyMatrix.from_columns([col, col]).determinant().is_zero
    with pytest.raises(ValueError):
        PolyMatrix([[p(1), p(2)]]).determinant()


def test_determinant_multiplicative():
    rng = random.Random(31)
    for _ in range(25):
        a = PolyMatrix(
            [[p(*[rng.randint(-3, 3) for _ in range(3)]) for _ in range(3)]
             for _ in range(3)]
        )
        b = PolyMatrix(
            [[p(*[rng.randint(-3, 3) for _ in range(3)]) for _ in range(3)]
             for _ in range(3)]
        )
        assert (a @ b).determinant() == a.determinant() * b.determinant()


def _det_cofactor(rows):
    """Laplace expansion along the first row: the reference determinant."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Polynomial.zero()
    for j, head in enumerate(rows[0]):
        if head.is_zero:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = head * _det_cofactor(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def test_determinant_methods_agree():
    from affine_frames.vectors import _det_interpolate

    rng = random.Random(57)

    def entry(degree):
        return p(*[rng.randint(-4, 4) for _ in range(degree + 1)])

    cases = []
    for n in range(1, 8):
        # dense entries of mixed degree, so pivots come from anywhere
        cases.append([[entry(rng.randint(0, 2)) for _ in range(n)] for _ in range(n)])
        # an assembled completion: one high-degree column beside constants
        cases.append([[entry(n + 2)] + [entry(0) for _ in range(n - 1)]
                      for _ in range(n)])
    for rows in cases[:]:
        n = len(rows)
        if n < 2:
            continue
        zero_lead = [list(row) for row in rows]
        zero_lead[0][0] = Polynomial.zero()
        cases.append(zero_lead)
        # singular: a repeated row, and a zero column
        cases.append([list(row) for row in rows[:-1]] + [list(rows[0])])
        cases.append([[Polynomial.zero()] + list(row[1:]) for row in rows])
    for rows in cases:
        assert _det_interpolate(rows) == _det_cofactor(rows)
    assert _det_cofactor(cases[-1]).is_zero


_COEFFS = {
    "integer": st.integers(-9, 9).map(Fraction),
    "rational": st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    "huge": st.builds(
        Fraction, st.integers(-(2 ** 100), 2 ** 100), st.integers(2 ** 99, 2 ** 100)
    ),
}


@st.composite
def poly_matrices(draw):
    """Square polynomial matrices, n = 1..5, entries of degree 0..4.

    ``shape`` adds structure: a zero row or column; a row equal to a multiple
    of another plus terms of degree at most 1, so leading terms cancel and
    the determinant drops below the degree bound; or rows whose leading
    coefficients form a triangular matrix with nonzero diagonal, so the
    determinant reaches the bound exactly.
    """
    n = draw(st.integers(1, 5))
    kinds = draw(st.lists(st.sampled_from(sorted(_COEFFS)), min_size=1, max_size=3))
    coeff = st.one_of(*(_COEFFS[kind] for kind in kinds))

    def entry(max_degree=4):
        if max_degree < 0 or draw(st.integers(0, 5)) == 0:
            return Polynomial.zero()
        return Polynomial(draw(st.lists(coeff, min_size=1, max_size=max_degree + 1)))

    shape = draw(st.sampled_from(("plain", "zero row", "zero column", "cancel", "bound")))
    if shape == "bound":
        degrees = [draw(st.integers(0, 4)) for _ in range(n)]
        rows = []
        for i, d in enumerate(degrees):
            lead = draw(coeff.filter(bool))
            row = [entry(d if j < i else d - 1) for j in range(n)]
            row[i] = entry(d - 1) + Polynomial.monomial(d, lead)
            rows.append(row)
        return rows, shape
    rows = [[entry() for _ in range(n)] for _ in range(n)]
    k = draw(st.integers(0, n - 1))
    if shape == "zero row":
        rows[k] = [Polynomial.zero()] * n
    elif shape == "zero column":
        for row in rows:
            row[k] = Polynomial.zero()
    elif shape == "cancel" and n >= 2:
        i = draw(st.integers(0, n - 1).filter(lambda i: i != k))
        factor = draw(coeff)
        rows[k] = [e * factor + entry(1) for e in rows[i]]
    return rows, shape


def _degree_bound(rows):
    return min(
        sum(max(e.degree for e in row) for row in rows),
        sum(max(e.degree for e in col) for col in zip(*rows)),
    )


@settings(max_examples=200, deadline=None)
@given(poly_matrices())
def test_determinant_matches_cofactor_expansion(case):
    rows, shape = case
    expected = _det_cofactor(rows)
    assert PolyMatrix(rows).determinant() == expected
    if shape == "bound":
        assert expected.degree == _degree_bound(rows)
    if shape in ("zero row", "zero column"):
        assert expected.is_zero


def test_inverse_unimodular():
    m1 = PolyMatrix(
        [
            [p(1, 0, 0, 0, 0, 0, 1), p(0), p(0, 0, 0, 1)],
            [p(0, 0, 0, 1), p(0), p(1)],
            [p(0, 1), p(-1), p(0)],
        ]
    )
    inv = m1.inverse_unimodular()
    assert m1 @ inv == PolyMatrix.identity(3)
    assert inv @ m1 == PolyMatrix.identity(3)
    with pytest.raises(ValueError):
        PolyMatrix([[p(0, 1), p(0)], [p(0), p(1)]]).inverse_unimodular()


def test_outer_product_goldens():
    u1 = vec((0,), (-1,), (0, 0, 1))
    u2 = vec((0, -1), (0, 0, 0, 0, 1), (1,))
    cross = outer_product([u1, u2])
    assert cross == vec(
        (-1, 0, 0, 0, 0, 0, -1), (0, 0, 0, -1), (0, -1)
    )
    e1 = vec((1,), (0,), (0,))
    e2 = vec((0,), (1,), (0,))
    assert outer_product([e1, e2]) == vec((0,), (0,), (1,))
    # dimension two: single vector [a, b] maps to [b, -a]
    assert outer_product([vec((1, 2), (0, 3))]) == vec((0, 3), (-1, -2))


def test_outer_product_laplace_identity():
    rng = random.Random(88)

    def integer():
        return rng.randint(-3, 3)

    def rational():
        return Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 4, 7, 2 ** 40)))

    for coeff in [integer] * 20 + [rational] * 20:
        n = rng.choice((2, 3, 4))
        us = [
            vec(*[[coeff() for _ in range(3)] for _ in range(n)])
            for _ in range(n - 1)
        ]
        w = vec(*[[coeff() for _ in range(3)] for _ in range(n)])
        cross = outer_product(us)
        det = PolyMatrix.from_columns([w] + us).determinant()
        assert w.dot(cross) == det
        # each factor is orthogonal to the product
        for u in us:
            assert u.dot(cross).is_zero
    with pytest.raises(ValueError):
        outer_product([vec((1,), (2,), (3,))])


def test_require_regular():
    require_regular(vec((1, 0, 0, 0, 0, 0, 1), (0, 0, 0, 1), (0, 1)))
    checked = require_regular(quartic_tangent())
    assert isinstance(checked, RegularVector) and checked == quartic_tangent()
    assert checked.profile == pivot_profile(quartic_tangent())
    assert require_regular(checked) is checked
    with pytest.raises(RegularityError, match="zero"):
        require_regular(PolyVector([Polynomial.zero(), Polynomial.zero()]))
    with pytest.raises(RegularityError, match="nonconstant factor"):
        require_regular(vec((0, 2), (0, 0, 4)))
    with pytest.raises(RegularityError, match="linearly dependent"):
        require_regular(vec((0, 1), (0, 1), (1, 0, 0, 1)))
    with pytest.raises(RegularityError, match="below the dimension"):
        require_regular(vec((1, 1), (0, 1)))


def test_evaluate():
    v = vec((0, 1), (1, 0, 1))
    assert v.evaluate(2) == (Fraction(2), Fraction(5))
    m = PolyMatrix([[p(0, 1), p(1)], [p(0), p(2)]])
    assert m.evaluate(Fraction(1, 2)) == (
        (Fraction(1, 2), Fraction(1)),
        (Fraction(0), Fraction(2)),
    )
