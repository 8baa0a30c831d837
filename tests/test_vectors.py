"""Polynomial vectors, matrices, and the regularity predicate."""

import math
import random
from fractions import Fraction
from functools import reduce
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affine_frames import (
    NEG_INF,
    Polynomial,
    PolyMatrix,
    PolyVector,
    RegularityError,
    RegularVector,
    bezout_degree_search,
    build_sylvester,
    canonical_form,
    canonical_shape_violations,
    frames,
    is_mu_basis,
    minimal_bezout,
    minimal_completion,
    mu_basis,
    outer_product,
    pivot_profile,
    poly,
    quillen_suslin,
    ratlin,
    require_regular,
    section,
    vectors,
    verify_completion,
)
from affine_frames.poly import integer_coefficients, integer_gcd, sum_of_products
from affine_frames.vectors import PRIME

from conftest import (
    coefficients, p, polynomials, polynomials_up_to, quartic_tangent,
    quintic_curve, vec,
)
from test_poly import LIFT_BOUND, reference_gcd


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
    with pytest.raises(ValueError, match="dimension mismatch"):
        a + vec((1,), (2,), (3,))
    with pytest.raises(TypeError):
        a + p(1)
    with pytest.raises(TypeError):
        a - 1
    with pytest.raises(ValueError, match="vector needs at least one component"):
        PolyVector([])
    with pytest.raises(AttributeError):
        a.components = ()


def test_dot_golden():
    v = vec((1, 0, 0, 0, 0, 0, 1), (0, 0, 0, 1), (0, 1))
    b = vec((1,), (0, 0, 0, -1), (0,))
    assert v.dot(b) == Polynomial.one()
    assert vec((0, 1), (1,)).dot(vec((1,), (0, -1))) == Polynomial.zero()
    with pytest.raises(ValueError, match="dimension mismatch"):
        v.dot(vec((1,), (0,)))


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
    with pytest.raises(ValueError, match="dimension mismatch"):
        PolyMatrix.identity(2).linear_map([[1, 0, 0], [0, 1, 0]])


def linear_map_reference(v: PolyVector, matrix) -> PolyVector:
    width = max(len(c.coeffs) for c in v)
    out = []
    for row in matrix:
        acc = [Fraction(0)] * width
        for x, comp in zip(row, v):
            for k, c in enumerate(comp.coeffs):
                acc[k] += Fraction(x) * c
        out.append(Polynomial(acc))
    return PolyVector(out)


def dot_reference(v: PolyVector, w: PolyVector) -> Polynomial:
    acc = [Fraction(0)] * (max(len(c.coeffs) for c in v) + max(len(c.coeffs) for c in w))
    for a, b in zip(v, w):
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                acc[i + j] += x * y
    return Polynomial(acc)


_ENTRY = st.one_of(st.just(0), coefficients)


def _constant_matrix(nrows: int, ncols: int):
    """Constant matrices with zero rows and zero entries."""
    row = st.one_of(
        st.just([0] * ncols), st.lists(_ENTRY, min_size=ncols, max_size=ncols)
    )
    return st.lists(row, min_size=nrows, max_size=nrows)


def _map_and_vectors(n: int):
    """Maps from dimension n with 1-5 rows, and two vectors of dimension n."""
    vector = st.lists(polynomials, min_size=n, max_size=n).map(PolyVector)
    matrix = st.integers(1, 5).flatmap(lambda k: _constant_matrix(k, n))
    return st.tuples(matrix, vector, vector)


@settings(max_examples=60, deadline=None)
@given(st.one_of([_map_and_vectors(n) for n in range(1, 6)]))
def test_linear_map_and_dot_match_fraction_loops(case):
    matrix, v, w = case
    mapped = v.linear_map(matrix)
    assert mapped == linear_map_reference(v, matrix)
    pairing = v.dot(w)
    assert pairing == dot_reference(v, w)
    for q in (*mapped, pairing):
        assert all(type(c) is Fraction for c in q.coeffs)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matrix_linear_map_matches_fraction_loops(data):
    """A k x n constant map of an n x m polynomial matrix is the Fraction
    loop on each column, and a vector maps as a one-column matrix."""
    n, k, m = (data.draw(st.integers(1, 5), label=name) for name in "nkm")
    matrix = data.draw(_constant_matrix(k, n), label="matrix")
    target = data.draw(_poly_matrix(n, m), label="target")
    mapped = target.linear_map(matrix)
    assert (mapped.nrows, mapped.ncols) == (k, m)
    assert mapped.columns() == [
        linear_map_reference(col, matrix) for col in target.columns()
    ]
    assert target.column(0).linear_map(matrix) == mapped.column(0)
    for row in mapped.rows:
        assert all(type(c) is Fraction for e in row for c in e.coeffs)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(polynomials, min_size=1, max_size=5).map(PolyVector),
    st.one_of(st.integers(-9, 9), coefficients, polynomials),
)
def test_scale_matches_fraction_loops(v, factor):
    as_poly = factor if isinstance(factor, Polynomial) else Polynomial.constant(factor)
    scaled = v.scale(factor)
    assert scaled == PolyVector(
        dot_reference(PolyVector([c]), PolyVector([as_poly])) for c in v
    )
    for c in scaled:
        assert all(type(x) is Fraction for x in c.coeffs)


def test_scale_by_a_number_skips_the_product_kernel(monkeypatch):
    calls = []

    def counted(lefts, rights):
        calls.append(len(lefts))
        return sum_of_products(lefts, rights)

    monkeypatch.setattr(poly, "sum_of_products", counted)
    v = vec((1, Fraction(2, 3)), (0, 0, 5))
    for factor in (3, Fraction(-4, 7), 0):
        assert v.scale(factor) == PolyVector(c * factor for c in v)
    assert calls == []
    assert v.scale(p(0, 1)) == vec((0, 1, Fraction(2, 3)), (0, 0, 0, 5))
    assert calls == [1, 1]


def matmul_reference(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    return PolyMatrix(
        [dot_reference(PolyVector(row), col) for col in b.columns()] for row in a.rows
    )


def _poly_matrix(nrows: int, ncols: int):
    return st.lists(
        st.lists(polynomials_up_to(5), min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows,
    ).map(PolyMatrix)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sum_of_products_matches_fraction_loops(data):
    """``*`` (one pair), ``dot`` (n pairs) and ``@`` (rows with columns)
    are the one integer kernel; the reference sums Fraction products."""
    n = data.draw(st.integers(1, 5), label="n")
    pairs = st.lists(polynomials, min_size=n, max_size=n)
    lefts, rights = data.draw(pairs, label="lefts"), data.draw(pairs, label="rights")
    expected = dot_reference(PolyVector(lefts), PolyVector(rights))
    assert sum_of_products(lefts, rights) == expected
    assert PolyVector(lefts).dot(PolyVector(rights)) == expected
    one = dot_reference(PolyVector(lefts[:1]), PolyVector(rights[:1]))
    assert lefts[0] * rights[0] == one
    shape = data.draw(st.tuples(*[st.integers(1, 3)] * 3), label="shape")
    a = data.draw(_poly_matrix(shape[0], shape[1]), label="a")
    b = data.draw(_poly_matrix(shape[1], shape[2]), label="b")
    product = a @ b
    assert product == matmul_reference(a, b)
    for q in (expected, one, *(e for row in product.rows for e in row)):
        assert all(type(c) is Fraction for c in q.coeffs)


def test_sum_of_products_edge_cases():
    zero = Polynomial.zero()
    assert sum_of_products([], []).is_zero
    assert sum_of_products([zero, zero], [p(1, 2), zero]).is_zero
    # unequal lengths, and a sum that cancels down to a constant
    assert sum_of_products([p(1, 1), p(-1)], [p(-1, 1), p(0, 0, 1)]) == p(-1)
    assert sum_of_products([p(Fraction(1, 3))], [p(0, 0, 0, 6)]) == p(0, 0, 0, 2)


def test_gcd_examples():
    assert vec((1, 0, 0, 0, 0, 0, 1), (0, 0, 0, 1), (0, 1)).gcd() == p(1)
    assert vec((0, 2), (0, 0, 4)).gcd() == p(0, 1)
    assert quartic_tangent().gcd() == p(1)
    with pytest.raises(RegularityError, match="vector is zero"):
        PolyVector([Polynomial.zero(), Polynomial.zero()]).gcd()
    with pytest.raises(RegularityError, match="vector is zero"):
        PolyVector([Polynomial.zero(), Polynomial.zero()]).is_coprime()


@st.composite
def coprimality_cases(draw):
    """1 to 5 rational components, zero ones included, times a planted
    factor of degree 0-2; the leading coefficients of none, some or all of
    them are multiples of ``PRIME``, so that the certificate's guard fails.
    A factor whose own leading coefficient is a multiple of ``PRIME`` loses
    degree modulo ``PRIME``, which only the guard catches."""
    n = draw(st.integers(1, 5))
    factor = Polynomial(
        draw(st.lists(st.fractions(-9, 9, max_denominator=6), min_size=0, max_size=2))
        + [draw(st.sampled_from([1, -1, 2, Fraction(1, 3), Fraction(-5, 2), -3 * PRIME]))]
    )
    components = []
    for base in draw(st.lists(polynomials_up_to(5), min_size=n, max_size=n)):
        if base and draw(st.booleans()):
            base = Polynomial(base.coeffs[:-1] + (PRIME * draw(st.integers(1, 9)),))
        components.append(base * factor)
    return PolyVector(components)


@settings(max_examples=150, deadline=None)
@given(coprimality_cases())
def test_is_coprime_matches_the_euclid(v):
    assume(not v.is_zero)
    assert v.is_coprime() == (_reference_gcd(v) == Polynomial.one())
    assert v.gcd() == _reference_gcd(v)


def _reference_gcd(v: PolyVector) -> Polynomial:
    return reduce(reference_gcd, [c for c in v if c], Polynomial.zero())


@settings(max_examples=150, deadline=None)
@given(coprimality_cases())
def test_integer_gcd_matches_the_euclid(v):
    """Over Z the primitive gcd with a positive lead; modulo ``PRIME``, when
    the guard holds, a gcd of at least its degree, so ``[1]`` proves the
    components coprime."""
    assume(not v.is_zero)
    comps, _ = integer_coefficients([c for c in v if c])
    exact = integer_gcd(comps)
    assert exact[-1] > 0 and math.gcd(*exact) == 1
    assert Polynomial(exact).monic() == _reference_gcd(v)
    if any(c[-1] % PRIME for c in comps):
        assert len(integer_gcd(comps, PRIME)) >= len(exact)


def _counting_euclid(monkeypatch) -> list:
    calls = []

    def euclid(*polys):
        calls.append(1)
        return poly.poly_gcd(*polys)

    monkeypatch.setattr(vectors, "poly_gcd", euclid)
    return calls


def test_is_coprime_beyond_the_certificate(monkeypatch):
    """t and t + PRIME are coprime over Q but share t modulo PRIME."""
    calls = _counting_euclid(monkeypatch)
    t = Polynomial.monomial(1)
    assert PolyVector([t, t + PRIME]).is_coprime()
    assert calls


def test_require_regular_rejects_a_planted_factor(monkeypatch):
    """The lifted modular gcd, t - 2, divides every component: no Euclid."""
    calls = _counting_euclid(monkeypatch)
    with pytest.raises(RegularityError, match="components share a nonconstant factor"):
        require_regular(quartic_tangent().scale(p(-2, 1)))
    assert not calls



def _past_the_lift(g: Polynomial) -> bool:
    """Whether some coefficient of the monic ``g`` has a numerator or a
    denominator past the bound of :func:`poly.rational_lift`."""
    return any(max(abs(c.numerator), c.denominator) > LIFT_BOUND for c in g.coeffs)


@st.composite
def factors_past_the_lift(draw):
    """2 to 4 nonzero rational components times a linear factor whose monic
    form the lift cannot reach: a root past the bound, or a leading
    coefficient of 3 * 10**9."""
    factor = draw(st.one_of(
        st.sampled_from(
            [Fraction(10**9, 7), Fraction(-(10**9), 7), Fraction(32768), Fraction(1, -32768)]
        ).map(lambda root: Polynomial([-root, 1])),
        st.integers(-9, 9).filter(bool).map(lambda c: Polynomial([c, 3 * 10**9])),
    ))
    bases = draw(st.lists(polynomials_up_to(5).filter(bool), min_size=2, max_size=4))
    return PolyVector(base * factor for base in bases)


@settings(max_examples=100, deadline=None)
@given(factors_past_the_lift())
def test_is_coprime_with_a_factor_past_the_lift(v):
    """No lifted candidate can divide every component, since it would be the
    monic gcd itself, so the exact Euclid decides."""
    reference = _reference_gcd(v)
    with mock.patch.object(vectors, "poly_gcd", wraps=poly.poly_gcd) as euclid:
        assert not v.is_coprime()
    assert v.gcd() == reference
    if _past_the_lift(reference):
        assert euclid.called


@st.composite
def factors_modulo_the_prime(draw):
    """2 to 4 nonzero rational bases, each times its own t + k * PRIME: the
    components share t modulo ``PRIME`` but not over Q, unless the bases
    share a factor.  A zero base becomes 1: filtering zeros out of a list
    of fixed size fails hypothesis's filter health check at some seeds."""
    ks = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=4, unique=True))
    nonzero = polynomials_up_to(5).map(lambda base: base or Polynomial.one())
    bases = draw(st.lists(nonzero, min_size=len(ks), max_size=len(ks)))
    return PolyVector(base * Polynomial([k * PRIME, 1]) for base, k in zip(bases, ks))


@settings(max_examples=100, deadline=None)
@given(factors_modulo_the_prime())
def test_is_coprime_with_a_factor_shared_modulo_the_prime(v):
    """An unlucky prime: the modular gcd is not constant, no lifted candidate
    divides coprime components, and the exact Euclid decides."""
    reference = _reference_gcd(v)
    with mock.patch.object(vectors, "poly_gcd", wraps=poly.poly_gcd) as euclid:
        assert v.is_coprime() == (reference == Polynomial.one())
    assert v.gcd() == reference
    if reference == Polynomial.one():
        assert euclid.called


def test_coefficient_matrix():
    coeffs = quartic_tangent().coefficient_matrix()
    assert coeffs == (
        (1, 0, 2, 1, 1),
        (2, 0, 3, 1, 2),
        (3, 5, 4, 1, 3),
    )
    with pytest.raises(RegularityError, match="vector is zero"):
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
    with pytest.raises(ValueError, match="matrix must be nonempty"):
        PolyMatrix([])
    with pytest.raises(ValueError, match="matrix must be nonempty"):
        PolyMatrix.from_columns([])
    with pytest.raises(ValueError, match="columns differ in dimension"):
        PolyMatrix.from_columns([cols[0], vec((1,), (2,), (3,))])
    with pytest.raises(AttributeError):
        m.rows = ()


def test_matmul():
    m = PolyMatrix([[p(0, 1), p(1)], [p(1), p(0)]])
    ident = PolyMatrix.identity(2)
    assert m @ ident == m
    assert ident @ m == m
    sq = m @ m
    assert sq.entry(0, 0) == p(1, 0, 1)
    with pytest.raises(ValueError, match="dimension mismatch"):
        m @ PolyMatrix.identity(3)
    with pytest.raises(TypeError):
        m @ vec((1,), (0,))


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
        assert PolyMatrix(rows).determinant() == _det_cofactor(rows)
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


def _elementary(n, rng):
    """A random elementary polynomial matrix and its inverse: row i plus a
    polynomial times row j, or row i scaled by a nonzero constant."""
    i, j = rng.sample(range(n), 2)
    forward = [[p(int(r == c)) for c in range(n)] for r in range(n)]
    backward = [list(row) for row in forward]
    if rng.random() < 0.75:
        f = p(*[rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
        forward[i][j], backward[i][j] = f, -f
    else:
        c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
        forward[i][i], backward[i][i] = p(c), p(1 / c)
    return PolyMatrix(forward), PolyMatrix(backward)


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
    refused = "inverse requires a nonzero constant determinant"
    with pytest.raises(ValueError, match=refused):
        PolyMatrix([[p(0, 1), p(0)], [p(0), p(1)]]).inverse_unimodular()
    assert PolyMatrix([[p(Fraction(-2, 5))]]).inverse_unimodular() == PolyMatrix(
        [[p(Fraction(-5, 2))]]
    )
    with pytest.raises(ValueError, match=refused):
        PolyMatrix([[p(1, 1)]]).inverse_unimodular()
    with pytest.raises(ValueError, match="determinant requires a square matrix"):
        PolyMatrix([[p(1), p(0)]]).inverse_unimodular()
    # products of elementary matrices at n = 2..5: the inverse is the
    # product of the elementary inverses in reverse order
    rng = random.Random(28)
    for n in range(2, 6):
        for _ in range(4):
            m = inv = PolyMatrix.identity(n)
            for _ in range(2 * n):
                e, e_inv = _elementary(n, rng)
                m, inv = m @ e, e_inv @ inv
            assert m.inverse_unimodular() == inv
            assert m @ inv == PolyMatrix.identity(n) == inv @ m


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


def test_outer_product_of_no_vectors_is_the_unit(monkeypatch):
    """Dimension one: the one minor is empty, so the Laplace identity
    ``w . outer_product([]) == det [w]`` reads ``w[0] == det [[w[0]]]``.
    The unit is returned as it is, with no elimination of an empty matrix."""
    monkeypatch.setattr(ratlin, "Echelon", None)
    assert outer_product([]) == PolyVector([1])
    for entry in (p(0), p(1), p(-3, 0, 2), p(Fraction(1, 3), Fraction(-5, 7), 1)):
        w = PolyVector([entry])
        assert w.dot(outer_product([])) == PolyMatrix([[entry]]).determinant() == entry


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
        det = _det_cofactor(PolyMatrix.from_columns([w] + us).rows)
        assert w.dot(cross) == det
        # each factor is orthogonal to the product
        for u in us:
            assert u.dot(cross).is_zero
    with pytest.raises(ValueError):
        outer_product([vec((1,), (2,), (3,))])


def outer_product_reference(vectors):
    """The definition, minor by minor: component i is ``(-1)**i`` times the
    cofactor expansion of the vectors without row i."""
    n = vectors[0].dim
    comps = []
    for i in range(n):
        d = _det_cofactor([[vec[r] for vec in vectors] for r in range(n) if r != i])
        comps.append(d if i % 2 == 0 else -d)
    return PolyVector(comps)


def _grid_bound(vectors):
    """The largest of the minors' degree bounds: the last point of the grid."""
    n = vectors[0].dim
    return max(
        _degree_bound([[vec[r] for vec in vectors] for r in range(n) if r != i])
        for i in range(n)
    )


_T_MINUS_2 = p(-2, 1)


@st.composite
def outer_product_cases(draw):
    """n-1 vectors of dimension n = 2..8, plain or shaped so that minors vanish.

    ``zero`` puts in a zero vector and ``equal`` repeats a vector, so every
    minor is 0.  ``rank drop`` replaces the last vector by
    ``(t - 2) * (u_1 + w)``, so the vectors lose rank at t = 2.  ``free
    column`` multiplies one component of every vector by ``t - k``, so at
    t = k that column has no pivot, and the free column is not the last.
    """
    n = draw(st.integers(2, 8))
    poly = polynomials_up_to(4 if n <= 4 else 3)
    vector = st.lists(poly, min_size=n, max_size=n).map(PolyVector)
    us = draw(st.lists(vector, min_size=n - 1, max_size=n - 1))
    shape = draw(st.sampled_from(("plain", "zero", "equal", "rank drop", "free column")))
    if shape == "zero":
        us[draw(st.integers(0, n - 2))] = PolyVector([Polynomial.zero()] * n)
    elif shape == "equal" and n >= 3:
        us[-1] = us[0]
    elif shape == "rank drop":
        us[-1] = (us[0] + draw(vector)).scale(_T_MINUS_2)
    elif shape == "free column":
        j, k = draw(st.integers(0, n - 1)), draw(st.integers(0, 2))
        factor = p(-k, 1)
        us = [PolyVector(c * factor if r == j else c for r, c in enumerate(u)) for u in us]
    return us, shape


@settings(max_examples=80, deadline=None)
@given(outer_product_cases())
def test_outer_product_matches_minor_by_minor(case):
    us, shape = case
    cross = outer_product(us)
    assert cross == outer_product_reference(us)
    if shape == "zero" or (shape == "equal" and len(us) >= 2):
        assert cross.is_zero
    for c in cross:
        assert all(type(x) is Fraction for x in c.coeffs)


def test_outer_product_one_elimination_per_point(monkeypatch):
    made = []

    class Counted(ratlin.Echelon):
        def __init__(self, rows):
            super().__init__(rows)
            made.append(self.pivots)

    monkeypatch.setattr(ratlin, "Echelon", Counted)
    # u2 = (t - 2)(u1 + w): rank 1 at t = 2; the first components both
    # vanish at t = 0, so there the free column is the first.
    u1 = vec((0, 1), (1,), (0, 0, 1))
    w = vec((0, 1), (1, 1), (3,))
    u2 = (u1 + w).scale(_T_MINUS_2)
    cases = [
        [u1, u2],
        [u1, w],
        [vec((1, 2, 3), (0, 3), (4,), (1, 0, 1))] * 3,
        [vec((1, 2), (0, 3))],
    ]
    for us in cases:
        made.clear()
        cross = outer_product(us)
        assert len(made) == _grid_bound(us) + 1
        assert cross == outer_product_reference(us)
    made.clear()
    outer_product([u1, u2])
    assert made[2] == (0,)
    assert made[0] == (1, 2)


def test_minors_share_one_evaluation_loop(monkeypatch):
    """The determinant of the golden quintic's frame is one outer product of
    its last columns, paired with the first: one elimination per point of
    that outer product's grid, and one interpolation per component."""
    calls = {"echelon": 0, "interpolate": 0}
    interpolate = vectors._interpolate

    class Counted(ratlin.Echelon):
        def __init__(self, rows):
            calls["echelon"] += 1
            super().__init__(rows)

    def counted_interpolate(values, denominator):
        calls["interpolate"] += 1
        return interpolate(values, denominator)

    frame = frames.moving_frame(frames.validate_curve(quintic_curve())).matrix
    monkeypatch.setattr(ratlin, "Echelon", Counted)
    monkeypatch.setattr(vectors, "_interpolate", counted_interpolate)
    us = frame.columns()[1:]
    one_outer_product = {"echelon": _grid_bound(us) + 1, "interpolate": frame.nrows}
    assert one_outer_product == {"echelon": 2, "interpolate": 3}
    assert frame.determinant() == Polynomial.one()
    assert calls == one_outer_product
    calls.update(echelon=0, interpolate=0)
    assert frame.column(0).dot(outer_product(us)) == Polynomial.one()
    assert calls == one_outer_product


_SMALL = st.fractions(-9, 9, max_denominator=6)


@st.composite
def syzygies_and_scales(draw):
    """A coprime v of dimension 2..5, syzygies of it and a scale r.

    One component has the full degree d; with ``roots`` it is
    ``t (t - 1) a(t)`` and the others are of lower degree, so the one
    full-degree minor is read past the roots 0 and 1.  The syzygies are the
    µ-basis as it is, ``non-reduced`` (last + t^k first: the degrees sum
    past d, so several points decide), ``times t - 1`` (a nonconstant
    quotient) or ``dependent`` (a zero outer product).  r is the basis
    scale, twice it, 0 or its negative.
    """
    n = draw(st.integers(2, 5))
    shape = draw(st.sampled_from(("plain", "roots")))
    d = draw(st.integers(2 if shape == "roots" else 1, 4))
    if shape == "roots":
        lead = Polynomial([0, -1, 1]) * Polynomial(
            draw(st.lists(_SMALL, min_size=d - 2, max_size=d - 2)) + [draw(_SMALL.filter(bool))]
        )
        size = d
    else:
        lead = Polynomial(draw(st.lists(_SMALL, min_size=d, max_size=d)) + [1])
        size = d + 1
    others = draw(st.lists(st.lists(_SMALL, max_size=size).map(Polynomial),
                           min_size=n - 1, max_size=n - 1))
    at = draw(st.integers(0, n - 1))
    v = PolyVector(others[:at] + [lead] + others[at:])
    assume(v.is_coprime())
    basis = mu_basis(v)
    us = list(basis.elements)
    change = draw(st.sampled_from(("basis", "non-reduced", "times t - 1", "dependent")))
    if change == "non-reduced" and n >= 3:
        k = draw(st.integers(0, 3))
        us[-1] = us[-1] + us[0].scale(Polynomial([0] * k + [1]))
    elif change == "times t - 1":
        j = draw(st.integers(0, n - 2))
        us[j] = us[j].scale(Polynomial([-1, 1]))
    elif change == "dependent" and n >= 3:
        us[-1] = us[0].scale(draw(st.sampled_from((Polynomial([2]), Polynomial([1, 1])))))
    r = basis.scale * draw(st.sampled_from((1, 2, 0, -1)))
    return v, us, r


@settings(max_examples=80, deadline=None)
@given(syzygies_and_scales())
def test_outer_product_is_multiple_matches_the_outer_product(case):
    """The one-minor verdict agrees with interpolating the whole product."""
    v, us, r = case
    left, scale = integer_coefficients(v.components)
    cleared = [integer_coefficients(u.components) for u in us]
    assert all(v.dot(u).is_zero for u in us)
    verdict = vectors.outer_product_is_multiple(left, scale, cleared, r)
    assert verdict == (outer_product(us) == v.scale(r))


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


ZERO_REFUSERS = {
    "require_regular": require_regular,
    "pivot_profile": pivot_profile,
    "gcd": PolyVector.gcd,
    "is_coprime": PolyVector.is_coprime,
    "coefficient_matrix": PolyVector.coefficient_matrix,
    "section": section,
    "canonical_form": canonical_form,
    "canonical_shape_violations": canonical_shape_violations,
    "build_sylvester": build_sylvester,
    "bezout_degree_search": bezout_degree_search,
    "bezout_degree_search_bounded": lambda v: bezout_degree_search(v, 1),
    "minimal_bezout": minimal_bezout,
    "mu_basis": mu_basis,
    "is_mu_basis": lambda v: is_mu_basis(v, (), ()),
    "outer_product_is_multiple": lambda v: vectors.outer_product_is_multiple(
        *integer_coefficients(v.components), [], Fraction(1)
    ),
    "minimal_completion": minimal_completion,
    "quillen_suslin": quillen_suslin,
    "verify_completion": lambda v: verify_completion(PolyMatrix.identity(v.dim), v),
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", list(ZERO_REFUSERS))
def test_zero_vector_refused_with_one_message(name, n):
    """Each entry point refuses the zero vector as the callee that cannot
    run on it does: ``RegularityError("vector is zero")``."""
    with pytest.raises(RegularityError, match="^vector is zero$"):
        ZERO_REFUSERS[name](PolyVector([Polynomial.zero()] * n))


def test_evaluate():
    v = vec((0, 1), (1, 0, 1))
    assert v.evaluate(2) == (Fraction(2), Fraction(5))
    m = PolyMatrix([[p(0, 1), p(1)], [p(0), p(2)]])
    assert m.evaluate(Fraction(1, 2)) == (
        (Fraction(1, 2), Fraction(1)),
        (Fraction(0), Fraction(2)),
    )
