"""Stacked coefficient matrix of a vector and its pivot structure."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from affine_frames import (
    Polynomial,
    PolyVector,
    RegularityError,
    build_sylvester,
    flat,
    ratlin,
    sharp,
)
from affine_frames.sylvester import sylvester_matrix

from conftest import p, polynomials_up_to, random_regular_vector, vec

# quartic with a fully worked elimination; frozen below entry for entry
QUARTIC = vec((2, 1, 0, 0, 1), (3, 0, 1, 0, 1), (6, 0, 0, 2, 1))

QUARTIC_MATRIX = (
    (2, 3, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, 0, 0, 2, 3, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 1, 0, 0, 2, 3, 6, 0, 0, 0, 0, 0, 0),
    (0, 0, 2, 0, 1, 0, 1, 0, 0, 2, 3, 6, 0, 0, 0),
    (1, 1, 1, 0, 0, 2, 0, 1, 0, 1, 0, 0, 2, 3, 6),
    (0, 0, 0, 1, 1, 1, 0, 0, 2, 0, 1, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 2, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 2),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1),
)


def test_quartic_matrix_frozen():
    sys = build_sylvester(QUARTIC)
    assert sys.nrows == 9
    assert sys.ncols == 15
    assert sys.matrix == tuple(
        tuple(Fraction(e) for e in row) for row in QUARTIC_MATRIX
    )


def test_quartic_pivot_structure():
    sys = build_sylvester(QUARTIC)
    assert sys.rank == 9
    assert sys.pivot_cols == (1, 2, 3, 4, 5, 6, 7, 10, 13)
    assert sys.nonpivot_cols == (8, 9, 11, 12, 14, 15)
    assert sys.basic_nonpivot == (8, 9)


def test_small_system():
    sys = build_sylvester(vec((1,), (0, 1)))
    assert sys.nrows == 3
    assert sys.ncols == 4
    assert sys.rank == 3


def test_zero_vector_rejected():
    with pytest.raises(RegularityError, match="vector is zero"):
        build_sylvester(PolyVector([Polynomial.zero(), Polynomial.zero()]))


@st.composite
def shared_factor_vectors(draw):
    """Nonzero vectors whose components share 0-2 linear factors.

    Some components are zero, and the cofactors may share a further factor.
    """
    n = draw(st.integers(2, 4))
    factor = Polynomial.one()
    for root in draw(st.lists(st.integers(-3, 3), max_size=2)):
        factor = factor * p(-root, 1)
    cofactors = [
        p(*draw(st.lists(st.integers(-5, 5), min_size=1, max_size=5)))
        for _ in range(n)
    ]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n - 1)):
        cofactors[i] = Polynomial.zero()
    v = PolyVector(c * factor for c in cofactors)
    assume(not v.is_zero)
    return v


def _check_reduced_data(sys):
    """The back-substituted columns match the reduced form of [A | I]."""
    reduced, transform, pivots = ratlin.rref_with_transform(sys.matrix)
    assert tuple(c - 1 for c in sys.pivot_cols) == pivots
    assert sys.reduced_basic == tuple(
        tuple(row[j - 1] for row in reduced) for j in sys.basic_nonpivot
    )
    if sys.rank == sys.nrows:
        assert sys.reduced_e1 == tuple(row[0] for row in transform)
    else:
        # e1 is outside the span of A, so it is the next pivot column
        unit = [Fraction(0)] * sys.nrows
        unit[sys.rank] = Fraction(1)
        assert sys.reduced_e1 == tuple(unit)
    assert sys.reduced == reduced


@settings(max_examples=150, deadline=None)
@given(shared_factor_vectors())
@example(vec((-1, 0, 1), (0, -1, 0, 1), (1, 1)))  # (t + 1)(t - 1, t^2 - t, 1)
def test_rank_measures_common_factor(v):
    """rank A = 2d+1 - deg gcd(v), and the reduced data match [A | I]."""
    sys = build_sylvester(v)
    assert sys.rank == sys.nrows - int(v.gcd().degree)
    _check_reduced_data(sys)


def test_reduced_data_of_coprime_vectors():
    rng = random.Random(96)
    for _ in range(20):
        sys = build_sylvester(random_regular_vector(rng, max_degree=6))
        assert sys.rank == sys.nrows
        _check_reduced_data(sys)


def test_sharp_golden():
    h = vec((9, -12, -1), (8, 15), (-7, -5, 1))
    assert sharp(h, 2) == tuple(
        Fraction(x) for x in (9, 8, -7, -12, 15, -5, -1, 0, 1)
    )
    zero = PolyVector([Polynomial.zero()] * 3)
    assert sharp(zero, 2) == (Fraction(0),) * 9
    with pytest.raises(ValueError, match="stacking bound"):
        sharp(h, 1)


def test_flat_golden():
    h = [Fraction(i) for i in range(1, 16)]
    assert flat(h, 3, 4) == vec(
        (1, 4, 7, 10, 13), (2, 5, 8, 11, 14), (3, 6, 9, 12, 15)
    )
    assert flat([1, 0, 0, 0, 0, 0], 3, 1) == vec((1,), (0,), (0,))
    # int and mixed int / Fraction coefficients give the same vector
    assert flat(list(range(1, 16)), 3, 4) == flat(h, 3, 4)
    mixed = flat([1, Fraction(1, 2), 0, -3, Fraction(-7, 5), 2], 2, 2)
    assert mixed == vec((1, 0, Fraction(-7, 5)), (Fraction(1, 2), -3, 2))
    assert all(type(c) is Fraction for comp in mixed for c in comp.coeffs)
    with pytest.raises(ValueError):
        flat([1, 2, 3], 2, 1)


def test_sharp_flat_roundtrip():
    rng = random.Random(91)
    for _ in range(30):
        n = rng.choice((2, 3, 4))
        d = rng.randint(0, 5)
        values = [Fraction(rng.randint(-9, 9)) for _ in range(n * (d + 1))]
        assert sharp(flat(values, n, d), d) == tuple(values)
        h = vec(*[[rng.randint(-9, 9) for _ in range(d + 1)] for _ in range(n)])
        assert flat(sharp(h, d), n, d) == h


def test_apply_golden():
    sys = build_sylvester(QUARTIC)
    h = [Fraction(i) for i in range(1, 16)]
    assert sys.apply(h) == tuple(
        Fraction(x) for x in (26, 60, 98, 143, 194, 57, 62, 63, 42)
    )
    zero = [Fraction(0)] * 15
    assert sys.apply(zero) == (Fraction(0),) * 9
    with pytest.raises(ValueError):
        sys.apply([Fraction(1)] * 14)


def test_apply_is_scalar_product():
    rng = random.Random(92)
    for _ in range(25):
        v = random_regular_vector(rng, max_degree=6)
        sys = build_sylvester(v)
        h = [Fraction(rng.randint(-9, 9)) for _ in range(sys.ncols)]
        image = flat(sys.apply(h), 1, 2 * sys.d)
        assert image[0] == v.dot(flat(h, sys.n, sys.d))


def test_full_rank_for_unit_gcd():
    rng = random.Random(93)
    for _ in range(30):
        v = random_regular_vector(rng, max_degree=7)
        sys = build_sylvester(v)
        assert sys.rank == sys.nrows


def test_nonpivot_periodicity():
    rng = random.Random(94)
    for _ in range(30):
        v = random_regular_vector(rng, max_degree=7)
        sys = build_sylvester(v)
        nonpivot = set(sys.nonpivot_cols)
        for j in nonpivot:
            col = j + sys.n
            while col <= sys.ncols:
                assert col in nonpivot
                col += sys.n


def test_basic_nonpivot_count():
    rng = random.Random(95)
    for _ in range(30):
        v = random_regular_vector(rng, max_degree=7)
        sys = build_sylvester(v)
        assert len(sys.basic_nonpivot) == v.dim - 1
        residues = {j % sys.n for j in sys.basic_nonpivot}
        assert len(residues) == v.dim - 1


def test_column_accessor():
    sys = build_sylvester(QUARTIC)
    assert sys.column(1) == tuple(Fraction(r[0]) for r in QUARTIC_MATRIX)
    assert sys.column(15) == tuple(Fraction(r[14]) for r in QUARTIC_MATRIX)
    with pytest.raises(ValueError):
        sys.column(0)
    with pytest.raises(ValueError):
        sys.column(16)


def sylvester_matrix_reference(v):
    """A placed entry by entry: copy k of the transposed coefficient matrix
    starts at row k and column k*n."""
    n, d = v.dim, int(v.degree)
    block = ratlin.transpose(v.coefficient_matrix())
    rows = [[Fraction(0)] * (n * (d + 1)) for _ in range(2 * d + 1)]
    for copy in range(d + 1):
        for r in range(d + 1):
            for c in range(n):
                rows[copy + r][copy * n + c] = block[r][c]
    return tuple(map(tuple, rows))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(polynomials_up_to(7), min_size=n, max_size=n)
    ).map(PolyVector)
)
def test_sylvester_matrix_matches_entrywise_layout(v):
    assume(not v.is_zero)
    matrix = sylvester_matrix(v)
    assert matrix == sylvester_matrix_reference(v)
    assert all(type(x) is Fraction for row in matrix for x in row)
