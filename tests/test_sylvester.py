"""Stacked coefficient matrix of a vector and its pivot structure."""

import json
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
    minimal_bezout,
    mu_basis,
    ratlin,
    sharp,
)
from affine_frames.cli import main
from affine_frames.io import vector_to_dict
from affine_frames.bezout import bezout_column
from affine_frames.sylvester import integer_system

from conftest import flat, p, polynomials_up_to, random_regular_vector, vec
from test_ratlin import _rref_with_transform_reference

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
    """The one constructor refuses the zero vector, cleared or not."""
    with pytest.raises(RegularityError, match="vector is zero"):
        build_sylvester(PolyVector([Polynomial.zero(), Polynomial.zero()]))
    with pytest.raises(RegularityError, match="vector is zero"):
        integer_system([[0, 0], [], [0]], -3)


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


def _check_reduced_data(v, sys):
    """The readers' vectors match the reduced form of [A | I], by Fraction
    Gauss-Jordan: the minimal Bezout vector is the transform's e1 column at
    the pivot columns, and the syzygy of a basic non-pivot column j is
    e_j - sum_k R[k, j] e_{p_k}.  A non-coprime v is refused by both."""
    reduced, transform, pivots = _rref_with_transform_reference(sys.matrix)
    assert tuple(c - 1 for c in sys.pivot_cols) == pivots
    assert sys.reduced == reduced
    if sys.rank != sys.nrows:
        for reader in (minimal_bezout, mu_basis):
            with pytest.raises(RegularityError, match="share a nonconstant factor"):
                reader(v, sys)
        return
    coords = [Fraction(0)] * sys.ncols
    for k, col in enumerate(pivots):
        coords[col] = transform[k][0]
    assert sharp(minimal_bezout(v, sys).vector, sys.d) == tuple(coords)
    expected = []
    for j in sys.basic_nonpivot:
        coords = [Fraction(0)] * sys.ncols
        coords[j - 1] = Fraction(1)
        for k, col in enumerate(pivots):
            coords[col] = -reduced[k][j - 1]
        expected.append(tuple(coords))
    assert [sharp(u, sys.d) for u in mu_basis(v, sys).elements] == expected


@settings(max_examples=150, deadline=None)
@given(shared_factor_vectors())
@example(vec((-1, 0, 1), (0, -1, 0, 1), (1, 1)))  # (t + 1)(t - 1, t^2 - t, 1)
@example(vec((-3, -1, 1), (3, 3, 2)))  # coprime, with a negative last pivot
def test_rank_measures_common_factor(v):
    """rank A = 2d+1 - deg gcd(v), and the readers match [A | I]."""
    sys = build_sylvester(v)
    assert sys.rank == sys.nrows - int(v.gcd().degree)
    _check_reduced_data(v, sys)


def test_reduced_data_of_coprime_vectors():
    negative = build_sylvester(vec((-3, -1, 1), (3, 3, 2)))
    assert negative.rank == negative.nrows and negative.echelon.last_pivot < 0
    rng = random.Random(96)
    positive = False
    for _ in range(20):
        v = random_regular_vector(rng, max_degree=6)
        sys = build_sylvester(v)
        assert sys.rank == sys.nrows
        _check_reduced_data(v, sys)
        positive |= sys.echelon.last_pivot > 0
    # With the vector above, both signs of the last pivot D reach the reader.
    assert positive


def _dense_16():
    """A generic dense vector, n = 3 and d = 16: µ-degrees (8, 8) and Bezout
    degree 7, so ``minimal_bezout`` answers off the first 3 * (7 + 1) = 24
    of A's 51 columns and ``mu_basis`` off the first 3 * (8 + 1) = 27."""
    rng = random.Random(97)
    return vec(*([rng.randint(-9, 9) for _ in range(16)] + [lead] for lead in (1, 2, -1)))


def test_readers_grow_one_pass(tmp_path, monkeypatch):
    """``minimal_bezout`` and ``mu_basis`` of one system read one Sylvester
    pass, which takes A's columns a degree block at a time, each reader as
    far as it reads: 24 of 51 for ``minimal_bezout``, which brings L e1
    through each new block's steps only and solves it there, then 27 for
    ``mu_basis``, which back-substitutes its n - 1 basic columns in one
    read.  The pivot data that ``--dump-pivots`` writes grow the same pass
    by the other 24 columns, and no column is taken twice.
    ``minimal_bezout`` refuses v (t - 2) after 27 of its 54 columns, where
    ``mu_basis`` does.  ``sylvester --dump-pivots`` takes all 51 columns in
    one pass."""
    v = _dense_16()
    passes, reads, reduced = [], [], []

    class CountingEchelon(ratlin.Echelon):
        def __init__(self, rows):
            if len(rows) in (33, 35):  # 2d + 1, d = 16 or 17: a Sylvester pass
                passes.append(self)
            super().__init__(rows)

        def reduce(self, column, start=0):
            if self in passes:
                reduced.append(start)
            return super().reduce(column, start)

        def integer_columns(self, cols):
            cols = tuple(cols)
            if self in passes:
                reads.append(cols)
            return super().integer_columns(cols)

    monkeypatch.setattr(ratlin, "Echelon", CountingEchelon)
    sys = build_sylvester(v)
    assert sys.ncols == 51 and passes == []
    b = minimal_bezout(v, sys)
    (echelon,) = passes
    # 24 columns taken, and L e1 brought through each block's new steps
    # without joining them: 8 reductions, each but the first starting at the
    # rank of the blocks before
    assert len(echelon.forward) == 24 and len(reduced) == 24 + 8 and reads == []
    ranks = [sum(c < 3 * k for c in echelon.pivots) for k in range(1, 8)]
    assert [start for start in reduced if start] == ranks
    mu = mu_basis(v, sys)
    mu_basis(v, sys)
    (basic,) = set(reads)
    assert passes == [echelon] and len(reads) == 2 and len(echelon.forward) == 27
    assert len(basic) == 2 and sum(j // 3 for j in basic) == 16
    assert [u.degree for u in mu.elements] == [8, 8] and b.degree == 7
    fields = (sys.pivot_cols, sys.nonpivot_cols, sys.basic_nonpivot, sys.reduced)
    assert passes == [echelon] and len(echelon.forward) == 51
    assert len(reduced) == 51 + 8
    assert fields[2] == tuple(j + 1 for j in basic)
    passes.clear()
    minimal_bezout(v)
    mu_basis(v)
    assert [len(e.forward) for e in passes] == [24, 27]
    passes.clear()
    with pytest.raises(RegularityError, match="nonconstant factor"):
        minimal_bezout(v.scale(p(-2, 1)))
    assert [len(e.forward) for e in passes] == [27]
    passes.clear()
    reduced.clear()
    infile = tmp_path / "vec.json"
    infile.write_text(json.dumps(vector_to_dict(v)), encoding="utf-8")
    out = str(tmp_path / "sylvester.json")
    assert main(["sylvester", "--dump-pivots", "--in", str(infile), "--out", out]) == 0
    assert [len(e.forward) for e in passes] == [51] and len(reduced) == 51


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
    with pytest.raises(ValueError, match="dimension must be positive"):
        flat([], 0, 0)


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
    assert ratlin.mat_vec(sys.matrix, h) == tuple(
        Fraction(x) for x in (26, 60, 98, 143, 194, 57, 62, 63, 42)
    )
    zero = [Fraction(0)] * 15
    assert ratlin.mat_vec(sys.matrix, zero) == (Fraction(0),) * 9
    with pytest.raises(ValueError):
        ratlin.mat_vec(sys.matrix, [Fraction(1)] * 14)


def test_apply_is_scalar_product():
    rng = random.Random(92)
    for _ in range(25):
        v = random_regular_vector(rng, max_degree=6)
        sys = build_sylvester(v)
        h = [Fraction(rng.randint(-9, 9)) for _ in range(sys.ncols)]
        image = flat(ratlin.mat_vec(sys.matrix, h), 1, 2 * sys.d)
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
    """The column generator's integer columns and the system's scale are
    what clearing the denominators of the entrywise Fraction layout gives,
    entry by entry; the system's Fraction matrix is that layout."""
    assume(not v.is_zero)
    system = build_sylvester(v)
    columns = list(system.columns(range(system.d + 1)))
    reference = sylvester_matrix_reference(v)
    cleared, lcm = ratlin.clear_denominators(reference)
    assert system.scale == lcm
    assert len(columns) == system.ncols == len(cleared[0])
    for j, column in enumerate(columns):
        assert len(column) == len(cleared)
        for x, row in zip(column, cleared):
            assert type(x) is int and x == row[j]
    matrix = system.matrix
    assert matrix == reference
    assert all(type(x) is Fraction for row in matrix for x in row)


@pytest.mark.parametrize("v", [
    QUARTIC,
    # the full pass ends at the negative pivot -51: b is read over -51
    vec((-3, -1, 1), (3, 3, 2)),
    # rational coefficients, so b's coefficients are far from lowest terms
    vec((Fraction(1, 2), 0, 3), (0, Fraction(2, 3), 1), (5, 1, Fraction(-1, 4))),
])
def test_integer_system_is_the_built_system(v):
    """The minimal Bezout vector's integer column, over the pass's own
    denominator, gives the system ``build_sylvester`` makes of that vector
    as Fractions: the same ``L b`` and L, so the same A and passes."""
    coefficients, den = bezout_column(build_sylvester(v))
    system = integer_system(coefficients, den)
    expected = build_sylvester(minimal_bezout(v).vector)
    assert (system.coefficients, system.scale) == (expected.coefficients, expected.scale)
    assert system.matrix == expected.matrix
    assert system.reading[0].pivots == expected.reading[0].pivots
