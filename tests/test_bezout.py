"""Minimal-degree pairing vectors and syzygy bases."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from affine_frames import (
    Polynomial,
    PolyVector,
    RegularityError,
    bezout_degree_search,
    build_sylvester,
    minimal_bezout,
    minimal_completion,
    mu_basis,
    outer_product,
    section,
)
from affine_frames import PolyMatrix, bezout, completion, ratlin
from affine_frames.bezout import MuBasis, basis_scale
from affine_frames.completion import Completion
from affine_frames.sylvester import basic_columns, integer_system

from conftest import flat, p, random_group, random_regular_vector, vec
from test_sylvester import sylvester_matrix_reference

SEXTIC = vec((1, 0, 0, 0, 0, 0, 1), (0, 0, 0, 1), (0, 1))


def test_minimal_bezout_sextic():
    b = minimal_bezout(SEXTIC)
    assert b.vector == vec((1,), (0, 0, 0, -1), (0,))
    assert b.degree == 3
    assert SEXTIC.dot(b.vector) == Polynomial.one()


def test_minimal_bezout_constant_component():
    b = minimal_bezout(vec((1,), (0, 1), (0, 0, 1)))
    assert b.vector == vec((1,), (0,), (0,))
    assert b.degree == 0


def test_minimal_bezout_canonical_quartic():
    v = vec(
        (Fraction(-1, 3), 1),
        (Fraction(-1, 27), 0, 0, 1),
        (Fraction(325, 81), 0, Fraction(25, 3), 0, 5),
    )
    b = minimal_bezout(v)
    assert v.dot(b.vector) == Polynomial.one()
    assert b.degree == 1
    # deterministic pivot-supported witness
    assert b.vector == vec(
        (Fraction(-16, 27), Fraction(-5, 3)), (0, -1), (Fraction(1, 5),)
    )


def test_minimal_bezout_rejects_common_factor():
    with pytest.raises(RegularityError, match="nonconstant factor"):
        minimal_bezout(vec((0, 2), (0, 0, 4)))
    with pytest.raises(RegularityError, match="nonconstant factor"):
        minimal_bezout(vec((0, 1), (0, 0, 1), (0, 0, 0, 1)))
    with pytest.raises(RegularityError, match="vector is zero"):
        minimal_bezout(vec((0,), (0,)))


def test_mu_basis_sextic():
    mu = mu_basis(SEXTIC)
    assert len(mu.elements) == 2
    assert mu.elements[0] == vec((0,), (-1,), (0, 0, 1))
    assert mu.elements[1] == vec((0, -1), (0, 0, 0, 0, 1), (1,))
    assert [e.degree for e in mu.elements] == [2, 4]
    assert mu.scale == Fraction(-1)
    assert outer_product(mu.elements) == SEXTIC.scale(mu.scale)


def test_mu_basis_of_bezout_vector():
    mu = mu_basis(vec((1,), (0, 0, 0, -1), (0,)))
    assert [e.degree for e in mu.elements] == [0, 3]
    assert mu.elements[0] == vec((0,), (0,), (1,))
    assert mu.elements[1] == vec((0, 0, 0, 1), (1,), (0,))


def test_mu_basis_dimension_two():
    mu = mu_basis(vec((1,), (0, 1)))
    assert len(mu.elements) == 1
    u = mu.elements[0]
    assert u.degree == 1
    assert outer_product([u]) == vec((1,), (0, 1)).scale(mu.scale)
    assert mu.scale != 0


def test_mu_basis_rejects_common_factor():
    with pytest.raises(RegularityError, match="nonconstant factor"):
        mu_basis(vec((0, 2), (0, 0, 4)))
    with pytest.raises(RegularityError, match="nonconstant factor"):
        mu_basis(vec((0, 1)))
    with pytest.raises(RegularityError, match="dimension at least 2"):
        mu_basis(vec((3,)))


def test_degree_search_goldens():
    assert bezout_degree_search(SEXTIC) == (3, (0, 1, 2, 3, 4, 5, 6, 7, 9, 10))
    assert bezout_degree_search(vec((1,), (0, 1), (0, 0, 1))) == (0, (0, 1, 2))


def test_degree_search_rejections():
    """The oracle reads coprimality off its own eliminations."""
    with pytest.raises(RegularityError, match="vector is zero"):
        bezout_degree_search(vec((0,), (0,), (0,)))
    # (t + 1) divides both components: e1 never enters the span of A.
    with pytest.raises(RegularityError, match="share a nonconstant factor"):
        bezout_degree_search(vec((-1, 0, 1), (1, 1), (2, 2)))


def test_degree_search_matches_formula():
    rng = random.Random(41)
    for _ in range(30):
        v = random_regular_vector(rng, max_degree=7)
        sys = build_sylvester(v)
        b = minimal_bezout(v, sys)
        degree, pivots = bezout_degree_search(v)
        assert b.degree == degree
        assert pivots == tuple(c - 1 for c in sys.pivot_cols if c <= v.dim * (degree + 1))


def test_bezout_normalization_always():
    rng = random.Random(42)
    for _ in range(40):
        v = random_regular_vector(rng, max_degree=8)
        b = minimal_bezout(v)
        assert v.dot(b.vector) == Polynomial.one()


def test_mu_basis_properties():
    rng = random.Random(43)
    for _ in range(30):
        v = random_regular_vector(rng, max_degree=7)
        mu = mu_basis(v)
        degrees = [e.degree for e in mu.elements]
        assert degrees == sorted(degrees)
        assert sum(degrees) == v.degree
        for u in mu.elements:
            assert v.dot(u).is_zero
        assert mu.scale != 0
        assert outer_product(mu.elements) == v.scale(mu.scale)


def test_bezout_degree_invariant_under_action():
    rng = random.Random(44)
    for _ in range(20):
        v = random_regular_vector(rng, 3, 6)
        g = random_group(rng, 3)
        assert minimal_bezout(g.apply(v)).degree == minimal_bezout(v).degree


def test_bezout_degree_below_last_mu_degree():
    rng = random.Random(45)
    for _ in range(25):
        v = random_regular_vector(rng, max_degree=7)
        b = minimal_bezout(v)
        mu = mu_basis(v)
        assert b.degree < mu.elements[-1].degree
    assert minimal_bezout(SEXTIC).degree < mu_basis(SEXTIC).elements[-1].degree


def reference_degree_search(v):
    """The prefix loop: one elimination of ``[A_e | e1]`` for each degree
    e = 0, 1, 2, ..., stopping at the first whose e1 column is no pivot;
    with the pivot columns of A_e by Fraction elimination.  A is laid out
    entry by entry, and cleared of its denominators for the integer pass."""
    if v.is_zero:
        raise RegularityError("vector is zero")
    matrix = sylvester_matrix_reference(v)
    work, _ = ratlin.clear_denominators(matrix)
    for e in range(int(v.degree) + 1):
        width = v.dim * (e + 1)
        augmented = [row[:width] + [int(i == 0)] for i, row in enumerate(work)]
        if width not in ratlin.Echelon(augmented).pivots:
            return e, _fraction_pivots([row[:width] for row in matrix])
    raise RegularityError("components share a nonconstant factor")


def _fraction_pivots(rows):
    """Columns independent of the columns to their left, by textbook
    Gaussian elimination over Fractions."""
    rows = [list(row) for row in rows]
    pivots = []
    for col in range(len(rows[0])):
        top = len(pivots)
        src = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if src is None:
            continue
        rows[top], rows[src] = rows[src], rows[top]
        for i in range(top + 1, len(rows)):
            factor = rows[i][col] / rows[top][col]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[top])]
        pivots.append(col)
    return tuple(pivots)


def _degree_search_outcome(search, v):
    try:
        return search(v)
    except RegularityError as error:
        return str(error)


# (vector, minimal degree): 0, 2^k - 1 and 2^k, and d - 1, which a generic
# pair of degree d needs.
_DEGREE_CASES = [
    (vec((1,), (0, 1), (0, 0, 1)), 0),
    (vec((2, 1), (1, 1, 1)), 1),
    (vec((1, 0, 0, 1), (0, 1, 0, 1)), 2),
    (SEXTIC, 3),
    (vec((1, 2, 0, 0, 3), (0, 1, 1, 0, 0, 1)), 4),
    (vec((0, 1, -1, 1, 2, -2, 2, -1, 1), (-2, -1, 1, 0, -1, 1, -1, -2, 1)), 7),
    (vec((2, 0, 0, 0, 0, 0, 0, 0, 1), (1, 1, 0, 0, 0, 0, 0, 0, 0, 1)), 8),
    (vec((1, 0, 0, 0, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0, 0, 0, 2), (0,)), 7),
]


@pytest.mark.parametrize("v, degree", _DEGREE_CASES)
def test_degree_search_at_the_doubling_bounds(v, degree):
    assert reference_degree_search(v)[0] == degree
    assert bezout_degree_search(v) == reference_degree_search(v)


@st.composite
def oracle_vectors(draw):
    """n = 1-5 with rational coefficients and zero components, the zero
    vector, and vectors times a planted common factor."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(0, 6))
    entry = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6))
    rows = [draw(st.lists(entry, min_size=d + 1, max_size=d + 1)) for _ in range(n)]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        rows[i] = [0]
    v = PolyVector(Polynomial(row) for row in rows)
    factor = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
    return v.scale(Polynomial(factor)) if draw(st.booleans()) else v


@settings(max_examples=200, deadline=None)
@given(oracle_vectors())
def test_degree_search_matches_the_prefix_loop(v):
    """The same degree and pivots, or the same message, as one elimination
    per degree."""
    expected = _degree_search_outcome(reference_degree_search, v)
    assert _degree_search_outcome(bezout_degree_search, v) == expected


def _outcomes_at_every_bound(v):
    """The bounded pass at E = -1 .. d + 1, each clamped to [0, d], and
    ``None``; a refusal as its message."""
    bounds = [*range(-1, int(v.degree) + 2), None]
    return [_degree_search_outcome(lambda x: bezout_degree_search(x, E), v)
            for E in bounds], bounds


@st.composite
def regular_vectors(draw):
    """Regular vectors, n = 2..5, with integer or p/q coefficients (|p| and
    q below 2**8); half of them recentered, so that their section's shift
    is 0."""
    n = draw(st.integers(2, 5))
    d = draw(st.integers(n, n + 3))
    entry = st.one_of(
        st.integers(-9, 9),
        st.builds(Fraction, st.integers(-255, 255), st.integers(1, 255)),
    )
    v = PolyVector(Polynomial(draw(st.lists(entry, min_size=d + 1, max_size=d + 1)))
                   for _ in range(n))
    try:
        g = section(v)
    except RegularityError:
        assume(False)
    if draw(st.booleans()):
        v = v.shift(-g.shift)
    return v


# Nonconstant integer factors of degree 1 or 2.
_FACTORS = st.builds(
    lambda low, lead: Polynomial([*low, lead]),
    st.lists(st.integers(-3, 3), min_size=1, max_size=2),
    st.sampled_from((-2, -1, 1, 2)),
)


@settings(max_examples=25, deadline=None)
@given(regular_vectors(), _FACTORS)
def test_bounded_degree_search_against_the_prefix_loop(v, factor):
    """One pass bounded by E gives the prefix loop's degree and pivots for
    every E >= e and ``(None, ())`` below e; with a planted common factor it
    raises the prefix loop's message at every E.  For the section g = (L, s)
    of v, the pass on u = L^-1 . v gives the canonical vector's pivots."""
    e, pivots = reference_degree_search(v)
    outcomes, bounds = _outcomes_at_every_bound(v)
    assert outcomes == [
        (e, pivots) if E is None or max(E, 0) >= e else (None, ()) for E in bounds
    ]
    planted = v.scale(factor)
    expected = _degree_search_outcome(reference_degree_search, planted)
    outcomes, _ = _outcomes_at_every_bound(planted)
    assert outcomes == [expected] * len(outcomes)
    g = section(v)
    u = v.linear_map(g.inverse().matrix)
    assert bezout_degree_search(u) == reference_degree_search(g.inverse().apply(v))
    assert bezout_degree_search(u)[0] == e


def reference_scale(v, elements):
    """The r with ``outer_product(elements) == r * v``, by building that
    product: the check ``mu_basis`` ran before its certificate."""
    cross = outer_product(elements)
    a, c = next((a, c) for a, c in zip(v, cross) if not a.is_zero)
    scale = c.coeff(int(a.degree)) / a.leading
    if scale == 0 or cross != v.scale(scale):
        raise RegularityError("syzygy basis is not proportional to input")
    return scale


def _scale_outcome(check, v, elements):
    try:
        return check(v, elements)
    except RegularityError as error:
        return str(error)


def _altered_sets(elements, rng):
    """Element sets near a µ-basis: one element times a number, times 0 and
    times t; two swapped; a ``t**k`` multiple of one added to another (or
    to itself), or put in place of a higher one of degree k more; one plus
    a unit vector, which is no syzygy where v has a nonzero component."""
    m, n = len(elements), elements[0].dim

    def replaced(i, u):
        out = list(elements)
        out[i] = u
        return out

    i, j = rng.randrange(m), rng.randrange(m)
    yield replaced(i, elements[i].scale(Fraction(rng.choice((-3, -1, 2)), rng.choice((1, 5)))))
    yield replaced(i, elements[i].scale(0))
    yield replaced(i, elements[i].scale(Polynomial.monomial(1)))
    if m > 1:
        k = (i + 1) % m
        swapped = list(elements)
        swapped[i], swapped[k] = swapped[k], swapped[i]
        yield swapped
    shifted = elements[j].scale(Polynomial.monomial(rng.randrange(3)))
    yield replaced(i, elements[i] + shifted)
    # Of the same degrees, but dependent.
    low, high = sorted((i, j), key=lambda k: elements[k].degree)
    if low != high:
        gap = int(elements[high].degree - elements[low].degree)
        yield replaced(high, elements[low].scale(Polynomial.monomial(gap)))
    unit = PolyVector(Polynomial.one() if c == rng.randrange(n) else Polynomial()
                      for c in range(n))
    yield replaced(i, elements[i] + unit)


@st.composite
def coprime_vectors(draw):
    """Coprime vectors, n = 2..8, degree n-2..n+1 (at least 1), with integer
    or p/q coefficients (|p| and q below 2**8)."""
    n = draw(st.integers(2, 8))
    d = draw(st.integers(max(1, n - 2), n + 1))
    entry = draw(st.sampled_from((
        st.integers(-9, 9),
        st.builds(Fraction, st.integers(-255, 255), st.integers(1, 255)),
    )))
    v = PolyVector(Polynomial(draw(st.lists(entry, min_size=d + 1, max_size=d + 1)))
                   for _ in range(n))
    assume(not v.is_zero and v.is_coprime())
    return v


@settings(max_examples=60, deadline=None)
@given(coprime_vectors(), st.booleans(), st.integers(0, 2**32))
def test_basis_scale_against_the_outer_product(v, of_bezout, seed):
    """On the µ-basis of v or of its minimal Bezout vector b, the
    certificate gives the scale that building the outer product gives.  On
    altered element sets it refuses every set the outer product refuses,
    and where it accepts, its scale is the outer product's."""
    target = minimal_bezout(v).vector if of_bezout else v
    mu = mu_basis(target)
    assert basis_scale(target, mu.elements) == reference_scale(target, mu.elements)
    assert mu.scale == reference_scale(target, mu.elements)
    refused = "syzygy basis is not proportional to input"
    for altered in _altered_sets(mu.elements, random.Random(seed)):
        certified = _scale_outcome(basis_scale, target, altered)
        expected = _scale_outcome(reference_scale, target, altered)
        assert certified == expected or certified == refused


def test_basis_scale_refuses_elements_of_another_dimension():
    """Elements a component short or long give the leading vectors no
    n - 1 by n shape, so they are no certificate: the pass's cofactors
    refuse them rather than read a scale off a pass of the wrong shape."""
    v = vec((1,), (0, 1), (0, 0, 0, 1))
    elements = mu_basis(v).elements
    for resized in (
        [PolyVector(list(u)[:-1]) for u in elements],
        [PolyVector([*u, Polynomial.one()]) for u in elements],
        [PolyVector([*u, Polynomial.zero()]) for u in elements],
    ):
        with pytest.raises(ValueError, match="n - 1 rows of n columns"):
            basis_scale(v, resized)


@st.composite
def window_vectors(draw):
    """n = 1..5 with rational coefficients: generic vectors, unbalanced ones
    (a, b, a p + b q, ...) with p, q linear, whose µ-degrees or Bezout
    degree may lie far to the right in A, either kind times a linear
    t - r, and constants."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(0, 8))
    entry = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6))

    def poly(degree):
        return Polynomial(draw(st.lists(entry, min_size=degree + 1, max_size=degree + 1)))

    rows = [poly(d) for _ in range(n)]
    if n >= 3 and draw(st.booleans()):
        rows[2] = rows[0] * poly(1) + rows[1] * poly(1)
    v = PolyVector(rows)
    if draw(st.booleans()):
        v = v.scale(Polynomial([-draw(st.integers(-3, 3)), 1]))
    assume(not v.is_zero)
    return v


def _reader_outcomes(v):
    """``minimal_bezout``, ``mu_basis`` and ``minimal_completion`` of v, each
    its result or its refusal's message."""
    outcomes = []
    for reader in (minimal_bezout, mu_basis, minimal_completion):
        try:
            outcomes.append(reader(v))
        except RegularityError as exc:
            outcomes.append(str(exc))
    return outcomes


def _grown_first(make):
    """``make``, with the pass of each system it makes grown to all of A
    (by reading its pivot data) before any reader reads it."""
    def grown(*args):
        system = make(*args)
        system.pivot_cols
        return system
    return grown


SYLVESTER_FIELDS = ("pivot_cols", "nonpivot_cols", "basic_nonpivot", "reduced", "matrix")


# (1 + 2t + t^3 + t^4, 3 + t^2 + 2t^3 + t^4, 7 + 4t^2 + 4t^3 + 2t^4): µ-degrees
# (1, 3) and Bezout degree 2: the readers take 12 of A's 15 columns.
UNBALANCED = vec((1, 2, 0, 1, 1), (3, 0, 1, 2, 1), (7, 0, 4, 4, 2))


def _seeded_44_and_18():
    rng = random.Random(46)
    generic = vec(*([rng.randint(-9, 9) for _ in range(8)] + [1] for _ in range(3)))
    a, b = generic[0], generic[1]
    return generic, PolyVector([a, b, a * p(1, 2) + b * p(-3, 1)])


# A seeded n = 3, degree-8 vector with µ-degrees (4, 4) and Bezout degree 3,
# and (a, b, a (1 + 2t) + b (t - 3)) of its first two components: degree 9,
# µ-degrees (1, 8) and Bezout degree 7.
GENERIC_44, UNBALANCED_18 = _seeded_44_and_18()


@settings(max_examples=150, deadline=None)
@given(window_vectors())
@example(vec((0, 1)))  # (t): the shared factor before the dimension
@example(vec((3,)))  # the dimension
@example(vec((1,), (2,), (3,)))
@example(UNBALANCED)
def test_window_readers_match_the_full_pass(v):
    """A system read in either order gives the same answers.  Each reader
    gives on a new system what it gives on one whose pass was grown to all
    of A first: the same vector, the same basis and scale, the same
    completion, or the same refusal message.  The pivot data read after
    the readers are those read first.  On a coprime vector the readers'
    pass ends at the last basic block, and L e1 lies in its span."""
    outcomes = _reader_outcomes(v)
    system = build_sylvester(v)
    for reader in (minimal_bezout, mu_basis):
        try:
            reader(v, system)
        except RegularityError:
            pass
    if v.is_coprime():
        echelon, basic = system.reading
        n = system.n
        assert len(echelon.forward) == n * (1 + max((j // n for j in basic), default=0))
        assert echelon.solve([system.scale] + [0] * (system.nrows - 1)) is not None
    fresh = build_sylvester(v)
    expected = [getattr(fresh, name) for name in SYLVESTER_FIELDS]
    assert [getattr(system, name) for name in SYLVESTER_FIELDS] == expected
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bezout, "build_sylvester", _grown_first(build_sylvester))
        patch.setattr(completion, "build_sylvester", _grown_first(build_sylvester))
        patch.setattr(completion, "integer_system", _grown_first(integer_system))
        assert _reader_outcomes(v) == outcomes


def reference_bezout(v):
    """The minimal Bezout vector by one pass of all of A in Fractions
    (cleared to ``L A``): ``L e1`` solved on it, or the shared-factor
    refusal when it lies outside the span."""
    system = build_sylvester(v)
    matrix, scale = ratlin.clear_denominators(system.matrix)
    echelon = ratlin.Echelon(matrix)
    scaled = echelon.solve([scale] + [0] * (len(matrix) - 1))
    if scaled is None:
        raise RegularityError("components share a nonconstant factor")
    stacked = [Fraction(0)] * system.ncols
    for col, x in zip(echelon.pivots, scaled):
        stacked[col] = Fraction(x, echelon.last_pivot)
    return flat(stacked, system.n, system.d)


@settings(max_examples=150, deadline=None)
@given(window_vectors())
@example(vec((0, 1)))  # (t): a shared factor at n = 1
@example(vec((3,)))
@example(UNBALANCED)
@example(UNBALANCED_18)
@example(UNBALANCED_18.scale(p(2, -1)))
def test_bezout_reading_matches_the_full_pass(v):
    """``minimal_bezout`` reads b off the pass grown to b's own block, and
    gives the vector, or the refusal message, of ``L e1`` solved on a pass
    of all of A.  On a coprime vector that pass is n (deg b + 1) columns
    wide; on a shared factor it refuses where the µ-basis reading does,
    after as many columns."""
    system = build_sylvester(v)
    try:
        expected = reference_bezout(v)
    except RegularityError as exc:
        with pytest.raises(RegularityError) as refused:
            minimal_bezout(v, system)
        assert str(refused.value) == str(exc)
        fresh = build_sylvester(v)
        with pytest.raises(RegularityError, match=str(exc)):
            fresh.reading
        assert len(system.echelon.forward) == len(fresh.echelon.forward)
    else:
        b = minimal_bezout(v, system)
        assert b.vector == expected
        assert len(system.echelon.forward) == system.n * (b.degree + 1)


def _columns_taken(reader, v):
    """How many of A's columns ``reader`` took on a new system of v, of
    how many, and its outcome."""
    system = build_sylvester(v)
    try:
        outcome = reader(v, system)
    except RegularityError as exc:
        outcome = str(exc)
    return (len(system.echelon.forward), system.ncols), outcome


def test_readers_take_columns_to_their_own_blocks():
    """``minimal_bezout`` takes A's columns up to the block of the Bezout
    vector, n (e + 1), and ``mu_basis`` up to the block of the last basic
    column: for the µ (4, 4) vector (e = 3) 12 and 15 of 27, for
    ``UNBALANCED`` (µ (1, 3), e = 2) 9 and 12 of 15, for the µ (1, 8) vector
    (e = 7) 24 and 27 of 30.  A shared factor is refused by both after as
    many columns as the µ-basis takes."""
    generic, unbalanced = GENERIC_44, UNBALANCED_18
    factor = "components share a nonconstant factor"
    assert [u.degree for u in mu_basis(generic).elements] == [4, 4]
    assert [u.degree for u in mu_basis(unbalanced).elements] == [1, 8]
    assert [minimal_bezout(v).degree for v in (generic, UNBALANCED, unbalanced)] == [3, 2, 7]
    cases = [
        (generic, (12, 15), 27, None),
        (UNBALANCED, (9, 12), 15, None),
        (unbalanced, (24, 27), 30, None),
        (generic.scale(p(-2, 1)), (15, 15), 30, factor),
    ]
    for v, widths, ncols, refusal in cases:
        for reader, width in zip((minimal_bezout, mu_basis), widths):
            got, outcome = _columns_taken(reader, v)
            assert got == (width, ncols), (v, reader)
            assert (outcome if isinstance(outcome, str) else None) == refusal


def reference_mu_basis(v):
    """The µ-basis by Fractions: each basic non-pivot column of A, one 1
    there, expressed through the pivot columns by ``Echelon.columns`` of A's
    own pass, and the scale of the outer product (``reference_scale``)."""
    matrix = build_sylvester(v).matrix
    n, d, width = v.dim, int(v.degree), len(matrix[0])
    echelon = ratlin.Echelon(ratlin.clear_denominators(matrix)[0])
    basic = basic_columns(echelon.pivots, width, n)
    if sum(j // n for j in basic) < d:
        raise RegularityError("components share a nonconstant factor")
    if n < 2:
        raise RegularityError("syzygies need dimension at least 2")
    elements = []
    for j, column in zip(basic, echelon.columns(basic)):
        stacked = [Fraction(0)] * width
        for col, x in zip(echelon.pivots, column):
            stacked[col] = -x
        stacked[j] = Fraction(1)
        elements.append(flat(stacked, n, d))
    return MuBasis(tuple(elements), reference_scale(v, elements))


def reference_completion(v):
    """``[v | syz]``, syz the Fraction µ-basis of the minimal Bezout vector
    b of v with its last element divided by the scale."""
    if v.dim < 2:
        raise RegularityError("completion needs dimension at least 2")
    b = minimal_bezout(v)
    columns = [v, *reference_mu_basis(b.vector).normalized()]
    return Completion(PolyMatrix.from_columns(columns), b.degree)


def _outcome(build, v):
    try:
        return build(v)
    except RegularityError as exc:
        return str(exc)


@st.composite
def integer_path_vectors(draw):
    """n = 1..5 with integer or rational coefficients, some components
    zero, some draws times a linear t - r (a shared factor), and the zero
    vector."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(0, 7))
    entry = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=7))
    rows = [Polynomial(draw(st.lists(entry, min_size=d + 1, max_size=d + 1)))
            for _ in range(n)]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n - 1)):
        rows[i] = Polynomial()
    v = PolyVector(rows)
    if draw(st.booleans()):
        v = v.scale(Polynomial([-draw(st.integers(-3, 3)), 1]))
    return v


@settings(max_examples=150, deadline=None)
@given(integer_path_vectors())
@example(vec((0,), (0,)))  # the zero vector
@example(vec((3,)))  # the dimension
@example(vec((0, 1), (0, 2, 1)))  # a shared factor t
@example(UNBALANCED)
@example(vec((-3, -1, 1), (3, 3, 2)))  # a negative last pivot
def test_integer_readers_match_the_fraction_reference(v):
    """``mu_basis`` and ``minimal_completion`` of v, and of its minimal
    Bezout vector b, which both read integer columns and become Fractions
    only at the output, equal the Fraction reference: the same elements and
    scale, the same matrix and degree, or the same refusal message."""
    targets = [v]
    bezout_vector = _outcome(minimal_bezout, v)
    if not isinstance(bezout_vector, str):
        targets.append(bezout_vector.vector)
    for w in targets:
        assert _outcome(mu_basis, w) == _outcome(reference_mu_basis, w)
        assert _outcome(minimal_completion, w) == _outcome(reference_completion, w)
