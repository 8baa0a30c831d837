"""Sections, canonical forms, and the equivariant completion pipeline."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affine_frames import (
    Completion,
    GroupElement,
    PivotProfile,
    PolyMatrix,
    Polynomial,
    PolyVector,
    RegularityError,
    ratlin,
    canonical_form,
    canonical_shape_violations,
    equivariant_completion,
    equivariantize,
    linear_section,
    minimal_completion,
    nonminimal_completion,
    pivot_profile,
    require_regular,
    section,
    section_and_canonical,
    shift_section,
)

from conftest import (
    p,
    quartic_tangent,
    random_group,
    random_regular_vector,
    vec,
)


def probe_vector(c):
    """Family whose shift section blows up as c approaches zero."""
    return vec((5, 0, 0, 0, 1), (7, 0, 0, 1), (4, 1, Fraction(c)))


def test_pivot_profile_quartic():
    profile = pivot_profile(quartic_tangent())
    assert profile.indices == (1, 3, 4)
    assert profile.k == 2
    assert profile.det_vbar == 5


def test_pivot_profile_generic_case():
    rng = random.Random(21)
    hits = 0
    for _ in range(30):
        v = random_regular_vector(rng, max_degree=7)
        profile = pivot_profile(v)
        d, n = int(v.degree), v.dim
        assert profile.indices[-1] == d
        assert profile.det_vbar != 0
        if profile.indices == tuple(range(d - n + 1, d + 1)):
            assert profile.k == d - n
            hits += 1
    assert hits > 15  # the rightmost block is generically independent


def test_pivot_profile_skips_dependent_column():
    profile = pivot_profile(probe_vector(0))
    assert profile.indices == (1, 3, 4)
    assert linear_section(probe_vector(0)) == (
        (Fraction(0), Fraction(0), Fraction(-1)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(0)),
    )


def test_pivot_profile_rejects_dependent_components():
    with pytest.raises(RegularityError, match="linearly dependent"):
        pivot_profile(vec((0, 1), (0, 2), (1,)))


def test_pivot_profile_rejects_the_zero_vector():
    with pytest.raises(RegularityError, match="vector is zero"):
        pivot_profile(vec((0,), (0,), (0,)))


def _pivot_indices_reference(v):
    """Select columns right to left, keeping those that raise the rank.

    The loop ``pivot_profile`` used before it took one elimination; None
    when fewer than n columns are independent.  The determinant of the
    selected submatrix, ``ratlin.det`` of those columns in ascending order,
    is the reference for ``det_vbar``.
    """
    coeffs = v.coefficient_matrix()
    chosen, basis = [], []
    for col in range(int(v.degree), -1, -1):
        candidate = basis + [tuple(row[col] for row in coeffs)]
        rank = len(ratlin.Echelon(ratlin.clear_denominators(candidate)[0]).pivots)
        if rank > len(basis):
            basis = candidate
            chosen.append(col)
            if len(chosen) == v.dim:
                break
    return tuple(sorted(chosen)) if len(chosen) == v.dim else None


def test_pivot_profile_matches_right_to_left_rank_loop():
    rng = random.Random(27)
    cases = [quartic_tangent(), probe_vector(0), vec((0, 1), (0, 2), (1,))]
    for _ in range(60):
        n = rng.choice((2, 3, 4))
        d = rng.randint(n - 1, 7)
        rows = [[rng.randint(-2, 2) for _ in range(d + 1)] for _ in range(n)]
        rows[0][d] = 1
        for _ in range(rng.randint(0, 2)):
            # copy a combination of two columns into a third
            i, j, k = (rng.randrange(d + 1) for _ in range(3))
            for row in rows:
                row[k] = row[i] - 2 * row[j]
        if rng.random() < 0.2:
            rows[-1] = [2 * x for x in rows[0]]  # dependent components
        cases.append(vec(*rows))
    dependent = 0
    for v in cases:
        expected = _pivot_indices_reference(v)
        if expected is None:
            dependent += 1
            with pytest.raises(RegularityError, match="linearly dependent"):
                pivot_profile(v)
        else:
            profile = pivot_profile(v)
            assert profile.indices == expected
            coeffs = v.coefficient_matrix()
            submatrix = [[row[c] for c in expected] for row in coeffs]
            assert profile.det_vbar == ratlin.det(submatrix)
    assert dependent >= 5


def _full_pass_profile(v):
    """The profile off one elimination of the whole column-reversed
    coefficient matrix, every column taken; None below n pivots."""
    work, scale = ratlin.clear_denominators(
        [row[::-1] for row in v.coefficient_matrix()]
    )
    n, d = v.dim, int(v.degree)
    echelon = ratlin.Echelon(work)
    if len(echelon.pivots) < n:
        return None
    indices = tuple(d - c for c in reversed(echelon.pivots))
    k = max(set(range(d + 1)) - set(indices), default=-1)
    det = Fraction((-1) ** (n * (n - 1) // 2) * echelon.determinant, scale**n)
    return PivotProfile(indices, k, det)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pivot_profile_matches_the_full_pass(data):
    """``pivot_profile`` stops its pass at the n-th pivot, with the
    indices, gap column and determinant of the pass that takes every
    column, on rational vectors with repeated and dependent columns and
    components."""
    n = data.draw(st.integers(1, 5), label="n")
    d = data.draw(st.integers(0, 7), label="d")
    entry = st.one_of(st.sampled_from((0, 0, 1, -1, 2)), st.fractions(-3, 3, max_denominator=5))
    rows = data.draw(st.lists(st.lists(entry, min_size=d + 1, max_size=d + 1),
                              min_size=n, max_size=n), label="rows")
    v = PolyVector(Polynomial(row) for row in rows)
    assume(not v.is_zero)
    expected = _full_pass_profile(v)
    if expected is None:
        with pytest.raises(RegularityError, match="linearly dependent"):
            pivot_profile(v)
    else:
        assert pivot_profile(v) == expected


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((2, 3, 4)))
def test_pivot_profile_invariant_under_group_action(seed, n):
    """Special-linear maps and shifts keep the profile; so does the section."""
    rng = random.Random(seed)
    v = random_regular_vector(rng, n, max_degree=6)
    profile = pivot_profile(v)
    assert pivot_profile(random_group(rng, n).apply(v)) == profile
    assert pivot_profile(canonical_form(v)) == profile


def test_linear_section_goldens():
    assert linear_section(quartic_tangent()) == (
        (Fraction(0), Fraction(1), Fraction(1, 5)),
        (Fraction(0), Fraction(1), Fraction(2, 5)),
        (Fraction(5), Fraction(1), Fraction(3, 5)),
    )
    shifted = quartic_tangent().shift(Fraction(-1, 3))
    assert linear_section(shifted) == (
        (Fraction(-31, 27), Fraction(-1, 3), Fraction(1, 5)),
        (Fraction(-53, 27), Fraction(-5, 3), Fraction(2, 5)),
        (Fraction(20, 9), Fraction(-3), Fraction(3, 5)),
    )


def test_linear_section_determinant_one():
    rng = random.Random(22)
    for _ in range(20):
        v = random_regular_vector(rng, max_degree=6)
        assert ratlin.det(linear_section(v)) == 1


def test_linear_section_equivariance():
    rng = random.Random(23)
    for _ in range(20):
        v = random_regular_vector(rng, 3, 6)
        lmat = random_group(rng, 3).matrix
        moved = v.linear_map(lmat)
        assert linear_section(moved) == ratlin.mat_mul(lmat, linear_section(v))


def test_shift_section_goldens():
    assert shift_section(quartic_tangent()) == Fraction(1, 3)
    assert shift_section(probe_vector(1)) == Fraction(1, 2)
    assert shift_section(probe_vector(Fraction(1, 10))) == 5
    assert shift_section(probe_vector(0)) == 0


def test_shift_section_discontinuity():
    # the section cannot be continuous: s = 1/(2c) diverges while v_c -> v_0
    values = [shift_section(probe_vector(Fraction(1, m))) for m in (1, 10, 100)]
    assert values == [Fraction(1, 2), Fraction(5), Fraction(50)]
    assert shift_section(probe_vector(0)) == 0


def test_shift_section_requires_regular():
    with pytest.raises(RegularityError, match="below the dimension"):
        shift_section(vec((1, 1), (0, 1)))
    with pytest.raises(RegularityError):
        shift_section(vec((0, 2), (0, 0, 4)))
    # linear_section takes the same check, and so refuses a common factor
    with pytest.raises(RegularityError, match="nonconstant factor"):
        linear_section(vec((0, 2), (0, 0, 4)))


def test_shift_section_behavior_under_action():
    rng = random.Random(24)
    for _ in range(20):
        v = random_regular_vector(rng, 3, 6)
        delta = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert shift_section(v.shift(delta)) == shift_section(v) + delta
        lmat = random_group(rng, 3).matrix
        assert shift_section(v.linear_map(lmat)) == shift_section(v)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((2, 3, 4)))
def test_one_pass_matches_the_reduction(seed, n):
    """The determinant gives the shift the reduced vector gives; one pass, one orbit."""
    v = random_regular_vector(random.Random(seed), n, max_degree=8)
    k = pivot_profile(v).k
    reduced = v.linear_map(ratlin.inverse(linear_section(v)))
    row = reduced[n - int(v.degree) + k]
    assert shift_section(v) == row.coeff(k) / ((k + 1) * row.coeff(k + 1))
    assert canonical_form(v) == section(v).inverse().apply(v)


def _shift_section_reference(v):
    """The shift section by ``ratlin.det`` on the Fraction coefficient matrix."""
    profile = pivot_profile(v)
    k = profile.k
    columns = [k if c == k + 1 else c for c in profile.indices]
    minor = ratlin.det([[row[c] for c in columns] for row in v.coefficient_matrix()])
    return minor / ((k + 1) * profile.det_vbar)


def _linear_section_reference(v):
    """The selected Fraction columns, the last one over ``det_vbar``."""
    profile = pivot_profile(v)
    *first, last = profile.indices
    return tuple(
        (*(row[c] for c in first), row[last] / profile.det_vbar)
        for row in v.coefficient_matrix()
    )


@st.composite
def rational_regular_vectors(draw):
    """Regular vectors with n = 2-5 and p/q coefficients."""
    n = draw(st.integers(2, 5), label="n")
    d = draw(st.integers(n, n + 4), label="d")
    q = st.fractions(-9, 9, max_denominator=6)
    rows = draw(st.lists(st.lists(q, min_size=d + 1, max_size=d + 1),
                         min_size=n, max_size=n))
    rows[draw(st.integers(0, n - 1))][d] = draw(q.filter(bool))
    v = PolyVector(Polynomial(row) for row in rows)
    try:
        return require_regular(v)
    except RegularityError:
        assume(False)


# A section shift that is 0, an integer or a fraction over b > 1.
SHIFTS = st.one_of(
    st.just(Fraction(0)),
    st.integers(-5, 5).map(Fraction),
    st.fractions(-5, 5, max_denominator=7).filter(lambda s: s.denominator > 1),
)


@settings(max_examples=60, deadline=None)
@given(rational_regular_vectors(), SHIFTS)
def test_section_pass_matches_the_fraction_references(u, s):
    """The integer section pass against the Fraction path it replaced, at a
    shift that is 0, an integer or a fraction over b > 1."""
    v = require_regular(u.shift(s - _shift_section_reference(u)))
    assert _shift_section_reference(v) == s
    recentered = v.shift(-s)
    g_ref = GroupElement(_linear_section_reference(recentered), s)
    w_ref = recentered.linear_map(ratlin.inverse(g_ref.matrix))
    g, w = section_and_canonical(v)
    assert g == g_ref == GroupElement(linear_section(recentered), s)
    assert w == w_ref
    assert w.profile == pivot_profile(w_ref) == v.profile
    assert all(type(c) is Fraction for comp in w for c in comp.coeffs)
    assert section(v) == g and canonical_form(v) == w
    assert shift_section(v) == s
    assert linear_section(v) == _linear_section_reference(v)


@settings(max_examples=60, deadline=None)
@given(rational_regular_vectors(), SHIFTS)
def test_section_matrix_has_determinant_one(u, s):
    """The section's matrix is built without its determinant being
    eliminated; one elimination here finds it 1, at a shift that is 0, an
    integer or a fraction over b > 1."""
    v = require_regular(u.shift(s - shift_section(u)))
    g = section(v)
    assert g.shift == s
    assert ratlin.det(g.matrix) == 1


def test_section_goldens():
    g = section(quartic_tangent())
    assert g.shift == Fraction(1, 3)
    assert g.matrix == (
        (Fraction(-31, 27), Fraction(-1, 3), Fraction(1, 5)),
        (Fraction(-53, 27), Fraction(-5, 3), Fraction(2, 5)),
        (Fraction(20, 9), Fraction(-3), Fraction(3, 5)),
    )
    g1 = section(probe_vector(1))
    assert g1.shift == Fraction(1, 2)
    assert g1.matrix == (
        (Fraction(3, 2), Fraction(-2), Fraction(-1)),
        (Fraction(-3, 2), Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(0)),
    )
    cubic = section(vec((0, 0, 0, 1), (0, 1), (1,)))
    assert cubic.shift == 0
    assert cubic.matrix == (
        (Fraction(0), Fraction(0), Fraction(-1)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(0)),
    )


def test_section_equivariance():
    rng = random.Random(25)
    for _ in range(25):
        v = random_regular_vector(rng, 3, 6)
        g = random_group(rng, 3)
        assert section(g.apply(v)) == g.compose(section(v))


def test_canonical_golden():
    reduced = canonical_form(quartic_tangent())
    assert reduced == vec(
        (Fraction(-1, 3), 1),
        (Fraction(-1, 27), 0, 0, 1),
        (Fraction(325, 81), 0, Fraction(25, 3), 0, 5),
    )


def test_canonical_properties():
    rng = random.Random(26)
    for _ in range(25):
        v = random_regular_vector(rng, max_degree=6)
        reduced = canonical_form(v)
        assert canonical_form(reduced) == reduced
        assert canonical_shape_violations(reduced) == []
        assert section(reduced) == GroupElement.identity(v.dim)
        g = random_group(rng, v.dim)
        assert canonical_form(g.apply(v)) == reduced


def test_shape_checker_flags_noncanonical():
    violations = canonical_shape_violations(quartic_tangent())
    assert violations  # raw vector is far from reduced
    assert any(
        "selected" in msg
        for msg in canonical_shape_violations(vec((0, 2), (0, 0, 0, 1)))
    )
    # canonical quartic with the gap entry spoiled
    spoiled = vec(
        (Fraction(-1, 3), 1),
        (Fraction(-1, 27), 0, 1, 1),
        (Fraction(325, 81), 0, Fraction(25, 3), 0, 5),
    )
    assert any(
        "gap column" in msg for msg in canonical_shape_violations(spoiled)
    )


def test_equivariant_completion_golden():
    comp = equivariant_completion(quartic_tangent())
    assert comp.matrix == PolyMatrix(
        [
            [p(1, 0, 2, 1, 1), p(0), p(0, Fraction(16, 27))],
            [p(2, 0, 3, 1, 2), p(Fraction(27, 40)),
             p(Fraction(-34, 27), Fraction(-22, 27))],
            [p(3, 5, 4, 1, 3), p(Fraction(243, 80)),
             p(Fraction(-113, 27), Fraction(-65, 9))],
        ]
    )
    assert comp.matrix.degree == 5
    assert comp.bezout_degree == 1
    assert comp.matrix.determinant() == p(1)


def test_equivariant_completion_fixed_point():
    reduced = canonical_form(quartic_tangent())
    assert equivariant_completion(reduced).matrix == minimal_completion(reduced).matrix


def test_equivariant_completion_equivariance():
    rng = random.Random(27)
    for _ in range(20):
        v = random_regular_vector(rng, 3, 6)
        g = random_group(rng, 3)
        left = equivariant_completion(g.apply(v)).matrix
        right = g.apply(equivariant_completion(v).matrix)
        assert left == right


def test_equivariant_completion_preserves_degree():
    rng = random.Random(28)
    for _ in range(20):
        v = random_regular_vector(rng, max_degree=6)
        assert (
            equivariant_completion(v).matrix.degree
            == minimal_completion(v).matrix.degree
        )


def test_equivariantize_nonminimal_golden():
    v = vec((0, 0, 0, 1), (0, 1), (1,))
    wrapped = equivariantize(lambda u: nonminimal_completion(u))
    result = wrapped(v)
    assert result.matrix == PolyMatrix(
        [
            [p(0, 0, 0, 1), p(-1), p(0)],
            [p(0, 1), p(0), p(-1)],
            [p(1), p(-1), p(0, 0, 1)],
        ]
    )
    assert result.matrix.degree == 5
    assert nonminimal_completion(v).matrix.degree == 8
    # conjugation changes the degree: this map is not degree-preserving
    assert result.matrix.degree != nonminimal_completion(v).matrix.degree


def test_equivariantize_acts_in_full_when_the_first_column_is_not_w():
    """A completion map that breaks the contract (its first column is not
    the vector it completes) is acted on in full, first column included."""
    v = quartic_tangent()
    g, w = section_and_canonical(v)

    def negated_first(u):
        base = minimal_completion(u)
        first, *later = base.matrix.columns()
        return Completion(PolyMatrix.from_columns([-first, *later]), base.bezout_degree)

    result = equivariantize(negated_first)(v)
    assert result.matrix == g.apply(negated_first(w).matrix)
    assert result.matrix.column(0) == -v
    assert result.matrix.columns()[1:] == equivariant_completion(v).matrix.columns()[1:]


def test_equivariantize_wraps_minimal_to_same_map():
    rng = random.Random(29)
    wrapped = equivariantize(minimal_completion)
    for _ in range(10):
        v = random_regular_vector(rng, 3, 6)
        assert wrapped(v).matrix == equivariant_completion(v).matrix
