"""The fraction-free elimination kernel against Fraction Gauss-Jordan."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affine_frames import GroupElement, Polynomial, PolyVector, build_sylvester, ratlin
from conftest import random_group


def _eliminate_fractions(work):
    """Gauss-Jordan over Fractions in place: the reference elimination.

    Same pivot rule as the kernel: the leftmost column with a nonzero
    entry, and in it the first such row.
    """
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    pivots = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        src = next((i for i in range(row, nrows) if work[i][col] != 0), None)
        if src is None:
            continue
        if src != row:
            work[row], work[src] = work[src], work[row]
        inv = 1 / work[row][col]
        work[row] = [x * inv for x in work[row]]
        for i in range(nrows):
            if i != row and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [x - factor * y for x, y in zip(work[i], work[row])]
        pivots.append(col)
        row += 1
    return pivots


def _rref_reference(rows):
    work = [list(row) for row in rows]
    pivots = _eliminate_fractions(work)
    return ratlin.freeze(work), tuple(pivots)


def _rref_with_transform_reference(rows):
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    aug = [list(row) + [Fraction(int(i == j)) for j in range(nrows)]
           for i, row in enumerate(rows)]
    pivots = [c for c in _eliminate_fractions(aug) if c < ncols]
    reduced = ratlin.freeze(row[:ncols] for row in aug)
    transform = ratlin.freeze(row[ncols:] for row in aug)
    return reduced, transform, tuple(pivots)


def _det_reference(rows):
    """Fraction Gaussian elimination with row swaps: the reference determinant."""
    n = len(rows)
    work = [list(row) for row in rows]
    result = Fraction(1)
    for col in range(n):
        src = next((i for i in range(col, n) if work[i][col] != 0), None)
        if src is None:
            return Fraction(0)
        if src != col:
            work[col], work[src] = work[src], work[col]
            result = -result
        pivot = work[col][col]
        result *= pivot
        for i in range(col + 1, n):
            if work[i][col] != 0:
                factor = work[i][col] / pivot
                work[i] = [x - factor * y for x, y in zip(work[i], work[col])]
    return result


_SMALL = st.integers(-9, 9)
_HUGE = st.integers(-(2 ** 200), 2 ** 200)
_ENTRIES = {
    "integer": _SMALL.map(Fraction),
    "rational": st.builds(Fraction, _SMALL, st.integers(1, 9)),
    "huge": st.builds(Fraction, _HUGE, st.integers(1, 2 ** 200)),
}


@st.composite
def matrices(draw, max_rows=9, max_cols=12, square=False):
    """Random Fraction matrices with dependent rows and zero columns."""
    nrows = draw(st.integers(0, max_rows))
    ncols = nrows if square else draw(st.integers(0, max_cols))
    kinds = draw(st.lists(st.sampled_from(sorted(_ENTRIES)), min_size=1, max_size=3))
    entry = st.one_of(*(_ENTRIES[kind] for kind in kinds))
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    if nrows >= 2 and draw(st.booleans()):
        # force a dependent row: a rational combination of two others
        i, j, k = (draw(st.integers(0, nrows - 1)) for _ in range(3))
        a, b = draw(_ENTRIES["rational"]), draw(_ENTRIES["rational"])
        rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=3)) if ncols else ()
    for col in zero_cols:
        for row in rows:
            row[col] = Fraction(0)
    # zeros below the diagonal: a row below each pivot with a 0 in the
    # pivot column, which elimination must still scale
    if draw(st.booleans()):
        for i, row in enumerate(rows):
            for j in range(min(i, ncols)):
                if draw(st.booleans()):
                    row[j] = Fraction(0)
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=2)) if nrows else ():
        rows[i] = [Fraction(0)] * ncols
    return ratlin.freeze(rows)


_EDGE_CASES = [
    (),
    ((), ()),
    ((Fraction(0),),),
    ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))),
    ((Fraction(1, 2), Fraction(1, 3)), (Fraction(3), Fraction(2))),
    ((Fraction(0), Fraction(2, 3), Fraction(1)),
     (Fraction(0), Fraction(4, 3), Fraction(2)),
     (Fraction(5), Fraction(0), Fraction(-1, 7))),
    # the last row has a 0 in both pivot columns before its own
    ratlin.freeze([[2, 1, 1], [1, 1, 2], [0, 0, 3]]),
    # rank deficient, with a zero row between the pivot rows
    ratlin.freeze([[0, 3, 1, 2], [0, 0, 0, 0], [0, 6, 2, 5], [0, 0, 0, 7]]),
]


def _echelon(rows):
    """The kernel takes integer rows: clear the matrix's denominators first."""
    work, _ = ratlin.clear_denominators(rows)
    return ratlin.Echelon(work)


def _check_against_reference(rows):
    expected, expected_pivots = _rref_reference(rows)
    assert ratlin.rref(rows) == (expected, expected_pivots)
    reduced, transform, pivots = ratlin.rref_with_transform(rows)
    assert (reduced, transform, pivots) == _rref_with_transform_reference(rows)
    assert ratlin.rank(rows) == len(pivots)
    assert ratlin.mat_mul(transform, rows) == reduced
    assert _echelon(rows).pivots == expected_pivots
    # E is the right block of one pass of the cleared [M | I], at any rank.
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    both = _echelon([(*row, *e) for row, e in zip(rows, ratlin.identity(nrows))])
    right = both.columns(range(ncols, ncols + nrows))
    assert ratlin.transpose(right) == _rref_with_transform_reference(rows)[1]


def _check_columns_against_reference(rows, cols):
    """Back-substituting a subset of columns, in any order, with repeats.

    The integer columns are the same columns times the last pivot.
    """
    expected, _ = _rref_reference(rows)
    columns = tuple(tuple(row[j] for row in expected) for j in cols)
    echelon = _echelon(rows)
    assert echelon.columns(cols) == columns
    scaled = echelon.integer_columns(cols)
    d = echelon.last_pivot
    assert scaled == tuple(tuple(d * x for x in column) for column in columns)
    assert all(type(x) is int for column in scaled for x in column)


def _check_square_against_reference(rows):
    expected = _det_reference(rows)
    assert ratlin.det(rows) == expected
    if expected:
        assert ratlin.inverse(rows) == _rref_with_transform_reference(rows)[1]
    else:
        with pytest.raises(ValueError):
            ratlin.inverse(rows)


def test_pivot_columns_are_read_without_back_substitution(monkeypatch):
    """A pivot column of ``D R`` is ``D e_k`` as it stands, and of R the unit
    vector; only the other columns are back-substituted."""
    echelon = ratlin.Echelon([[2, 1, 4], [6, 3, 1]])
    assert (echelon.pivots, echelon.last_pivot) == ((0, 2), -22)
    calls = []
    back = ratlin.Echelon._back_substitute
    monkeypatch.setattr(
        ratlin.Echelon, "_back_substitute",
        lambda self, reduced: calls.append(reduced) or back(self, reduced),
    )
    assert echelon.integer_columns((2, 0)) == ((0, -22), (-22, 0))
    assert echelon.columns((0, 2)) == ((1, 0), (0, 1))
    assert calls == []
    assert echelon.integer_columns((1,)) == ((-11, 0),)
    assert echelon.columns((1,)) == ((Fraction(1, 2), 0),)
    assert len(calls) == 2


@pytest.mark.parametrize("rows", _EDGE_CASES)
def test_kernel_edge_cases(rows):
    _check_against_reference(rows)
    width = len(rows[0]) if rows else 0
    _check_columns_against_reference(rows, range(width))
    _check_columns_against_reference(rows, range(width - 1, -1, -2))
    if all(len(row) == len(rows) for row in rows):
        _check_square_against_reference(rows)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_matches_fraction_elimination(rows):
    _check_against_reference(rows)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_column_subset_matches_fraction_elimination(data):
    rows = data.draw(matrices())
    width = len(rows[0]) if rows else 0
    cols = data.draw(st.lists(st.integers(0, width - 1), max_size=6)) if width else []
    _check_columns_against_reference(rows, cols)


@settings(max_examples=150, deadline=None)
@given(matrices(square=True))
def test_det_and_inverse_match_fraction_elimination(rows):
    _check_square_against_reference(rows)


def test_rank_deficient_transform():
    rows = ratlin.freeze([[1, 2, 3], [2, 4, 6], [Fraction(1, 2), 1, Fraction(3, 2)]])
    reduced, transform, pivots = ratlin.rref_with_transform(rows)
    assert pivots == (0,)
    assert ratlin.mat_mul(transform, rows) == reduced
    assert ratlin.det(transform) != 0
    assert reduced[1:] == ((0, 0, 0), (0, 0, 0))


def test_shape_errors():
    with pytest.raises(ValueError):
        ratlin.det(ratlin.freeze([[1, 2]]))
    with pytest.raises(ValueError):
        ratlin.inverse(ratlin.freeze([[1, 2]]))
    with pytest.raises(ValueError):
        ratlin.rref([[Fraction(1)], [Fraction(1), Fraction(2)]])
    with pytest.raises(ValueError, match="ragged matrix"):
        ratlin.freeze([[1, 2], [3]])
    with pytest.raises(ValueError, match="dimension mismatch"):
        ratlin.mat_mul(ratlin.freeze([[1, 2]]), ratlin.freeze([[1, 2]]))


_FULL_PASS_ROUTINES = {"rref", "rref_with_transform", "rank"}


def test_no_module_reads_the_full_pass_routines():
    """``rref``, ``rref_with_transform`` and ``rank`` are kept only as
    references: no other module of the package imports them or reads them
    off ``ratlin``; every caller runs :class:`ratlin.Echelon` and reads what
    it needs.  An attribute of anything else, ``SylvesterSystem.rank`` say,
    is not a read."""
    package = Path(ratlin.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "ratlin.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases, read = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("ratlin"):
                read.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                aliases.update(alias.asname or alias.name for alias in node.names
                               if alias.name == "ratlin")
            elif isinstance(node, ast.Import):
                aliases.update(alias.asname or alias.name for alias in node.names
                               if alias.name.endswith("ratlin"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in aliases:
                    read.add(node.attr)
        assert read.isdisjoint(_FULL_PASS_ROUTINES), (path.name, read & _FULL_PASS_ROUTINES)


def clear_denominators_reference(rows):
    """The smallest positive integer that makes every entry an integer,
    found entry by entry with Fractions, and the rows times it."""
    scale = 1
    for row in rows:
        for x in row:
            scale *= (Fraction(x) * scale).denominator
    return [[int(Fraction(x) * scale) for x in row] for row in rows], scale


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_denominators_cleared_like_fraction_reference(rows):
    work, scale = ratlin.clear_denominators(rows)
    assert (work, scale) == clear_denominators_reference(rows)
    assert all(type(x) is int for row in work for x in row)


def test_clearing_denominators_rejects_a_ragged_matrix():
    with pytest.raises(ValueError, match="ragged"):
        ratlin.Echelon([[1], [1, 2]])
    with pytest.raises(ValueError, match="ragged"):
        ratlin.rank([[Fraction(1), Fraction(2)], [Fraction(1, 3)]])


def test_echelon_leaves_the_given_lists_alone():
    work = [[0, 2, 1], [3, 4, 5]]
    echelon = ratlin.Echelon(work)
    assert (echelon.pivots, echelon.sign, echelon.last_pivot) == ((0, 1), -1, 6)
    assert work == [[0, 2, 1], [3, 4, 5]]
    # the forward form, column by column: the rows were swapped, then the
    # row below the pivot eliminated
    assert echelon.forward == [[3, 0], [4, 6], [5, 3]]


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_fraction_routines_leave_their_input_alone(rows):
    """The routines on Fractions hand the kernel cleared copies."""
    lists = [list(row) for row in rows]
    ratlin.rref(lists)
    ratlin.rref_with_transform(lists)
    ratlin.rank(lists)
    if all(len(row) == len(lists) for row in lists) and ratlin.det(lists):
        ratlin.inverse(lists)
    assert lists == [list(row) for row in rows]


def eager_bareiss(rows):
    """The textbook Bareiss loop, in place: every row below the pivot is
    overwritten at every step, a row with a 0 in the pivot column scaled by
    ``p / prev``.  The reference for the kernel's lazy rescaling."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    prev = sign = 1
    for col in range(ncols):
        row = len(pivots)
        if row == nrows:
            break
        src = next((i for i in range(row, nrows) if rows[i][col]), None)
        if src is None:
            continue
        if src != row:
            rows[row], rows[src] = rows[src], rows[row]
            sign = -sign
        top = rows[row][col:]
        p = top[0]
        for below in rows[row + 1:]:
            a = below[col]
            below[col:] = [(p * x - a * y) // prev for x, y in zip(below[col:], top)]
        pivots.append(col)
        prev = p
    return tuple(pivots), sign, prev


@st.composite
def integer_matrices(draw):
    """Integer rows: cleared random matrices (zero rows, dependent rows,
    zeros below the diagonal), some negated so pivots take either sign, or
    a prefix of the banded Sylvester matrix of a vector with e1 appended,
    as the reference degree search eliminates it."""
    if draw(st.booleans()):
        work, _ = ratlin.clear_denominators(draw(matrices()))
        return [[-x for x in row] if draw(st.booleans()) else row for row in work]
    n = draw(st.integers(1, 4))
    d = draw(st.integers(0, 6))
    rows = [draw(st.lists(_SMALL, min_size=d + 1, max_size=d + 1)) for _ in range(n)]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n - 1)):
        rows[i] = [0] * (d + 1)
    rows[draw(st.integers(0, n - 1))][d] = draw(st.sampled_from((1, 2, 3, -1, -2)))
    v = PolyVector(Polynomial(row) for row in rows)
    width = n * draw(st.integers(1, d + 1))
    work, _ = ratlin.clear_denominators(build_sylvester(v).matrix)
    return [row[:width] + [int(i == 0)] for i, row in enumerate(work)]


def eager_gauss_jordan(rows):
    """``D R`` by the textbook fraction-free Gauss-Jordan loop: at every
    step every other row, those above the pivot row too, becomes
    ``(p * row - a * pivot_row) // prev``, so every pivot row ends at the
    last pivot D and the rows are D times the reduced form."""
    rows = [list(row) for row in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    row = 0
    prev = 1
    for col in range(ncols):
        if row == nrows:
            break
        src = next((i for i in range(row, nrows) if rows[i][col]), None)
        if src is None:
            continue
        rows[row], rows[src] = rows[src], rows[row]
        top = rows[row]
        p = top[col]
        for i in range(nrows):
            if i != row:
                a = rows[i][col]
                rows[i] = [(p * x - a * y) // prev for x, y in zip(rows[i], top)]
        prev = p
        row += 1
    return rows


def forward_rows(echelon, nrows):
    """The forward form U of a pass, row by row."""
    return [[column[i] for column in echelon.forward] for i in range(nrows)]


def _grown(work, cuts):
    """The pass of the columns of ``work`` left of the first cut, grown by
    :meth:`Echelon.extend` one block of columns at a time, between cuts."""
    width = len(work[0]) if work else 0
    edges = [*cuts, width]
    echelon = ratlin.Echelon([row[:edges[0]] for row in work])
    for start, stop in zip(edges, edges[1:]):
        echelon.extend([row[j] for row in work] for j in range(start, stop))
    return echelon


def _check_against_eager(work, cuts=()):
    """The pass of ``work``, and the same pass grown over ``cuts``, against
    the eager loop."""
    expected_rows = [list(row) for row in work]
    expected = eager_bareiss(expected_rows)
    width = len(work[0]) if work else 0
    original = ratlin.freeze(work)
    scaled = eager_gauss_jordan(work)
    reduced, _ = _rref_reference(original)
    for echelon in (ratlin.Echelon(work), _grown(work, sorted(cuts))):
        assert (echelon.pivots, echelon.sign, echelon.last_pivot) == expected
        assert forward_rows(echelon, len(work)) == expected_rows  # bit for bit
        d = echelon.last_pivot
        columns = echelon.integer_columns(range(width))
        assert columns == tuple(tuple(d * row[j] for row in reduced) for j in range(width))
        assert columns == tuple(tuple(row[j] for row in scaled) for j in range(width))
    assert work == [list(row) for row in original]  # the input lists are left alone


@pytest.mark.parametrize("rows", [
    # after the swap, the other row is skipped by the first pivot, then
    # becomes the second pivot row
    [[0, 2, 1], [3, 4, 5]],
    # skipped twice, then eliminated at the third pivot
    [[2, 1, 1, 4], [0, 3, 1, 5], [0, 0, -7, 6], [0, 0, 5, 1]],
    # a negative pivot, a zero row and a dependent row
    [[-3, 1, 2], [0, 0, 0], [0, -2, 5], [-6, 0, 9]],
])
def test_echelon_matches_eager_bareiss_examples(rows):
    _check_against_eager(rows, [1, 1])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_echelon_matches_eager_bareiss(data):
    """Leaving idle rows alone and eliminating each with one division, one
    column at a time, gives the eager loop's pivots, sign, last pivot and
    forward rows, and the scalar back-substitution every column of ``D R``
    that the eager fraction-free Gauss-Jordan loop gives; so does a pass
    grown by ``extend`` over any split of its columns."""
    work = data.draw(integer_matrices())
    width = len(work[0]) if work else 0
    _check_against_eager(work, data.draw(st.lists(st.integers(0, width), max_size=4)))


@st.composite
def solvable_columns(draw):
    """Integer rows and a column: an integer combination of their columns,
    or any integer column, which may lie outside their span."""
    work = draw(integer_matrices())
    width = len(work[0]) if work else 0
    if draw(st.booleans()):
        weights = draw(st.lists(_SMALL, min_size=width, max_size=width))
        return work, [sum(w * x for w, x in zip(weights, row)) for row in work]
    return work, draw(st.lists(_SMALL, min_size=len(work), max_size=len(work)))


@settings(max_examples=150, deadline=None)
@given(solvable_columns())
@example(([[1, 2], [2, 4]], [1, 2]))
@example(([[1, 2], [2, 4]], [1, 3]))
@example(([[0, 0], [0, 0]], [0, 0]))
@example(([], []))
def test_solve_matches_fraction_elimination(case):
    """``solve(c)`` is D times the solution of ``M x = c`` supported on the
    pivot columns, entry k at pivot k, by Fraction Gauss-Jordan of
    ``[M | c]``, and None exactly when c is a pivot there: outside the span."""
    work, column = case
    width = len(work[0]) if work else 0
    echelon = ratlin.Echelon(work)
    reduced, pivots = _rref_reference(
        ratlin.freeze([*row, x] for row, x in zip(work, column))
    )
    solved = echelon.solve(column)
    if width in pivots:
        assert solved is None
    else:
        d = echelon.last_pivot
        assert solved == tuple(d * row[width] for row in reduced)
        assert all(type(x) is int for x in solved)


def _laplace(rows):
    """Determinant by cofactor expansion along the first row, in Fractions:
    the reference for what a pass reads off its last pivot."""
    if not rows:
        return Fraction(1)
    return sum(
        (-1) ** j * Fraction(x) * _laplace([row[:j] + row[j + 1:] for row in rows[1:]])
        for j, x in enumerate(rows[0])
    )


@st.composite
def integer_rows(draw, nrows, ncols):
    """``nrows`` x ``ncols`` integers in [-9, 9]: some with a row an integer
    combination of two others (rank deficient), some with a zero row, some
    with a 0 atop the first column (so the pass swaps rows), and some with
    a row negated (so the last pivot takes either sign)."""
    rows = [draw(st.lists(_SMALL, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if nrows >= 2 and draw(st.booleans()):
        i, j, k = (draw(st.integers(0, nrows - 1)) for _ in range(3))
        a, b = draw(_SMALL), draw(_SMALL)
        rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    if nrows and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [0] * ncols
    if nrows and ncols and draw(st.booleans()):
        rows[0][0] = 0
    if nrows and draw(st.booleans()):
        k = draw(st.integers(0, nrows - 1))
        rows[k] = [-x for x in rows[k]]
    return rows


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: integer_rows(n, n)))
@example([])
@example([[0, 1], [1, 0]])  # one row swap, sign -1
@example([[1, 2], [3, 4]])  # last pivot -2
@example([[1, 2, 3], [0, 0, 0], [4, 5, 6]])  # a zero row
def test_determinant_matches_laplace_expansion(rows):
    """``Echelon.determinant`` of a square integer matrix, n = 0..5, is its
    determinant by Fraction cofactor expansion, 0 when it is singular."""
    determinant = ratlin.Echelon(rows).determinant
    assert type(determinant) is int
    assert determinant == _laplace(rows)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: integer_rows(n, n)), st.booleans())
@example([], False)
@example([[0, 1], [0, 2]], False)  # a zero first column: a pivot lands right of n
@example([[0, 2, 1], [0, 1, 0], [0, 3, 5]], True)
@example([[1, 2], [3, 4]], False)  # last pivot -2
@example([[0, 1, 0], [1, 0, 0], [0, 0, 1]], True)  # one row swap, last pivot -1
@example([[1, 2, 3], [2, 4, 6], [0, 0, 1]], True)  # rank 2
@example([[3]], True)
def test_inverse_matches_fraction_elimination(rows, rational):
    """``ratlin.inverse`` of a square matrix, n = 0..5, integer or with row i
    over i + 2: the transform of Fraction Gauss-Jordan on ``[M | I]``, a
    two-sided inverse, and ``matrix is singular`` below full rank."""
    n = len(rows)
    rows = ratlin.freeze(
        [[Fraction(x, i + 2) for x in row] for i, row in enumerate(rows)] if rational else rows
    )
    if _det_reference(rows) == 0:
        with pytest.raises(ValueError, match="matrix is singular"):
            ratlin.inverse(rows)
        return
    inverse = ratlin.inverse(rows)
    assert inverse == _rref_with_transform_reference(rows)[1]
    assert all(type(x) is Fraction for row in inverse for x in row)
    assert ratlin.mat_mul(rows, inverse) == ratlin.mat_mul(inverse, rows) == ratlin.identity(n)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_group_inverse_has_determinant_one(n, seed):
    """The inverse of a random determinant-one element, built without a
    second determinant check, composes with it to the identity both ways
    and has determinant 1, by the kernel and by Fraction elimination."""
    g = random_group(random.Random(seed), n)
    inverse = g.inverse()
    assert ratlin.det(inverse.matrix) == _det_reference(inverse.matrix) == 1
    assert g.compose(inverse) == inverse.compose(g) == GroupElement.identity(n)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(integer_rows(n - 1, n), st.lists(_SMALL, min_size=n, max_size=n))
))
@example(([], [3]))  # n = 1: the empty minor
@example(([[0, 1, 0], [1, 0, 0]], [1, 2, 3]))  # one row swap
@example(([[1, 2, 0], [3, 4, 1]], [1, 1, 1]))  # last pivot -2
@example(([[1, 2, 3], [2, 4, 6]], [1, 0, 0]))  # rank 1: every minor 0
@example(([[1, 0, 2], [0, 0, 0]], [0, 1, 0]))  # a zero row
def test_cofactors_match_laplace_expansion(case):
    """``Echelon.cofactors()`` of (n - 1) x n integer rows, n = 1..5: entry
    i is ``(-1)**i`` times the minor that omits column i, by Fraction
    cofactor expansion, so a row x pairs with them to ``det [x ; M]``.
    ``determinant`` is the pivot block's at rank n - 1, else 0."""
    rows, x = case
    n = len(x)
    echelon = ratlin.Echelon(rows)
    cofactors = echelon.cofactors()
    assert all(type(c) is int for c in cofactors)
    assert cofactors == tuple(
        (-1) ** i * _laplace([row[:i] + row[i + 1:] for row in rows]) for i in range(n)
    )
    assert sum(a * c for a, c in zip(x, cofactors)) == _laplace([x, *rows])
    pivots = echelon.pivots
    if len(pivots) == n - 1:
        assert echelon.determinant == _laplace([[row[c] for c in pivots] for row in rows])
    else:
        assert echelon.determinant == 0


def test_cofactors_need_one_column_more_than_rows():
    for rows in ([[1, 2, 3]], [[1, 2], [3, 4]], [[0, 0]] * 2):
        with pytest.raises(ValueError, match="n - 1 rows of n columns"):
            ratlin.Echelon(rows).cofactors()
