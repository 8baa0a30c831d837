"""Unimodular completions: minimal, dual, and deliberately inflated."""

import ast
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from affine_frames import (
    FrameResult,
    GroupElement,
    Polynomial,
    PolyMatrix,
    PolyVector,
    RegularityError,
    build_sylvester,
    equivariantize,
    minimal_bezout,
    minimal_completion,
    moving_frame,
    mu_basis,
    nonminimal_completion,
    quillen_suslin,
    require_regular,
    validate_curve,
    verify_completion,
    verify_frame,
)
from affine_frames import bezout, completion, poly, ratlin, sylvester
from affine_frames.bezout import bezout_degree_search, is_minimal_bezout, is_mu_basis
from affine_frames.completion import CompletionReport
from affine_frames.poly import from_integers, integer_coefficients
from affine_frames.sylvester import integer_system
from affine_frames.vectors import outer_product

from conftest import p, quartic_tangent, random_generic_curve, random_regular_vector, vec
from test_bezout import UNBALANCED_18

SEXTIC = vec((1, 0, 0, 0, 0, 0, 1), (0, 0, 0, 1), (0, 1))

CANONICAL_QUARTIC = vec(
    (Fraction(-1, 3), 1),
    (Fraction(-1, 27), 0, 0, 1),
    (Fraction(325, 81), 0, Fraction(25, 3), 0, 5),
)


def test_minimal_completion_sextic():
    comp = minimal_completion(SEXTIC)
    assert comp.bezout_degree == 3
    assert comp.matrix.degree == 9
    assert comp.matrix == PolyMatrix(
        [
            [p(1, 0, 0, 0, 0, 0, 1), p(0), p(0, 0, 0, -1)],
            [p(0, 0, 0, 1), p(0), p(-1)],
            [p(0, 1), p(1), p(0)],
        ]
    )
    assert comp.matrix.determinant() == Polynomial.one()


def test_minimal_completion_canonical_quartic():
    comp = minimal_completion(CANONICAL_QUARTIC)
    assert comp.bezout_degree == 1
    assert comp.matrix.degree == 5
    assert comp.matrix.determinant() == Polynomial.one()
    assert comp.matrix.column(0) == CANONICAL_QUARTIC
    assert comp.matrix == PolyMatrix(
        [
            [p(Fraction(-1, 3), 1), p(Fraction(27, 80)), p(0, -1)],
            [p(Fraction(-1, 27), 0, 0, 1), p(Fraction(-9, 16)),
             p(Fraction(16, 27), Fraction(5, 3))],
            [p(Fraction(325, 81), 0, Fraction(25, 3), 0, 5), p(1), p(0)],
        ]
    )


def test_minimal_completion_unit_vector():
    comp = minimal_completion(vec((1,), (0,), (0,)))
    assert comp.matrix == PolyMatrix.identity(3)
    assert comp.bezout_degree == 0
    assert comp.matrix.degree == 0


def test_minimal_completion_rejects_common_factor():
    with pytest.raises(RegularityError):
        minimal_completion(vec((0, 2), (0, 0, 4)))
    with pytest.raises(RegularityError):
        minimal_completion(PolyVector([Polynomial.one()]))


def test_verify_completion_known_witnesses():
    # two independent degree-9 completions of the sextic and a degree-10 one
    m1 = PolyMatrix(
        [
            [p(1, 0, 0, 0, 0, 0, 1), p(0), p(0, 0, 0, 1)],
            [p(0, 0, 0, 1), p(0), p(1)],
            [p(0, 1), p(-1), p(0)],
        ]
    )
    report = verify_completion(m1, SEXTIC)
    assert report.is_completion
    assert report.minimal
    assert report.degree == 9
    assert report.minimal_degree == 9

    m2 = PolyMatrix(
        [
            [p(1, 0, 0, 0, 0, 0, 1), p(1), p(0, 0, -1)],
            [p(0, 0, 0, 1), p(1), p(0)],
            [p(0, 1), p(0, 1), p(1)],
        ]
    )
    report = verify_completion(m2, SEXTIC)
    assert report.is_completion
    assert report.minimal
    assert report.degree == 9

    m3 = PolyMatrix(
        [
            [p(1, 0, 0, 0, 0, 0, 1), p(1), p(0, 0, 0, 1)],
            [p(0, 0, 0, 1), p(0), p(1)],
            [p(0, 1), p(-1, 1), p(0)],
        ]
    )
    report = verify_completion(m3, SEXTIC)
    assert report.is_completion
    assert not report.minimal
    assert report.degree == 10
    assert report.minimal_degree == 9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verify_completion_pairs_only_the_first_column(monkeypatch, n):
    """Verifying the minimal completion computes one pairing with the first
    column, with b* off the oracle's pass, once and on integers, and no
    pairing of Fraction vectors: each later column is certified against b*
    by :func:`bezout._scale`, whose pairings are syzygy checks, and each
    pairing of b with a later column is a determinant with a repeated
    column, known to be zero."""
    v = random_regular_vector(random.Random(40 + n), n=n, max_degree=6)
    m = minimal_completion(v).matrix
    pairs, paired = [], []
    original, pair = PolyVector.dot, completion.integer_sum_of_products

    def pairing(self, other):
        pairs.append((self, other))
        return original(self, other)

    def integer_pairing(lefts, rights):
        paired.append(lefts)
        return pair(lefts, rights)

    monkeypatch.setattr(PolyVector, "dot", pairing)
    monkeypatch.setattr(completion, "integer_sum_of_products", integer_pairing)
    report = verify_completion(m, v)
    assert report.reproducible and report.minimal
    assert pairs == []
    assert paired == [integer_coefficients(v.components)[0]]


def _count_routes(monkeypatch):
    """Counters of ``outer_product`` calls and oracle passes in a verify."""
    calls = {"outer_product": 0, "oracle": 0}
    outer, oracle = completion.outer_product, bezout._oracle_pass

    def counting_outer(vectors):
        calls["outer_product"] += 1
        return outer(vectors)

    def counting_oracle(v, bound):
        calls["oracle"] += 1
        return oracle(v, bound)

    monkeypatch.setattr(completion, "outer_product", counting_outer)
    monkeypatch.setattr(bezout, "_oracle_pass", counting_oracle)
    return calls


def _with_column(m: PolyMatrix, j: int, column: PolyVector) -> PolyMatrix:
    columns = m.columns()
    columns[j] = column
    return PolyMatrix.from_columns(columns)


def test_verify_completion_interpolates_only_off_the_pass(monkeypatch):
    """A valid completion is certified on the oracle's one pass, with no
    outer product, and so is any determinant that the pass pins: a doubled
    last column (det 2), later columns too low to hold a Bezout vector, or
    the last column plus t times the second, still syzygies of b* of the
    same degrees (det 1, normal form broken).  A completion whose later
    columns do not certify against b* (a larger Bezout vector, or t**2
    times the second column added to the last, which raises the degree
    sum) interpolates b exactly once, with the oracle's pass still one."""
    v = quartic_tangent()
    m = minimal_completion(v).matrix
    _, second, last = m.columns()
    calls = _count_routes(monkeypatch)
    low = PolyMatrix.from_columns([v, vec((0,), (1,), (0,)), vec((0,), (0,), (1,))])
    cases = [
        (m, (True, True), 0),
        (_with_column(m, 2, last.scale(p(2))), (False, False), 0),
        (low, (False, False), 0),
        (_with_column(m, 2, last + second.scale(p(0, 1))), (True, False), 0),
        (nonminimal_completion(v).matrix, (True, False), 1),
        (_with_column(m, 2, last + second.scale(p(0, 0, 1))), (True, False), 1),
    ]
    for matrix, (det_one, reproducible), interpolated in cases:
        calls.update(outer_product=0, oracle=0)
        report = verify_completion(matrix, v)
        assert (report.determinant_one, report.reproducible) == (det_one, reproducible)
        assert calls == {"outer_product": interpolated, "oracle": 1}


def _interpolated_report(m: PolyMatrix, v: PolyVector) -> CompletionReport:
    """The report of ``verify_completion(m, v)`` with b interpolated, as
    ``outer_product(m[:, 1:])``, and the degree oracle unbounded, for a
    square m of v's dimension with no zero column and a coprime v."""
    columns = m.columns()
    first = columns[0] == v
    b = outer_product(columns[1:])
    pairing = columns[0].dot(b)
    det_one = pairing == Polynomial.one()
    minimal_degree, reproducible = None, False
    if det_one:
        e, pivots = bezout_degree_search(v)
        minimal_degree = e + int(v.degree)
        zeros = [Polynomial.zero()] * (v.dim - 1)
        reproducible = first and (
            is_minimal_bezout(b, e, pivots, pairing)
            and is_mu_basis(b, columns[1:], zeros, scaled_last=True)
        )
    return CompletionReport(
        first_column_matches=first,
        determinant_one=det_one,
        degree=int(m.degree),
        minimal_degree=minimal_degree,
        minimal=minimal_degree is not None and m.degree == minimal_degree,
        reproducible=reproducible,
    )


def _damaged_completions(v: PolyVector) -> list[PolyMatrix]:
    """The minimal completion of v and documents around it: the inflated
    completion, the later columns swapped, the last one doubled, the last
    plus t times the second (the first at n = 2; det 1 kept, normal form
    broken), a later column plus v (no syzygy of b*), a first column that
    is not v (both det 1) and the later columns of the identity, too low
    to hold a Bezout vector of a nonconstant v."""
    m = minimal_completion(v).matrix
    columns = m.columns()
    n = v.dim
    docs = [
        m,
        _with_column(m, n - 1, columns[-1].scale(p(2))),
        _with_column(m, n - 1, columns[-1] + columns[1 if n > 2 else 0].scale(p(0, 1))),
        _with_column(m, 1, columns[1] + v),
        _with_column(m, 0, v + columns[1]),
        PolyMatrix.from_columns([v, *PolyMatrix.identity(n).columns()[1:]]),
    ]
    if not v[0].is_zero:
        docs.append(nonminimal_completion(v).matrix)
    if n > 2:
        docs.append(PolyMatrix.from_columns([columns[0], columns[2], columns[1], *columns[3:]]))
    return docs


@st.composite
def coprime_vectors(draw):
    """n = 2-5, degree 0-5, integer or p/q coefficients, coprime components."""
    n = draw(st.integers(2, 5))
    d = draw(st.integers(0, 5))
    entry = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6))
    v = PolyVector(
        Polynomial(draw(st.lists(entry, min_size=d + 1, max_size=d + 1))) for _ in range(n)
    )
    assume(not v.is_zero and v.is_coprime())
    return v


@settings(max_examples=30, deadline=None)
@given(coprime_vectors())
def test_verify_completion_matches_the_interpolating_certificate(v):
    """Reading b off the oracle's pass changes no report field: on the
    minimal completion and each damaged document the report is the one
    that interpolates b as the outer product of the later columns."""
    for m in _damaged_completions(v):
        assert verify_completion(m, v) == _interpolated_report(m, v)


@st.composite
def shifted_vectors(draw):
    """``(v, s)``: v with n = 2-5, rational coefficients and components of
    uneven degrees 0-8, unbalanced ones ``(a, b, a p + b q, ...)`` with p, q
    linear, either kind times a linear t - r (a shared factor); s is 0, an
    integer or a fraction."""
    n = draw(st.integers(2, 5))
    entry = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6))

    def poly(degree):
        return Polynomial(draw(st.lists(entry, min_size=degree + 1, max_size=degree + 1)))

    rows = [poly(draw(st.integers(0, 8))) for _ in range(n)]
    if n >= 3 and draw(st.booleans()):
        rows[2] = rows[0] * poly(1) + rows[1] * poly(1)
    v = PolyVector(rows)
    if draw(st.booleans()):
        v = v.scale(Polynomial([-draw(st.integers(-3, 3)), 1]))
    assume(not v.is_zero)
    s = draw(st.one_of(
        st.just(0), st.integers(-3, 3), st.fractions(-3, 3, max_denominator=7),
    ))
    return v, Fraction(s)


def _completion_or_refusal(v):
    try:
        return minimal_completion(v)
    except RegularityError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(shifted_vectors())
@example((UNBALANCED_18, Fraction(-2, 7)))
@example((UNBALANCED_18.scale(p(2, -1)), Fraction(3)))
def test_minimal_completion_commutes_with_parameter_shifts(case):
    """``minimal_completion(v(t - s))``, shifted back by s, is
    ``minimal_completion(v)`` with the same Bezout degree, or both refuse
    with the same message: the pivot-supported normal forms are unchanged
    by a parameter shift.  So a frame, built as ``L .
    minimal_completion(L^-1 . v)``, is the minimal completion of the
    canonical vector conjugated by the section in full."""
    v, s = case
    direct, shifted = map(_completion_or_refusal, (v, v.shift(-s)))
    if isinstance(direct, str):
        assert shifted == direct
    else:
        back = GroupElement(ratlin.identity(v.dim), s)
        assert back.apply(shifted.matrix) == direct.matrix
        assert shifted.bezout_degree == direct.bezout_degree
    try:
        tangent = require_regular(v)
    except RegularityError:
        return
    frame = moving_frame(tangent)
    reference = equivariantize(minimal_completion)(tangent)
    assert (frame.matrix, frame.bezout_degree) == (reference.matrix, reference.bezout_degree)


def test_frame_verify_at_shift_zero_reads_b_off_the_pass(monkeypatch):
    """A frame whose section shift is 0 has the oracle's vector first once
    its section is undone, so it is certified on the oracle's pass like a
    completion, with no outer product.  Its report, and those of the frame
    with its last column doubled or plus t times its second, are the ones
    of the interpolating route."""
    rng = random.Random(48)
    calls = _count_routes(monkeypatch)
    for n in (2, 3, 4):
        curve = random_generic_curve(rng, n, n + 3)
        curve = curve.shift(-moving_frame(validate_curve(curve)).section.shift)
        tangent = require_regular(curve.derivative())
        frame = moving_frame(validate_curve(curve))
        assert frame.section.shift == 0
        columns = frame.matrix.columns()
        frames = [
            frame,
            replace(frame, matrix=_with_column(frame.matrix, n - 1, columns[-1].scale(p(2)))),
            replace(frame, matrix=_with_column(
                frame.matrix, n - 1, columns[-1] + columns[1 if n > 2 else 0].scale(p(0, 1))
            )),
        ]
        reports = []
        for stored in frames:
            calls.update(outer_product=0, oracle=0)
            reports.append(verify_frame(stored, tangent))
            assert calls["oracle"] == 1
            if stored is frame:
                assert calls["outer_product"] == 0 and reports[-1].reproducible
        with monkeypatch.context() as forced:
            forced.setattr(completion, "_unimodular", lambda *args: None)
            assert [verify_frame(stored, tangent) for stored in frames] == reports


def test_frame_verify_runs_one_pass(monkeypatch):
    """A frame mapped by its section's inverse linear part has the oracle's
    vector ``u = L^-1 . tangent`` first, whatever the section's shift, so a
    frame whose shift is not 0 is certified on the oracle's one pass like a
    completion, bounded by the later columns' degree sum B: b is read off
    that pass, with no outer product, for the stored frame and for its last
    column doubled (det 2), and the pass finds no Bezout degree within B for
    its later columns lowered below e.  Those reports, and the one of the
    frame with its last column plus t times its second, are the ones of the
    interpolating route."""
    rng = random.Random(49)
    calls = _count_routes(monkeypatch)
    for n in (2, 3, 4):
        curve = random_generic_curve(rng, n, n + 3)
        tangent = require_regular(curve.derivative())
        frame = moving_frame(validate_curve(curve))
        assert frame.section.shift != 0 and frame.bezout_degree > 0
        columns = frame.matrix.columns()
        doubled = _with_column(frame.matrix, n - 1, columns[-1].scale(p(2)))
        lowered = PolyMatrix.from_columns([columns[0], *PolyMatrix.identity(n).columns()[1:]])
        raised = _with_column(
            frame.matrix, n - 1, columns[-1] + columns[1 if n > 2 else 0].scale(p(0, 1))
        )
        cases = [
            (frame, (True, True)),
            (replace(frame, matrix=doubled), (False, False)),
            (replace(frame, matrix=lowered), (False, False)),
        ]
        reports = []
        for stored, (det_one, reproducible) in cases:
            calls.update(outer_product=0, oracle=0)
            reports.append(verify_frame(stored, tangent))
            assert (reports[-1].determinant_one, reports[-1].reproducible) == (
                det_one, reproducible
            )
            assert calls == {"outer_product": 0, "oracle": 1}
        documents = [stored for stored, _ in cases] + [replace(frame, matrix=raised)]
        reports.append(verify_frame(documents[-1], tangent))
        assert not reports[-1].reproducible
        with monkeypatch.context() as forced:
            forced.setattr(completion, "_unimodular", lambda *args: None)
            assert [verify_frame(doc, tangent) for doc in documents] == reports


def test_verify_completion_trivial_and_failures():
    ident = PolyMatrix.identity(3)
    e1 = vec((1,), (0,), (0,))
    report = verify_completion(ident, e1)
    assert report.is_completion and report.minimal

    wrong_first = verify_completion(ident, vec((0,), (1,), (0,)))
    assert not wrong_first.first_column_matches
    assert wrong_first.determinant_one

    doubled = PolyMatrix([[p(2), p(0)], [p(0), p(1)]])
    report = verify_completion(doubled, vec((2,), (0,)))
    assert report.first_column_matches
    assert not report.determinant_one
    assert not report.minimal

    with pytest.raises(ValueError, match="square"):
        verify_completion(PolyMatrix([[p(1), p(0)]]), e1)
    with pytest.raises(ValueError, match="dimensions"):
        verify_completion(PolyMatrix.identity(2), e1)


def test_quillen_suslin_sextic():
    q = quillen_suslin(SEXTIC)
    assert q == PolyMatrix(
        [
            [p(1), p(0), p(0, 1)],
            [p(0, 0, 0, -1), p(-1), p(0, 0, 0, 0, -1)],
            [p(0), p(0, 0, 1), p(-1)],
        ]
    )
    # row vector v^T times Q is the first unit row
    product = PolyMatrix([list(SEXTIC)]) @ q
    assert product == PolyMatrix([[p(1), p(0), p(0)]])


def test_quillen_suslin_unit_vector():
    q = quillen_suslin(vec((1,), (0,), (0,)))
    assert q == PolyMatrix.identity(3)


def test_quillen_suslin_duality():
    # inverse transpose of Q completes v, at much larger degree here
    q = quillen_suslin(SEXTIC)
    dual = q.inverse_unimodular().transpose()
    report = verify_completion(dual, SEXTIC)
    assert report.is_completion
    assert report.degree == 14
    assert not report.minimal


def test_quillen_suslin_duality_random():
    rng = random.Random(71)
    for _ in range(15):
        v = random_regular_vector(rng, 3, 6)
        q = quillen_suslin(v)
        product = PolyMatrix([list(v)]) @ q
        n = v.dim
        assert product == PolyMatrix(
            [[Polynomial.one()] + [Polynomial.zero()] * (n - 1)]
        )
        dual = q.inverse_unimodular().transpose()
        assert verify_completion(dual, v).is_completion


def test_nonminimal_completion_golden():
    v = vec((0, 0, 0, 1), (0, 1), (1,))
    comp = nonminimal_completion(v)
    assert comp.matrix == PolyMatrix(
        [
            [p(0, 0, 0, 1), p(0, 0, 1), p(-1)],
            [p(0, 1), p(1), p(0)],
            [p(1), p(0), p(0, 0, 0, -1)],
        ]
    )
    assert comp.matrix.degree == 8
    report = verify_completion(comp.matrix, v)
    assert report.is_completion
    assert not report.minimal
    assert comp.matrix.degree > minimal_completion(v).matrix.degree


def test_nonminimal_degree_formula():
    rng = random.Random(72)
    seen_strict = 0
    for _ in range(15):
        v = random_regular_vector(rng, 3, 6)
        if v[0].is_zero or v[0].is_constant:
            continue
        comp = nonminimal_completion(v)
        report = verify_completion(comp.matrix, v)
        assert report.is_completion
        w_last = mu_basis(v).elements[-1]
        expected = v.degree + v[0].degree + w_last.degree
        assert comp.matrix.degree == expected
        assert comp.matrix.degree > report.minimal_degree
        seen_strict += 1
    assert seen_strict > 5


def test_nonminimal_completion_errors():
    with pytest.raises(RegularityError, match="first component"):
        nonminimal_completion(vec((0,), (0, 1), (1,)))
    with pytest.raises(RegularityError):
        nonminimal_completion(vec((0, 2), (0, 0, 4)))


def test_one_dimensional_vectors_are_refused():
    with pytest.raises(RegularityError, match="dimension at least 2 required"):
        quillen_suslin(vec((1,)))
    with pytest.raises(RegularityError, match="completion needs dimension at least 2"):
        nonminimal_completion(vec((1,)))


def test_one_sylvester_build_per_distinct_vector(monkeypatch):
    """One system per distinct vector: v's from ``build_sylvester``, and a
    Bezout vector's from its integer coefficients, by ``integer_system``."""
    v = quartic_tangent()
    own, of_b = build_sylvester(v), build_sylvester(minimal_bezout(v).vector)
    built = []

    def counting(original):
        def build(*args):
            built.append(original(*args))
            return built[-1]
        return build

    for module, name in (
        (bezout, "build_sylvester"),
        (completion, "build_sylvester"),
        (completion, "integer_system"),
    ):
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    quillen_suslin(v)
    assert built == [own]
    built.clear()
    minimal_completion(v)
    assert built == [own, of_b]
    built.clear()
    nonminimal_completion(v)
    assert len(built) == 2 and built[0] == own and built[1] != own


def test_completion_and_frame_stop_at_the_bezout_block(monkeypatch):
    """``minimal_completion(v)`` takes the n (e + 1) columns of v's pass up
    to the block of its Bezout degree e and no further, and ``moving_frame``
    as many of u's, ``u = L^-1 . tangent = w(t + s)`` for the section (L, s)
    and the canonical tangent w.  For the µ (1, 8) vector that is 24 of A's
    30, where its µ-basis takes 27; each frame's pass stops a block or more
    before its µ-basis reading would."""
    built = []
    real = completion.build_sylvester

    def build(v):
        built.append(real(v))
        return built[-1]

    def taken(system):
        return len(system.echelon.forward)

    def mu_width(system):
        """The columns the µ-basis reading takes on a new copy of ``system``."""
        echelon, _ = integer_system([*map(list, system.coefficients)], system.scale).reading
        return len(echelon.forward)

    monkeypatch.setattr(completion, "build_sylvester", build)
    result = minimal_completion(UNBALANCED_18)
    (system,) = built
    assert (taken(system), mu_width(system), system.ncols) == (24, 27, 30)
    assert result.bezout_degree == 7
    rng = random.Random(47)
    for n in (2, 3, 4, 4):
        built.clear()
        frame = moving_frame(validate_curve(random_generic_curve(rng, n, 8)))
        (system,) = built
        u = frame.canonical_tangent.shift(frame.section.shift)
        assert system.coefficients == integer_coefficients(u.components)[0]
        assert taken(system) == n * (frame.bezout_degree + 1) < mu_width(system)


def test_minimal_completion_stays_on_integers(monkeypatch):
    """``minimal_completion`` clears v once, builds no Fraction Bezout
    vector and clears no µ-basis element back to integers: the only
    Fractions it makes are the coefficients of the n - 1 later columns."""
    v = quartic_tangent()
    expected = minimal_completion(v)
    cleared, made = [], []

    def clearing(polys):
        cleared.append(tuple(polys))
        return integer_coefficients(polys)

    def making(nums, den):
        made.append(len(nums))
        return from_integers(nums, den)

    def refused(*args):
        raise AssertionError("minimal_completion took the Fraction path")

    for module in (poly, sylvester, bezout, completion):
        if hasattr(module, "integer_coefficients"):
            monkeypatch.setattr(module, "integer_coefficients", clearing)
    monkeypatch.setattr(bezout, "from_integers", making)
    for name in ("minimal_bezout", "mu_basis", "basis_scale"):
        for module in (bezout, completion):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    assert minimal_completion(v) == expected
    assert cleared == [v.components]
    assert len(made) == v.dim * (v.dim - 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((2, 3, 4)))
def test_scale_normalized_completions_have_determinant_one(seed, n):
    """No determinant is taken to build a completion; the interpolation agrees."""
    v = random_regular_vector(random.Random(seed), n, max_degree=8)
    maps = [minimal_completion] + [nonminimal_completion] * (not v[0].is_zero)
    for complete in maps:
        m = complete(v).matrix
        assert m.determinant() == Polynomial.one()
        assert m.column(0) == v
        assert m @ m.inverse_unimodular() == PolyMatrix.identity(n)


def test_non_bezout_vector_is_caught(monkeypatch):
    """``v . b == 1`` is checked exactly where the determinant used to be,
    on the integer coefficients of v and b."""
    real = completion.bezout_column

    def doubled(system):
        coefficients, den = real(system)
        return [[2 * x for x in nums] for nums in coefficients], den

    monkeypatch.setattr(completion, "bezout_column", doubled)
    with pytest.raises(RegularityError, match="assembled matrix is not unimodular"):
        minimal_completion(SEXTIC)


def _refusal_cases():
    """(m, v, g, w) for each refusal, around the quartic tangent's frame."""
    tangent = quartic_tangent()
    frame = moving_frame(require_regular(tangent))
    g, w, columns = frame.section, frame.canonical_tangent, frame.matrix.columns()
    shared = vec((0, 1), (0, 0, 1), (0, 0, 0, 1))
    one = vec((1,))
    return {
        "non-square": (PolyMatrix.from_columns(columns[:2]), tangent, g, w),
        "non-square-wide": (PolyMatrix(frame.matrix.rows[:2]), tangent, g, w),
        # g is of the tangent's size, so only the shape check stops the action.
        "square-of-another-size": (PolyMatrix.identity(2), tangent, g, w),
        "zero-column": (
            PolyMatrix.from_columns([*columns[:2], columns[2].scale(p(0))]), tangent, g, w
        ),
        "one-dimensional": (PolyMatrix.identity(1), one, GroupElement.identity(1), one),
        "shared-factor": (PolyMatrix.identity(3), shared, g, w),
        "shared-factor-frame": (frame.matrix, shared, g, w),
    }


# The exception and message of each refusal, for verify_completion(m, v)
# and verify_frame of the frame (m, g, w) against v.  A frame's tangent is
# checked regular first.
REFUSALS = {
    "non-square": [(ValueError, "completion matrix must be square")] * 2,
    "non-square-wide": [(ValueError, "completion matrix must be square")] * 2,
    "square-of-another-size": [(ValueError, "matrix and vector dimensions differ")] * 2,
    "zero-column": [(RegularityError, "completion matrix has a zero column")] * 2,
    "one-dimensional": [
        (RegularityError, "completion needs dimension at least 2"),
        (RegularityError, "degree is below the dimension"),
    ],
    "shared-factor": [(RegularityError, "components share a nonconstant factor")] * 2,
    "shared-factor-frame": [(RegularityError, "components share a nonconstant factor")] * 2,
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_verify_refusals_are_pinned(case):
    """Each refusal keeps its exception type and message; the shape is
    refused before the section acts on m."""
    m, v, g, w = _refusal_cases()[case]
    frame = FrameResult(m, g, w, bezout_degree=0)
    calls = (lambda: verify_completion(m, v), lambda: verify_frame(frame, v))
    for call, (kind, message) in zip(calls, REFUSALS[case]):
        with pytest.raises(Exception) as raised:
            call()
        assert (type(raised.value), str(raised.value)) == (kind, message)


def test_completion_imports_no_group():
    """The completion layer is group-free: equivariance, the section and
    the frame verify import it, and it imports none of them."""
    tree = ast.parse(Path(completion.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.removeprefix("affine_frames.") for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "affine_frames"):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.removeprefix("affine_frames."))
    assert imported.isdisjoint({"groups", "equivariance", "frames"}), imported
