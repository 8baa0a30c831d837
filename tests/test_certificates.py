"""The normal-form certificates of ``verify`` against rebuilding the result.

``verify`` checks a stored frame, completion, Bezout vector, µ-basis,
section or canonical vector by its certificate; the reference here rebuilds
the result and compares, as ``verify`` once did.  Both must give the same
verdict, and refuse the same inputs with the same message.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from affine_frames import (
    BezoutVector,
    Completion,
    FrameResult,
    GroupElement,
    MuBasis,
    PolyMatrix,
    PolyVector,
    Polynomial,
    RegularityError,
    bezout_degree_search,
    canonical_shape_violations,
    is_minimal_bezout,
    is_mu_basis,
    minimal_bezout,
    minimal_completion,
    moving_frame,
    mu_basis,
    nonminimal_completion,
    ratlin,
    section,
    section_and_canonical,
    validate_curve,
    verify_completion,
)
from affine_frames.cli import COMMANDS
from affine_frames.io import PAYLOADS, CurveDocument

from conftest import (
    p, random_generic_curve, random_group, random_rational_curve,
    random_regular_vector, vec,
)

# The command and the reproducibility check of each stored result type.
CHECKS = {
    FrameResult: ("frame", "matrix_reproducible"),
    Completion: ("complete", "matrix_reproducible"),
    BezoutVector: ("bezout", "vector_reproducible"),
    MuBasis: ("mubasis", "basis_reproducible"),
    GroupElement: ("section", "section_reproducible"),
    # A canonical result is the pair that section_and_canonical returns.
    tuple: ("canonical", "vector_reproducible"),
}


def certificate_verdict(source: PolyVector, stored) -> bool:
    """The reproducibility check of ``verify`` on ``stored``."""
    command, check = CHECKS[type(stored)]
    if command == "canonical":
        fields = dict(zip(PAYLOADS["canonical"], stored))
    else:
        fields = vars(stored)
    return dict(COMMANDS[command].verify(CurveDocument(source), fields))[check]


def _bump(u: PolyVector, rng) -> PolyVector:
    """``u`` with one coefficient, up to one past its degree, moved by one."""
    rows = [list(c.coeffs) for c in u]
    i, j = rng.randrange(len(rows)), rng.randrange(int(u.degree) + 2)
    rows[i] += [Fraction(0)] * (j + 1 - len(rows[i]))
    rows[i][j] += 1
    return PolyVector(Polynomial(row) for row in rows)


def _t(k: int) -> Polynomial:
    return Polynomial.monomial(k)


def _syzygy_alterations(us, rng):
    """One coefficient changed, t^k times a lower element added to a higher
    one, and two elements swapped."""
    us = list(us)
    out = []
    i = rng.randrange(len(us))
    out.append(us[:i] + [_bump(us[i], rng)] + us[i + 1:])
    for low in range(len(us)):
        for high in range(low + 1, len(us)):
            k = rng.randrange(2)
            out.append(us[:high] + [us[high] + us[low].scale(_t(k))] + us[high + 1:])
            swapped = list(us)
            swapped[low], swapped[high] = us[high], us[low]
            out.append(swapped)
    return out


def stored_variants(v: PolyVector, rng):
    """The completion, Bezout vector and µ-basis of v, computed and altered."""
    completion, bezout, basis = minimal_completion(v), minimal_bezout(v), mu_basis(v)
    b, us, e = bezout.vector, basis.elements, bezout.degree
    for stored in (completion, bezout, basis):
        yield stored
    # Bezout vectors: one coefficient changed, and b plus a syzygy.
    yield BezoutVector(_bump(b, rng), e)
    for u in us:
        moved = b + u.scale(_t(rng.randrange(2)))
        yield BezoutVector(moved, int(moved.degree))
        # Its completion is a valid one, of degree at least the least.
        yield Completion(PolyMatrix.from_columns([v, *mu_basis(moved).normalized()]), e)
    # µ-bases: the syzygy alterations, and the last element and the scale
    # both doubled.
    for altered in _syzygy_alterations(us, rng):
        yield MuBasis(tuple(altered), basis.scale)
    yield MuBasis((*us[:-1], us[-1].scale(2)), 2 * basis.scale)
    # Completions: the same on the later columns, and a non-minimal one.
    for altered in _completion_alterations(completion.matrix, rng):
        yield Completion(altered, e)
    yield nonminimal_completion(v)


def _completion_alterations(m: PolyMatrix, rng):
    """The syzygy alterations of the later columns, and for n >= 3 the
    second column doubled and the last halved, which keeps determinant one."""
    first, *later = m.columns()
    for altered in _syzygy_alterations(later, rng):
        yield PolyMatrix.from_columns([first, *altered])
    if len(later) > 1:
        rescaled = [later[0].scale(2), *later[1:-1], later[-1].scale(Fraction(1, 2))]
        yield PolyMatrix.from_columns([first, *rescaled])


def frame_variants(tangent, rng):
    """The frame of the tangent, computed and altered: the section's shift
    moved, and on ``g^-1`` times the matrix the completion alterations and
    the completions through the canonical vector's Bezout vector plus a
    syzygy.  The pivots of A for the tangent and for the canonical vector
    often differ, and such a Bezout vector may lie on the former."""
    frame = moving_frame(tangent)
    yield frame
    g, w, e = frame.section, frame.canonical_tangent, frame.bezout_degree
    yield FrameResult(frame.matrix, GroupElement(g.matrix, g.shift + 1), w, e)
    for altered in _completion_alterations(g.inverse().apply(frame.matrix), rng):
        yield FrameResult(g.apply(altered), g, w, e)
    b = minimal_bezout(w).vector
    for u in mu_basis(w).elements:
        moved = b + u.scale(_t(rng.randrange(2)))
        altered = PolyMatrix.from_columns([w, *mu_basis(moved).normalized()])
        yield FrameResult(g.apply(altered), g, w, e)


REBUILD = {
    FrameResult: lambda source: moving_frame(validate_curve(source)),
    Completion: minimal_completion,
    BezoutVector: minimal_bezout,
    MuBasis: mu_basis,
}


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((2, 3, 4, 5)), st.booleans())
def test_certificates_agree_with_rebuilding(seed, n, rational):
    """On integer curves and 8-bit p/q curves in dimensions 2 to 5, each
    certificate accepts a computed result and refuses every altered one
    exactly when rebuilding the result and comparing does."""
    rng = random.Random(seed)
    if rational:
        curve = random_rational_curve(rng, n)
    else:
        curve = random_generic_curve(rng, n, n + 3)
    tangent = validate_curve(curve)
    rebuilt = {}
    cases = [(tangent, stored) for stored in stored_variants(tangent, rng)]
    cases += [(curve, stored) for stored in frame_variants(tangent, rng)]
    verdicts = set()
    for source, stored in cases:
        kind = type(stored)
        if kind not in rebuilt:
            rebuilt[kind] = REBUILD[kind](source)
        expected = stored == rebuilt[kind]
        assert certificate_verdict(source, stored) == expected, (kind, stored)
        verdicts.add(expected)
    assert verdicts == {True, False}


PLANTED = vec((-1, 1), (0, -1, 1), (0, 0, 0, -1, 1))


def _outcome(call):
    try:
        call()
    except RegularityError as error:
        return str(error)
    return None


def _rebuilt_completion_outcome(m, v):
    """What verify of a completion raised when it rebuilt the result: the
    oracle ran when the determinant was one, then minimal_completion.  The
    matrices here are constant, so their determinant is that of ``m(0)``."""
    if ratlin.det(m.evaluate(0)) == 1:
        bezout_degree_search(v)
    minimal_completion(v)


@pytest.mark.parametrize(
    "v",
    [
        vec((0,), (0,), (0,)), PLANTED, vec((0, 2), (0, 0, 4)),
        vec((3,)), vec((0, 1)), vec((0,)),
    ],
    ids=["zero", "planted", "shared-t", "one-unit", "one-t", "one-zero"],
)
def test_certificates_refuse_what_rebuilding_refused(v):
    """The zero vector, a shared factor and dimension one: the same
    exception and message as rebuilding, for a completion of determinant
    one or two and for a µ-basis."""
    n = v.dim
    identity = PolyMatrix.identity(n)
    doubled = PolyMatrix([[p(2 if i == j == 0 else int(i == j)) for j in range(n)]
                          for i in range(n)])
    for m in (identity, doubled):
        expected = _outcome(lambda: _rebuilt_completion_outcome(m, v))
        assert expected is not None
        assert _outcome(lambda: verify_completion(m, v)) == expected
    expected = _outcome(lambda: mu_basis(v))
    assert expected is not None
    assert _outcome(lambda: is_mu_basis(v, (), ())) == expected


def section_variants(g: GroupElement, rng):
    """g and g altered: its shift moved, and composed on either side with
    an elementary unimodular matrix and with diag(2, 1/2, 1, ...)."""
    n = g.dim
    shear = [list(row) for row in ratlin.identity(n)]
    half = [list(row) for row in ratlin.identity(n)]
    i, j = rng.sample(range(n), 2)
    shear[i][j] = rng.choice((-2, -1, 1, 2))
    half[0][0], half[1][1] = 2, Fraction(1, 2)
    yield g
    yield GroupElement(g.matrix, g.shift + Fraction(rng.randint(1, 4), rng.randint(1, 3)))
    for matrix in (shear, half):
        h = GroupElement(matrix)
        yield g.compose(h)
        yield h.compose(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((2, 3, 4, 5)))
def test_section_certificates_agree_with_rebuilding(seed, n):
    """On p/q vectors in dimensions 2 to 5, the section and canonical
    certificates accept the computed result and refuse every altered one
    exactly when rebuilding it and comparing does.  Each altered section is
    stored with the canonical vector and with its own ``h^-1 . v``, which h
    maps to v, so that only the canonical shape can refuse it."""
    rng = random.Random(seed)
    v = random_group(rng, n).apply(random_regular_vector(rng, n, n + 3))
    g, w = section_and_canonical(v)
    verdicts = set()
    for h in section_variants(g, rng):
        for stored in (h, (h, w), (h, h.inverse().apply(v))):
            expected = stored == (g if stored is h else (g, w))
            assert certificate_verdict(v, stored) == expected, stored
            verdicts.add(expected)
    assert verdicts == {True, False}


# (1, t, t^3), which is canonical, and vectors that are not regular.
CUBIC = vec((1,), (0, 1), (0, 0, 0, 1))
IRREGULAR = {
    "zero": vec((0,), (0,), (0,)),
    "shared": PLANTED,
    "dependent": vec((1, 1), (2, 2), (0, 0, 0, 1)),
    "shared-dependent": vec((0, 1), (0, 2), (0, 0, 0, 1)),
    "low-degree": vec((1,), (0, 1), (0, 0, 1)),
}


@pytest.mark.parametrize("irregular", IRREGULAR.values(), ids=IRREGULAR)
def test_section_certificates_refuse_what_rebuilding_refused(irregular):
    """An irregular input, and an irregular stored canonical vector, raise
    the exception and message that rebuilding raised: the input's first,
    then the stored vector's through its shape, then through its section."""
    identity = GroupElement.identity(3)

    def rebuilt_canonical(v, w):
        section_and_canonical(v)
        canonical_shape_violations(w)
        section(w)

    expected = _outcome(lambda: section(irregular))
    assert expected is not None
    assert _outcome(lambda: certificate_verdict(irregular, identity)) == expected
    for v, w in ((irregular, CUBIC), (CUBIC, irregular), (irregular, irregular)):
        expected = _outcome(lambda: rebuilt_canonical(v, w))
        assert expected is not None
        assert _outcome(lambda: certificate_verdict(v, (identity, w))) == expected


# w = (1, t, t^2): its µ-basis is u1 = (t, -1, 0), u2 = (0, t, -1), and its
# minimal Bezout vector (1, 0, 0), on the pivot columns 0, 1, 2 of A_0.
W = vec((1,), (0, 1), (0, 0, 1))
U1, U2 = vec((0, 1), (-1,), (0,)), vec((0,), (0, 1), (-1,))


@pytest.mark.parametrize(
    "elements, scaled_last, expected",
    [
        ((U1, U2), False, True),
        ((U2, U1), False, False),  # leading columns 4, 3 do not ascend
        ((U1, U2.scale(2)), False, False),  # a 2 at the leading column
        ((U1, U2.scale(2)), True, True),  # the last one may be scaled
        ((U1.scale(2), U2), True, False),  # but no other
        ((U1, U2.scale(p(0, 1))), False, False),  # degrees sum to 3, not 2
        ((vec((0, 1), (-1,), (1,)), U2), False, False),  # not a syzygy
        ((U1, U2 + U1), False, False),  # a 1 at column 3, a non-pivot one
        ((U1,), False, False),  # one element short
    ],
)
def test_mu_basis_certificate_conditions(elements, scaled_last, expected):
    pairings = [W.dot(u) for u in elements]
    assert is_mu_basis(W, elements, pairings, scaled_last) is expected


def test_mu_basis_certificate_reads_the_given_pairings():
    """The certificate trusts the pairings it is given: a nonzero one
    refuses the µ-basis, and a list of another length raises."""
    zero = Polynomial.zero()
    assert is_mu_basis(W, (U1, U2), [zero, zero])
    assert not is_mu_basis(W, (U1, U2), [zero, p(1)])
    assert not is_mu_basis(W, (U1, U2), [p(0, 1), zero])
    for pairings in ([zero], [zero] * 3):
        with pytest.raises(ValueError):
            is_mu_basis(W, (U1, U2), pairings)


def test_minimal_bezout_certificate_conditions():
    degree, pivots = bezout_degree_search(W)
    assert (degree, pivots) == (0, (0, 1, 2))
    e1 = vec((1,), (0,), (0,))
    assert is_minimal_bezout(e1, degree, pivots, W.dot(e1))
    assert not is_minimal_bezout(e1, degree, (1, 2), W.dot(e1))
    assert not is_minimal_bezout(e1.scale(2), degree, pivots, W.dot(e1.scale(2)))
    assert not is_minimal_bezout(e1 + U1, degree, pivots, W.dot(e1 + U1))
    # The certificate trusts the pairing it is given: the pivot-supported
    # vector of the least degree is refused with any pairing other than one.
    for pairing in (Polynomial.zero(), p(2), p(1, 1)):
        assert not is_minimal_bezout(e1, degree, pivots, pairing)
