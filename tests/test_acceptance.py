"""Acceptance gate: one criterion per test, one printed verdict per test.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
All comparisons are exact rational equality; the only tolerances are the
stated runtime budgets, checked with a monotonic clock.
"""

import random
import time
from fractions import Fraction

from affine_frames import (
    PolyMatrix,
    RegularVector,
    bezout_degree_search,
    build_sylvester,
    canonical_form,
    canonical_shape_violations,
    equivariant_completion,
    equivariantize,
    flat,
    minimal_bezout,
    minimal_completion,
    moving_frame,
    mu_basis,
    nonminimal_completion,
    outer_product,
    pivot_profile,
    section,
    sharp,
    shift_section,
    validate_curve,
    verify_completion,
)
from affine_frames.cli import run_command
from affine_frames.io import CurveDocument, dict_to_matrix

from conftest import (
    p,
    quartic_tangent,
    quintic_curve,
    random_affine,
    random_generic_curve,
    random_group,
    random_regular_vector,
    vec,
)


def report(number: int, name: str, passed: bool) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number} {name}: {verdict}")


FRAME_GOLDEN = PolyMatrix(
    [
        [p(1, 0, 2, 1, 1), p(0), p(0, Fraction(16, 27))],
        [p(2, 0, 3, 1, 2), p(Fraction(27, 40)),
         p(Fraction(-34, 27), Fraction(-22, 27))],
        [p(3, 5, 4, 1, 3), p(Fraction(243, 80)),
         p(Fraction(-113, 27), Fraction(-65, 9))],
    ]
)

SEXTIC = vec((1, 0, 0, 0, 0, 0, 1), (0, 0, 0, 1), (0, 1))


def test_criterion_1_golden_frame():
    ok = False
    try:
        start = time.perf_counter()
        result = run_command(
            "frame", CurveDocument(quintic_curve(), "quintic")
        )
        elapsed = time.perf_counter() - start
        produced = dict_to_matrix(result.payload["matrix"])
        assert produced == FRAME_GOLDEN
        assert produced.entry(0, 2) == p(0, Fraction(16, 27))
        assert produced.entry(2, 1) == p(Fraction(243, 80))
        assert elapsed < 1.0, f"frame took {elapsed:.3f}s"
        ok = True
    finally:
        report(1, "golden-frame", ok)


def test_criterion_2_golden_sections():
    ok = False
    try:
        v = quartic_tangent()
        assert shift_section(v) == Fraction(1, 3)
        profile = pivot_profile(v)
        assert profile.k == 2
        assert profile.det_vbar == 5
        assert section(v).matrix == (
            (Fraction(-31, 27), Fraction(-1, 3), Fraction(1, 5)),
            (Fraction(-53, 27), Fraction(-5, 3), Fraction(2, 5)),
            (Fraction(20, 9), Fraction(-3), Fraction(3, 5)),
        )
        assert canonical_form(v) == vec(
            (Fraction(-1, 3), 1),
            (Fraction(-1, 27), 0, 0, 1),
            (Fraction(325, 81), 0, Fraction(25, 3), 0, 5),
        )
        ok = True
    finally:
        report(2, "golden-sections", ok)


def test_criterion_3_golden_sylvester():
    ok = False
    try:
        system = build_sylvester(
            vec((2, 1, 0, 0, 1), (3, 0, 1, 0, 1), (6, 0, 0, 2, 1))
        )
        expected = (
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
        assert system.matrix == tuple(
            tuple(Fraction(x) for x in row) for row in expected
        )
        assert system.rank == 9 == system.nrows
        assert system.nonpivot_cols == (8, 9, 11, 12, 14, 15)
        assert system.basic_nonpivot == (8, 9)
        h = [Fraction(i) for i in range(1, 16)]
        assert system.apply(h) == tuple(
            Fraction(x) for x in (26, 60, 98, 143, 194, 57, 62, 63, 42)
        )
        ok = True
    finally:
        report(3, "golden-sylvester", ok)


def test_criterion_4_degree_minimality():
    ok = False
    try:
        start = time.perf_counter()
        assert minimal_completion(SEXTIC).matrix.degree == 9

        witness = PolyMatrix(
            [
                [p(1, 0, 0, 0, 0, 0, 1), p(1), p(0, 0, 0, 1)],
                [p(0, 0, 0, 1), p(0), p(1)],
                [p(0, 1), p(-1, 1), p(0)],
            ]
        )
        verdict = verify_completion(witness, SEXTIC)
        assert verdict.is_completion
        assert not verdict.minimal
        assert verdict.degree == 10

        rng = random.Random(1004)
        for _ in range(100):
            v = random_regular_vector(rng, max_degree=8)
            comp = minimal_completion(v)
            assert comp.matrix.degree == v.degree + bezout_degree_search(v)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"minimality sweep took {elapsed:.1f}s"
        ok = True
    finally:
        report(4, "degree-minimality", ok)


def test_criterion_5_equivariance_suite():
    ok = False
    try:
        start = time.perf_counter()
        rng = random.Random(1005)
        for _ in range(100):
            curve = random_generic_curve(rng, 3, max_degree=7)
            g = random_affine(rng, 3)
            moved = validate_curve(g.apply(curve))
            assert isinstance(moved, RegularVector)
            tangent = validate_curve(curve)
            assert (
                moving_frame(moved).matrix
                == g.linear_part.apply(moving_frame(tangent).matrix)
            )
            linear = g.linear_part
            assert section(linear.apply(tangent)) == linear.compose(
                section(tangent)
            )
            assert canonical_form(linear.apply(tangent)) == canonical_form(
                tangent
            )
            assert equivariant_completion(linear.apply(tangent)).matrix == (
                linear.apply(equivariant_completion(tangent).matrix)
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"equivariance sweep took {elapsed:.1f}s"
        ok = True
    finally:
        report(5, "equivariance-suite", ok)


def test_criterion_6_canonical_shape():
    ok = False
    try:
        rng = random.Random(1006)
        for _ in range(100):
            v = random_regular_vector(rng, max_degree=7)
            reduced = canonical_form(v)
            assert canonical_shape_violations(reduced) == []
            assert section(reduced).is_identity()
        ok = True
    finally:
        report(6, "canonical-shape", ok)


def test_criterion_7_counterexample_fixture():
    ok = False
    try:
        v = vec((0, 0, 0, 1), (0, 1), (1,))
        inflated = nonminimal_completion(v)
        assert inflated.matrix == PolyMatrix(
            [
                [p(0, 0, 0, 1), p(0, 0, 1), p(-1)],
                [p(0, 1), p(1), p(0)],
                [p(1), p(0), p(0, 0, 0, -1)],
            ]
        )
        g = section(v)
        assert g.shift == 0
        assert g.matrix == (
            (Fraction(0), Fraction(0), Fraction(-1)),
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(1), Fraction(0), Fraction(0)),
        )
        conjugated = equivariantize(nonminimal_completion)(v)
        assert verify_completion(conjugated.matrix, v).is_completion
        assert conjugated.matrix.degree == 5
        assert inflated.matrix.degree == 8
        assert conjugated.matrix.degree != inflated.matrix.degree
        ok = True
    finally:
        report(7, "counterexample-fixture", ok)


def test_criterion_8_stacking_identities():
    ok = False
    try:
        rng = random.Random(1008)
        for _ in range(100):
            v = random_regular_vector(rng, max_degree=7)
            system = build_sylvester(v)
            n, d = system.n, system.d

            h = [Fraction(rng.randint(-9, 9)) for _ in range(system.ncols)]
            image = flat(system.apply(h), 1, 2 * d)
            assert image[0] == v.dot(flat(h, n, d))

            nonpivot = set(system.nonpivot_cols)
            for j in nonpivot:
                col = j + n
                while col <= system.ncols:
                    assert col in nonpivot
                    col += n
            assert len(system.basic_nonpivot) == n - 1

            assert flat(sharp(v, d), n, d) == v
            assert sharp(flat(h, n, d), d) == tuple(h)

            b = minimal_bezout(v, system)
            assert v.dot(b.vector) == p(1)

            mu = mu_basis(v, system)
            assert sum(u.degree for u in mu.elements) == v.degree
            assert mu.scale != 0
            assert outer_product(mu.elements) == v.scale(mu.scale)
        ok = True
    finally:
        report(8, "stacking-identities", ok)


def test_criterion_9_discontinuity_probe():
    ok = False
    try:
        def probe(c):
            return vec((5, 0, 0, 0, 1), (7, 0, 0, 1), (4, 1, Fraction(c)))

        assert shift_section(probe(1)) == Fraction(1, 2)
        assert shift_section(probe(Fraction(1, 10))) == 5
        assert shift_section(probe(0)) == 0
        ok = True
    finally:
        report(9, "discontinuity-probe", ok)
