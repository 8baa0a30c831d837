"""Command-line interface.

Every command reads one JSON document via ``--in`` and writes either a
result document or (for ``plot``) an SVG drawing to ``--out`` or stdout.
Exit codes: 0 on success, 1 on internal error, 2 when the input is rejected
by parsing, schema, or a mathematical precondition.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable, Iterator

from . import io as docio
from .bezout import bezout_degree_search, minimal_bezout, mu_basis
from .completion import minimal_completion, verify_completion
from .equivariance import canonical_form, canonical_shape_violations, section
from .frames import CurveRejection, moving_frame, validate_curve
from .io import (
    CurveDocument,
    DocumentError,
    ResultDocument,
    curve_to_dict,
    dict_to_matrix,
    dict_to_vector,
    format_rational,
    group_to_dict,
    matrix_to_dict,
    parse_curve_dict,
    parse_rational,
    vector_to_dict,
)
from .poly import Polynomial
from .svg import render_plot
from .sylvester import build_sylvester
from .vectors import PolyMatrix, RegularityError, outer_product, require_regular
from .groups import GroupElement


class CommandRejection(Exception):
    """Input is structurally valid JSON but fails a precondition."""

    def __init__(self, message: str, details: tuple[str, ...] = ()):
        super().__init__(message)
        self.details = details


Checks = Iterator[tuple[str, bool]]


@dataclass(frozen=True)
class Command:
    """A command that reads a curve document and writes one result kind.

    ``compute(doc, options)`` returns the result's payload, without the
    embedded input, and its metadata.  ``verify(doc, payload)`` re-checks a
    stored payload against its parsed input and yields ``(check name,
    passed)``; it raises :class:`DocumentError` before any math when the
    payload is malformed.  ``flags`` are the command's own on/off switches.
    """

    kind: str
    help: str
    compute: Callable[[CurveDocument, dict], tuple[dict, dict]]
    verify: Callable[[CurveDocument, dict], Checks]
    flags: tuple[str, ...] = ()


def _stored_matrix(payload: dict, doc: CurveDocument, kind: str) -> PolyMatrix:
    """The payload's matrix, rejected unless it is n x n for the curve."""
    matrix = dict_to_matrix(payload.get("matrix"))
    if matrix.nrows != doc.n or matrix.ncols != doc.n:
        raise DocumentError(f"{kind} matrix does not match the curve dimension")
    return matrix


def _profile_dict(profile) -> dict:
    return {
        "indices": list(profile.indices),
        "k": profile.k,
        "det_vbar": format_rational(profile.det_vbar),
    }


def _frame(doc: CurveDocument, options: dict) -> tuple[dict, dict]:
    tangent = validate_curve(doc.vector)
    if isinstance(tangent, CurveRejection):
        raise CommandRejection("curve rejected", tangent.failures)
    result = moving_frame(tangent)
    payload = {
        "matrix": matrix_to_dict(result.matrix),
        "section": group_to_dict(result.section),
        "canonical_tangent": vector_to_dict(result.canonical_tangent),
        "bezout_degree": result.bezout_degree,
    }
    return payload, {
        "degree": int(result.matrix.degree),
        "determinant": "1",
        "tangent_degree": int(tangent.degree),
    }


def _verify_frame(doc: CurveDocument, payload: dict) -> Checks:
    tangent = validate_curve(doc.vector)
    yield "input_is_generic_curve", not isinstance(tangent, CurveRejection)
    if isinstance(tangent, CurveRejection):
        return
    stored = _stored_matrix(payload, doc, "frame")
    recomputed = moving_frame(tangent)
    yield "matrix_reproducible", stored == recomputed.matrix
    yield "first_column_is_tangent", stored.column(0) == tangent
    yield "determinant_is_one", stored.determinant() == Polynomial.one()
    minimal = int(tangent.degree) + bezout_degree_search(tangent)
    yield "degree_is_minimal", stored.degree == minimal


def _complete(doc: CurveDocument, options: dict) -> tuple[dict, dict]:
    require_regular(doc.vector)
    result = minimal_completion(doc.vector)
    payload = {
        "matrix": matrix_to_dict(result.matrix),
        "bezout_degree": result.bezout_degree,
    }
    return payload, {"degree": int(result.matrix.degree), "determinant": "1"}


def _verify_completion(doc: CurveDocument, payload: dict) -> Checks:
    stored = _stored_matrix(payload, doc, "completion")
    report = verify_completion(stored, doc.vector)
    yield "first_column_matches", report.first_column_matches
    yield "determinant_is_one", report.determinant_one
    yield "degree_is_minimal", report.minimal
    yield "matrix_reproducible", stored == minimal_completion(doc.vector).matrix


def _bezout(doc: CurveDocument, options: dict) -> tuple[dict, dict]:
    require_regular(doc.vector)
    result = minimal_bezout(doc.vector)
    payload = {"vector": vector_to_dict(result.vector), "degree": result.degree}
    return payload, {"pairing": "1"}


def _verify_bezout(doc: CurveDocument, payload: dict) -> Checks:
    stored = dict_to_vector(payload.get("vector"))
    if stored.dim != doc.n:
        raise DocumentError("bezout vector does not match the curve dimension")
    yield "pairing_is_one", doc.vector.dot(stored) == Polynomial.one()
    yield "degree_is_minimal", stored.degree == bezout_degree_search(doc.vector)
    yield "vector_reproducible", stored == minimal_bezout(doc.vector).vector


def _mubasis(doc: CurveDocument, options: dict) -> tuple[dict, dict]:
    require_regular(doc.vector)
    result = mu_basis(doc.vector)
    degrees = [int(u.degree) for u in result.elements]
    payload = {
        "elements": [vector_to_dict(u) for u in result.elements],
        "scale": format_rational(result.scale),
    }
    return payload, {"degrees": degrees, "degree_sum": sum(degrees)}


def _verify_mubasis(doc: CurveDocument, payload: dict) -> Checks:
    raw = payload.get("elements", [])
    if not isinstance(raw, list):
        raise DocumentError("mubasis elements must be a list")
    elements = [dict_to_vector(e) for e in raw]
    scale = parse_rational(payload.get("scale"))
    if len(elements) != doc.n - 1 or any(u.dim != doc.n for u in elements):
        raise DocumentError("mubasis elements do not match the curve dimension")
    yield "elements_are_syzygies", all(doc.vector.dot(u).is_zero for u in elements)
    degrees = [u.degree for u in elements]
    yield "degrees_ascending", degrees == sorted(degrees)
    yield "degrees_sum_to_input", sum(degrees) == doc.vector.degree
    yield (
        "outer_product_proportional",
        outer_product(elements) == doc.vector.scale(scale),
    )
    recomputed = mu_basis(doc.vector)
    yield (
        "basis_reproducible",
        tuple(elements) == recomputed.elements and scale == recomputed.scale,
    )


def _section(doc: CurveDocument, options: dict) -> tuple[dict, dict]:
    v = require_regular(doc.vector)
    g = section(v)
    payload = {
        "matrix": docio.rational_matrix_to_lists(g.matrix),
        "shift": format_rational(g.shift),
    }
    return payload, {"profile": _profile_dict(v.profile)}


def _verify_section(doc: CurveDocument, payload: dict) -> Checks:
    matrix = docio.lists_to_rational_matrix(payload.get("matrix"))
    shift = parse_rational(payload.get("shift"))
    try:
        stored = GroupElement(matrix, shift)
    except ValueError:
        yield "matrix_is_unimodular", False
        return
    yield "matrix_is_unimodular", True
    recomputed = section(doc.vector)
    yield (
        "section_reproducible",
        stored.matrix == recomputed.matrix and stored.shift == recomputed.shift,
    )


def _canonical(doc: CurveDocument, options: dict) -> tuple[dict, dict]:
    v = require_regular(doc.vector)
    g = section(v)
    reduced = g.inverse().apply(v)
    payload = {"vector": vector_to_dict(reduced), "section": group_to_dict(g)}
    # The group action keeps the pivot profile: the input's is the result's.
    return payload, {
        "degree": int(reduced.degree),
        "profile": _profile_dict(v.profile),
    }


def _verify_canonical(doc: CurveDocument, payload: dict) -> Checks:
    stored = dict_to_vector(payload.get("vector"))
    if stored.dim != doc.n:
        raise DocumentError("canonical vector does not match the curve dimension")
    yield "vector_reproducible", stored == canonical_form(doc.vector)
    yield "shape_constraints_hold", not canonical_shape_violations(stored)
    yield "section_is_identity", section(stored).is_identity()


def _sylvester(doc: CurveDocument, options: dict) -> tuple[dict, dict]:
    if doc.vector.is_zero:
        raise CommandRejection("zero vector has no Sylvester matrix")
    system = build_sylvester(doc.vector)
    payload = {
        "matrix": docio.rational_matrix_to_lists(system.matrix),
        "pivot_cols": list(system.pivot_cols),
        "nonpivot_cols": list(system.nonpivot_cols),
        "basic_nonpivot": list(system.basic_nonpivot),
    }
    if options.get("dump_pivots"):
        payload["reduced"] = docio.rational_matrix_to_lists(system.reduced)
    return payload, {
        "rows": system.nrows,
        "cols": system.ncols,
        "rank": system.rank,
    }


def _index_list(payload: dict, key: str) -> tuple[int, ...]:
    value = payload.get(key)
    if not isinstance(value, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        raise DocumentError(f"sylvester {key} must be a list of integers")
    return tuple(value)


def _verify_sylvester(doc: CurveDocument, payload: dict) -> Checks:
    pivot_cols, nonpivot_cols, basic_nonpivot = (
        _index_list(payload, key)
        for key in ("pivot_cols", "nonpivot_cols", "basic_nonpivot")
    )
    stored = docio.lists_to_rational_matrix(payload.get("matrix"))
    system = build_sylvester(doc.vector)
    yield "matrix_reproducible", stored == system.matrix
    yield (
        "pivots_reproducible",
        pivot_cols == system.pivot_cols
        and nonpivot_cols == system.nonpivot_cols
        and basic_nonpivot == system.basic_nonpivot,
    )
    nonpivot = set(system.nonpivot_cols)
    periodic = all(
        j + system.n > system.ncols or j + system.n in nonpivot
        for j in system.nonpivot_cols
    )
    yield "nonpivot_indices_periodic", periodic
    if doc.vector.gcd() == Polynomial.one():
        yield "rank_is_full", system.rank == system.nrows
        yield "basic_nonpivot_count", len(system.basic_nonpivot) == system.n - 1


# Every command that reads a curve, in ``--help`` order.  ``verify`` and
# ``plot`` read a stored result instead and are dispatched separately.
COMMANDS = {
    "frame": Command(
        "frame", "equivariant minimal-degree frame along a curve",
        _frame, _verify_frame,
    ),
    "complete": Command(
        "completion", "minimal completion of a vector to determinant one",
        _complete, _verify_completion,
    ),
    "bezout": Command(
        "bezout", "minimal-degree Bezout vector", _bezout, _verify_bezout
    ),
    "mubasis": Command(
        "mubasis", "degree-ordered syzygy basis", _mubasis, _verify_mubasis
    ),
    "section": Command(
        "section", "group section (matrix and shift) of a vector",
        _section, _verify_section,
    ),
    "canonical": Command(
        "canonical", "canonical orbit representative",
        _canonical, _verify_canonical,
    ),
    "sylvester": Command(
        "sylvester", "Sylvester-type matrix with pivot data",
        _sylvester, _verify_sylvester, flags=("--dump-pivots",),
    ),
}


def _verify(stored: ResultDocument) -> ResultDocument:
    command = next((c for c in COMMANDS.values() if c.kind == stored.kind), None)
    if command is None:
        raise DocumentError(f"cannot verify a document of kind {stored.kind!r}")
    doc = parse_curve_dict(stored.payload.get("input"))
    checks = [
        {"name": name, "passed": bool(passed)}
        for name, passed in command.verify(doc, stored.payload)
    ]
    return ResultDocument(
        kind="verify",
        payload={"input": stored.to_dict()},
        metadata={
            "checks": checks,
            "ok": all(c["passed"] for c in checks),
        },
    )


def _plot(stored: ResultDocument, params_text: str, project_text: str | None) -> str:
    if stored.kind != "frame":
        raise DocumentError("plot expects a frame result document")
    doc = parse_curve_dict(stored.payload.get("input"))
    frame = _stored_matrix(stored.payload, doc, "frame")
    params = docio.parse_param_list(params_text)
    if project_text is not None:
        axes = docio.parse_projection(project_text, doc.n)
    elif doc.n == 2:
        axes = (0, 1)
    else:
        raise DocumentError("--project is required when the dimension exceeds 2")
    return render_plot(doc.vector, frame, params, axes)


def run_command(command: str, document, **options):
    """Dispatch a parsed input document; returns a result or SVG text."""
    if command == "verify":
        return _verify(document)
    if command == "plot":
        return _plot(document, options.get("params"), options.get("project"))
    entry = COMMANDS.get(command)
    if entry is None:
        raise DocumentError(f"unknown command: {command}")
    payload, metadata = entry.compute(document, options)
    payload["input"] = curve_to_dict(document)
    return ResultDocument(kind=entry.kind, payload=payload, metadata=metadata)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affine-frames",
        description="Minimal-degree moving frames for polynomial curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--in", dest="infile", required=True, metavar="FILE")
        cmd.add_argument("--out", dest="outfile", metavar="FILE")
        return cmd

    for name, command in COMMANDS.items():
        cmd = add(name, command.help)
        for flag in command.flags:
            cmd.add_argument(flag, action="store_true")
    add("verify", "re-check all invariants of a stored result")
    plot = add("plot", "SVG drawing of a curve with frame arrows")
    plot.add_argument("--params", required=True, metavar="LIST")
    plot.add_argument("--project", metavar="I,J")
    return parser


def _emit(text: str, outfile: str | None) -> None:
    if outfile:
        try:
            with open(outfile, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise CommandRejection(f"cannot write output: {exc}") from exc
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    options = vars(build_parser().parse_args(argv))
    command = options.pop("command")
    infile, outfile = options.pop("infile"), options.pop("outfile")
    try:
        with open(infile, "r", encoding="utf-8") as handle:
            text = handle.read()
        if command in COMMANDS:
            document = docio.parse_curve(text)
        else:
            document = ResultDocument.from_json(text)
        result = run_command(command, document, **options)
        if command == "plot":
            _emit(result, outfile)
            return 0
        _emit(result.to_json(), outfile)
        return 0 if command != "verify" or result.metadata["ok"] else 2
    except CommandRejection as exc:
        _print_rejection(str(exc), exc.details)
        return 2
    except (DocumentError, RegularityError) as exc:
        _print_rejection(str(exc), ())
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        _print_rejection(f"cannot read input: {exc}", ())
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(
            json.dumps({"error": f"internal error: {exc}"}),
            file=sys.stderr,
        )
        return 1


def _print_rejection(message: str, details) -> None:
    body = {"error": message}
    if details:
        body["failures"] = list(details)
    print(json.dumps(body, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
