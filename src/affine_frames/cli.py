"""Command-line interface.

Every command reads one JSON document via ``--in`` and writes either a
result document or (for ``plot``) an SVG drawing to ``--out`` or stdout.
Exit codes: 0 on success, 1 on internal error, 2 when the input is rejected
by parsing, schema, or a mathematical precondition, or when the result holds
an integer too long to write.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable, Iterator

from . import io as docio
from .bezout import BezoutVector, MuBasis, bezout_degree_search, minimal_bezout, mu_basis
from .completion import Completion, minimal_completion, verify_completion
from .equivariance import canonical_shape_violations, section, section_and_canonical
from .frames import CurveRejection, FrameResult, moving_frame, validate_curve
from .io import (
    CurveDocument,
    DocumentError,
    ResultDocument,
    curve_to_dict,
    format_rational,
    parse_curve_dict,
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

    ``compute(doc, options)`` returns the result's fields, named as in
    :data:`io.PAYLOADS`, and its metadata.  ``verify(doc, fields)`` gets
    every stored payload field, read by that table before any math, so a
    malformed payload is refused whatever the input; it checks the fields'
    dimensions, re-checks each against the parsed input and yields
    ``(check name, passed)``.  ``flags`` are the command's own on/off
    switches.
    """

    kind: str
    help: str
    compute: Callable[[CurveDocument, dict], tuple[dict, dict]]
    verify: Callable[[CurveDocument, dict], Checks]
    flags: tuple[str, ...] = ()


def _require_n_by_n(matrix: PolyMatrix, doc: CurveDocument, kind: str) -> None:
    if matrix.nrows != doc.n or matrix.ncols != doc.n:
        raise DocumentError(f"{kind} matrix does not match the curve dimension")


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
    return vars(result), {
        "degree": int(result.matrix.degree),
        "determinant": "1",
        "tangent_degree": int(tangent.degree),
    }


def _verify_frame(doc: CurveDocument, fields: dict) -> Checks:
    tangent = validate_curve(doc.vector)
    yield "input_is_generic_curve", not isinstance(tangent, CurveRejection)
    if isinstance(tangent, CurveRejection):
        return
    stored = FrameResult(**fields)
    _require_n_by_n(stored.matrix, doc, "frame")
    yield "matrix_reproducible", stored == moving_frame(tangent)
    report = verify_completion(stored.matrix, tangent)
    yield "first_column_is_tangent", report.first_column_matches
    yield "determinant_is_one", report.determinant_one
    yield "degree_is_minimal", report.minimal


def _complete(doc: CurveDocument, options: dict) -> tuple[dict, dict]:
    require_regular(doc.vector)
    result = minimal_completion(doc.vector)
    return vars(result), {"degree": int(result.matrix.degree), "determinant": "1"}


def _verify_completion(doc: CurveDocument, fields: dict) -> Checks:
    stored = Completion(**fields)
    _require_n_by_n(stored.matrix, doc, "completion")
    report = verify_completion(stored.matrix, doc.vector)
    yield "first_column_matches", report.first_column_matches
    yield "determinant_is_one", report.determinant_one
    yield "degree_is_minimal", report.minimal
    yield "matrix_reproducible", stored == minimal_completion(doc.vector)


def _bezout(doc: CurveDocument, options: dict) -> tuple[dict, dict]:
    require_regular(doc.vector)
    return vars(minimal_bezout(doc.vector)), {"pairing": "1"}


def _verify_bezout(doc: CurveDocument, fields: dict) -> Checks:
    stored = BezoutVector(**fields)
    if stored.vector.dim != doc.n:
        raise DocumentError("bezout vector does not match the curve dimension")
    yield "pairing_is_one", doc.vector.dot(stored.vector) == Polynomial.one()
    yield "degree_is_minimal", stored.vector.degree == bezout_degree_search(doc.vector)
    yield "vector_reproducible", stored == minimal_bezout(doc.vector)


def _mubasis(doc: CurveDocument, options: dict) -> tuple[dict, dict]:
    require_regular(doc.vector)
    result = mu_basis(doc.vector)
    degrees = [int(u.degree) for u in result.elements]
    return vars(result), {"degrees": degrees, "degree_sum": sum(degrees)}


def _verify_mubasis(doc: CurveDocument, fields: dict) -> Checks:
    stored = MuBasis(**fields)
    elements = stored.elements
    if len(elements) != doc.n - 1 or any(u.dim != doc.n for u in elements):
        raise DocumentError("mubasis elements do not match the curve dimension")
    yield "elements_are_syzygies", all(doc.vector.dot(u).is_zero for u in elements)
    degrees = [u.degree for u in elements]
    yield "degrees_ascending", degrees == sorted(degrees)
    yield "degrees_sum_to_input", sum(degrees) == doc.vector.degree
    yield (
        "outer_product_proportional",
        outer_product(elements) == doc.vector.scale(stored.scale),
    )
    yield "basis_reproducible", stored == mu_basis(doc.vector)


def _section(doc: CurveDocument, options: dict) -> tuple[dict, dict]:
    v = require_regular(doc.vector)
    return vars(section(v)), {"profile": _profile_dict(v.profile)}


def _verify_section(doc: CurveDocument, fields: dict) -> Checks:
    try:
        stored = GroupElement(**fields)
    except ValueError:
        yield "matrix_is_unimodular", False
        return
    yield "matrix_is_unimodular", True
    yield "section_reproducible", stored == section(doc.vector)


def _canonical(doc: CurveDocument, options: dict) -> tuple[dict, dict]:
    v = require_regular(doc.vector)
    g, reduced = section_and_canonical(v)
    # The group action keeps the pivot profile: the input's is the result's.
    return dict(zip(docio.PAYLOADS["canonical"], (g, reduced))), {
        "degree": int(reduced.degree),
        "profile": _profile_dict(v.profile),
    }


def _verify_canonical(doc: CurveDocument, fields: dict) -> Checks:
    g, stored = fields.values()  # in table order, as section_and_canonical returns
    if stored.dim != doc.n:
        raise DocumentError("canonical vector does not match the curve dimension")
    yield "vector_reproducible", (g, stored) == section_and_canonical(doc.vector)
    yield "shape_constraints_hold", not canonical_shape_violations(stored)
    yield "section_is_identity", section(stored).is_identity()


def _sylvester(doc: CurveDocument, options: dict) -> tuple[dict, dict]:
    system = build_sylvester(doc.vector)
    fields = {
        name: getattr(system, name)
        for name in docio.PAYLOADS["sylvester"]
        if options.get("dump_pivots") or ("sylvester", name) not in docio.OPTIONAL
    }
    return fields, {"rows": system.nrows, "cols": system.ncols, "rank": system.rank}


def _verify_sylvester(doc: CurveDocument, fields: dict) -> Checks:
    system = build_sylvester(doc.vector)
    # Each stored field against the system's attribute; the matrix is first.
    matrix, *pivots = (value == getattr(system, name) for name, value in fields.items())
    yield "matrix_reproducible", matrix
    yield "pivots_reproducible", all(pivots)
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
    fields = docio.read_payload(stored.kind, stored.payload)
    checks = [
        {"name": name, "passed": bool(passed)}
        for name, passed in command.verify(doc, fields)
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
    frame = docio.read_field("frame", stored.payload, "matrix")
    _require_n_by_n(frame, doc, "frame")
    params = docio.parse_param_list(params_text)
    if project_text is not None:
        axes = docio.parse_projection(project_text, doc.n)
    elif doc.n == 2:
        axes = (0, 1)
    else:
        raise DocumentError("--project is required when the dimension exceeds 2")
    try:
        return render_plot(doc.vector, frame, params, axes)
    except ValueError as exc:
        raise CommandRejection(str(exc)) from exc


def run_command(command: str, document, **options):
    """Dispatch a parsed input document; returns a result or SVG text."""
    if command == "verify":
        return _verify(document)
    if command == "plot":
        return _plot(document, options.get("params"), options.get("project"))
    entry = COMMANDS.get(command)
    if entry is None:
        raise DocumentError(f"unknown command: {command}")
    fields, metadata = entry.compute(document, options)
    payload = docio.write_payload(entry.kind, fields)
    payload["input"] = curve_to_dict(document)
    return ResultDocument(kind=entry.kind, payload=payload, metadata=metadata)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affine-frames",
        description="Minimal-degree moving frames for polynomial curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # -h, --in and --out of every command, declared once; -h as argparse
    # declares it, since the subparsers are made without their own.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "-h", "--help", action="help", default=argparse.SUPPRESS,
        help="show this help message and exit",
    )
    common.add_argument("--in", dest="infile", required=True, metavar="FILE")
    common.add_argument("--out", dest="outfile", metavar="FILE")

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help_text, parents=[common], add_help=False)

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
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--params" in argv[:-1]:  # one token, so a leading "-" reads as a value
        i = argv.index("--params")
        argv[i:i + 2] = ["=".join(argv[i:i + 2])]
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
