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
from .bezout import (
    BezoutVector, MuBasis, bezout_degree_search, is_minimal_bezout, is_mu_basis,
    minimal_bezout, mu_basis,
)
from .completion import Completion, minimal_completion, verify_completion
from .equivariance import canonical_shape_violations, section, section_and_canonical
from .frames import CurveRejection, FrameResult, moving_frame, validate_curve, verify_frame
from .io import (
    CurveDocument,
    DocumentError,
    ResultDocument,
    curve_to_dict,
    format_rational,
    parse_curve_dict,
)
from .poly import Polynomial, from_integers, integer_coefficients, integer_sum_of_products
from .svg import render_plot
from .sylvester import build_sylvester
from .vectors import (
    PolyMatrix, RegularityError, RegularVector, outer_product, outer_product_is_multiple,
    pivot_profile, require_regular,
)
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
    dimensions, re-checks each against the parsed input by a normal form
    (``sylvester`` alone rebuilds its result), and yields ``(check name, passed)``.
    """

    kind: str
    help: str
    compute: Callable[[CurveDocument, dict], tuple[dict, dict]]
    verify: Callable[[CurveDocument, dict], Checks]


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
    report = verify_frame(stored, tangent)
    yield "matrix_reproducible", report.reproducible
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
    yield "matrix_reproducible", report.reproducible and (
        stored.bezout_degree == report.minimal_degree - int(doc.vector.degree)
    )


def _bezout(doc: CurveDocument, options: dict) -> tuple[dict, dict]:
    require_regular(doc.vector)
    return vars(minimal_bezout(doc.vector)), {"pairing": "1"}


def _verify_bezout(doc: CurveDocument, fields: dict) -> Checks:
    stored = BezoutVector(**fields)
    if stored.vector.dim != doc.n:
        raise DocumentError("bezout vector does not match the curve dimension")
    degree, pivots = bezout_degree_search(doc.vector, stored.vector.degree)
    pairing = doc.vector.dot(stored.vector)
    yield "pairing_is_one", pairing == Polynomial.one()
    yield "degree_is_minimal", stored.vector.degree == degree
    yield "vector_reproducible", stored.degree == degree and is_minimal_bezout(
        stored.vector, degree, pivots, pairing
    )


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
    left, scale = integer_coefficients(doc.vector.components)
    cleared = [integer_coefficients(u.components) for u in elements]
    pairings = [
        from_integers(integer_sum_of_products(left, comps), scale * den)
        for comps, den in cleared
    ]
    syzygies = all(pairing.is_zero for pairing in pairings)
    yield "elements_are_syzygies", syzygies
    degrees = [u.degree for u in elements]
    yield "degrees_ascending", degrees == sorted(degrees)
    yield "degrees_sum_to_input", sum(degrees) == doc.vector.degree
    # Before the one-minor test, which needs a coprime v: a zero or
    # non-coprime input is refused here as mu_basis refuses it.
    reproducible = is_mu_basis(doc.vector, elements, pairings)
    if syzygies:
        proportional = outer_product_is_multiple(left, scale, cleared, stored.scale)
    else:
        # u . v != 0 = u . outer_product for a non-syzygy u, so no r != 0
        # fits, and r = 0 holds only if the product is zero.
        proportional = outer_product(elements) == doc.vector.scale(stored.scale)
    yield "outer_product_proportional", proportional
    # The elements are mu_basis's; proportionality then pins its scale.
    yield "basis_reproducible", reproducible and proportional


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
    v = require_regular(doc.vector)
    # g = section(v) when w = g^-1 . v has the canonical shape: section(w) = 1,
    # and by equivariance section(v) = g.  The action keeps v's pivot profile.
    yield "section_reproducible", stored.dim == v.dim and not canonical_shape_violations(
        RegularVector(stored.inverse().apply(v), v.profile)
    )


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
    v = require_regular(doc.vector)
    # Only a regular vector has a section.  Its one profile refuses a zero or
    # dependent vector before the regularity checks do, as the shape check
    # always has, and serves that check.
    w = require_regular(stored, profile=pivot_profile(stored))
    canonical = not canonical_shape_violations(w)
    # g is v's section when w = g^-1 . v has the canonical shape, as in
    # _verify_section; here w is stored, so g . w = v is what is checked.
    yield "vector_reproducible", canonical and g.dim == v.dim and g.apply(w) == v
    yield "shape_constraints_hold", canonical
    yield "section_is_identity", canonical


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
    # The structural checks read the stored pivot data, not the rebuilt.
    nonpivot = set(fields["nonpivot_cols"])
    periodic = all(j + system.n > system.ncols or j + system.n in nonpivot for j in nonpivot)
    yield "nonpivot_indices_periodic", periodic
    if doc.vector.is_coprime():
        yield "rank_is_full", len(fields["pivot_cols"]) == system.nrows
        yield "basic_nonpivot_count", len(fields["basic_nonpivot"]) == system.n - 1


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
        _sylvester, _verify_sylvester,
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


# Help of every subcommand, in ``--help`` order: the curve commands, then
# the two that read a stored result.
SUBCOMMANDS = {name: command.help for name, command in COMMANDS.items()} | {
    "verify": "re-check all invariants of a stored result",
    "plot": "SVG drawing of a curve with frame arrows",
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser; only ``command``'s subparser when it names one.

    ``main`` passes its first argument: a request runs one command, and the
    other eight subparsers would be most of a small request's fixed cost.
    Any other ``command`` (``None``, ``-h``, ``--help``, an unknown word)
    builds every subparser, as the top-level help and the ``invalid choice``
    and ``required: command`` errors list them all.  A one-subparser parser
    still prints the top-level usage on an ``unrecognized arguments`` error,
    so its subparsers metavar spells out every name.  The full parser leaves
    the metavar unset, since it would also rename ``argument command`` in
    the ``invalid choice`` error.
    """
    parser = argparse.ArgumentParser(
        prog="affine-frames",
        description="Minimal-degree moving frames for polynomial curves.",
    )
    names = [command] if command in SUBCOMMANDS else list(SUBCOMMANDS)
    metavar = "{%s}" % ",".join(SUBCOMMANDS) if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        cmd = sub.add_parser(name, help=SUBCOMMANDS[name])
        cmd.add_argument("--in", dest="infile", required=True, metavar="FILE")
        cmd.add_argument("--out", dest="outfile", metavar="FILE")
        if name == "sylvester":
            cmd.add_argument("--dump-pivots", action="store_true")
        if name == "plot":
            cmd.add_argument("--params", required=True, metavar="LIST")
            cmd.add_argument("--project", metavar="I,J")
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
    options = vars(build_parser(*argv[:1]).parse_args(argv))
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
    except (CommandRejection, DocumentError, RegularityError) as exc:
        _print_rejection(str(exc), getattr(exc, "details", ()))
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
