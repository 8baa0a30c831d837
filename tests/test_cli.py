"""End-to-end command-line runs via main()."""

import copy
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from affine_frames import cli, completion, equivariance, frames, groups, ratlin, vectors
from affine_frames.cli import main
from affine_frames.io import PAYLOADS, format_rational, parse_curve_dict

QUINTIC = {
    "n": 3,
    "coeffs": [
        ["0", "1", "0", "2/3", "1/4", "1/5"],
        ["0", "2", "0", "1", "1/4", "2/5"],
        ["0", "3", "5/2", "4/3", "1/4", "3/5"],
    ],
    "label": "quintic",
}

SEXTIC = {
    "n": 3,
    "coeffs": [["1", "0", "0", "0", "0", "0", "1"], ["0", "0", "0", "1"], ["0", "1"]],
}

QUARTIC = {
    "n": 3,
    "coeffs": [
        ["1", "0", "2", "1", "1"],
        ["2", "0", "3", "1", "2"],
        ["3", "5", "4", "1", "3"],
    ],
}

PLANAR = {"n": 2, "coeffs": [["0", "1"], ["0", "0", "0", "1"]]}

# A cubic in dimension 3: not generic, since its degree does not exceed n.
LOW_DEGREE = {"n": 3, "coeffs": [["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1"]]}

# The README's `plot --params 0,1,-1/2 --project 0,1` SVG of the quintic's frame.
QUINTIC_PLOT_SHA256 = "fb25cc85ffe33f6c69df9e83dab5451102f834a307ddd99ff7e1915d75a77e7b"


def write(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run(tmp_path, capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_frame_golden(tmp_path, capsys):
    infile = write(tmp_path / "curve.json", QUINTIC)
    outfile = tmp_path / "frame.json"
    code, out, err = run(
        tmp_path, capsys, ["frame", "--in", infile, "--out", str(outfile)]
    )
    assert code == 0, err
    doc = json.loads(outfile.read_text(encoding="utf-8"))
    assert doc["kind"] == "frame"
    entries = doc["payload"]["matrix"]["entries"]
    assert entries[0][0] == ["1", "0", "2", "1", "1"]
    assert entries[0][2] == ["0", "16/27"]
    assert entries[1][1] == ["27/40"]
    assert entries[2][1] == ["243/80"]
    assert entries[2][2] == ["-113/27", "-65/9"]
    assert doc["payload"]["section"]["shift"] == "1/3"
    assert doc["payload"]["bezout_degree"] == 1
    assert doc["metadata"]["degree"] == 5
    assert doc["metadata"]["determinant"] == "1"
    assert doc["payload"]["input"]["label"] == "quintic"


def test_frame_checks_the_tangent_once(tmp_path, capsys, monkeypatch):
    """One gcd and one pivot profile of the tangent, and no rank."""
    calls = {"poly_gcd": 0, "pivot_profile": 0, "rank": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    gcd = counting("poly_gcd", vectors.poly_gcd)
    monkeypatch.setattr(vectors, "poly_gcd", gcd)
    profile = counting("pivot_profile", equivariance.pivot_profile)
    for module in (vectors, frames, equivariance, cli):
        if hasattr(module, "pivot_profile"):
            monkeypatch.setattr(module, "pivot_profile", profile)
    monkeypatch.setattr(ratlin, "rank", counting("rank", ratlin.rank))
    infile = write(tmp_path / "curve.json", QUINTIC)
    code, out, err = run(tmp_path, capsys, ["frame", "--in", infile])
    assert code == 0, err
    assert calls == {"poly_gcd": 2, "pivot_profile": 1, "rank": 0}


def test_frame_deterministic(tmp_path, capsys):
    infile = write(tmp_path / "curve.json", QUINTIC)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["frame", "--in", infile, "--out", str(out1)]) == 0
    assert main(["frame", "--in", infile, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_frame_to_stdout(tmp_path, capsys):
    infile = write(tmp_path / "curve.json", QUINTIC)
    code, out, err = run(tmp_path, capsys, ["frame", "--in", infile])
    assert code == 0
    assert json.loads(out)["kind"] == "frame"


def test_frame_rejects_low_degree(tmp_path, capsys):
    infile = write(tmp_path / "cubic.json", LOW_DEGREE)
    code, out, err = run(tmp_path, capsys, ["frame", "--in", infile])
    assert code == 2
    body = json.loads(err)
    assert body["error"] == "curve rejected"
    assert body["failures"] == ["degree does not exceed the dimension"]


def test_rejects_decimal_coefficient(tmp_path, capsys):
    infile = write(
        tmp_path / "bad.json", {"n": 2, "coeffs": [["1.5"], ["0", "1"]]}
    )
    code, out, err = run(tmp_path, capsys, ["frame", "--in", infile])
    assert code == 2
    assert "not an exact rational" in json.loads(err)["error"]


def test_missing_input_file(tmp_path, capsys):
    code, out, err = run(
        tmp_path, capsys, ["frame", "--in", str(tmp_path / "absent.json")]
    )
    assert code == 2
    assert "cannot read input" in json.loads(err)["error"]


def test_rejects_non_utf8_input(tmp_path, capsys):
    infile = tmp_path / "curve.json"
    infile.write_bytes(b'{"n": 2, "coeffs": [["\xff"], ["1"]]}')
    for argv in (["frame", "--in", str(infile)], ["verify", "--in", str(infile)]):
        code, out, err = run(tmp_path, capsys, argv)
        assert code == 2
        assert out == ""
        assert "cannot read input" in json.loads(err)["error"]


def test_unwritable_output_is_a_write_error(tmp_path, capsys):
    infile = write(tmp_path / "curve.json", QUINTIC)
    frame_path = tmp_path / "frame.json"
    assert main(["frame", "--in", infile, "--out", str(frame_path)]) == 0
    capsys.readouterr()
    missing = str(tmp_path / "missing" / "dir" / "out")
    for argv in (
        ["frame", "--in", infile, "--out", missing],
        ["plot", "--in", str(frame_path), "--params", "0", "--project", "0,1",
         "--out", missing],
    ):
        code, out, err = run(tmp_path, capsys, argv)
        assert code == 2
        assert out == ""
        message = json.loads(err)["error"]
        assert message.startswith("cannot write output: ")
        assert missing in message


_DIGITS = "1" * 5001  # over the interpreter's 4300-digit int-string limit


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 2, "coeffs": [["0", "%s"], ["0", "0", "1"]]}' % _DIGITS,
        '{"n": 2, "coeffs": [["0", "1/%s"], ["0", "0", "1"]]}' % _DIGITS,
        '{"n": %s, "coeffs": [["0", "1"], ["0", "0", "1"]]}' % _DIGITS,
    ],
    ids=["numerator", "denominator", "json-n"],
)
def test_oversize_integers_are_rejected(tmp_path, capsys, text):
    infile = tmp_path / "curve.json"
    infile.write_text(text, encoding="utf-8")
    code, out, err = run(tmp_path, capsys, ["frame", "--in", str(infile)])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "error" in json.loads(err)


def test_oversize_projection_axis_is_rejected(tmp_path, capsys):
    infile = write(tmp_path / "curve.json", QUINTIC)
    frame = str(tmp_path / "frame.json")
    assert main(["frame", "--in", infile, "--out", frame]) == 0
    code, out, err = run(
        tmp_path, capsys,
        ["plot", "--in", frame, "--params", "0", "--project", f"0,{_DIGITS}"],
    )
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "projection axes must be distinct and in range"}


@pytest.mark.parametrize("command", ["bezout", "complete"])
def test_result_beyond_the_digit_limit_is_rejected(tmp_path, capsys, command):
    # v = (1 + c t, t^2) has the Bezout vector (1 - c t, c^2): c has 2200
    # digits, so the input parses and c^2 is past the 4300-digit limit.
    c = "7" * 2200
    infile = write(tmp_path / "vec.json", {"n": 2, "coeffs": [["1", c], ["0", "0", "1"]]})
    outfile = tmp_path / "out.json"
    code, out, err = run(
        tmp_path, capsys, [command, "--in", infile, "--out", str(outfile)]
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"].startswith("result too long to write")
    assert not outfile.exists()


def test_complete_golden(tmp_path, capsys):
    infile = write(tmp_path / "vec.json", SEXTIC)
    code, out, err = run(tmp_path, capsys, ["complete", "--in", infile])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "completion"
    assert doc["metadata"]["degree"] == 9
    assert doc["payload"]["bezout_degree"] == 3
    assert doc["payload"]["matrix"]["entries"][2][1] == ["1"]


def test_bezout_golden(tmp_path, capsys):
    infile = write(tmp_path / "vec.json", SEXTIC)
    code, out, err = run(tmp_path, capsys, ["bezout", "--in", infile])
    assert code == 0
    doc = json.loads(out)
    # the zero component serializes as an empty coefficient list
    assert doc["payload"]["vector"]["coeffs"] == [
        ["1"], ["0", "0", "0", "-1"], []
    ]
    assert doc["payload"]["degree"] == 3


def test_mubasis_golden(tmp_path, capsys):
    infile = write(tmp_path / "vec.json", SEXTIC)
    code, out, err = run(tmp_path, capsys, ["mubasis", "--in", infile])
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["degrees"] == [2, 4]
    assert doc["metadata"]["degree_sum"] == 6
    assert doc["payload"]["scale"] == "-1"
    assert doc["payload"]["elements"][0]["coeffs"] == [[], ["-1"], ["0", "0", "1"]]


def test_section_golden(tmp_path, capsys):
    infile = write(tmp_path / "vec.json", QUARTIC)
    code, out, err = run(tmp_path, capsys, ["section", "--in", infile])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["shift"] == "1/3"
    assert doc["payload"]["matrix"] == [
        ["-31/27", "-1/3", "1/5"],
        ["-53/27", "-5/3", "2/5"],
        ["20/9", "-3", "3/5"],
    ]
    assert doc["metadata"]["profile"] == {
        "indices": [1, 3, 4],
        "k": 2,
        "det_vbar": "5",
    }


def test_canonical_golden(tmp_path, capsys):
    infile = write(tmp_path / "vec.json", QUARTIC)
    code, out, err = run(tmp_path, capsys, ["canonical", "--in", infile])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["vector"]["coeffs"] == [
        ["-1/3", "1"],
        ["-1/27", "0", "0", "1"],
        ["325/81", "0", "25/3", "0", "5"],
    ]
    assert doc["metadata"]["degree"] == 4
    assert doc["metadata"]["profile"] == {
        "indices": [1, 3, 4], "k": 2, "det_vbar": "5"
    }


def test_sylvester_dump(tmp_path, capsys):
    infile = write(
        tmp_path / "vec.json",
        {
            "n": 3,
            "coeffs": [
                ["2", "1", "0", "0", "1"],
                ["3", "0", "1", "0", "1"],
                ["6", "0", "0", "2", "1"],
            ],
        },
    )
    code, out, err = run(
        tmp_path, capsys, ["sylvester", "--in", infile, "--dump-pivots"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"] == {"rows": 9, "cols": 15, "rank": 9}
    assert doc["payload"]["pivot_cols"] == [1, 2, 3, 4, 5, 6, 7, 10, 13]
    assert doc["payload"]["basic_nonpivot"] == [8, 9]
    assert doc["payload"]["matrix"][0] == [
        "2", "3", "6", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0"
    ]
    assert "reduced" in doc["payload"]
    code, out, err = run(tmp_path, capsys, ["sylvester", "--in", infile])
    assert "reduced" not in json.loads(out)["payload"]


@pytest.mark.parametrize(
    "command", ["frame", "complete", "bezout", "mubasis", "section", "canonical"]
)
def test_verify_accepts_every_result(tmp_path, capsys, command):
    source = QUINTIC if command == "frame" else QUARTIC
    infile = write(tmp_path / "in.json", source)
    result_path = tmp_path / "result.json"
    assert main([command, "--in", infile, "--out", str(result_path)]) == 0
    capsys.readouterr()
    code, out, err = run(
        tmp_path, capsys, ["verify", "--in", str(result_path)]
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["kind"] == "verify"
    assert doc["metadata"]["ok"] is True
    assert all(c["passed"] for c in doc["metadata"]["checks"])


def test_verify_sylvester_result(tmp_path, capsys):
    infile = write(tmp_path / "vec.json", SEXTIC)
    result_path = tmp_path / "syl.json"
    assert main(["sylvester", "--in", infile, "--out", str(result_path)]) == 0
    capsys.readouterr()
    code, out, err = run(tmp_path, capsys, ["verify", "--in", str(result_path)])
    assert code == 0
    names = [c["name"] for c in json.loads(out)["metadata"]["checks"]]
    assert "rank_is_full" in names
    assert "nonpivot_indices_periodic" in names


def test_sylvester_of_the_zero_vector_is_rejected(tmp_path, capsys):
    """Computing and verifying refuse a zero vector with one message, the
    one `build_sylvester` raises."""
    zero = write(tmp_path / "zero.json", {"n": 3, "coeffs": [["0"], ["0"], ["0"]]})
    code, out, err = run(tmp_path, capsys, ["sylvester", "--in", zero])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "vector is zero"}
    result_path = tmp_path / "syl.json"
    assert main(["sylvester", "--in", write(tmp_path / "in.json", QUARTIC),
                 "--out", str(result_path)]) == 0
    doc = json.loads(result_path.read_text(encoding="utf-8"))
    _zero_input(doc)
    write(result_path, doc)
    capsys.readouterr()
    code, out, err = run(tmp_path, capsys, ["verify", "--in", str(result_path)])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "vector is zero"}


def test_verify_detects_tampering(tmp_path, capsys):
    infile = write(tmp_path / "vec.json", QUARTIC)
    result_path = tmp_path / "section.json"
    assert main(["section", "--in", infile, "--out", str(result_path)]) == 0
    capsys.readouterr()
    doc = json.loads(result_path.read_text(encoding="utf-8"))
    doc["payload"]["shift"] = "2/3"
    result_path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(tmp_path, capsys, ["verify", "--in", str(result_path)])
    assert code == 2
    verdict = json.loads(out)
    assert verdict["metadata"]["ok"] is False
    failed = [c["name"] for c in verdict["metadata"]["checks"] if not c["passed"]]
    assert failed == ["section_reproducible"]


def test_verify_rejects_unknown_kind(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"kind": "verify", "payload": {}, "metadata": {}}),
        encoding="utf-8",
    )
    code, out, err = run(tmp_path, capsys, ["verify", "--in", str(bad)])
    assert code == 2
    assert "cannot verify" in json.loads(err)["error"]


def test_plot_three_dimensional(tmp_path, capsys):
    infile = write(tmp_path / "curve.json", QUINTIC)
    frame_path = tmp_path / "frame.json"
    assert main(["frame", "--in", infile, "--out", str(frame_path)]) == 0
    capsys.readouterr()
    svg_path = tmp_path / "plot.svg"
    code, out, err = run(
        tmp_path,
        capsys,
        [
            "plot",
            "--in", str(frame_path),
            "--params", "0,1,-1/2",
            "--project", "0,1",
            "--out", str(svg_path),
        ],
    )
    assert code == 0, err
    text = svg_path.read_text(encoding="utf-8")
    assert text.startswith("<svg ")
    assert text.count("<line ") == 9  # three columns at three parameters
    assert text.count("<polyline ") == 1
    assert "frame-col-2" in text
    assert hashlib.sha256(svg_path.read_bytes()).hexdigest() == QUINTIC_PLOT_SHA256
    # floats only appear in the drawing; rerunning is byte-identical
    svg2 = tmp_path / "plot2.svg"
    assert main(
        [
            "plot",
            "--in", str(frame_path),
            "--params", "0,1,-1/2",
            "--project", "0,1",
            "--out", str(svg2),
        ]
    ) == 0
    capsys.readouterr()
    assert svg2.read_bytes() == svg_path.read_bytes()


@pytest.mark.parametrize(
    "curve, params",
    [
        # a 324-digit coefficient: sampled values overflow a float
        ({"n": 2, "coeffs": [["0", "1" + "0" * 323, "0", "1"], ["0", "0", "1"]]},
         "0"),
        # a 400-digit parameter: its base point overflows a float
        (QUINTIC, "1" + "0" * 399),
        # every value finite, but the extent from -1.5e308 to 1.5e308 is not
        ({"n": 2, "coeffs": [["0", "15" + "0" * 307, "0", "1"], ["0", "0", "1"]]},
         "0"),
    ],
    ids=["huge-coefficient", "huge-parameter", "extent-overflow"],
)
def test_plot_refuses_a_drawing_beyond_floats(tmp_path, capsys, curve, params):
    infile = write(tmp_path / "curve.json", curve)
    frame_path = tmp_path / "frame.json"
    assert main(["frame", "--in", infile, "--out", str(frame_path)]) == 0
    capsys.readouterr()
    code, out, err = run(
        tmp_path,
        capsys,
        ["plot", "--in", str(frame_path), "--params", params, "--project", "0,1"],
    )
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": "drawing is not finite: a coordinate or its extent exceeds "
        "the float range"
    }


def test_plot_params_may_start_with_a_negative_value(tmp_path, capsys):
    """``--params -1/2,0`` is a value, drawn as ``--params=-1/2,0`` is."""
    infile = write(tmp_path / "curve.json", QUINTIC)
    frame_path = tmp_path / "frame.json"
    assert main(["frame", "--in", infile, "--out", str(frame_path)]) == 0
    capsys.readouterr()
    svgs = set()
    for argv in (
        ["--params=-1/2,0", "--project", "0,1"],
        ["--params", "-1/2,0", "--project", "0,1"],
        ["--project", "0,1", "--params", "-1/2,0"],
    ):
        code, out, err = run(tmp_path, capsys, ["plot", "--in", str(frame_path), *argv])
        assert code == 0, err
        assert out.startswith("<svg ")
        svgs.add(out)
    assert len(svgs) == 1


@pytest.mark.parametrize("command, curve", [("frame", QUINTIC), ("complete", QUARTIC)])
def test_determinant_only_in_verify(tmp_path, capsys, monkeypatch, command, curve):
    """A result is built without a determinant; its verify takes exactly one."""
    calls = []
    original = vectors.PolyMatrix.determinant

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(vectors.PolyMatrix, "determinant", counting)
    infile = write(tmp_path / "curve.json", curve)
    result = tmp_path / "result.json"
    assert main([command, "--in", infile, "--out", str(result)]) == 0
    assert len(calls) == 0
    code, out, err = run(tmp_path, capsys, ["verify", "--in", str(result)])
    assert code == 0, err
    assert json.loads(out)["metadata"]["ok"] is True
    assert len(calls) == 1


def test_frame_inverts_one_matrix(tmp_path, capsys, monkeypatch):
    """The section and the canonical tangent come from one pass."""
    calls = {"ratlin": 0, "group": 0}
    ratlin_inverse, group_inverse = ratlin.inverse, groups.GroupElement.inverse

    def counting_ratlin(rows):
        calls["ratlin"] += 1
        return ratlin_inverse(rows)

    def counting_group(self):
        calls["group"] += 1
        return group_inverse(self)

    monkeypatch.setattr(ratlin, "inverse", counting_ratlin)
    monkeypatch.setattr(groups.GroupElement, "inverse", counting_group)
    infile = write(tmp_path / "curve.json", QUINTIC)
    assert main(["frame", "--in", infile, "--out", str(tmp_path / "frame.json")]) == 0
    assert calls == {"ratlin": 1, "group": 0}


def test_section_skips_the_canonical_vector(tmp_path, capsys, monkeypatch):
    """`section` and its verify shift the vector once each and invert nothing."""
    calls = {"inverse": 0, "shift": 0}
    inverse, shift = ratlin.inverse, vectors.PolyVector.shift

    def counting_inverse(rows):
        calls["inverse"] += 1
        return inverse(rows)

    def counting_shift(self, s):
        calls["shift"] += 1
        return shift(self, s)

    monkeypatch.setattr(ratlin, "inverse", counting_inverse)
    monkeypatch.setattr(vectors.PolyVector, "shift", counting_shift)
    infile = write(tmp_path / "vec.json", QUARTIC)
    outfile = str(tmp_path / "section.json")
    assert main(["section", "--in", infile, "--out", outfile]) == 0
    assert calls == {"inverse": 0, "shift": 1}
    assert main(["verify", "--in", outfile]) == 0
    assert json.loads(capsys.readouterr().out)["metadata"]["ok"] is True
    assert calls == {"inverse": 0, "shift": 2}


def _bump(value: str) -> str:
    return format_rational(Fraction(value) + 1)


def _bump_shift(doc):
    section = doc["payload"]["section"]
    section["shift"] = _bump(section["shift"])


def _bump_canonical_tangent(doc):
    row = doc["payload"]["canonical_tangent"]["coeffs"][0]
    row[0] = _bump(row[0])


def _bump_int(key):
    def damage(doc):
        doc["payload"][key] += 1

    return damage


def _bump_reduced(doc):
    row = doc["payload"]["reduced"][0]
    row[0] = _bump(row[0])


@pytest.mark.parametrize(
    "argv, source, damage, check",
    [
        (["frame"], QUINTIC, _bump_shift, "matrix_reproducible"),
        (["frame"], QUINTIC, _bump_canonical_tangent, "matrix_reproducible"),
        (["frame"], QUINTIC, _bump_int("bezout_degree"), "matrix_reproducible"),
        (["canonical"], QUARTIC, _bump_shift, "vector_reproducible"),
        (["complete"], QUARTIC, _bump_int("bezout_degree"), "matrix_reproducible"),
        (["bezout"], QUARTIC, _bump_int("degree"), "vector_reproducible"),
        (["sylvester", "--dump-pivots"], SEXTIC, _bump_reduced, "pivots_reproducible"),
    ],
    ids=[
        "frame-section", "frame-canonical_tangent", "frame-bezout_degree",
        "canonical-section", "completion-bezout_degree", "bezout-degree",
        "sylvester-reduced",
    ],
)
def test_verify_checks_every_stored_field(tmp_path, capsys, argv, source, damage, check):
    """A changed field fails its kind's reproducibility check and nothing else."""
    infile = write(tmp_path / "in.json", source)
    result_path = tmp_path / "result.json"
    assert main([*argv, "--in", infile, "--out", str(result_path)]) == 0
    doc = json.loads(result_path.read_text(encoding="utf-8"))
    damage(doc)
    write(result_path, doc)
    capsys.readouterr()
    code, out, err = run(tmp_path, capsys, ["verify", "--in", str(result_path)])
    assert code == 2, err
    failed = [c["name"] for c in json.loads(out)["metadata"]["checks"] if not c["passed"]]
    assert failed == [check]


def test_verify_frame_with_a_doubled_column(tmp_path, capsys, monkeypatch):
    """A determinant of two fails both checks; the degree oracle is not asked."""
    asked = []
    monkeypatch.setattr(completion, "bezout_degree_search", asked.append)
    infile = write(tmp_path / "in.json", QUINTIC)
    result_path = tmp_path / "frame.json"
    assert main(["frame", "--in", infile, "--out", str(result_path)]) == 0
    doc = json.loads(result_path.read_text(encoding="utf-8"))
    for row in doc["payload"]["matrix"]["entries"]:
        row[1] = [format_rational(2 * Fraction(c)) for c in row[1]]
    write(result_path, doc)
    capsys.readouterr()
    code, out, err = run(tmp_path, capsys, ["verify", "--in", str(result_path)])
    assert code == 2, err
    checks = [(c["name"], c["passed"]) for c in json.loads(out)["metadata"]["checks"]]
    assert checks == [
        ("input_is_generic_curve", True),
        ("matrix_reproducible", False),
        ("first_column_is_tangent", True),
        ("determinant_is_one", False),
        ("degree_is_minimal", False),
    ]
    assert asked == []


def test_plot_planar_defaults_axes(tmp_path, capsys):
    infile = write(tmp_path / "curve.json", PLANAR)
    frame_path = tmp_path / "frame.json"
    assert main(["frame", "--in", infile, "--out", str(frame_path)]) == 0
    capsys.readouterr()
    code, out, err = run(
        tmp_path, capsys, ["plot", "--in", str(frame_path), "--params", "0,2"]
    )
    assert code == 0, err
    assert out.count("<line ") == 4  # two columns at two parameters


def test_plot_requires_projection_in_higher_dimension(tmp_path, capsys):
    infile = write(tmp_path / "curve.json", QUINTIC)
    frame_path = tmp_path / "frame.json"
    assert main(["frame", "--in", infile, "--out", str(frame_path)]) == 0
    capsys.readouterr()
    code, out, err = run(
        tmp_path, capsys, ["plot", "--in", str(frame_path), "--params", "0"]
    )
    assert code == 2
    assert "--project is required" in json.loads(err)["error"]


def test_plot_rejects_non_frame_document(tmp_path, capsys):
    infile = write(tmp_path / "vec.json", SEXTIC)
    result_path = tmp_path / "bezout.json"
    assert main(["bezout", "--in", infile, "--out", str(result_path)]) == 0
    capsys.readouterr()
    code, out, err = run(
        tmp_path,
        capsys,
        ["plot", "--in", str(result_path), "--params", "0", "--project", "0,1"],
    )
    assert code == 2
    assert "plot expects a frame result" in json.loads(err)["error"]


def test_plot_rejects_non_string_kind(tmp_path, capsys):
    infile = write(tmp_path / "curve.json", QUINTIC)
    frame_path = tmp_path / "frame.json"
    assert main(["frame", "--in", infile, "--out", str(frame_path)]) == 0
    doc = json.loads(frame_path.read_text(encoding="utf-8"))
    doc["kind"] = ["frame"]
    write(frame_path, doc)
    capsys.readouterr()
    code, out, err = run(
        tmp_path,
        capsys,
        ["plot", "--in", str(frame_path), "--params", "0", "--project", "0,1"],
    )
    assert code == 2
    assert out == ""
    assert "unknown result kind" in json.loads(err)["error"]


def test_plot_rejects_bad_axes(tmp_path, capsys):
    infile = write(tmp_path / "curve.json", QUINTIC)
    frame_path = tmp_path / "frame.json"
    assert main(["frame", "--in", infile, "--out", str(frame_path)]) == 0
    capsys.readouterr()
    code, out, err = run(
        tmp_path,
        capsys,
        ["plot", "--in", str(frame_path), "--params", "0", "--project", "0,7"],
    )
    assert code == 2
    assert "axes" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "command, source, options",
    [
        ("frame", QUINTIC, {}),
        *((command, QUARTIC, {}) for command in
          ("complete", "bezout", "mubasis", "section", "canonical", "sylvester")),
        ("sylvester", QUARTIC, {"dump_pivots": True}),
    ],
)
def test_compute_returns_the_kinds_table_fields(command, source, options):
    entry = cli.COMMANDS[command]
    fields, _ = entry.compute(parse_curve_dict(source), options)
    expected = list(PAYLOADS[entry.kind])
    if command == "sylvester" and not options:
        expected.remove("reduced")  # written by --dump-pivots only
    assert sorted(fields) == sorted(expected)


def test_command_kinds_match_result_kinds():
    from affine_frames.cli import COMMANDS
    from affine_frames.io import RESULT_KINDS

    kinds = [command.kind for command in COMMANDS.values()]
    assert len(set(kinds)) == len(kinds)
    assert set(kinds) | {"verify"} == RESULT_KINDS


def _empty_elements(doc):
    doc["payload"]["elements"] = []


def _wrong_element_dimension(doc):
    element = doc["payload"]["elements"][0]
    element["n"], element["coeffs"] = 4, element["coeffs"] + [["1"]]


def _planar_input(doc):
    doc["payload"]["input"] = PLANAR


def _nonsquare_matrix(doc):
    matrix = doc["payload"]["matrix"]
    matrix["cols"], matrix["entries"] = 2, [row[:2] for row in matrix["entries"]]


def _short_vector(doc):
    doc["payload"]["vector"] = {"n": 2, "coeffs": [["1"], ["0"]]}


def _scalar_pivot_cols(doc):
    doc["payload"]["pivot_cols"] = 5


def _list_kind(doc):
    doc["kind"] = ["mubasis"]


def _object_kind(doc):
    doc["kind"] = {}


def _scalar_elements(doc):
    doc["payload"]["elements"] = 0


def _zero_column(doc):
    for row in doc["payload"]["matrix"]["entries"]:
        row[1] = []


def _boolean_degree(doc):
    doc["payload"]["degree"] = True


def _zero_input(doc):
    vector = doc["payload"]["input"]
    vector["coeffs"] = [["0"] for _ in vector["coeffs"]]


def _matrix_row(value):
    def damage(doc):
        doc["payload"]["matrix"][1] = value

    return damage


def _low_degree_input_and_garbage_payload(doc):
    """A non-generic curve: its payload must still be read, and refused."""
    doc["payload"]["input"] = LOW_DEGREE
    doc["payload"]["matrix"] = doc["payload"]["section"] = "x"


@pytest.mark.parametrize(
    "command, source, damage, message",
    [
        ("mubasis", SEXTIC, _empty_elements, "elements do not match"),
        ("mubasis", SEXTIC, _wrong_element_dimension, "elements do not match"),
        ("complete", SEXTIC, _planar_input, "matrix does not match"),
        ("frame", QUINTIC, _nonsquare_matrix, "matrix does not match"),
        ("bezout", SEXTIC, _short_vector, "vector does not match"),
        ("sylvester", QUARTIC, _scalar_pivot_cols, "must be a list of integers"),
        ("canonical", QUARTIC, _short_vector, "vector does not match"),
        ("mubasis", SEXTIC, _list_kind, "unknown result kind"),
        ("mubasis", SEXTIC, _object_kind, "unknown result kind"),
        ("mubasis", SEXTIC, _scalar_elements, "elements must be a list"),
        ("complete", SEXTIC, _zero_column, "has a zero column"),
        ("complete", SEXTIC, _zero_input, "vector is zero"),
        ("sylvester", QUARTIC, _zero_input, "vector is zero"),
        *(
            (command, QUARTIC, _matrix_row(value), "must be a list of rows")
            for command in ("section", "sylvester")
            for value in (True, None, -1, 1.5)
        ),
        ("frame", QUINTIC, _zero_column, "has a zero column"),
        ("bezout", QUARTIC, _boolean_degree, "degree must be an integer"),
        ("frame", QUINTIC, _low_degree_input_and_garbage_payload,
         "matrix document must be an object"),
    ],
)
def test_verify_rejects_malformed_document(tmp_path, capsys, command, source,
                                           damage, message):
    infile = write(tmp_path / "in.json", source)
    result_path = tmp_path / "result.json"
    assert main([command, "--in", infile, "--out", str(result_path)]) == 0
    doc = json.loads(result_path.read_text(encoding="utf-8"))
    damage(doc)
    write(result_path, doc)
    capsys.readouterr()
    code, out, err = run(tmp_path, capsys, ["verify", "--in", str(result_path)])
    assert code == 2
    assert out == ""
    assert message in json.loads(err)["error"]


_DROP = object()
_DAMAGE = (True, None, -1, 1.5, [], {}, "x")


def _fields(obj, path=()):
    """Path of every value inside a JSON object, parents first."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


def _damage_list(doc, rng):
    """Three seeded damages for each field down to depth 3 and for 10 deeper ones.

    A damage replaces the field by one of ``_DAMAGE`` or drops its key.
    """
    fields = list(_fields(doc))
    deep = [f for f in fields if len(f) > 3]
    for path in [f for f in fields if len(f) <= 3] + rng.sample(deep, 10):
        choices = _DAMAGE + ((_DROP,) if isinstance(path[-1], str) else ())
        for value in rng.sample(choices, 3):
            yield path, value
    if "coeffs" in doc["payload"]["input"]:
        yield ("payload", "input", "coeffs"), [["0"]] * 3


def _damaged(doc, path, value):
    doc = copy.deepcopy(doc)
    *parents, key = path
    target = doc
    for step in parents:
        target = target[step]
    if value is _DROP:
        del target[key]
    else:
        target[key] = copy.deepcopy(value)
    return doc


@pytest.mark.parametrize(
    "command, source",
    [
        ("frame", QUINTIC),
        ("complete", QUARTIC),
        ("bezout", QUARTIC),
        ("mubasis", QUARTIC),
        ("section", QUARTIC),
        ("canonical", QUARTIC),
        ("sylvester", QUARTIC),
        ("verify", QUINTIC),
    ],
)
def test_damaged_documents_never_exit_one(tmp_path, capsys, command, source):
    """Every result kind for the golden quintic's tangent, damaged field by field."""
    infile = write(tmp_path / "in.json", source)
    result_path = tmp_path / "result.json"
    if command == "verify":
        assert main(["frame", "--in", infile, "--out", str(result_path)]) == 0
        assert main(["verify", "--in", str(result_path), "--out", str(result_path)]) == 0
    else:
        assert main([command, "--in", infile, "--out", str(result_path)]) == 0
    doc = json.loads(result_path.read_text(encoding="utf-8"))
    damaged_path = tmp_path / "damaged.json"
    runs = [["verify", "--in", str(damaged_path)]]
    if command == "frame":
        runs.append(["plot", "--in", str(damaged_path), "--params", "0,1",
                     "--project", "0,1"])
    cases = list(_damage_list(doc, random.Random(0)))
    assert len(cases) >= 60
    for path, value in cases:
        write(damaged_path, _damaged(doc, path, value))
        for argv in runs:
            capsys.readouterr()
            code, out, err = run(tmp_path, capsys, argv)
            assert code != 1, (argv[0], path, value, err)


# Help and usage-error output, exit status and parsed options of the
# argument parser on 18 command lines, recorded with COLUMNS=80: help of the
# program and of commands, usage errors, and the abbreviated and joined
# option forms argparse accepts.
PARSER_CASES = json.loads(
    (Path(__file__).parent / "data" / "parser_bytes.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize(
    "case", PARSER_CASES, ids=lambda case: " ".join(case["argv"]) or "no-arguments"
)
def test_parser_output_is_pinned(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code = namespace = None
    try:
        namespace = vars(cli.build_parser().parse_args(case["argv"]))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == case["exit"]
    assert captured.out == case["stdout"]
    assert captured.err == case["stderr"]
    assert namespace == case["namespace"]
