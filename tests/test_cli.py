from __future__ import annotations

import json
from fractions import Fraction

import pytest

from twodescent.arith import ONE
from twodescent.cli import (
    CremonaLine,
    main,
    parse_cremona_line,
    parse_document,
    report_document,
    serialize_document,
)
from twodescent.curve import Curve, Pt, pt, torsion_subgroup
from twodescent.descent import (
    DescentReport,
    SelmerSet,
    descent_report,
    isogenous_curve,
)

GOOD_LINE = "18496 k 1 [0,0,0,17,0] 0 [2] [0:0:1]"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_descent_text_report(capsys):
    rc, out, _ = run(capsys, "descent", "--a2", "6", "--a4", "1", "--height", "5")
    assert rc == 0
    assert "{1, 2}" in out
    assert "{-1, 1}" in out
    assert "0 <= rank E(Q) <= 0  (exact)" in out
    assert "Z4" in out


def test_descent_json_report(capsys):
    rc, out, _ = run(capsys, "descent", "--a2", "0", "--a4", "17", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["curve"] == [0, 17, 0]
    assert doc["isogenous_curve"] == [0, -68, 0]
    assert doc["rank_lower"] == 0 and doc["rank_upper"] == 2
    assert doc["discriminant"] == -314432
    assert doc["sha_dims"]["phi"] == 2
    assert doc["torsion"]["structure"] == "Z2"
    assert doc["selmer_phi"] == [-1, 1, -2, 2, -17, 17, -34, 34]


def test_descent_rejects_singular_model(capsys):
    rc, _, err = run(capsys, "descent", "--a2", "0", "--a4", "0")
    assert rc == 2
    assert "singular" in err


def test_descent_rejects_nonzero_a6(capsys):
    rc, _, err = run(capsys, "descent", "--a2", "0", "--a4", "0", "--a6", "1")
    assert rc == 2
    assert "from_cubic_const" in err or "cube" in err


def test_family_ep(capsys):
    rc, out, _ = run(capsys, "family", "ep", "17")
    assert rc == 0
    assert "dim 3" in out
    assert "rank = 0" in out


def test_family_ep_rejects_composite(capsys):
    rc, _, err = run(capsys, "family", "ep", "4")
    assert rc == 2
    assert "prime" in err


def test_family_edx(capsys):
    rc, out, _ = run(capsys, "family", "edx", "4")
    assert rc == 0
    assert "Z4" in out


def test_family_edx_unreduced_needs_flag(capsys):
    rc, _, err = run(capsys, "family", "edx", "32")
    assert rc == 2
    rc2, out, _ = run(capsys, "family", "edx", "32", "--reduce")
    assert rc2 == 0
    assert "2" in out


def test_family_edconst(capsys):
    rc, out, _ = run(capsys, "family", "edconst", "1")
    assert rc == 0
    assert "Z6" in out


def test_family_check_against_engine(capsys):
    rc, out, _ = run(capsys, "family", "ep", "7", "--check")
    assert rc == 0
    assert "engine agrees" in out or "check" in out.lower()


def test_table_small(capsys):
    rc, out, _ = run(capsys, "table", "ep", "--max", "20")
    assert rc == 0
    for p in (3, 5, 7, 11, 13, 17, 19):
        assert f"p={p} " in out
    assert "7 rows" in out


def test_table_deterministic_across_jobs(capsys):
    rc1, out1, _ = run(capsys, "table", "ep", "--max", "120", "--jobs", "1")
    rc2, out2, _ = run(capsys, "table", "ep", "--max", "120", "--jobs", "3")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_table_json_file(tmp_path, capsys):
    target = tmp_path / "rows.json"
    rc, _, _ = run(capsys, "table", "ep", "--max", "30", "--out", str(target))
    assert rc == 0
    doc = json.loads(target.read_text())
    assert doc["schema_version"] == 1
    assert [r["p"] for r in doc["rows"]] == [3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert all("rank" in r and "selmer_dim_phi" in r for r in doc["rows"])


def test_table_budget(capsys):
    rc, _, err = run(capsys, "table", "ep", "--max", str(10**6 + 1))
    assert rc == 2
    assert "budget" in err


def test_parse_cremona_line_fields():
    line = parse_cremona_line(GOOD_LINE)
    assert line == CremonaLine(
        conductor=18496,
        class_label="k",
        number=1,
        ainv=(0, 0, 0, 17, 0),
        rank=0,
        torsion_invariants=(2,),
        generators=((0, 0, 1),),
    )


def test_parse_cremona_line_whitespace_and_no_generators():
    line = parse_cremona_line("  37   a 1  [0,0,1,-1,0]   1  [1] ")
    assert line.conductor == 37
    assert line.torsion_invariants == (1,)
    assert line.generators == ()


def test_parse_cremona_line_rejects_garbage():
    with pytest.raises(ValueError):
        parse_cremona_line("not a line")


def test_verify_cremona_good_line(tmp_path, capsys):
    f = tmp_path / "allgens.txt"
    f.write_text(GOOD_LINE + "\n")
    rc, out, _ = run(capsys, "verify-cremona", str(f))
    assert rc == 0
    assert "1 verified" in out


def test_verify_cremona_detects_wrong_torsion(tmp_path, capsys):
    f = tmp_path / "allgens.txt"
    f.write_text(GOOD_LINE.replace("[2]", "[3]") + "\n")
    rc, out, _ = run(capsys, "verify-cremona", str(f))
    assert rc == 3
    assert "mismatch" in out


def test_verify_cremona_skips_unsupported_shapes(tmp_path, capsys):
    f = tmp_path / "allgens.txt"
    f.write_text("37 a 1 [0,0,1,-1,0] 1 [1] [0:0:1]\n" + GOOD_LINE + "\n")
    rc, out, _ = run(capsys, "verify-cremona", str(f))
    assert rc == 0
    assert "1 skipped" in out and "1 verified" in out


def test_verify_cremona_empty_file(tmp_path, capsys):
    f = tmp_path / "allgens.txt"
    f.write_text("")
    rc, out, _ = run(capsys, "verify-cremona", str(f))
    assert rc == 0
    assert "0 lines" in out


def test_verify_cremona_reports_parse_errors_with_line_numbers(tmp_path, capsys):
    f = tmp_path / "allgens.txt"
    f.write_text(GOOD_LINE + "\nbroken line here\n")
    rc, out, _ = run(capsys, "verify-cremona", str(f))
    # parse failures are reported in place but only mismatches flip the exit
    assert rc == 0
    assert "line 2: parse error" in out
    assert "1 parse errors" in out


def test_json_round_trip_of_real_reports():
    for E in (Curve(0, 17, 0), Curve(6, 1, 0), Curve(-6, 12, 0)):
        doc = report_document(descent_report(E, 10))
        assert parse_document(serialize_document(doc)) == doc


def test_json_big_integers_become_decimal_strings():
    E = Curve(0, 2**30, 0)  # discriminant -2^96, far past 2^53
    pair = isogenous_curve(E)
    sel = SelmerSet((ONE,))
    huge = pt(Fraction(2**60 + 1, 3), Fraction(2**61, 27))
    rep = DescentReport(
        pair=pair,
        selmer_phi=sel,
        selmer_phi_hat=sel,
        image_phi=sel,
        image_phi_hat=sel,
        rank_lower=0,
        rank_upper=0,
        rank_exact=True,
        sha_phi_dim_upper=0,
        sha_phi_hat_dim_upper=0,
        torsion=torsion_subgroup(E),
        generators=(huge,),
        search_height=1,
        notes=(),
    )
    doc = report_document(rep)
    text = serialize_document(doc)
    raw = json.loads(text)
    assert isinstance(raw["discriminant"], str)
    assert raw["discriminant"] == str(-(2**96))
    assert raw["generators"][0][0] == str(2**60 + 1)
    parsed = parse_document(text)
    assert parsed["discriminant"] == -(2**96)
    assert parsed["generators"][0][0] == 2**60 + 1


def test_unknown_subcommand_exits_cleanly():
    assert main(["no-such-command"]) == 2
