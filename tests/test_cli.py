from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twodescent.cli as cli_module
from twodescent.arith import ONE
from twodescent.cli import (
    CremonaLine,
    _enc_int,
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

from .oracles import serialize_document_oracle

GOOD_LINE = "18496 k 1 [0,0,0,17,0] 0 [2] [0:0:1]"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_internal_error_names_the_exception(capsys, monkeypatch):
    def out_of_memory(args):
        raise MemoryError()

    monkeypatch.setattr(cli_module, "cmd_descent", out_of_memory)
    rc, out, err = run(capsys, "descent", "--a2", "0", "--a4", "17")
    assert rc == 1 and out == ""
    assert err == "internal error: MemoryError: \n"


def test_a_reader_that_closes_the_pipe_early_gets_no_error(tmp_path):
    # `table ep --max 30000` writes about 400 kB, more than a pipe holds, so
    # the reader's close after one line meets writes still to come
    src = os.path.dirname(os.path.dirname(cli_module.__file__))
    with open(tmp_path / "err", "w+b") as err:
        proc = subprocess.Popen([sys.executable, "-m", "twodescent.cli", "table", "ep", "--max", "30000"],
                                stdout=subprocess.PIPE, stderr=err, env={**os.environ, "PYTHONPATH": src})
        try:
            assert proc.stdout.readline().startswith(b"p=3 ")
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
        finally:
            proc.kill()  # nothing to do once it has exited
        err.seek(0)
        assert err.read() == b""


def test_descent_text_report(capsys):
    rc, out, _ = run(capsys, "descent", "--a2", "6", "--a4", "1", "--height", "5")
    assert rc == 0
    assert "{1, 2}" in out
    assert "{-1, 1}" in out
    assert "0 <= rank E(Q) <= 0  (exact)" in out
    assert "Z4" in out


def test_descent_text_report_lists_a_generator(capsys):
    rc, out, _ = run(capsys, "descent", "--a2", "0", "--a4", "5", "--height", "1")
    assert rc == 0
    assert "  independent points of infinite order: (1/4, 9/8)\n" in out


def test_descent_text_report_notes_an_odd_residual(capsys):
    # y^2 = x^3 - 2x at height 1: Sel(E') has a class no point certifies
    rc, out, _ = run(capsys, "descent", "--a2", "0", "--a4", "-2", "--height", "1")
    assert rc == 0
    assert out.splitlines()[-2:] == [
        "  no points of infinite order found up to height 1",
        "  note: odd Selmer-minus-image residual: point search height too small or nontrivial Sha",
    ]


@pytest.mark.parametrize("a4", ["2", "17"])
def test_descent_refuses_a_height_below_one(capsys, a4):
    # y^2 = x^3 + 2x makes no point search, y^2 = x^3 + 17x does
    for height in ("0", "-1"):
        rc, out, err = run(capsys, "descent", "--a2", "0", "--a4", a4, "--height", height)
        assert (rc, out, err) == (2, "", "error: need H >= 1\n")


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


def test_descent_refuses_a_prime_past_the_witness_bound(capsys):
    # b = 100000000000000000000000067, the first prime after 10**26, is above psi_13
    rc, out, err = run(capsys, "descent", "--a2", "0", "--a4", "100000000000000000000000067")
    assert (rc, out) == (2, "")
    assert err == ("error: 100000000000000000000000067 passes every witness"
                   " but is too large for the deterministic witness set\n")


def test_family_ep(capsys):
    rc, out, _ = run(capsys, "family", "ep", "17")
    assert rc == 0
    assert "dim 3" in out
    assert "rank = 0" in out


def test_family_ep_prints_an_interval_rank(capsys):
    # 257 = 1 (mod 16) with 2 a quartic residue: no point up to height 20
    rc, out, _ = run(capsys, "family", "ep", "257")
    assert rc == 0
    assert out.splitlines()[-1].startswith("  rank in [0, 2]  (")


def test_family_ep_rejects_composite(capsys):
    rc, _, err = run(capsys, "family", "ep", "4")
    assert rc == 2
    assert "prime" in err


def test_family_ep_rejects_a_height_beyond_the_limit(capsys):
    rc, _, err = run(capsys, "family", "ep", "73", "--height", "1001")
    assert rc == 2
    assert "H <= 1000" in err


def test_family_edx(capsys):
    rc, out, _ = run(capsys, "family", "edx", "4")
    assert rc == 0
    assert "Z4" in out


@pytest.mark.parametrize("kind", ["edx", "edconst"])
def test_family_refuses_zero_with_its_own_message(capsys, kind):
    # D = 0 reaches the family's check, with or without --reduce, rather
    # than failing to factor
    for extra in ([], ["--reduce"]):
        rc, out, err = run(capsys, "family", kind, "0", *extra)
        assert (rc, out, err) == (2, "", "error: D must be nonzero\n")


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


@pytest.mark.parametrize("kind, D", [("edx", "-4"), ("edx", "4"), ("edconst", "-27"), ("edconst", "1")])
def test_family_torsion_check_against_engine(capsys, kind, D):
    rc, out, _ = run(capsys, "family", kind, D, "--check")
    assert rc == 0 and out.endswith("engine cross-check: ok\n")


@pytest.mark.parametrize("kind, D", [("edx", "17"), ("edconst", "5")])
def test_family_torsion_check_exits_3_on_a_mismatch(capsys, monkeypatch, kind, D):
    monkeypatch.setattr(cli_module, "torsion_subgroup", lambda E: torsion_subgroup(Curve(0, -1, 0)))
    rc, out, err = run(capsys, "family", kind, D, "--check")
    assert rc == 3 and err == "engine cross-check FAILED\n" and "cross-check" not in out


def test_family_edconst_check_compares_the_shifted_model_of_a_cube(capsys, monkeypatch):
    # y^2 = x^3 + 8 agrees; only its shifted model x^3 - 6x^2 + 12x disagrees
    monkeypatch.setattr(cli_module, "torsion_subgroup",
                        lambda E: torsion_subgroup(E if E.a6 else Curve(0, 0, 5)))
    rc, _, err = run(capsys, "family", "edconst", "8", "--check")
    assert rc == 3 and "FAILED" in err


def test_table_small(capsys):
    rc, out, _ = run(capsys, "table", "ep", "--max", "20")
    assert rc == 0
    for p in (3, 5, 7, 11, 13, 17, 19):
        assert f"p={p} " in out
    assert "7 rows" in out


def test_table_with_both_filters(capsys):
    rc, out, _ = run(capsys, "table", "ep", "--max", "600", "--filter", "mod8=1,quartic2=true")
    assert rc == 0
    assert out.splitlines()[-1] == "10 rows"


@pytest.mark.parametrize("spec, message", [("quartic2=maybe", "quartic2 takes true or false"),
                                           ("colour=red", "unknown filter key 'colour'")])
def test_table_refuses_an_unknown_filter(capsys, spec, message):
    rc, out, err = run(capsys, "table", "ep", "--max", "100", "--filter", spec)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_table_has_no_jobs_option(capsys):
    # the sweep runs in one process; --jobs is an unknown option
    rc, out, err = run(capsys, "table", "ep", "--max", "20", "--jobs", "2")
    assert rc == 2
    assert "--jobs" in err
    assert "rows" not in out


def test_table_json_file(tmp_path, capsys):
    target = tmp_path / "rows.json"
    rc, _, _ = run(capsys, "table", "ep", "--max", "30", "--out", str(target))
    assert rc == 0
    doc = json.loads(target.read_text())
    assert doc["schema_version"] == 1
    assert [r["p"] for r in doc["rows"]] == [3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert all("rank" in r and "selmer_dim_phi" in r for r in doc["rows"])


@pytest.mark.parametrize("argv", [("table", "ep", "--max", "50", "--out", "{dir}/no-such-dir/rows.json"),
                                  ("verify-cremona", "{dir}/missing.txt")], ids=["table-out", "verify-cremona"])
def test_an_unusable_file_is_invalid_input(tmp_path, capsys, argv):
    # a file that cannot be written or read exits 2 naming the OS error,
    # before any output; the table once exited 1 as an internal
    # FileNotFoundError, and later printed every row before it was refused
    rc, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert rc == 2 and err.startswith("error: [Errno 2] No such file or directory: ")
    assert out == ""


@pytest.mark.parametrize("value", ["9", "-7", "x", ""])
def test_table_refuses_a_mod8_filter_outside_1_3_5_7(capsys, value):
    rc, out, err = run(capsys, "table", "ep", "--max", "100", "--filter", f"mod8={value}")
    assert rc == 2
    assert "mod8 takes 1, 3, 5 or 7" in err
    assert "rows" not in out


@pytest.mark.parametrize("spec, key", [("mod8=1,mod8=3", "mod8"), ("quartic2=true,mod8=1,quartic2=false", "quartic2")])
def test_table_refuses_a_repeated_filter_key(capsys, spec, key):
    # a later value once silently overrode the earlier one: mod8=1,mod8=3
    # printed the p = 3 (mod 8) rows
    rc, out, err = run(capsys, "table", "ep", "--max", "20", "--filter", spec)
    assert rc == 2
    assert f"filter key {key!r} given twice" in err
    assert out == ""


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


def test_parse_cremona_line_refuses_four_a_invariants():
    with pytest.raises(ValueError, match="need five a-invariants"):
        parse_cremona_line("11 a 1 [0,-1,1,-10] 0 [5]")


@pytest.mark.parametrize("tail, token", [("[0:0]", "[0:0]"), ("[1:2:3:4]", "[1:2:3:4]"),
                                         ("garbage [0:0:1]", "garbage")], ids=["two", "four", "word"])
def test_parse_cremona_line_refuses_a_malformed_generator(tail, token):
    # each token after the torsion field must be a generator [x:y:z]: one
    # passed over would let the line verify with that generator unchecked
    with pytest.raises(ValueError, match=re.escape(f"generator {token!r} is not [x:y:z] of three integers")):
        parse_cremona_line(f"18496 k 1 [0,0,0,17,0] 0 [2] {tail}")


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


@pytest.mark.parametrize("rank, rc, verdict", [
    (0, 0, "line 1 (24a1): ok: torsion and generators verified; rank 0 within [0, 0]"),
    (1, 3, "line 1 (24a1): mismatch: stated rank 1 outside [0, 0]"),
])
def test_verify_cremona_moves_a_two_torsion_point_to_the_origin(tmp_path, capsys, monkeypatch, rank, rc, verdict):
    # 24a1 is y^2 = (x - 1)(x - 2)(x + 2): a6 != 0, so the least root -2 is
    # moved to the origin, giving x(x - 3)(x - 4); its rank is 0 exactly
    models = []
    report = cli_module.descent_report
    monkeypatch.setattr(cli_module, "descent_report", lambda E, H: models.append(E) or report(E, H))
    f = tmp_path / "allgens.txt"
    f.write_text(f"24 a 1 [0,-1,0,-4,4] {rank} [2,4]\n")
    got, out, _ = run(capsys, "verify-cremona", str(f))
    assert (got, out.splitlines()[0]) == (rc, verdict)
    assert models == [Curve(-7, 12, 0)]


def test_verify_cremona_refuses_a_height_below_one_before_reading(tmp_path, capsys):
    # an invalid argument (exit 2), not a mismatch on every line with
    # rational 2-torsion (exit 3); a missing file is not even opened
    f = tmp_path / "allgens.txt"
    f.write_text(GOOD_LINE + "\n")
    for path in (f, tmp_path / "missing.txt"):
        for height in ("0", "-1"):
            rc, out, err = run(capsys, "verify-cremona", str(path), "--height", height)
            assert (rc, out, err) == (2, "", "error: need H >= 1\n")


def test_a_height_above_the_point_search_bound_is_refused_before_any_work(tmp_path, capsys):
    # exit 2 naming the bound, at once: no report, and the file of
    # verify-cremona is not even opened
    err_ = "error: need H <= 50000: the point search sieves an H x H box, in time that grows as H^2\n"
    rc, out, err = run(capsys, "descent", "--a2", "0", "--a4", "17", "--height", "50001")
    assert (rc, out, err) == (2, "", err_)
    rc, out, err = run(capsys, "verify-cremona", str(tmp_path / "missing.txt"), "--height", "50001")
    assert (rc, out, err) == (2, "", err_)


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


def test_verify_cremona_checks_each_generator_and_counts_no_blank_line(tmp_path, capsys):
    # [0:1:0] is the point at infinity, on every curve; [1:1:1] is not on
    # y^2 = x^3 + 17x; y^2 = x^3 + 2 has no rational 2-torsion to descend
    # from; and a malformed generator is a parse error
    f = tmp_path / "allgens.txt"
    f.write_text("18496 k 1 [0,0,0,17,0] 0 [2] [0:1:0]\n\n18496 k 1 [0,0,0,17,0] 0 [2] [1:1:1]\n   \n"
                 "1 a 1 [0,0,0,0,2] 1 []\n18496 k 1 [0,0,0,17,0] 0 [2] [0:0]\n")
    rc, out, _ = run(capsys, "verify-cremona", str(f))
    assert rc == 3
    assert out.splitlines() == [
        "line 1 (18496k1): ok: torsion and generators verified; rank 0 within [0, 2]",
        "line 3 (18496k1): mismatch: generator [1:1:1] is not on the curve",
        "line 5 (1a1): ok: torsion and generators verified; rank unchecked (no rational 2-torsion)",
        "line 6: parse error: generator '[0:0]' is not [x:y:z] of three integers",
        "4 lines: 2 verified, 0 skipped, 1 mismatches, 1 parse errors",
    ]


def test_verify_cremona_counts_a_line_the_engine_refuses_as_a_mismatch(tmp_path, capsys):
    # the first prime after 10^26 lies above the witness bound: descent
    # refuses it, and verify-cremona counts that refusal as a mismatch
    f = tmp_path / "allgens.txt"
    f.write_text("1 a 1 [0,0,0,100000000000000000000000067,0] 0 [2]\n")
    rc, out, _ = run(capsys, "verify-cremona", str(f))
    assert rc == 3
    assert out.splitlines()[0].startswith("line 1: verification error: 100000000000000000000000067 passes")
    assert out.splitlines()[1] == "1 lines: 0 verified, 0 skipped, 1 mismatches, 0 parse errors"


def test_verify_cremona_counts_a_singular_model_as_a_parse_error(tmp_path, capsys):
    f = tmp_path / "allgens.txt"
    # y^2 = x^3 and y^2 + xy = x^3 are singular; y^2 + xy + y = x^3 is not
    lines = ["11 a 1 [0,0,0,0,0] 0 []", GOOD_LINE, "11 a 1 [1,0,0,0,0] 0 []", "11 a 1 [1,0,1,0,0] 0 []"]
    f.write_text("\n".join(lines) + "\n")
    rc, out, _ = run(capsys, "verify-cremona", str(f))
    assert rc == 0
    assert "line 1: parse error: singular model [0, 0, 0, 0, 0]" in out
    assert "line 3: parse error: singular model [1, 0, 0, 0, 0]" in out
    assert "line 4 (11a1): skipped" in out
    assert "4 lines: 1 verified, 1 skipped, 0 mismatches, 2 parse errors" in out


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


def _good_document() -> dict:
    return json.loads(serialize_document(report_document(descent_report(Curve(0, 17, 0), 10))))


@pytest.mark.parametrize("text", ["[1]", "null", "17", '"curve"'])
def test_parse_document_refuses_a_document_that_is_not_an_object(text):
    with pytest.raises(ValueError, match="^the document: not a JSON object"):
        parse_document(text)


@pytest.mark.parametrize("key", ["curve", "selmer_phi_hat", "discriminant", "torsion", "generators"])
def test_parse_document_names_a_missing_key(key):
    doc = _good_document()
    del doc[key]
    with pytest.raises(ValueError, match=f"^the document: no key '{key}'"):
        parse_document(json.dumps(doc))
    del doc["torsion" if key != "torsion" else "curve"]
    with pytest.raises(ValueError, match="^the document: no key"):
        parse_document(json.dumps(doc))


@pytest.mark.parametrize("key, value, refusal", [
    ("discriminant", 1.5, "discriminant: not an integer"),
    ("discriminant", True, "discriminant: not an integer"),
    ("discriminant", "12a", "discriminant: not an integer"),
    ("discriminant", "--12", "discriminant: not an integer"),
    ("discriminant", None, "discriminant: not an integer"),
    ("discriminant", [1], "discriminant: not an integer"),
    ("curve", "017", "curve: not a list"),
    ("curve", [0, 17.0, 0], "curve: not an integer"),
    ("image_phi", {"1": 1}, "image_phi: not a list"),
    ("generators", [[1, 2, "x", 1]], "generators: not an integer"),
    ("generators", ["1234"], "generators: not a list"),
    ("torsion", [2], "torsion: not a JSON object"),
    ("torsion", {"structure": "Z/2"}, "torsion: no key 'generators'"),
    ("torsion", {"generators": []}, "torsion: no key 'structure'"),
    ("torsion", {"structure": "Z/2", "generators": [[0.5]]}, "generators: not an integer"),
])
def test_parse_document_refuses_a_value_that_is_not_an_integer_and_names_its_key(key, value, refusal):
    # int(1.5) would read the discriminant back as 1, and a string of
    # digits where a list belongs would read back as its digits
    doc = _good_document()
    doc[key] = value
    with pytest.raises(ValueError, match=f"^{refusal}"):
        parse_document(json.dumps(doc))


def _integers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for v in node:
            yield from _integers(v)
    elif isinstance(node, str) and node.lstrip("-").isdigit():
        yield int(node), True
    elif isinstance(node, int) and not isinstance(node, bool):
        yield node, False


def _assert_big_integers_are_strings(text):
    found = list(_integers(json.loads(text)))
    assert [n for n, as_string in found if not as_string and abs(n) > 2**53] == []
    return found


def test_every_big_integer_of_a_descent_document_is_a_string():
    # D = 2*3*...*71: the curve, its isogenous curve and every Selmer and
    # image class other than 1 pass 2^53
    D = 557940830126698960967415390
    text = serialize_document(report_document(descent_report(Curve(0, D, 0), 5)))
    found = _assert_big_integers_are_strings(text)
    assert (D, True) in found and (-4 * D, True) in found and (-D, True) in found
    parsed = parse_document(text)
    assert parsed["curve"] == [0, D, 0] and parsed["isogenous_curve"] == [0, -4 * D, 0]
    assert parsed["selmer_phi"] == [1, -D] and parsed["image_phi_hat"] == [1, D]


def test_every_big_integer_of_a_family_ep_document_is_a_string(capsys):
    p = 9007199254741033  # a prime = 9 (mod 16) just past 2^53
    rc, out, _ = run(capsys, "family", "ep", str(p), "--json")
    assert rc == 0
    found = _assert_big_integers_are_strings(out)
    doc = json.loads(out)
    assert doc["p"] == str(p)
    assert [int(d) for d in doc["selmer_phi"]] == [-1, 1, -2, 2, -p, p, -2 * p, 2 * p]
    assert (2 * p, True) in found and doc["selmer_phi_hat"] == [1, str(p)]


ESCAPES = '"\\/\b\f\n\r\t\x00\x1f\x7f a\u00e9\u20ac\U0001f600\ud800'

LEAVES = st.one_of(
    st.integers(-2**60, 2**60),  # negative, and beyond 2^53 as a number too
    st.integers(-2**80, 2**80).map(_enc_int),  # past 2^53 as a string, as documents write it
    st.booleans(),
    st.none(),
    st.floats(),  # like timings_ms.total; json.dumps writes NaN and Infinity
    st.text(),
    st.text(st.sampled_from(ESCAPES)),  # quotes, backslash, control characters, non-ASCII
)

DOCUMENTS = st.recursive(LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(st.one_of(st.text(), st.text(st.sampled_from(ESCAPES))), inner, max_size=4),
), max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(DOCUMENTS)
@example({"timings_ms": {"total": 12.345}, "notes": [ESCAPES], "empty": [{}, [], ()],
          "x": [True, False, None, -3, _enc_int(-2**60)], ESCAPES: {"": 0}})
def test_writer_is_json_dumps_at_indent_2_with_sorted_keys(doc):
    assert serialize_document(doc) == serialize_document_oracle(doc)


@pytest.mark.parametrize("argv", [
    ("family", "ep", "17"),
    ("family", "ep", "9007199254741033"),  # p past 2^53
    ("family", "edx", "4"),
    ("family", "edx", "-30"),
    ("family", "edconst", "1"),
    ("family", "edconst", "-432"),
    ("descent", "--a2", "0", "--a4", "17"),
    ("descent", "--a2", "-1", "--a4", "-12"),
])
def test_cli_documents_are_json_dumps_at_indent_2_with_sorted_keys(capsys, argv):
    rc, out, _ = run(capsys, *argv, "--json")
    assert rc == 0
    assert out == serialize_document_oracle(json.loads(out)) + "\n"


def test_table_file_is_json_dumps_at_indent_2_with_sorted_keys(tmp_path, capsys):
    target = tmp_path / "rows.json"
    assert run(capsys, "table", "ep", "--max", "30", "--out", str(target))[0] == 0
    text = target.read_text()
    assert text == serialize_document_oracle(json.loads(text)) + "\n"


def test_unknown_subcommand_exits_cleanly():
    assert main(["no-such-command"]) == 2
