import csv
import io
import json
import sys
import time
from math import comb

import pytest
from click.testing import CliRunner

from sytkit.cli import main, parse_cycles, parse_range, parse_word
from sytkit.core import Involution
from sytkit.counting import catalan
from sytkit.output import load_cache, save_cache

runner = CliRunner()


def run(*args):
    return runner.invoke(main, list(args))


def table_column(output, column):
    lines = output.splitlines()
    header = lines[0].split()
    idx = header.index(column)
    return [line.split()[idx] for line in lines[2:] if line.strip()]


def trace_fields(output):
    fields = {}
    for line in output.splitlines():
        if ": " in line:
            name, value = line.split(": ", 1)
            fields[name] = value
    return fields


# ---------------------------------------------------------------- parsing helpers

def test_parse_range():
    assert parse_range("0..4") == [0, 1, 2, 3, 4]
    assert parse_range("7") == [7]
    for bad in ("", "4..1", "1..", "a", "1-3"):
        with pytest.raises(Exception):
            parse_range(bad)


def test_parse_cycles():
    assert parse_cycles("(31)(62)(5)") == Involution((5,), ((1, 3), (2, 6)))
    assert parse_cycles("") == Involution()
    assert parse_cycles("()") == Involution()
    assert parse_cycles("(12,3)(4)") == Involution((4,), ((3, 12),))
    for bad in ("(123)", "(1)(1)", "(1", "(1)x", "(1,2,3)", "(a)"):
        with pytest.raises(Exception):
            parse_cycles(bad)


def test_parse_word():
    assert parse_word("2 1 4 3") == Involution((), ((1, 2), (3, 4)))
    assert parse_word("1, 2, 3") == Involution((1, 2, 3))
    for bad in ("2 1 2", "2 3 1", "1 x"):
        with pytest.raises(Exception):
            parse_word(bad)


def test_cycle_string_round_trips_through_parser():
    for v in (
        Involution((5,), ((1, 3), (2, 6))),
        Involution(),
        Involution((4,), ((3, 12),)),
        Involution((10, 11)),
    ):
        assert parse_cycles(v.cycle_string()) == v


# ---------------------------------------------------------------- count

def test_count_sequence():
    result = run("count", "y", "--k", "3", "--n", "0..4")
    assert result.exit_code == 0
    assert table_column(result.output, "value") == ["1", "1", "2", "4", "9"]


def test_count_single_values():
    assert table_column(run("count", "x", "--k", "2", "--n", "6").output, "value") == ["5"]
    assert table_column(run("count", "catalan", "--n", "0").output, "value") == ["1"]
    assert table_column(run("count", "u", "--k", "2", "--n", "3").output, "value") == ["5"]


def test_count_usage_errors():
    assert run("count", "y", "--n", "3").exit_code == 2  # missing k
    assert run("count", "catalan", "--k", "2", "--n", "3").exit_code == 2  # spurious k
    assert run("count", "nope", "--n", "3").exit_code == 2  # unknown family
    assert run("count", "y", "--k", "3", "--n", "x").exit_code == 2  # bad range


def test_count_large_n_without_recursion_limit():
    # one row of 1200 boxes, and the C(1200, 600) shapes of at most two columns
    assert table_column(run("count", "y", "--k", "1", "--n", "1200").output, "value") == ["1"]
    result = run("count", "y", "--k", "2", "--n", "1200")
    assert result.exit_code == 0
    assert table_column(result.output, "value") == [str(comb(1200, 600))]


# ---------------------------------------------------------------- verify

def test_verify_sweep_passes():
    result = run("verify", "wilf", "--k", "2", "--n", "1..5")
    assert result.exit_code == 0
    assert result.output.count("[holds]") == 5


def test_verify_naive_failure_counterexample():
    result = run("--format", "json", "verify", "naive-failure", "--k", "2", "--n", "3")
    assert result.exit_code == 0
    verdict = json.loads(result.output)["verdicts"][0]
    assert (verdict["lhs"], verdict["rhs"]) == ("100", "110")
    assert verdict["holds"] is True


def test_verify_parity_usage_errors():
    assert run("verify", "odd", "--k", "2", "--n", "3").exit_code == 2
    assert run("verify", "wilf", "--k", "3", "--n", "3").exit_code == 2
    assert run("verify", "unrestricted", "--k", "2", "--n", "3").exit_code == 2
    assert run("verify", "odd", "--n", "3").exit_code == 2  # missing required k


def test_verify_failure_exit_code():
    # the broken variant is *equal* at (2,1), so the inequality verdict fails
    result = run("verify", "naive-failure", "--k", "2", "--n", "1")
    assert result.exit_code == 1


def test_verify_all_identities_smoke():
    for args in (
        ("verify", "unrestricted", "--n", "1..4"),
        ("verify", "fpf-pairs", "--n", "1..4"),
        ("verify", "odd", "--k", "3", "--n", "1..4"),
        ("verify", "corollary-k3", "--n", "1..4"),
        ("verify", "a005568", "--n", "0..4"),
    ):
        assert run(*args).exit_code == 0


# ---------------------------------------------------------------- rsk

def test_rsk_cycles_worked_example():
    result = run("rsk", "--cycles", "(31)(62)(5)")
    assert result.exit_code == 0
    fields = trace_fields(result.output)
    assert fields["word"] == "3 6 1 5 2"
    assert fields["shape"] == "[2, 2, 1]"
    assert fields["lis"] == "2"
    assert fields["lds"] == "3"
    assert fields["fixed_points"] == "1"
    assert fields["odd_columns"] == "1"
    assert fields["beissinger_ok"] == "true"


def test_rsk_identity_word():
    fields = trace_fields(run("rsk", "--word", "1 2 3").output)
    assert fields["shape"] == "[3]"
    assert fields["fixed_points"] == "3"
    assert fields["odd_columns"] == "3"


def test_rsk_parse_errors():
    assert run("rsk", "--word", "2 1 3 4 5 6 5").exit_code == 2  # repeated label
    assert run("rsk", "--word", "2 3 1").exit_code == 2  # not an involution
    assert run("rsk").exit_code == 2
    assert run("rsk", "--word", "1", "--cycles", "(1)").exit_code == 2


# ---------------------------------------------------------------- bijection

def test_bijection_f_worked_example():
    result = run("--trace", "bijection", "f", "--n", "4",
                 "--p", "(31)(62)(5)", "--q", "(7)(84)")
    assert result.exit_code == 0
    fields = trace_fields(result.output)
    assert fields["p_out"] == "(13)(26)(5)(7)"
    assert fields["q_out"] == "(48)"
    assert fields["free_points"] == "5 7"
    assert fields["pivot"] == "7"
    assert fields["moved_from"] == "q"
    assert fields["moved_to"] == "p"


def test_bijection_f_moves_smaller_fixed_point_case():
    fields = trace_fields(run("bijection", "f", "--n", "1", "--p", "(1)", "--q", "(2)").output)
    assert fields["p_out"] == "(1)(2)"
    assert fields["q_out"] == "()"


def test_bijection_f_undefined_on_fpf_pair():
    result = run("bijection", "f", "--n", "1", "--p", "(21)", "--q", "")
    assert result.exit_code == 2
    assert "f undefined: both involutions fixed-point-free" in result.stderr


def test_bijection_f_validates_pair():
    assert run("bijection", "f", "--n", "2", "--p", "(1)", "--q", "(2)").exit_code == 2
    assert run("bijection", "f", "--n", "1", "--p", "(1)").exit_code == 2  # missing q


def test_bijection_g_example():
    result = run("--trace", "bijection", "g", "--n", "2", "--chosen", "3 1")
    assert result.exit_code == 0
    fields = trace_fields(result.output)
    assert fields["red"] == "(23)"
    assert fields["blue"] == "(14)"
    assert "unchosen" in result.output  # trace table with the pairing


def test_bijection_g_single_cycles():
    assert trace_fields(run("bijection", "g", "--chosen", "2").output)["red"] == "(12)"
    assert trace_fields(run("bijection", "g", "--chosen", "1").output)["blue"] == "(12)"


def test_bijection_g_inverse_example():
    fields = trace_fields(run("bijection", "g-inverse", "--red", "(23)", "--blue", "(14)").output)
    assert fields["chosen"] == "3 1"
    assert trace_fields(run("bijection", "g-inverse", "--red", "(12)", "--blue", "").output)["chosen"] == "2"
    assert trace_fields(run("bijection", "g-inverse", "--red", "", "--blue", "(12)").output)["chosen"] == "1"


def test_bijection_g_inverse_validation():
    assert run("bijection", "g-inverse", "--red", "(1)", "--blue", "(23)").exit_code == 2
    assert run("bijection", "g-inverse", "--red", "(13)", "--blue", "(13)").exit_code == 2
    assert run("bijection", "g-inverse", "--red", "(13)", "--blue", "").exit_code == 2  # gap


def test_bijection_g_round_trip_through_cli():
    for chosen in ("3 1", "1 2", "4 2 6", "2 1 3"):
        g = trace_fields(run("bijection", "g", "--chosen", chosen).output)
        back = run("bijection", "g-inverse", "--red", g["red"], "--blue", g["blue"])
        assert trace_fields(back.output)["chosen"] == chosen


# ---------------------------------------------------------------- audit

def test_audit_small():
    result = run("--format", "json", "audit", "--n", "1")
    assert result.exit_code == 0
    verdict = json.loads(result.output)["verdicts"][0]
    assert verdict["lhs"] == "2"
    assert dict((c["name"], c["value"]) for c in verdict["checks"])["survivors"] == "2"


def test_audit_bounded():
    assert run("audit", "--n", "2", "--k", "3").exit_code == 0


def test_audit_scale_and_parity_errors():
    result = run("audit", "--n", "9")
    assert result.exit_code == 3
    assert "limit" in result.stderr
    assert run("audit", "--n", "2", "--k", "2").exit_code == 2
    assert run("--oracle-limit", "3", "audit", "--n", "4").exit_code == 3


def test_oracle_limit_must_be_positive():
    result = run("--oracle-limit", "0", "audit", "--n", "1")
    assert result.exit_code == 2
    assert "--oracle-limit" in result.stderr


# ---------------------------------------------------------------- formats

def csv_rows(output):
    return list(csv.DictReader(io.StringIO(output)))


def test_count_formats_agree():
    args = ("count", "y", "--k", "3", "--n", "0..4")
    table_vals = table_column(run(*args).output, "value")
    json_doc = json.loads(run("--format", "json", *args).output)
    json_vals = [row["value"] for row in json_doc["rows"]]
    csv_vals = [row["value"] for row in csv_rows(run("--format", "csv", *args).output)]
    assert table_vals == json_vals == csv_vals == ["1", "1", "2", "4", "9"]
    assert all(isinstance(row["value"], str) for row in json_doc["rows"])


def test_verdict_formats_agree():
    args = ("verify", "fpf-pairs", "--n", "2")
    json_doc = json.loads(run("--format", "json", *args).output)["verdicts"][0]
    json_terms = sorted(t["term_value"] for t in json_doc["rhs_terms"])

    rows = csv_rows(run("--format", "csv", *args).output)
    csv_verdict = next(r for r in rows if r["row_type"] == "verdict")
    csv_terms = sorted(r["term_value"] for r in rows
                       if r["row_type"] == "term" and r["side"] == "rhs")
    assert (csv_verdict["lhs"], csv_verdict["rhs"]) == (json_doc["lhs"], json_doc["rhs"]) == ("12", "12")
    assert csv_terms == json_terms

    table_out = run(*args).output
    assert "lhs=12" in table_out and "rhs=12" in table_out


def test_json_serializes_integers_as_strings():
    doc = json.loads(run("--format", "json", "count", "catalan", "--n", "10..12").output)
    for row in doc["rows"]:
        assert isinstance(row["value"], str) and row["value"].isdigit()
        assert isinstance(row["n"], str)


@pytest.fixture
def int_digit_cap():
    """The CLI lifts Python's int/str digit cap for its whole process; restore it after."""
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    yield
    if cap is not None:
        sys.set_int_max_str_digits(cap)


def test_count_prints_values_past_the_int_digit_cap(int_digit_cap):
    result = run("--format", "json", "count", "catalan", "--n", "8000")
    assert result.exit_code == 0, result.stderr
    [row] = json.loads(result.stdout)["rows"]
    assert len(row["value"]) > 4300
    assert int(row["value"]) == catalan(8000)


# ---------------------------------------------------------------- cache

def test_cache_round_trip_is_byte_identical(tmp_path):
    path = tmp_path / "counts.cache"
    assert run("--cache", str(path), "count", "y", "--k", "3", "--n", "0..4").exit_code == 0
    first = path.read_bytes()
    assert first.startswith(b"sytkit cache v1\n")
    assert run("--cache", str(path), "count", "y", "--k", "3", "--n", "0..4").exit_code == 0
    assert path.read_bytes() == first

    # load/save round trip without the CLI is also byte-identical
    save_cache(load_cache(path), path)
    assert path.read_bytes() == first


def test_cache_merges_and_sorts_entries(tmp_path):
    path = tmp_path / "counts.cache"
    run("--cache", str(path), "count", "y", "--k", "3", "--n", "2")
    run("--cache", str(path), "count", "catalan", "--n", "3")
    run("--cache", str(path), "count", "u", "--k", "2", "--n", "3")
    entries = load_cache(path)
    assert entries[("y", 3, 2)] == 2
    assert entries[("catalan", None, 3)] == 5
    assert entries[("u", 2, 3)] == 5
    lines = path.read_text().splitlines()[1:]
    assert lines == sorted(lines) or lines  # canonical order is stable
    before = path.read_bytes()
    save_cache(load_cache(path), path)
    assert path.read_bytes() == before


def test_cache_poisoned_value_is_detected(tmp_path):
    path = tmp_path / "counts.cache"
    run("--cache", str(path), "count", "y", "--k", "3", "--n", "0..4")
    poisoned = path.read_text().replace("y 3 4 9", "y 3 4 8")
    path.write_text(poisoned)

    unchecked = run("--cache", str(path), "count", "catalan", "--n", "1")
    assert unchecked.exit_code == 0  # without the flag nothing recomputes

    path.write_text(poisoned)
    checked = run("--cache", str(path), "--verify-cache", "count", "catalan", "--n", "1")
    assert checked.exit_code == 1
    assert "recomputation gives 9" in checked.stderr


def test_cache_intact_verification_passes(tmp_path):
    path = tmp_path / "counts.cache"
    run("--cache", str(path), "count", "x", "--k", "2", "--n", "0..8")
    result = run("--cache", str(path), "--verify-cache", "count", "catalan", "--n", "2")
    assert result.exit_code == 0


def test_cache_round_trips_values_past_the_int_digit_cap(tmp_path, int_digit_cap):
    path = tmp_path / "counts.cache"
    first = run("--cache", str(path), "count", "catalan", "--n", "8000")
    assert first.exit_code == 0, first.stderr
    checked = run("--cache", str(path), "--verify-cache", "count", "catalan", "--n", "8000")
    assert checked.exit_code == 0, checked.stderr
    assert checked.stdout == first.stdout
    assert load_cache(path) == {("catalan", None, 8000): catalan(8000)}


def test_cache_rejects_malformed_file(tmp_path):
    path = tmp_path / "counts.cache"
    path.write_text("not a cache\n")
    assert run("--cache", str(path), "count", "catalan", "--n", "1").exit_code == 2


def test_cache_in_missing_directory_is_a_usage_error(tmp_path):
    cache = str(tmp_path / "no" / "counts.cache")
    result = run("--cache", cache, "count", "y", "--k", "2", "--n", "2")
    assert result.exit_code == 2
    assert "No such file or directory" in result.stderr
    assert cache in result.stderr and ".tmp" not in result.stderr
    assert result.stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("verify_flag", [(), ("--verify-cache",)], ids=["plain", "verify"])
@pytest.mark.parametrize("body", [
    "zzz 1 2 3",        # unknown family
    "y - 3 5",          # bounded family without k
    "catalan 2 3 5",    # unbounded family with k
    "y 0 3 5",          # k < 1
    "y 2 -1 5",         # n < 0
    "y 2 3 -5",         # negative value
    "y 2 3 x",          # not an integer
    "y 2 3 5\ny 2 3 3", # duplicate key
], ids=["family", "missing-k", "extra-k", "k", "n", "value", "integer", "duplicate"])
def test_cache_rejects_bad_entries_and_leaves_file_untouched(tmp_path, body, verify_flag):
    path = tmp_path / "counts.cache"
    path.write_bytes(f"sytkit cache v1\n{body}\n".encode())
    before = path.read_bytes()
    result = run("--cache", str(path), *verify_flag, "count", "catalan", "--n", "1")
    assert result.exit_code == 2
    assert "cache" in result.stderr
    assert path.read_bytes() == before
    with pytest.raises(ValueError):
        load_cache(path)


@pytest.mark.parametrize("body", [
    # no count at n = 5 has more than 5 * len("5") digits
    pytest.param(f"catalan - 5 {'7' * 5000}", id="5000"),
    pytest.param(f"catalan - 5 {'7' * 10**6}", id="1000000"),
    # k and n past len(str(sys.maxsize)) digits are refused before int()
    pytest.param(f"catalan - {'7' * 200_000} 1", id="n-200000"),
    pytest.param(f"y {'7' * 200_000} 3 5", id="k-200000"),
    pytest.param(f"y 2 {'1' * (len(str(sys.maxsize)) + 1)} 5", id="n-past-maxsize"),
    pytest.param(f"y -{'1' * (len(str(sys.maxsize)) + 1)} 3 5", id="negative-k-past-maxsize"),
])
def test_cache_rejects_oversized_value_and_leaves_file_untouched(tmp_path, body, int_digit_cap):
    path = tmp_path / "counts.cache"
    path.write_bytes(f"sytkit cache v1\n{body}\n".encode())
    before = path.read_bytes()
    start = time.perf_counter()
    result = run("--cache", str(path), "count", "catalan", "--n", "1")
    assert time.perf_counter() - start < 1
    assert result.exit_code == 2
    assert "digits" in result.stderr
    assert path.read_bytes() == before


@pytest.mark.parametrize("failure", ["write", "replace"])
def test_cache_save_failure_keeps_old_file(tmp_path, monkeypatch, failure):
    path = tmp_path / "counts.cache"
    save_cache({("catalan", None, 3): 5}, path)
    before = path.read_bytes()
    entries = {("catalan", None, 4): 14}
    if failure == "write":
        entries[("café", None, 1)] = 1  # not ASCII: the write itself raises
        expected = UnicodeEncodeError
    else:
        def refuse(src, dst):
            raise OSError("replace refused")
        monkeypatch.setattr("sytkit.output.os.replace", refuse)
        expected = OSError
    with pytest.raises(expected):
        save_cache(entries, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["counts.cache"]
