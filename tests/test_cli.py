import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from collections.abc import Iterator
from itertools import permutations
from math import comb, prod
from typing import NamedTuple

import pytest
from hypothesis import given, strategies as st

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from cli_runner import invoke as run
from oracles import oracle_json
from sytkit import cli
from sytkit.bijections import _colored_pairs, arrangement_to_matching
from sytkit.cli import _parse_ints, main, parse_range
from sytkit.core import Involution
from sytkit.counting import catalan
from sytkit.identities import Check, IdentityVerdict, TermBreakdown, verify_a005568
from sytkit.output import FORMATS, load_cache, render, save_cache


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
    assert list(parse_range("0..4")) == [0, 1, 2, 3, 4]
    assert list(parse_range("7")) == [7]
    for bad in ("", "4..1", "1..", "a", "1-3"):
        with pytest.raises(Exception):
            parse_range(bad)


def test_parse_cycles():
    assert Involution.from_cycles("(31)(62)(5)") == Involution((5,), ((1, 3), (2, 6)))
    assert Involution.from_cycles("") == Involution()
    assert Involution.from_cycles("()") == Involution()
    assert Involution.from_cycles("(12,3)(4)") == Involution((4,), ((3, 12),))
    for bad in ("(123)", "(1)(1)", "(1", "(1)x", "(1,2,3)", "(a)"):
        with pytest.raises(Exception):
            Involution.from_cycles(bad)
    assert Involution.from_cycles("(12,)(3)") == Involution((3, 12))
    for bad, message in (
        ("(1,2,)", "malformed cycle (1,2,)"),
        ("(,)", "malformed cycle (,)"),
        ("(00)", "cycle (00) needs comma form for labels >= 10"),
        ("(10)", "cycle (10) needs comma form for labels >= 10"),
        ("(1)()", "malformed cycle ()"),
        ("(123)", "cycle (123) has 3 labels; involutions allow 1 or 2"),
        ("(1,2,3)", "cycle (1,2,3) has 3 labels; involutions allow 1 or 2"),
        ("(²)", "malformed cycle (²)"),  # a digit to str.isdigit, but not to int()
    ):
        with pytest.raises(ValueError) as caught:
            Involution.from_cycles(bad)
        assert str(caught.value) == message, bad


def test_parse_word():
    def parse_word(text):
        return Involution.from_word(_parse_ints(text, "word entries"))

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
        assert Involution.from_cycles(v.cycle_string()) == v


@pytest.mark.parametrize("args", [
    ("count", "catalan", "--n", "٣"),
    ("count", "catalan", "--n", "1..٣"),
    ("count", "y", "--k", "٣", "--n", "3"),
    ("rsk", "--cycles", "(١٣)(٢)"),
    ("rsk", "--word", "٢ 1"),
    ("audit", "--n", "٢"),
    ("--oracle-limit", "٥", "audit", "--n", "1"),
    ("bijection", "f", "--n", "١", "--p", "(1)", "--q", "(2)"),
    ("bijection", "g", "--chosen", "٢ 1"),
], ids=["count-n", "range-end", "count-k", "cycle-labels", "word", "audit-n", "oracle-limit", "f-n", "chosen"])
def test_integers_are_read_in_ascii_digits_only(args):
    """int(), \\d and str.isdecimal also read other scripts' digits, here Arabic-Indic ones."""
    result = run(*args)
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.startswith("Error: ") and "Traceback" not in result.stderr


# ---------------------------------------------------------------- grammar

# command -> the options (and, at the top, the commands) its --help names
HELP_NAMES = {
    (): ("--format", "--cache", "--verify-cache", "--oracle-limit", "--trace", "--help",
         "count", "verify", "rsk", "bijection", "audit"),
    ("count",): ("FAMILY", "--k", "--n"),
    ("verify",): ("IDENTITY", "--k", "--n"),
    ("rsk",): ("--cycles", "--word"),
    ("bijection",): ("f", "g", "g-inverse"),
    ("bijection", "f"): ("--n", "--p", "--q"),
    ("bijection", "g"): ("--chosen", "--n"),
    ("bijection", "g-inverse"): ("--red", "--blue"),
    ("audit",): ("--n", "--k"),
}


@pytest.mark.parametrize("command", HELP_NAMES, ids=lambda command: "-".join(command) or "top")
def test_help_exits_0_and_names_each_option(command):
    result = run(*command, "--help")
    assert (result.exit_code, result.stderr) == (0, "")
    assert result.stdout.startswith(f"usage: {' '.join(('sytkit', *command))} ")
    for name in HELP_NAMES[command]:
        assert name in result.stdout, name


@pytest.mark.parametrize("args", [
    ("count", "catalan", "--n", "3", "--bogus"),
    ("--frobnicate", "count", "catalan", "--n", "3"),
    ("count", "catalan"),
    ("count", "--format", "json", "catalan", "--n", "3"),
    ("--cache", "c.cache", "--verify-c", "count", "catalan", "--n", "3"),
    ("--format", "xml", "count", "catalan", "--n", "3"),
    ("rsk", "--cycles", "(1)", "--word", "1"),
    (),
    ("--frobnicate",),
    ("bijection",),
    ("bijection", "--frobnicate"),
], ids=["unknown-option", "unknown-global-flag", "missing-option", "global-flag-after-command",
        "abbreviated-flag", "bad-choice", "cycles-and-word", "no-command", "unknown-flag-no-command",
        "no-map", "unknown-flag-no-map"])
def test_usage_error_exits_2_with_one_message(tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    result = run(*args)
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.startswith("Error: ") and result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr
    assert list(tmp_path.iterdir()) == []


class ClosedPipe(io.StringIO):
    """A stdout whose reader leaves after the first ``accepted`` writes: each later write raises,
    as a write to a closed pipe does."""

    def __init__(self, fd, accepted=0):
        super().__init__()
        self.fd = fd
        self.accepted = accepted

    def write(self, text):
        if not self.accepted:
            raise BrokenPipeError(32, "Broken pipe")
        self.accepted -= 1
        return super().write(text)

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("args, code, accepted", [
    pytest.param(("count", "catalan", "--n", "0..3000"), 0, 0, id="args0-0"),
    pytest.param(("verify", "naive-failure", "--k", "2", "--n", "1"), 1, 0, id="args1-1"),
    pytest.param(("--format", "json", "verify", "unrestricted", "--n", "1..20"), 0, 3, id="json-mid-record"),
])
def test_a_reader_that_leaves_early_is_not_an_error(tmp_path, args, code, accepted):
    # as `sytkit count catalan --n 0..3000 | head -c 10`: the command keeps its exit code, prints
    # nothing on stderr, and its stdout descriptor now points at os.devnull, so the exit flush passes
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        err, pipe = io.StringIO(), ClosedPipe(fd, accepted)
        with contextlib.redirect_stdout(pipe), contextlib.redirect_stderr(err):
            assert cli.run(list(args)) == code
        assert err.getvalue() == ""
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    written, whole = pipe.getvalue(), run(*args).stdout
    assert whole.startswith(written) and len(written) < len(whole) and bool(written) == bool(accepted)


@pytest.mark.parametrize("args, message", [
    (("--frobnicate",), "unrecognized arguments: --frobnicate"),
    (("bijection", "--frobnicate"), "unrecognized arguments: --frobnicate"),
    ((), "the following arguments are required: COMMAND"),
    (("bijection",), "the following arguments are required: MAP"),
])
def test_an_unknown_flag_is_named_before_a_missing_command(args, message):
    assert run(*args).stderr == f"Error: {message}\n"


# ---------------------------------------------------------------- count

def test_count_sequence():
    result = run("count", "y", "--k", "3", "--n", "0..4")
    assert result.exit_code == 0
    assert table_column(result.stdout, "value") == ["1", "1", "2", "4", "9"]


def test_count_single_values():
    assert table_column(run("count", "x", "--k", "2", "--n", "6").stdout, "value") == ["5"]
    assert table_column(run("count", "catalan", "--n", "0").stdout, "value") == ["1"]
    assert table_column(run("count", "u", "--k", "2", "--n", "3").stdout, "value") == ["5"]


def test_count_usage_errors():
    assert run("count", "y", "--n", "3").exit_code == 2  # missing k
    assert run("count", "catalan", "--k", "2", "--n", "3").exit_code == 2  # spurious k
    assert run("count", "nope", "--n", "3").exit_code == 2  # unknown family
    assert run("count", "y", "--k", "3", "--n", "x").exit_code == 2  # bad range


def test_count_large_n_without_recursion_limit():
    # one row of 1200 boxes, and the C(1200, 600) shapes of at most two columns
    assert table_column(run("count", "y", "--k", "1", "--n", "1200").stdout, "value") == ["1"]
    result = run("count", "y", "--k", "2", "--n", "1200")
    assert result.exit_code == 0
    assert table_column(result.stdout, "value") == [str(comb(1200, 600))]


def test_count_unbounded_y_is_the_involution_count_at_once():
    # i(60) = sum over j of C(60, 2j) (2j - 1)!!, the ways to choose and pair 2j labels
    i60 = sum(comb(60, 2 * j) * prod(range(1, 2 * j, 2)) for j in range(31))
    start = time.perf_counter()
    result = run("count", "y", "--k", "60", "--n", "60")
    assert time.perf_counter() - start < 1
    assert result.exit_code == 0
    assert table_column(result.stdout, "value") == [str(i60)]


def test_count_uncut_x_is_the_double_factorial_at_once():
    start = time.perf_counter()
    result = run("count", "x", "--k", "120", "--n", "120")
    assert time.perf_counter() - start < 1
    assert result.exit_code == 0
    assert table_column(result.stdout, "value") == [str(prod(range(1, 120, 2)))]


def test_module_entry_point_prints_the_same_bytes():
    args = ["count", "y", "--k", "3", "--n", "0..4"]
    src = os.path.dirname(os.path.dirname(sys.modules["sytkit"].__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "sytkit", *args],
                          capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == run(*args).stdout.encode()


# ---------------------------------------------------------------- verify

def test_verify_sweep_passes():
    result = run("verify", "wilf", "--k", "2", "--n", "1..5")
    assert result.exit_code == 0
    assert result.stdout.count("[holds]") == 5


def test_verify_naive_failure_counterexample():
    result = run("--format", "json", "verify", "naive-failure", "--k", "2", "--n", "3")
    assert result.exit_code == 0
    verdict = json.loads(result.stdout)["verdicts"][0]
    assert (verdict["lhs"], verdict["rhs"]) == ("100", "110")
    assert verdict["holds"] is True


def test_verify_parity_usage_errors():
    assert run("verify", "odd", "--k", "2", "--n", "3").exit_code == 2
    assert run("verify", "wilf", "--k", "3", "--n", "3").exit_code == 2
    extra = run("verify", "unrestricted", "--k", "2", "--n", "3")
    assert extra.exit_code == 2 and "identity 'unrestricted' takes no bound k" in extra.stderr
    missing = run("verify", "odd", "--n", "3")
    assert missing.exit_code == 2 and "identity 'odd' requires a bound k" in missing.stderr


@pytest.mark.parametrize("args, message", [
    (("verify", "wilf", "--k", "0", "--n", "1"), "bound k must be a positive integer, got 0"),
    (("verify", "odd", "--k", "-1", "--n", "1"), "bound k must be a positive integer, got -1"),
    (("audit", "--n", "2", "--k", "-3"), "bound k must be a positive integer, got -3"),
    (("verify", "wilf", "--k", "3", "--n", "1"), "bound k must be even, got 3"),
    (("verify", "odd", "--k", "2", "--n", "1"), "bound k must be odd, got 2"),
    (("audit", "--n", "2", "--k", "2"), "bound k must be odd, got 2"),
    (("bijection", "f", "--n", "-1", "--p", "(1)", "--q", ""), "n must be non-negative, got -1"),
], ids=["wilf-k0", "odd-k-1", "audit-k-3", "wilf-k3", "odd-k2", "audit-k2", "pair-n-1"])
def test_size_and_bound_errors_name_the_rule_they_break(args, message):
    # one rule per message, as the counts state it: k <= 0 is below 1, not of the wrong parity
    result = run(*args)
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", f"Error: {message}\n")


def test_verify_failure_exit_code():
    # the broken variant is *equal* at (2,1), so the inequality verdict fails
    result = run("verify", "naive-failure", "--k", "2", "--n", "1")
    assert result.exit_code == 1


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_verdict_failing_mid_range_exits_1(fmt, monkeypatch):
    from sytkit import identities
    failing = lambda n: identities.verify_unrestricted(n)._replace(holds=n != 3)
    monkeypatch.setitem(identities.IDENTITIES, "unrestricted", (failing, False))
    result = run("--format", fmt, "verify", "unrestricted", "--n", "1..5")
    assert (result.exit_code, result.stderr) == (1, "")
    if fmt == "json":
        holds = [v["holds"] for v in json.loads(result.stdout)["verdicts"]]
    elif fmt == "csv":
        rows = csv.DictReader(io.StringIO(result.stdout))
        holds = [r["holds"] == "true" for r in rows if r["row_type"] == "verdict"]
    else:
        heads = [line for line in result.stdout.splitlines() if line.startswith("unrestricted")]
        holds = [line.endswith("[holds]") for line in heads]
    assert holds == [True, True, False, True, True]


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_verifier_raising_mid_range_leaves_stdout_empty(fmt, monkeypatch):
    from sytkit import identities
    made = []

    def verifier(n):
        made.append(n)
        if n == 3:
            raise ValueError("refused n = 3")
        return identities.verify_unrestricted(n)

    monkeypatch.setitem(identities.IDENTITIES, "unrestricted", (verifier, False))
    result = run("--format", fmt, "verify", "unrestricted", "--n", "1..5")
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", "Error: refused n = 3\n")
    assert made == [1, 2, 3]  # the verdicts are made as the record is rendered


# a command returns (kind, record) and writes nothing: run renders the record, writes it and maps
# its exit code; verify's verdicts stay a lazy stream, so each is rendered as it is made
@pytest.mark.parametrize("argv, kind", [
    (("count", "catalan", "--n", "0..3"), "count"),
    (("verify", "wilf", "--k", "2", "--n", "1..3"), "verdict"),
    (("rsk", "--cycles", "(13)(26)(5)"), "trace"),
    (("--trace", "bijection", "f", "--n", "2", "--p", "(1)", "--q", "(2)(34)"), "trace"),
    (("--trace", "bijection", "g", "--chosen", "3 1"), "trace"),
    (("bijection", "g-inverse", "--red", "(23)", "--blue", "(14)"), "trace"),
    (("audit", "--n", "1"), "verdict"),
], ids=lambda a: " ".join(a) if isinstance(a, tuple) else a)
def test_a_command_returns_its_record_and_writes_nothing(argv, kind):
    args = cli.build_parser().parse_args(argv)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        returned = args.func(args)
    assert out.getvalue() == ""
    assert isinstance(returned, tuple) and len(returned) == 2 and returned[0] == kind
    record = returned[1]
    if argv[0] == "verify":
        assert isinstance(record, Iterator) and not isinstance(record, list)
    if kind == "verdict":
        record = {"verdicts": record}
    assert "".join(render(kind, record, "table")) + "\n" == run(*argv).stdout


def test_a_large_verdict_record_matches_the_stdlib_encoder():
    # real big-int terms over many pieces, where the hypothesis writer test stops at 12 leaves
    from sytkit.identities import verify_odd_k
    payload = {"verdicts": [verify_odd_k(3, n) for n in range(1, 31)]}
    result = run("--format", "json", "verify", "odd", "--k", "3", "--n", "1..30")
    assert (result.exit_code, result.stdout) == (0, oracle_json("verdict", payload) + "\n")


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_long_record_is_written_without_a_copy_of_the_whole(tmp_path, fmt):
    # stdout is a file, as a pipe would be, not a capturing buffer: the record is written piece by
    # piece, so the peak holds about one record, not its pieces beside their join (2.0-2.5 times)
    args = ["--format", fmt, "verify", "unrestricted", "--n"]
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        assert cli.run([*args, "1"]) == 0  # loads what the format uses before the trace starts
    path = tmp_path / "stdout"
    with open(path, "w") as out, contextlib.redirect_stdout(out):
        tracemalloc.start()
        try:
            assert cli.run([*args, "1..60"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1.3 * path.stat().st_size


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
    fields = trace_fields(result.stdout)
    assert fields["word"] == "3 6 1 5 2"
    assert fields["shape"] == "[2, 2, 1]"
    assert fields["lis"] == "2"
    assert fields["lds"] == "3"
    assert fields["fixed_points"] == "1"
    assert fields["odd_columns"] == "1"
    assert fields["beissinger_ok"] == "true"


def test_rsk_runs_robinson_schensted_once(monkeypatch):
    from sytkit import cli, core

    original, calls = core.rs_of_involution, []

    def counted(v):
        calls.append(v)
        return original(v)

    monkeypatch.setattr(cli, "rs_of_involution", counted)
    monkeypatch.setattr(core, "rs_of_involution", counted)
    result = run("rsk", "--cycles", "(31)(62)(5)")
    assert result.exit_code == 0
    assert trace_fields(result.stdout)["beissinger_ok"] == "true"
    assert len(calls) == 1


def test_rsk_identity_word():
    fields = trace_fields(run("rsk", "--word", "1 2 3").stdout)
    assert fields["shape"] == "[3]"
    assert fields["fixed_points"] == "3"
    assert fields["odd_columns"] == "3"


def test_rsk_empty_involution():
    result = run("rsk", "--cycles", "()")
    assert result.exit_code == 0
    fields = trace_fields(result.stdout)
    assert (fields["lis"], fields["lds"], fields["shape"]) == ("0", "0", "[]")


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
    fields = trace_fields(result.stdout)
    assert fields["p_out"] == "(13)(26)(5)(7)"
    assert fields["q_out"] == "(48)"
    assert fields["free_points"] == "5 7"
    assert fields["pivot"] == "7"
    assert fields["moved_from"] == "q"
    assert fields["moved_to"] == "p"


def test_bijection_f_trace_moves_a_pivot_from_p_to_q():
    fields = trace_fields(run("--trace", "bijection", "f", "--n", "1", "--p", "(2)", "--q", "(1)").stdout)
    assert (fields["p_out"], fields["q_out"]) == ("()", "(1)(2)")
    assert (fields["pivot"], fields["moved_from"], fields["moved_to"]) == ("2", "p", "q")


def test_bijection_f_moves_smaller_fixed_point_case():
    fields = trace_fields(run("bijection", "f", "--n", "1", "--p", "(1)", "--q", "(2)").stdout)
    assert fields["p_out"] == "(1)(2)"
    assert fields["q_out"] == "()"


def test_bijection_f_undefined_on_fpf_pair():
    result = run("bijection", "f", "--n", "1", "--p", "(21)", "--q", "")
    assert result.exit_code == 2
    assert result.stderr == "Error: toggle undefined: both involutions are fixed-point-free\n"
    assert result.stdout == ""


def test_bijection_f_validates_pair():
    assert run("bijection", "f", "--n", "2", "--p", "(1)", "--q", "(2)").exit_code == 2
    assert run("bijection", "f", "--n", "1", "--p", "(1)").exit_code == 2  # missing q
    result = run("bijection", "f", "--n", "-1", "--p", "(1)", "--q", "")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Error: n must be non-negative, got -1" in result.stderr


def test_bijection_f_rejects_a_huge_n_at_once():
    start = time.perf_counter()
    result = run("bijection", "f", "--n", "100000000", "--p", "(1)", "--q", "(2)")
    assert time.perf_counter() - start < 1
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Error: supports must partition 1..200000000" in result.stderr


def test_bijection_g_example():
    result = run("--trace", "bijection", "g", "--n", "2", "--chosen", "3 1")
    assert result.exit_code == 0
    fields = trace_fields(result.stdout)
    assert fields["red"] == "(23)"
    assert fields["blue"] == "(14)"
    assert "unchosen" in result.stdout  # trace table with the pairing


def test_bijection_g_single_cycles():
    assert trace_fields(run("bijection", "g", "--chosen", "2").stdout)["red"] == "(12)"
    assert trace_fields(run("bijection", "g", "--chosen", "1").stdout)["blue"] == "(12)"


def test_bijection_g_inverse_example():
    fields = trace_fields(run("bijection", "g-inverse", "--red", "(23)", "--blue", "(14)").stdout)
    assert fields["chosen"] == "3 1"
    assert trace_fields(run("bijection", "g-inverse", "--red", "(12)", "--blue", "").stdout)["chosen"] == "2"
    assert trace_fields(run("bijection", "g-inverse", "--red", "", "--blue", "(12)").stdout)["chosen"] == "1"


def test_bijection_g_inverse_validation():
    assert run("bijection", "g-inverse", "--red", "(1)", "--blue", "(23)").exit_code == 2
    assert run("bijection", "g-inverse", "--red", "(13)", "--blue", "(13)").exit_code == 2
    assert run("bijection", "g-inverse", "--red", "(13)", "--blue", "").exit_code == 2  # gap


def test_bijection_g_round_trip_through_cli():
    for chosen in ("3 1", "1 2", "4 2 6", "2 1 3"):
        g = trace_fields(run("bijection", "g", "--chosen", chosen).stdout)
        back = run("bijection", "g-inverse", "--red", g["red"], "--blue", g["blue"])
        assert trace_fields(back.stdout)["chosen"] == chosen


# map -> (a valid call, the options of the other maps, which it does not read)
BIJECTION_MAPS = {
    "f": (("--n", "1", "--p", "(1)", "--q", "(2)"), ("--chosen", "--red", "--blue")),
    "g": (("--chosen", "2 1"), ("--p", "--q", "--red", "--blue")),
    "g-inverse": (("--red", "(12)", "--blue", ""), ("--n", "--p", "--q", "--chosen")),
}
OPTION_VALUES = {
    "--n": "1", "--p": "(1)", "--q": "(2)", "--chosen": "1", "--red": "(12)", "--blue": "(12)",
}


@pytest.mark.parametrize("map_id, option", [
    (map_id, option) for map_id, (_, foreign) in BIJECTION_MAPS.items() for option in foreign
])
def test_bijection_map_rejects_options_it_does_not_read(map_id, option):
    valid = BIJECTION_MAPS[map_id][0]
    assert run("bijection", map_id, *valid).exit_code == 0
    result = run("bijection", map_id, *valid, option, OPTION_VALUES[option])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert option in result.stderr


def test_bijection_g_checks_n_against_the_chosen_labels():
    result = run("bijection", "g", "--n", "5", "--chosen", "3 1")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "--n" in result.stderr
    assert run("bijection", "g", "--n", "2", "--chosen", "3 1").exit_code == 0


def test_bijection_unknown_or_missing_map_is_a_usage_error():
    for args in (("bijection", "h"), ("bijection",), ("bijection", "--chosen", "1")):
        result = run(*args)
        assert result.exit_code == 2
        assert result.stdout == ""


@pytest.mark.parametrize("n", range(4))
def test_bijection_g_trace_table_matches_the_pairing_rule(n):
    """The j-th smallest unchosen label goes with the j-th chosen one, red when smaller."""
    for chosen in permutations(range(1, 2 * n + 1), n):
        result = run("--format", "json", "--trace", "bijection", "g",
                     "--chosen", " ".join(map(str, chosen)))
        assert result.exit_code == 0
        unchosen = sorted(set(range(1, 2 * n + 1)) - set(chosen))
        assert json.loads(result.stdout)["table"]["rows"] == [
            [str(i), str(a), "red" if i < a else "blue"] for i, a in zip(unchosen, chosen)
        ]


# ---------------------------------------------------------------- audit

def test_audit_small():
    result = run("--format", "json", "audit", "--n", "1")
    assert result.exit_code == 0
    verdict = json.loads(result.stdout)["verdicts"][0]
    assert verdict["lhs"] == "2"
    assert dict((c["name"], c["value"]) for c in verdict["checks"])["survivors"] == "2"


@pytest.mark.parametrize("args, checked", [
    (("verify", "corollary-k3", "--n", "2"), True),
    (("verify", "naive-failure", "--k", "2", "--n", "3"), False),
    (("audit", "--n", "2"), True),
], ids=["corollary-k3", "naive-failure", "audit"])
def test_a_json_verdict_has_the_fields_of_the_verdict_tuple_in_order(args, checked):
    result = run("--format", "json", *args)
    [verdict] = json.loads(result.stdout)["verdicts"]
    assert result.exit_code == 0 and bool(verdict["checks"]) == checked
    assert tuple(verdict) == IdentityVerdict._fields
    assert all(tuple(check) == Check._fields for check in verdict["checks"])


def test_audit_bounded():
    assert run("audit", "--n", "2", "--k", "3").exit_code == 0


def test_audit_of_an_empty_pair_space_is_a_usage_error():
    result = run("audit", "--n", "0")
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == "Error: n must be a positive integer, got 0\n"


def test_audit_scale_and_parity_errors():
    result = run("audit", "--n", "9")
    assert result.exit_code == 3
    assert "limit" in result.stderr
    assert run("audit", "--n", "2", "--k", "2").exit_code == 2
    assert run("--oracle-limit", "3", "audit", "--n", "4").exit_code == 3
    start = time.perf_counter()
    result = run("audit", "--n", "10000000000000")
    assert time.perf_counter() - start < 1
    assert result.exit_code == 3
    assert result.stderr.count("\n") == 1  # one message line from the exit-code mapping
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert "pair space enumeration limited to n=4, got n=10000000000000" in result.stderr


# above sys.maxsize: math.factorial and math.comb overflow past it
HUGE = "99999999999999999999"


@pytest.mark.parametrize("args", [
    ("count", "y", "--k", "3", "--n", HUGE + "999"),
    ("count", "catalan", "--n", f"0..{HUGE}"),
    ("verify", "wilf", "--k", "2", "--n", HUGE),
    ("count", "y", "--k", HUGE, "--n", "3"),
    ("audit", "--n", HUGE),
    ("--oracle-limit", HUGE, "audit", "--n", "1"),
], ids=["count-n", "range-end", "verify-n", "count-k", "audit-n", "oracle-limit"])
def test_a_size_or_bound_above_maxsize_is_a_scale_limit(args):
    result = run(*args)
    assert (result.exit_code, result.stdout) == (3, "")
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
    value = next(a for a in args if HUGE in a).rpartition("..")[2]
    assert result.stderr.startswith(f"{value} is above {sys.maxsize}")


def test_running_out_of_memory_is_a_scale_limit(monkeypatch):
    from sytkit import counting

    def exhausted(n):
        raise MemoryError
    monkeypatch.setitem(counting.FAMILIES, "catalan", (exhausted, False))
    result = run("count", "catalan", "--n", "0..3")
    assert (result.exit_code, result.stdout) == (3, "")
    assert result.stderr.count("\n") == 1 and result.stderr.startswith("out of memory")


@pytest.mark.skipif(resource is None, reason="needs resource.setrlimit")
def test_a_process_that_runs_out_of_memory_exits_3():
    # the address space is capped in the child alone, so the range's list of sizes cannot be built
    limit = 256 * 2**20
    src = os.path.dirname(os.path.dirname(sys.modules["sytkit"].__file__))
    proc = subprocess.run([sys.executable, "-m", "sytkit", "count", "catalan", "--n", "0..100000000"],
                          capture_output=True, env={**os.environ, "PYTHONPATH": src}, text=True, timeout=60,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("out of memory")


def test_a_refused_bound_writes_no_cache(tmp_path):
    path = tmp_path / "big.cache"
    result = run("--cache", str(path), "count", "y", "--k", HUGE, "--n", "3")
    assert (result.exit_code, result.stdout) == (3, "")
    assert result.stderr == f"{HUGE} is above {sys.maxsize}, the largest size or bound (sys.maxsize)\n"
    assert list(tmp_path.iterdir()) == []


def test_a_saved_cache_always_reloads(tmp_path):
    path = tmp_path / "c.cache"
    args = ("--cache", str(path), "count", "y", "--k", str(sys.maxsize), "--n", "3")
    first = run(*args)
    assert first.exit_code == 0 and table_column(first.stdout, "value") == ["4"]
    assert load_cache(path) == {("y", sys.maxsize, 3): "4"}
    assert run(*args) == first
    past = tmp_path / "past.cache"
    result = run("--cache", str(past), "count", "y", "--k", str(sys.maxsize + 1), "--n", "3")
    assert (result.exit_code, result.stdout) == (3, "")
    assert not past.exists()


def test_oracle_limit_must_be_positive():
    result = run("--oracle-limit", "0", "audit", "--n", "1")
    assert result.exit_code == 2
    assert "--oracle-limit" in result.stderr


# ---------------------------------------------------------------- global flags

# command -> (a valid call, the global flags besides --format that it reads)
COMMAND_CALLS = {
    "count": (("count", "catalan", "--n", "3"), {"--cache", "--verify-cache"}),
    "verify": (("verify", "wilf", "--k", "2", "--n", "3"), set()),
    "rsk": (("rsk", "--cycles", "(1)"), set()),
    "bijection f": (("bijection", "f", "--n", "1", "--p", "(1)", "--q", "(2)"), {"--trace"}),
    "bijection g": (("bijection", "g", "--chosen", "2 1"), {"--trace"}),
    "bijection g-inverse": (("bijection", "g-inverse", "--red", "(12)", "--blue", ""), set()),
    "audit": (("audit", "--n", "1"), {"--oracle-limit"}),
}
GLOBAL_FLAGS = ("--cache", "--verify-cache", "--oracle-limit", "--trace")


@pytest.mark.parametrize("command, flag", [
    pytest.param(command, flag, id=f"{command.replace(' ', '-')}{flag}")
    for command, (_, reads) in COMMAND_CALLS.items() for flag in GLOBAL_FLAGS if flag not in reads
])
def test_global_flag_the_command_does_not_read_is_a_usage_error(tmp_path, command, flag):
    call = COMMAND_CALLS[command][0]
    assert run(*call).exit_code == 0
    cache = str(tmp_path / "c.cache")
    given = {
        "--cache": ("--cache", cache),
        "--verify-cache": ("--cache", cache, "--verify-cache"),  # --verify-cache needs --cache
        "--oracle-limit": ("--oracle-limit", "9"),
        "--trace": ("--trace",),
    }[flag]
    result = run(*given, *call)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"{command} does not read the global flag" in result.stderr
    assert flag in result.stderr and "Traceback" not in result.stderr
    assert list(tmp_path.iterdir()) == []


def test_global_flags_are_read_by_their_commands(tmp_path):
    cache = tmp_path / "c.cache"
    assert run("--cache", str(cache), "count", "catalan", "--n", "3").exit_code == 0
    assert load_cache(cache) == {("catalan", None, 3): "5"}
    assert run("--cache", str(cache), "--verify-cache", "count", "catalan", "--n", "3").exit_code == 0
    f_call, g_call = COMMAND_CALLS["bijection f"][0], COMMAND_CALLS["bijection g"][0]
    assert trace_fields(run("--trace", *f_call).stdout)["pivot"] == "2"
    assert "unchosen" in run("--trace", *g_call).stdout
    assert run("--oracle-limit", "1", "audit", "--n", "2").exit_code == 3
    assert run("--oracle-limit", "9", "audit", "--n", "1").exit_code == 0
    for call, _ in COMMAND_CALLS.values():
        result = run("--format", "json", *call)
        assert result.exit_code == 0
        json.loads(result.stdout)


# ---------------------------------------------------------------- formats

def csv_rows(output):
    return list(csv.DictReader(io.StringIO(output)))


def test_count_formats_agree():
    args = ("count", "y", "--k", "3", "--n", "0..4")
    table_vals = table_column(run(*args).stdout, "value")
    json_doc = json.loads(run("--format", "json", *args).stdout)
    json_vals = [row["value"] for row in json_doc["rows"]]
    csv_vals = [row["value"] for row in csv_rows(run("--format", "csv", *args).stdout)]
    assert table_vals == json_vals == csv_vals == ["1", "1", "2", "4", "9"]
    assert all(isinstance(row["value"], str) for row in json_doc["rows"])


def test_verdict_formats_agree():
    args = ("verify", "fpf-pairs", "--n", "2")
    json_doc = json.loads(run("--format", "json", *args).stdout)["verdicts"][0]
    json_terms = sorted(t["term_value"] for t in json_doc["rhs_terms"])

    rows = csv_rows(run("--format", "csv", *args).stdout)
    csv_verdict = next(r for r in rows if r["row_type"] == "verdict")
    csv_terms = sorted(r["term_value"] for r in rows
                       if r["row_type"] == "term" and r["side"] == "rhs")
    assert (csv_verdict["lhs"], csv_verdict["rhs"]) == (json_doc["lhs"], json_doc["rhs"]) == ("12", "12")
    assert csv_terms == json_terms

    table_out = run(*args).stdout
    assert "lhs=12" in table_out and "rhs=12" in table_out


@pytest.mark.parametrize("fmt", ("table", "json", "csv"))
def test_render_checks_the_record_kind_in_every_format(fmt):
    with pytest.raises(ValueError, match=r"^unknown record kind 'bogus'$"):
        render("bogus", {}, fmt)
    assert "".join(render("trace", {"fields": [("n", 1)]}, fmt))
    with pytest.raises(ValueError, match=r"^unknown format 'xml'$"):
        render("bogus", {}, "xml")  # the format is checked first


def test_json_serializes_integers_as_strings():
    doc = json.loads(run("--format", "json", "count", "catalan", "--n", "10..12").stdout)
    for row in doc["rows"]:
        assert isinstance(row["value"], str) and row["value"].isdigit()
        assert isinstance(row["n"], str)


class Pair(NamedTuple):
    left: object
    right: object


# text with quotes, backslashes, control characters, a lone surrogate and non-ASCII letters
JSON_TEXT = st.text() | st.text(alphabet='"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800\U0001F600ab', min_size=1)
TERM = st.builds(TermBreakdown, *[st.integers()] * 6)
CHECK = st.builds(Check, JSON_TEXT, st.integers())
VERDICT = st.builds(IdentityVerdict, JSON_TEXT, st.none() | st.integers(), *[st.integers()] * 3, st.booleans(),
                    *[st.lists(record, max_size=3).map(tuple) for record in (CHECK, TERM, TERM)])
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**300, 10**300) | JSON_TEXT,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(JSON_TEXT, inner, max_size=4) | st.builds(Pair, inner, inner)
                   | TERM | CHECK | VERDICT),
    max_leaves=12,
)


@given(st.sampled_from(["count", "verdict", "trace"]), st.dictionaries(JSON_TEXT, JSON_VALUE, max_size=4))
def test_json_writer_matches_the_stdlib_encoder(kind, payload):
    assert "".join(render(kind, payload, "json")) == oracle_json(kind, payload)


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_verdict_record_renders_the_same_from_an_iterator(fmt):
    verdicts = [verify_a005568(n) for n in range(4)]
    listed = render("verdict", {"verdicts": verdicts}, fmt)
    assert render("verdict", {"verdicts": iter(verdicts)}, fmt) == listed
    assert render("verdict", {"verdicts": iter(())}, fmt) == render("verdict", {"verdicts": []}, fmt)


def g_trace(labels):
    """The trace record of ``--trace bijection g`` for these labels, built from the library."""
    colored = arrangement_to_matching(labels)
    return {"fields": [("n", colored.n), ("chosen", " ".join(map(str, labels)) or "-"),
                       ("red", colored.p.cycle_string()), ("blue", colored.q.cycle_string())],
            "table": {"columns": ["unchosen", "chosen", "color"], "rows": _colored_pairs(colored)}}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("args, kind, payload", [
    (("verify", "a005568", "--n", "0..3"), "verdict",
     lambda: {"verdicts": [verify_a005568(n) for n in range(4)]}),
    (("--trace", "bijection", "g", "--chosen", "3 1"), "trace", lambda: g_trace((3, 1))),
    (("--trace", "bijection", "g", "--chosen", ""), "trace", lambda: g_trace(())),  # a table with no rows
], ids=["verdict", "trace-table", "trace-empty-table"])
def test_the_cli_writes_what_render_returns(fmt, args, kind, payload):
    result = run("--format", fmt, *args)
    assert result.exit_code == 0 and result.stdout == "".join(render(kind, payload(), fmt)) + "\n"


@pytest.mark.parametrize("bad", [1.5, {1, 2}, [None, {"x": (1, 2.0)}]], ids=["float", "set", "nested"])
def test_json_writer_refuses_floats_and_sets(bad):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        render("trace", {"fields": bad}, "json")


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
    assert entries[("y", 3, 2)] == "2"
    assert entries[("catalan", None, 3)] == "5"
    assert entries[("u", 2, 3)] == "5"
    lines = path.read_text().splitlines()[1:]
    assert lines == sorted(lines) or lines  # canonical order is stable
    before = path.read_bytes()
    save_cache(load_cache(path), path)
    assert path.read_bytes() == before


def test_verify_cache_without_cache_is_a_usage_error():
    result = run("--verify-cache", "count", "catalan", "--n", "3")
    assert result.exit_code == 2
    assert "Error: --verify-cache needs --cache" in result.stderr
    assert result.stdout == ""


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


@pytest.mark.parametrize("fmt", FORMATS)
def test_cached_count_reads_hits_before_computing(tmp_path, monkeypatch, fmt):
    import sytkit.counting as counting

    path = tmp_path / "counts.cache"
    args = ("--format", fmt, "--cache", str(path), "count", "y", "--k", "3", "--n", "4..9")
    first = run(*args)
    # a count reaches the renderer as its decimal text, which prints as the int does
    ints = [{"family": "y", "k": 3, "n": n, "value": counting.count_family("y", 3, n)}
            for n in range(4, 10)]
    assert first.exit_code == 0 and first.stdout == "".join(render("count", {"rows": ints}, fmt)) + "\n"
    walked = []
    hook_count = counting._hook_count  # the kernel every shape walk calls
    monkeypatch.setattr(counting, "_hook_count",
                        lambda shape, fact: walked.append(shape) or hook_count(shape, fact))
    counting.count_syt_row_bounded.cache_clear()  # as cold as a new process
    saved = path.read_bytes()
    second = run(*args)
    assert second.exit_code == 0 and second.stdout == first.stdout
    assert walked == []
    assert path.read_bytes() == saved

    counting.count_syt_row_bounded.cache_clear()
    third = run("--cache", str(path), "count", "y", "--k", "3", "--n", "8..10")
    assert table_column(third.stdout, "value") == ["323", "835", "2188"]  # Motzkin numbers
    assert walked and all(sum(shape) == 10 for shape in walked)  # only the miss is walked
    assert load_cache(path)[("y", 3, 10)] == "2188"


def test_all_hit_cached_count_leaves_the_file_alone(tmp_path, monkeypatch):
    import sytkit.cli as cli

    path = tmp_path / "counts.cache"
    args = ("--cache", str(path), "count", "y", "--k", "3", "--n", "4..9")
    assert run(*args).exit_code == 0
    before = path.stat().st_ino, path.read_bytes()
    saved = []
    monkeypatch.setattr(cli, "save_cache", lambda entries, p: saved.append(p) or save_cache(entries, p))
    assert run(*args).exit_code == 0
    assert saved == []
    assert (path.stat().st_ino, path.read_bytes()) == before

    assert run("--cache", str(path), "count", "y", "--k", "3", "--n", "4..10").exit_code == 0
    assert saved == [str(path)]  # one miss, one save
    assert load_cache(path)[("y", 3, 10)] == "2188"


@pytest.mark.parametrize("body, verify_flag, code", [
    ("not a cache\n", (), 2),
    ("sytkit cache v1\ny 3 2 2\ny 3 2 2\n", (), 2),
    ("sytkit cache v1\ny 4 4 9\n", ("--verify-cache",), 1),  # i(4) = 10, found without a shape walk
], ids=["header", "duplicate", "poisoned"])
def test_bad_cache_is_reported_without_counting(tmp_path, monkeypatch, body, verify_flag, code):
    import sytkit.counting as counting

    walked = []
    hook_count = counting._hook_count  # the kernel every shape walk calls
    monkeypatch.setattr(counting, "_hook_count",
                        lambda shape, fact: walked.append(shape) or hook_count(shape, fact))
    counting.count_syt_row_bounded.cache_clear()  # as cold as a new process
    path = tmp_path / "counts.cache"
    path.write_bytes(body.encode())
    result = run("--cache", str(path), *verify_flag, "count", "y", "--k", "3", "--n", "9")
    assert result.exit_code == code, result.stderr
    assert "cache" in result.stderr and result.stdout == ""
    assert walked == []
    assert path.read_bytes() == body.encode()
    # the control: the same probe sees the walk of a cold run without the bad cache
    counting.count_syt_row_bounded.cache_clear()
    assert run("count", "y", "--k", "3", "--n", "9").exit_code == 0
    assert walked and all(sum(shape) == 9 for shape in walked)


def test_cache_round_trips_values_past_the_int_digit_cap(tmp_path, int_digit_cap):
    path = tmp_path / "counts.cache"
    first = run("--cache", str(path), "count", "catalan", "--n", "8000")
    assert first.exit_code == 0, first.stderr
    checked = run("--cache", str(path), "--verify-cache", "count", "catalan", "--n", "8000")
    assert checked.exit_code == 0, checked.stderr
    assert checked.stdout == first.stdout
    assert load_cache(path) == {("catalan", None, 8000): str(catalan(8000))}


def test_cache_rejects_malformed_file(tmp_path):
    path = tmp_path / "counts.cache"
    path.write_text("not a cache\n")
    assert run("--cache", str(path), "count", "catalan", "--n", "1").exit_code == 2


def test_a_missing_cache_file_is_an_empty_cache(tmp_path):
    path = tmp_path / "counts.cache"
    assert load_cache(path) == {} and load_cache(str(path)) == {}
    assert not path.exists()


def test_a_cache_path_with_a_trailing_slash_names_the_file(tmp_path, monkeypatch):
    # pathlib drops the slash, so the first run writes 'newc' and the second reads it back
    import sytkit.counting as counting

    args = ("--cache", f"{tmp_path / 'newc'}/", "count", "catalan", "--n", "0..3")
    first = run(*args)
    assert first.exit_code == 0, first.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["newc"]
    saved = (tmp_path / "newc").read_bytes()
    assert saved == b"sytkit cache v1\ncatalan - 0 1\ncatalan - 1 1\ncatalan - 2 2\ncatalan - 3 5\n"
    monkeypatch.setattr(counting, "count_family", lambda *args: pytest.fail("recounted a cached entry"))
    second = run(*args)
    assert (second.exit_code, second.stdout, second.stderr) == (0, first.stdout, "")
    assert (tmp_path / "newc").read_bytes() == saved


def test_bad_query_is_reported_before_a_bad_cache(tmp_path):
    path = tmp_path / "counts.cache"
    path.write_text("not a cache\n")
    bad_k = run("--cache", str(path), "count", "y", "--k", "0", "--n", "3")
    assert bad_k.exit_code == 2 and "bound k must be a positive integer, got 0" in bad_k.stderr
    bad_n = run("--cache", str(path), "count", "y_unbounded", "--n", "-2..1")
    assert bad_n.exit_code == 2 and "n must be non-negative, got -2" in bad_n.stderr
    assert path.read_text() == "not a cache\n"


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
    "catalan - 9223372036854775808 1",  # n above sys.maxsize
    "y 9223372036854775808 3 4",        # k above sys.maxsize
    "catalan - 10 11111111",            # 8 digits, but C_10 < 4**10 has at most 7
    "y 2 10 11111111111",               # 11 digits, but y_2(10) <= 2**10 has at most 10
    "x 3 10 11111111111",               # 11 digits, but x_3(10) <= 3**10 has at most 10
    "u 2 100 1" + "1" * 200,            # 201 digits, but u_2(100) <= 2**200 has at most 200
    "y 12 3 1111",                      # 4 digits, but y_12(3) <= 3**3 has at most 3
    "y_unbounded - 3 1111",             # 4 digits, but i(3) <= 3**3 has at most 3
    "x_unbounded - 12 1" + "1" * 24,    # 25 digits, but (11)!! <= 12**12 has at most 24
    "y 2 0 11",                         # 2 digits, but every count at n = 0 is 1
], ids=["family", "missing-k", "extra-k", "k", "n", "value", "integer", "duplicate", "huge-n", "huge-k",
        "catalan-digits", "y-digits", "x-digits", "u-digits", "k-above-n-digits", "y_unbounded-digits",
        "x_unbounded-digits", "n0-digits"])
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


@pytest.mark.parametrize("verify_flag", [(), ("--verify-cache",)], ids=["plain", "verify"])
@pytest.mark.parametrize("body", ["catalan - 1", "catalan - 1 1 1"], ids=["3-fields", "5-fields"])
def test_cache_line_needs_exactly_four_fields(tmp_path, body, verify_flag):
    path = tmp_path / "counts.cache"
    path.write_bytes(f"sytkit cache v1\n{body}\n".encode())
    before = path.read_bytes()
    result = run("--cache", str(path), *verify_flag, "count", "catalan", "--n", "1")
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == f"Error: malformed cache line 2: {body!r}: expected 'family k n value'\n"
    assert path.read_bytes() == before


@pytest.mark.parametrize("verify_flag", [(), ("--verify-cache",)], ids=["plain", "verify"])
@pytest.mark.parametrize("body, shown", [
    ("café - 2 2".encode(), r"'caf\udcc3\udca9 - 2 2'"),
    (b"catalan - 2 2\x85", r"'catalan - 2 2\udc85'"),  # NEL, a line break once decoded as Latin-1
], ids=["family", "trailing-byte"])
def test_cache_names_the_line_of_a_byte_past_ascii(tmp_path, body, shown, verify_flag):
    path = tmp_path / "counts.cache"
    path.write_bytes(b"sytkit cache v1\ncatalan - 1 1\n" + body + b"\n")
    before = path.read_bytes()
    result = run("--cache", str(path), *verify_flag, "count", "catalan", "--n", "1")
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == f"Error: malformed cache line 3: {shown}: not ASCII\n"
    assert path.read_bytes() == before


def test_cache_skips_blank_lines(tmp_path):
    path = tmp_path / "counts.cache"
    path.write_bytes(b"sytkit cache v1\ncatalan - 1 1\n\ncatalan - 2 2\n")
    before = path.read_bytes()
    result = run("--cache", str(path), "count", "catalan", "--n", "1..2")
    assert result.exit_code == 0, result.stderr
    assert result.stdout == run("count", "catalan", "--n", "1..2").stdout
    assert table_column(result.stdout, "value") == ["1", "2"]
    assert path.read_bytes() == before  # every row was a hit, so nothing is saved


@pytest.mark.parametrize("body, field", [
    ("y 3 4 9_0", "count"),   # int() reads 90
    ("y 3 4 +9", "count"),
    ("y 3 4 0009", "count"),
    ("y 3 4 -0", "count"),    # int() reads 0, which is not negative
    ("y 3 +4 9", "n"),
    ("y 03 4 9", "k"),
], ids=["underscore", "plus", "leading-zeros", "negative-zero", "plus-n", "leading-zero-k"])
def test_cache_accepts_only_the_integers_save_cache_writes(tmp_path, body, field):
    path = tmp_path / "counts.cache"
    path.write_bytes(f"sytkit cache v1\n{body}\n".encode())
    before = path.read_bytes()
    result = run("--cache", str(path), "count", "y", "--k", "3", "--n", "4")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"{field} is not a canonical decimal integer" in result.stderr
    assert path.read_bytes() == before


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


@pytest.mark.parametrize("n, digits", [(200_000, 1_100_000), (10**18, 300_000)],
                         ids=["n-200000", "n-10**18"])
def test_cache_keeps_a_long_count_as_text_without_parsing_it(tmp_path, n, digits, int_digit_cap):
    # both lines pass the digit bound, n * len(str(n)) outside the Catalan family; int() and str()
    # on a count this long take seconds
    line = f"y_unbounded - {n} {'7' * digits}"
    path = tmp_path / "counts.cache"
    path.write_bytes(f"sytkit cache v1\n{line}\n".encode())
    start = time.perf_counter()
    result = run("--cache", str(path), "count", "catalan", "--n", "1")
    assert time.perf_counter() - start < 1
    assert result.exit_code == 0, result.stderr
    assert result.stdout == run("count", "catalan", "--n", "1").stdout
    assert path.read_bytes() == f"sytkit cache v1\ncatalan - 1 1\n{line}\n".encode()


@pytest.mark.parametrize("verify_flag", [(), ("--verify-cache",)], ids=["plain", "verify"])
def test_cache_loads_a_true_catalan_count_within_its_digit_bound(tmp_path, verify_flag):
    # C_40 has 22 digits; a Catalan count may have at most 40 * 60206 // 100000 + 1 = 25
    path = tmp_path / "counts.cache"
    path.write_bytes(f"sytkit cache v1\ncatalan - 40 {catalan(40)}\n".encode())
    before = path.read_bytes()
    result = run("--cache", str(path), *verify_flag, "count", "catalan", "--n", "40")
    assert result.exit_code == 0, result.stderr
    assert result.stdout == run("count", "catalan", "--n", "40").stdout
    assert path.read_bytes() == before
    assert load_cache(path) == {("catalan", None, 40): str(catalan(40))}


@pytest.mark.parametrize("n", (0, 1))
def test_cache_digit_bound_is_one_digit_at_n_up_to_1(tmp_path, n):
    # every count at n <= 1 is 1 (0 for fixed-point-free at n = 1), so a 2-digit value is refused
    path = tmp_path / "counts.cache"
    path.write_bytes(f"sytkit cache v1\ncatalan - {n} 10\n".encode())
    before = path.read_bytes()
    result = run("--cache", str(path), "count", "catalan", "--n", str(n))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "count has 2 digits" in result.stderr
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


# ---------------------------------------------------------------- import contract

# Each child runs with -S, so the modules that site loads (which differ between Python versions)
# are not counted against sytkit.
LOADED_MODULES = """
import contextlib, io, json, sys
if len(sys.argv) > 1:
    from sytkit import cli
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run(json.loads(sys.argv[1]))
else:
    import sytkit
print(json.dumps(sorted(m for m in sys.modules if m.startswith("sytkit")
                        or m in ("pathlib", "typing", "__future__", "importlib")
                        or m.split(".")[0] in ("click", "dataclasses", "inspect"))))
"""

# the CLI runs on argparse, and its records are named tuples and slotted classes: click,
# dataclasses and inspect (which dataclasses loads) are in none of these module sets
COMMAND_LAYERS = [
    ((), set()),
    (("--help",), {"core", "output"}),
    (("rsk", "--cycles", "(13)(26)(5)"), {"core", "output"}),
    (("count", "y", "--k", "3", "--n", "0..6"), {"core", "counting", "output"}),
    (("bijection", "f", "--n", "2", "--p", "(1)", "--q", "(2)(34)"), {"core", "bijections", "output"}),
    (("bijection", "g", "--chosen", "3 1"), {"core", "bijections", "output"}),
    (("verify", "wilf", "--k", "2", "--n", "3"), {"core", "counting", "identities", "output"}),
    (("audit", "--n", "1"), {"core", "counting", "identities", "bijections", "output"}),
]

# the standard-library modules that only some commands load: typing for the identities' named
# tuples, pathlib for a cache file; bare `import sytkit` and every other command load neither.
# No command loads __future__ or importlib: no module imports __future__, and sytkit.__getattr__
# imports importlib only for a public name, which no command looks up
STDLIB_LOADS = {"verify": {"typing"}, "audit": {"typing"}, "--cache": {"pathlib"}}


TABLE_FORMAT_LOADS = """
import contextlib, io, sys
from sytkit import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.run(sys.argv[1:])
print(sorted({"csv", "json", "_json"} & set(sys.modules)))
"""


def test_table_format_loads_neither_csv_nor_json():
    src = os.path.dirname(os.path.dirname(sys.modules["sytkit"].__file__))
    proc = subprocess.run([sys.executable, "-S", "-c", TABLE_FORMAT_LOADS, "rsk", "--cycles", "(13)(26)(5)"],
                          capture_output=True, env={**os.environ, "PYTHONPATH": src}, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_json_and_csv_formats_load_only_their_own_module(fmt):
    src = os.path.dirname(os.path.dirname(sys.modules["sytkit"].__file__))
    proc = subprocess.run([sys.executable, "-S", "-c", TABLE_FORMAT_LOADS, "--format", fmt,
                           "rsk", "--cycles", "(13)(26)(5)"],
                          capture_output=True, env={**os.environ, "PYTHONPATH": src}, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    loads = {"json": "_json", "csv": "csv"}[fmt]  # json needs only the C string escaper in _json
    assert proc.stdout == f"['{loads}']\n"


def test_each_command_loads_only_its_layers(tmp_path):
    src = os.path.dirname(os.path.dirname(sys.modules["sytkit"].__file__))
    env = {**os.environ, "PYTHONPATH": src}
    cases = [*COMMAND_LAYERS, (("--cache", str(tmp_path / "c.cache"), "count", "y", "--k", "3", "--n", "0..6"),
                               {"core", "counting", "output"})]
    procs = [subprocess.Popen([sys.executable, "-S", "-c", LOADED_MODULES,
                               *([json.dumps(argv)] if argv else [])],
                              stdout=subprocess.PIPE, env=env, text=True)
             for argv, _ in cases]
    outs = [proc.communicate(timeout=60)[0] for proc in procs]  # every child reaped before any assertion
    for proc, out, (argv, layers) in zip(procs, outs, cases):
        assert proc.returncode == 0, argv
        loaded = set(json.loads(out))
        assert not loaded & {"dataclasses", "inspect"}, argv
        base = {"sytkit"} | ({"sytkit.cli"} if argv else set())
        stdlib = set().union(*(STDLIB_LOADS.get(arg, set()) for arg in argv))
        assert loaded == base | {f"sytkit.{layer}" for layer in layers} | stdlib, argv
    assert (tmp_path / "c.cache").exists()  # the cache case read and wrote its file

    import sytkit

    listed = dir(sytkit)
    for name in sytkit.__all__:
        assert getattr(sytkit, name) is not None and name in listed
    with pytest.raises(AttributeError, match="no_such_name"):
        sytkit.no_such_name


# each module alone: the layers it imports at load time, itself included; every error type is
# defined by the module that raises it, so no module loads another just for an exception.  Only
# identities loads typing (for NamedTuple), and no module loads pathlib, __future__ or importlib
MODULE_LAYERS = {
    "core": {"core"},
    "counting": {"core", "counting"},
    "identities": {"core", "counting", "identities"},
    "bijections": {"core", "bijections"},
    "output": {"output"},
    "cli": {"core", "output", "cli"},
}


def test_each_module_loads_only_the_layers_it_imports():
    src = os.path.dirname(os.path.dirname(sys.modules["sytkit"].__file__))
    env = {**os.environ, "PYTHONPATH": src}
    script = ("import json, sys; __import__('sytkit.' + sys.argv[1]); "  # __import__: importlib not loaded
              "print(json.dumps(sorted(m for m in sys.modules if m.startswith('sytkit.') "
              "or m in ('pathlib', 'typing', '__future__', 'importlib'))))")
    procs = {module: subprocess.Popen([sys.executable, "-S", "-c", script, module], stdout=subprocess.PIPE,
                                      env=env, text=True)
             for module in MODULE_LAYERS}
    outs = {module: proc.communicate(timeout=60)[0] for module, proc in procs.items()}  # all reaped first
    for module, layers in MODULE_LAYERS.items():
        assert procs[module].returncode == 0, module
        stdlib = {"typing"} if module == "identities" else set()
        assert set(json.loads(outs[module])) == {f"sytkit.{layer}" for layer in layers} | stdlib, module


def test_runs_in_one_process_share_one_parser(monkeypatch):
    argvs = [("count", "catalan", "--n", "3"), ("count", "catalan"), ("--help",),
             ("--format", "json", "verify", "wilf", "--k", "2", "--n", "1..2"),
             ("bijection", "g", "--chosen", "3 1"), ("--trace", "audit", "--n", "1"),
             ("count", "catalan", "--n", "3")]
    fresh = []
    for argv in argvs:
        monkeypatch.setattr(cli, "_parser", None)  # a parser built for this command line alone
        fresh.append(run(*argv))
    assert [r.exit_code for r in fresh] == [0, 2, 0, 0, 0, 2, 0]
    assert fresh[0].stdout == "family   k  n  value\n-------  -  -  -----\ncatalan  -  3  5\n"

    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(build_parser()) or built[-1])
    assert [run(*argv) for argv in argvs] == fresh
    assert len(built) == 1 and cli._parser is built[0]


# bench/inproc.py calls main.main with args=..., prog_name=... and standalone_mode=False
# and reads the code it returns; it does not catch SystemExit
@pytest.mark.parametrize("argv, code", [
    (("rsk", "--cycles", "(13)(26)(5)"), 0),
    (("verify", "naive-failure", "--k", "2", "--n", "1"), 1),  # the broken variant's sides agree at n = 1
    (("count", "catalan"), 2),
    (("--help",), 0),
    (("audit", "--n", "10000000000000"), 3),
], ids=["good", "failing-verdict", "usage-error", "help", "scale-limit"])
def test_bench_call_form_returns_the_exit_code(argv, code):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main.main(args=list(argv), prog_name="sytkit", standalone_mode=False) == code


@pytest.mark.parametrize("argv, code", [(("count", "catalan"), 2), (("audit", "--n", "10000000000000"), 3)],
                         ids=["usage-error", "scale-limit"])
def test_process_exits_with_the_command_exit_code(argv, code):
    src = os.path.dirname(os.path.dirname(sys.modules["sytkit"].__file__))
    proc = subprocess.run([sys.executable, "-c", "from sytkit.cli import main; main()", *argv],
                          capture_output=True, env={**os.environ, "PYTHONPATH": src}, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (code, "")
    assert "Traceback" not in proc.stderr
