"""Mutation check: every listed mutant of src/sytkit must fail the tests named for it.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

The script copies src/, tests/ and pyproject.toml into a temporary directory, so the
pytest ini's ``pythonpath = ["src"]`` points at the mutated copy.  It first runs every named
test file and id once on the unmutated copy, and stops if any of them fails or is not found.
Then, for each mutant, it checks that the old text occurs exactly once in its file, writes the
new text in its place, runs ``python -m pytest -q -x -p no:cacheprovider`` on the named test
files or ids, and puts the file back.  No bytecode is written, so a mutant never runs a stale module.

It exits 1 when a mutant listed under KILLED passes its tests, or one listed under
EQUIVALENT fails them.  A pytest usage error or an empty collection, such as a test id that
does not exist, stops the script with the mutant named: it is no kill.  The last line gives
the mutant count and the time, against the CI job's ``timeout 180``.  pytest does not collect
this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from pytest import ExitCode

ROOT = Path(__file__).resolve().parent.parent

BIJECTIONS = ("tests/test_bijections.py",)
IDENTITIES = ("tests/test_identities.py",)
COUNTING = ("tests/test_counting.py",)


def ids(file: str, *tests: str) -> tuple[str, ...]:
    """Test ids in one file, for a mutant that a few named tests kill where the whole file is slow."""
    return tuple(f"tests/{file}::{test}" for test in tests)


# (file under src/sytkit, old text, new text, test files or ids): the tests must fail
KILLED = [
    # the audit's seven counted checks, each dropped, each against the fault test that breaks it
    ("bijections.py", "if _side_lds(image.q, 2 * n) > k or not p_closed:", "if False:",
     ids("test_bijections.py", "test_audit_records_a_closure_breach_as_a_failure")),
    ("bijections.py",
     "if len(ifp) + 2 * len(ip.two_cycles) != r - 1 or not ifq or ifp and ifp[-1] > ifq[-1]:", "if False:",
     ids("test_bijections.py", "test_audit_fails_a_toggle_that_leaves_the_split_size")),
    ("bijections.py", "if toggle_pivot(image) != s:", "if False:",
     ids("test_bijections.py", "test_audit_fails_a_toggle_that_is_not_an_involution")),
    ("bijections.py", "if sorted(ifp + ifq) != sorted(fp + fq):", "if False:",
     ids("test_bijections.py", "test_audit_fails_a_toggle_that_trades_one_free_point_for_another")),
    # the closure check's reads: the image p side read once per row, whatever its value; the q side
    # not read; and the toggle-back check's equality blind to one field
    ("bijections.py", "if ifp != seen_fp or ip.two_cycles != seen_tc:", "if in_p == 1:",
     ids("test_bijections.py", "test_audit_reads_again_an_image_p_side_that_changes_within_a_row")),
    ("bijections.py", "if _side_lds(image.q, 2 * n) > k or not p_closed:", "if not p_closed:",
     ids("test_bijections.py", "test_audit_checks_closure_on_both_sides_of_every_image[3]")),
    ("bijections.py", " and q.two_cycles == oq.two_cycles and", " and",
     ids("test_bijections.py", "test_pair_states_that_differ_in_one_field_are_unequal")),
    ("bijections.py", "failures += sum(on_p[r] != on_q[r - 1] for r in range(2 * n + 2))", "failures += 0",
     ids("test_bijections.py", "test_audit_fails_an_unbalanced_pair_space")),
    ("bijections.py",
     "failures += sum(left.term_value != right.term_value for left, right in zip(lhs_terms, rhs_terms))",
     "failures += 0",
     ids("test_bijections.py", "test_audit_fails_survivors_that_miss_the_closed_form_term_by_term")),
    # the audit's closed side read from the wrong side of the identity it replays: the alternating
    # sum of odd_k, whose terms carry signs, and the one C(2n, n) n! term of fpf_pairs
    ("bijections.py", "verify_odd_k(k, n).lhs_terms", "verify_odd_k(k, n).rhs_terms",
     ids("test_bijections.py", "test_audit_bounded_example")),
    ("bijections.py", "verify_fpf_pairs(n).rhs_terms", "verify_fpf_pairs(n).lhs_terms",
     ids("test_bijections.py", "test_audit_unbounded_examples")),
    ("bijections.py", "failures += signed_total != lhs", "failures += 0",
     ids("test_bijections.py", "test_audit_fails_a_signed_total_off_the_survivors")),
    # the audit skips the last state of each row, so it counts fewer states than the pair space holds
    ("bijections.py", "for q in qs:\n            fq = q", "for q in qs[:-1]:\n            fq = q",
     ids("test_bijections.py", "test_audit_counts_agree_with_the_pivot_of_every_state")),
    # the pair space walks every n-subset with its complement, so each middle split comes twice
    ("bijections.py", "if r == n and chosen[0] != 1:", "if False:",
     ids("test_bijections.py", "test_pair_space_holds_every_ordered_split_once[2-None]")),
    # the pair space yields a subset's rows but not its complement's
    ("bijections.py", "yield 2 * n - r, q, ps", "pass",
     ids("test_bijections.py", "test_pair_space_holds_every_ordered_split_once[2-None]")),
    # the audit's verdict holds whatever its failure count
    ("bijections.py", "._replace(holds=not failures)", "._replace(holds=True)",
     ids("test_bijections.py", "test_audit_fails_a_signed_total_off_the_survivors")),
    # the one bound rule reads k without index(), so 1.5 bounds the toggle, the pair space, the audit
    # and the verifiers
    ("core.py", "if index(k) < 1:", "if k < 1:",
     ids("test_bijections.py", "test_library_builders_take_only_integers")),
    # the pair space reads its limit without index(), so a limit of 2.5 walks n = 2
    ("bijections.py", "if n > index(limit):", "if n > limit:",
     ids("test_bijections.py", "test_library_builders_take_only_integers[pair-limit-1.5]",
         "test_library_builders_take_only_integers[audit-limit-1.5]")),
    # the bound rule drops its parity test, so verify wilf takes an odd k and verify odd an even one
    ("core.py", "if parity is not None and k % 2 != parity:", "if False:",
     ids("test_cli.py", "test_size_and_bound_errors_name_the_rule_they_break[wilf-k3]",
         "test_size_and_bound_errors_name_the_rule_they_break[odd-k2]")),
    # the pair space takes a bound below 1, and walks an empty space
    ("bijections.py", "if k is not None:\n        _require_bound(k)", "if False:\n        _require_bound(k)",
     ids("test_bijections.py", "test_pair_space_refuses_a_bound_below_1_before_any_walk")),
    # the bounded toggle's input and image checks
    ("bijections.py", "    if not _in_bounded_space(s, k):", "    if False:", BIJECTIONS),
    ("bijections.py", "if not _in_bounded_space(out, k):", "if False:",
     ids("test_bijections.py", "test_audit_records_a_closure_breach_as_a_failure")),
    # the toggle moves the smaller of the two last fixed points
    ("bijections.py", "if fp and not (fq and fq[-1] > fp[-1]):", "if fp and not (fq and fq[-1] < fp[-1]):",
     BIJECTIONS),
    # ... but only when both sides have a fixed point above 10, which no exhaustive check reaches
    ("bijections.py", "if fp and not (fq and fq[-1] > fp[-1]):",
     "if fp and not (fq and fq[-1] > fp[-1] and fp[-1] <= 10):",
     ids("test_bijections.py", "test_bounded_toggle_closure_on_sampled_pairs_past_the_exhaustive_sizes")),
    # identity verdicts: the checks ignored, and each extra leg dropped
    ("identities.py", "holds = lhs == rhs and all(value == lhs for _, value in checks)", "holds = lhs == rhs",
     IDENTITIES),
    ("identities.py", '("row_bound_4_count", count_syt_row_bounded(4, 2 * n)),', "", IDENTITIES),
    ("identities.py", ', ("fpf_lds2_pair_sum", pair_sum))', ")", IDENTITIES),
    # the pair sums lose their sign
    ("identities.py", "-1 if signed and r % 2 else 1", "1", IDENTITIES),
    # the registry dispatch drops k, so an entry that takes k gets n alone
    ("counting.py", "partial(fn, k) if takes_k else fn", "fn",
     ids("test_counting.py", "test_lookup_returns_a_function_of_n")),
    # the closed form taken where the cap cuts one partition, 1^m
    ("counting.py", "if 0 <= m <= cap:", "if 0 <= m <= cap + 1:", COUNTING),
    # odd sizes no longer have no fixed-point-free involution
    ("counting.py", "if r % 2:", "if False:", COUNTING),
    # a count size read without index(), so 3.0 counts, or not read at all, so -1 counts
    ("core.py", "if index(n) < 0:", "if n < 0:",
     ids("test_counting.py", "test_an_odd_float_size_is_refused_not_counted_as_zero")),
    ("core.py", "if index(n) < 0:", "if False:", ids("test_counting.py", "test_fpf_counts_reject_negative_length")),
    # the memo answers a float size from the entry of the equal int
    ("counting.py", "typed=True", "typed=False",
     ids("test_counting.py", "test_an_odd_float_size_is_refused_not_counted_as_zero")),
    # the partition cap read without index(), so 1.5 caps at 1, or not checked, so -2 walks nothing
    ("counting.py", "else index(max_parts)", "else max_parts", COUNTING),
    ("counting.py", "if cap < 0:", "if False:", COUNTING),
    # the hook kernel: n! read as the factorial of the part count; the public entry trusts its input
    ("counting.py", "fact(sum(s))", "fact(len(s))", COUNTING),
    ("counting.py", "_hook_count(as_shape(shape), factorial)", "_hook_count(tuple(shape), factorial)",
     ids("test_core.py", "test_shape_errors_name_the_first_bad_part")),
    # the hook kernel's Vandermonde product takes sums of the first-column hooks, not differences
    ("counting.py", "starmap(sub,", "starmap(add,",
     ids("test_counting.py", "test_hook_length_examples", "test_hook_length_matches_box_by_box_product")),
    # the walk's factorial table: an entry stored one place off; a new table for every shape; no bound
    ("counting.py", "self[n] = value", "self[n + 1] = value",
     ids("test_counting.py", "test_walk_kernel_matches_the_public_count_on_every_shape")),
    ("counting.py", "sum(term(shape, fact) for", "sum(term(shape, _Factorials().__getitem__) for",
     ids("test_counting.py", "test_walk_computes_only_the_factorials_it_reads_each_once")),
    ("counting.py", "if self.bits < _FACTORIAL_BITS:", "if True:",
     ids("test_counting.py", "test_walk_table_stops_storing_at_its_bit_bound")),
    # the cache: k and n of 20 digits, with a leading zero, or above sys.maxsize
    ("output.py", "{len(str(sys.maxsize)) - 1}", "{len(str(sys.maxsize))}",
     ids("test_cli.py", "test_cache_rejects_oversized_value_and_leaves_file_untouched")),
    ("output.py", '_INDEX_FORM = rf"0|-?[1-9]', '_INDEX_FORM = rf"0|-?[0-9]',
     ids("test_cli.py", "test_cache_accepts_only_the_integers_save_cache_writes")),
    ("output.py", "if index is not None and index > sys.maxsize:", "if False:",
     ids("test_cli.py", "test_cache_rejects_bad_entries_and_leaves_file_untouched")),
    # the digit bound the cache applies: a long Catalan count; every family's bound taken from n, not
    # from min(k, n); u's bound not doubled, so a true u count is refused
    ("counting.py", "n * 60206 // 100000 + 1", "n * 60206 // 10000 + 1",
     ids("test_cli.py", "test_cache_rejects_bad_entries_and_leaves_file_untouched")),
    ("counting.py", "min(k or n, n)", "n",
     ids("test_cli.py", "test_cache_rejects_bad_entries_and_leaves_file_untouched")),
    ("counting.py", '(2 if family == "u" else 1)', "1",
     ids("test_counting.py", "test_every_count_fits_the_digit_bound_validate_family_returns")),
    # the cache: a line with a byte past ASCII read on
    ("output.py", "if not line.isascii():", "if False:",
     ids("test_cli.py", "test_cache_names_the_line_of_a_byte_past_ascii")),
    # the cache: a line of other than four fields, and a blank line
    ("output.py", "if len(parts) != 4:", "if False:", ids("test_cli.py", "test_cache_line_needs_exactly_four_fields")),
    ("output.py", "if not line.strip():", "if False:", ids("test_cli.py", "test_cache_skips_blank_lines")),
    # a JSON term's template indents its fields one level too deep (each of the two tests fails it)
    ("output.py", 'len(value)), [], pad, quote)', 'len(value)), [], inner, quote)',
     ids("test_cli_golden.py", "test_stdout_digest_and_exit_code[verify unrestricted --n 1..60-json]")
     + ids("test_cli.py", "test_json_writer_matches_the_stdlib_encoder")),
    # the exit code of a verify range reads no verdict
    ("cli.py", "(holds.append(v.holds) or v for v in record)", "(v for v in record)",
     ids("test_cli.py", "test_a_verdict_failing_mid_range_exits_1")),
    # cli.integer lets every size and bound through
    ("cli.py", "if (value := int(text)) > sys.maxsize:", "if (value := int(text)) > sys.maxsize ** 2:",
     ids("test_cli.py", "test_a_size_or_bound_above_maxsize_is_a_scale_limit")),
    # the label scan lets a non-positive label through
    ("core.py", "if group[0] < 1:", "if False:",
     ids("test_core.py", "test_involution_rejects_bad_input", "test_involution_from_word")),
]

# (file, old text, new text, test files, why no test can tell it from the original): the tests must pass
EQUIVALENT = [
    ("counting.py", "if s and len(s) > s[0]:", "if s and len(s) >= s[0]:", COUNTING,
     "f_lambda = f_lambda', so a shape with as many parts as its first part counts the same either way"),
    ("bijections.py", "if fp and not (fq and fq[-1] > fp[-1]):", "if fp and not (fq and fq[-1] >= fp[-1]):",
     BIJECTIONS, "the supports are disjoint, so the sides' last fixed points never tie"),
    ("bijections.py", "(red if i_j < a_j else blue)", "(red if i_j <= a_j else blue)", BIJECTIONS,
     "a chosen and an unchosen label are never equal"),
    ("core.py", "        j = bisect_left(row, x)\n        if j == len(row):",
     "        j = bisect_left(row, x + 1)\n        if j == len(row):", ("tests/test_core.py",),
     "the labels are distinct, so no row holds x and the insertion point is the same"),
]


def run_tests(copy: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit code on the tests, in the copy."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(copy / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def check(copy: Path, file: str, old: str, new: str, tests: tuple[str, ...], should_pass: bool) -> bool:
    path = copy / "src" / "sytkit" / file
    original = path.read_text()
    if original.count(old) != 1:
        raise SystemExit(f"{file}: expected the mutant's old text once, found it {original.count(old)} times: {old!r}")
    path.write_text(original.replace(old, new))
    start = time.perf_counter()
    try:
        code = run_tests(copy, tests)
    finally:
        path.write_text(original)
    if code in (ExitCode.USAGE_ERROR, ExitCode.NO_TESTS_COLLECTED):  # a missing test id kills nothing
        raise SystemExit(f"{file}: pytest exit {code}, a usage error or no test collected, for the mutant "
                         f"{old.strip()!r} -> {new.strip()!r} with tests {tests}")
    passed = code == ExitCode.OK
    verdict = "survived" if passed else "killed"
    ok = passed == should_pass
    print(f"{'ok ' if ok else 'BAD'} {verdict:8} {time.perf_counter() - start:5.1f}s  {file}: {old.strip()!r}"
          f" -> {new.strip()!r}", flush=True)
    return ok


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="sytkit-mutants-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        named = tuple(dict.fromkeys(test for mutant in KILLED + EQUIVALENT for test in mutant[3]))
        # --keep-duplicates, or pytest would skip, not report, a missing id in a file also named whole
        if (code := run_tests(copy, ("--keep-duplicates", *named))) != ExitCode.OK:
            raise SystemExit(f"the named tests must pass on the unmutated copy; pytest exit {code}: "
                             + shlex.join(["python", "-m", "pytest", "-q", "--keep-duplicates", *named]))
        results = [check(copy, *m, should_pass=False) for m in KILLED]
        for file, old, new, tests, reason in EQUIVALENT:
            print(f"    equivalent: {reason}")
            results.append(check(copy, file, old, new, tests, should_pass=True))
    bad = results.count(False)
    print(f"{len(results)} mutants, {bad} unexpected; {time.perf_counter() - start:.0f} s, against the CI job's"
          " timeout 180")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
