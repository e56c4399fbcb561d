"""Acceptance suite: one test per criterion, each printing a PASS line.

Every comparison is exact integer equality.  Run with `pytest -s` to see the
per-criterion lines; the whole module finishes in well under five minutes.
"""

from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial


from sytkit import (
    arrangement_to_matching,
    catalan,
    check_beissinger,
    count_fpf,
    count_fpf_lds_bounded,
    count_involutions,
    count_perms_lis_bounded,
    count_syt_row_bounded,
    demonstrate_naive_failure,
    lds,
    lis,
    matching_to_arrangement,
    signed_cancellation_audit,
    verify_a005568,
    verify_corollary_k3,
    verify_fpf_pairs,
    verify_odd_k,
    verify_unrestricted,
    verify_wilf_even,
)
from sytkit.output import load_cache, save_cache

from cli_runner import invoke
from oracles import brute_count_lis_bounded, generate_involutions, report_longest_decreasing


def ok(criterion, message):
    print(f"PASS criterion {criterion}: {message}")


@lru_cache(maxsize=None)
def involution_stats(m):
    """(lis, lds, is_fpf) for every involution on {1..m}."""
    return tuple(
        (lis(v.word()), lds(v.word()), not v.fixed_points)
        for v in generate_involutions(range(1, m + 1))
    )


def test_criterion_01_even_bound_identity():
    for k in (2, 4, 6):
        for n in range(1, 6):
            verdict = verify_wilf_even(k, n)
            assert verdict.holds and verdict.lhs == verdict.rhs
    ok(1, "even-bound identity holds exactly for k in {2,4,6}, n in 1..5")


def test_criterion_02_unrestricted_identity():
    for n in range(1, 7):
        verdict = verify_unrestricted(n)
        assert verdict.holds and verdict.lhs == verdict.rhs
    assert verify_unrestricted(3).lhs == 120
    ok(2, "unrestricted identity holds for n in 1..6; lhs(3) = 120")


def test_criterion_03_fpf_pair_identity_and_coloring_bijection():
    for n in range(1, 7):
        assert verify_fpf_pairs(n).holds
    for n in range(1, 5):
        ground = range(1, 2 * n + 1)
        seen = set()
        cases = 0
        for subset in combinations(ground, n):
            for a in map(tuple, permutations(subset)):
                colored = arrangement_to_matching(a)
                assert matching_to_arrangement(colored) == a
                seen.add(colored)
                cases += 1
        assert cases == len(seen) == comb(2 * n, n) * factorial(n)
        if n == 4:
            assert cases == 1680
    ok(3, "fixed-point-free pair identity holds for n in 1..6; "
          "coloring bijection round-trips all arrangements up to n=4 (1680 cases at n=4)")


def test_criterion_04_odd_bound_identity():
    for k in (1, 3, 5):
        for n in range(1, 6):
            verdict = verify_odd_k(k, n)
            assert verdict.holds and verdict.lhs == verdict.rhs
    ok(4, "odd-bound identity holds exactly for k in {1,3,5}, n in 1..5")


def test_criterion_05_naive_variant_counterexample():
    verdict = demonstrate_naive_failure(2, 3)
    assert verdict.lhs == 100
    assert verdict.rhs == 110
    assert verdict.holds
    ok(5, "naive increasing-statistic variant gives 100 vs 110 at (k,n)=(2,3), bit-exact")


def test_criterion_06_bound3_corollary_chain():
    for n in range(1, 7):
        verdict = verify_corollary_k3(n)
        assert verdict.holds
        checks = dict(verdict.checks)
        assert verdict.lhs == verdict.rhs == checks["row_bound_4_count"] == checks["closed_binomial_form"]
    assert verify_corollary_k3(2).lhs == 10 == catalan(2) * catalan(3)
    for n in range(0, 7):
        assert verify_a005568(n).holds
    ok(6, "four-way bound-3 equality holds for n in 1..6 (n=2 gives 10); "
          "Catalan convolution agrees for n in 0..6")


def test_criterion_07_odd_lds_fixed_point_lemma():
    checked = 0
    for m in range(0, 11):
        for v in generate_involutions(range(1, m + 1)):
            report = report_longest_decreasing(v)
            if report.lds_length % 2 == 1:
                assert report.all_contain_fixed_point
                checked += 1
    assert checked > 0
    ok(7, f"every maximum decreasing subsequence hits a fixed point when the "
          f"length is odd, all involutions on <=10 elements ({checked} odd cases)")


def test_criterion_08_fixed_points_equal_odd_columns():
    total = 0
    for m in range(0, 10):
        for v in generate_involutions(range(1, m + 1)):
            assert check_beissinger(v)
            total += 1
    assert total == sum(count_involutions(m) for m in range(10))
    ok(8, f"fixed-point count equals odd-column count for all {total} involutions on <=9 elements")


def test_criterion_09_cancellation_audits():
    for n in range(1, 5):
        for k in (None, 1, 3, 5):
            verdict = signed_cancellation_audit(n, k)
            assert verdict.holds, (n, k)
            assert verdict.lhs == verdict.rhs
            checks = dict(verdict.checks)
            assert checks["assertion_failures"] == 0
            count = count_fpf if k is None else (lambda r, k=k: count_fpf_lds_bounded(k, r))
            assert verdict.lhs == sum(
                comb(2 * n, r) * count(r) * count(2 * n - r) for r in range(2 * n + 1)
            )
            side = count_involutions if k is None else (lambda r, k=k: count_syt_row_bounded(k, r))
            assert checks["states"] == sum(
                comb(2 * n, r) * side(r) * side(2 * n - r) for r in range(2 * n + 1)
            )
            # orbits are counted as the states with the pivot on p: a second route to this
            assert 2 * checks["orbits"] == checks["states"] - checks["survivors"]
    ok(9, "orbit cancellation, parity reversal, bounded closure, and survivor "
          "counts all verified for n in 1..4, bounds {none,1,3,5}")


def test_criterion_10_oracle_equivalence():
    for k in range(1, 5):
        for n in range(0, 8):
            assert count_perms_lis_bounded(k, n) == brute_count_lis_bounded(k, n)
    for m in range(0, 11):
        stats = involution_stats(m)
        assert count_involutions(m) == len(stats)
        assert count_fpf(m) == sum(1 for _, _, fpf in stats if fpf)
        for k in range(1, 7):
            assert count_syt_row_bounded(k, m) == sum(1 for l, _, _ in stats if l <= k)
            assert count_syt_row_bounded(k, m) == sum(1 for _, d, _ in stats if d <= k)
            assert count_fpf_lds_bounded(k, m) == sum(1 for _, d, fpf in stats if fpf and d <= k)
    for m in range(6):
        assert count_fpf_lds_bounded(2, 2 * m) == catalan(m)
    ok(10, "formula counts match brute-force/generate-and-filter oracles "
           "(permutations to n=7, involutions to size 10); bound-2 counts are Catalan")


def test_criterion_11_cli_contract(tmp_path):
    sweeps = [
        ["verify", "wilf", "--k", "2", "--n", "1..5"],
        ["verify", "wilf", "--k", "4", "--n", "1..5"],
        ["verify", "wilf", "--k", "6", "--n", "1..5"],
        ["verify", "unrestricted", "--n", "1..6"],
        ["verify", "fpf-pairs", "--n", "1..6"],
        ["verify", "odd", "--k", "1", "--n", "1..5"],
        ["verify", "odd", "--k", "3", "--n", "1..5"],
        ["verify", "odd", "--k", "5", "--n", "1..5"],
        ["verify", "naive-failure", "--k", "2", "--n", "3"],
        ["verify", "corollary-k3", "--n", "1..6"],
        ["verify", "a005568", "--n", "0..6"],
    ]
    for args in sweeps:
        result = invoke(*args)
        assert result.exit_code == 0, (args, result.stdout)

    cache = tmp_path / "counts.cache"
    assert invoke("--cache", str(cache), "count", "y", "--k", "3", "--n", "0..6").exit_code == 0
    first = cache.read_bytes()
    assert invoke("--cache", str(cache), "count", "y", "--k", "3", "--n", "0..6").exit_code == 0
    assert cache.read_bytes() == first
    save_cache(load_cache(cache), cache)
    assert cache.read_bytes() == first

    poisoned = first.decode().replace("y 3 6 51", "y 3 6 50")
    assert poisoned != first.decode()
    cache.write_text(poisoned)
    result = invoke("--cache", str(cache), "--verify-cache", "count", "catalan", "--n", "1")
    assert result.exit_code == 1
    ok(11, "verify sweeps for criteria 1-6 exit 0; cache round-trip is "
           "byte-identical; a poisoned cache entry is caught under --verify-cache")
