import re
from math import comb, factorial

import pytest

from sytkit import (
    Involution,
    catalan,
    conjugate,
    count_family,
    count_fpf,
    count_fpf_lds_bounded,
    count_fpf_lis_bounded,
    count_involutions,
    count_perms_lis_bounded,
    count_syt_row_bounded,
    hook_length_count,
    lds,
    lis,
    partitions,
)
from sytkit.counting import validate_family
from sytkit.identities import verify_a005568

import sytkit.core
import sytkit.counting
from oracles import (
    all_partitions,
    brute_count_lis_bounded,
    all_syt,
    brute_lds,
    brute_lis,
    catalan_number,
    catalan_pair_product,
    central_binomial,
    column_lengths,
    generate_involutions,
    hook_product_count,
    motzkin,
    involution_words_by_filter,
    series_fpf_lis,
    series_u,
    series_x,
    series_y,
    word_fixed_points,
)


# ---------------------------------------------------------------- partitions

def test_partitions_of_four_in_reverse_lex_order():
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partitions_trivial_and_even_column_cases():
    assert list(partitions(0)) == [()]
    assert list(partitions(0, max_parts=3)) == [()]
    assert all(list(partitions(n, max_parts=0)) == [] for n in range(1, 6))
    # the even-column shapes of 4 are (2, 2) and (1, 1, 1, 1), with 2 + 1 tableaux
    assert count_fpf_lis_bounded(2, 4) == count_fpf_lds_bounded(2, 4) + 1 == 3
    assert count_fpf_lis_bounded(2, 5) == count_fpf_lds_bounded(2, 5) == 0


def test_partitions_part_cap_is_keyword_only():
    with pytest.raises(TypeError):
        partitions(4, 2)


def test_partitions_part_cap_is_read_as_an_index():
    with pytest.raises(TypeError):
        list(partitions(4, max_parts=1.5))  # not taken as its floor, 1
    for n in (0, 4):
        with pytest.raises(ValueError, match="^max_parts must be non-negative, got -2$"):
            list(partitions(n, max_parts=-2))
    assert list(partitions(4, max_parts=0)) == []
    assert list(partitions(0, max_parts=0)) == [()]


@pytest.mark.parametrize("n", range(0, 13))
@pytest.mark.parametrize("max_first,max_parts", [(None, None), (3, None), (None, 2), (4, 3), (1, 1)])
def test_partition_constraints_match_filtering(n, max_first, max_parts):
    got = list(partitions(n, max_parts=max_parts))
    if max_first is not None:  # a first-part cap is a part cap on the conjugate
        capped = {conjugate(s) for s in partitions(n, max_parts=max_first)}
        got = [s for s in got if s in capped]
    expected = [
        s for s in all_partitions(n)
        if (max_first is None or not s or s[0] <= max_first)
        and (max_parts is None or len(s) <= max_parts)
    ]
    assert sorted(got) == sorted(expected)
    assert len(set(got)) == len(got)
    assert got == sorted(got, reverse=True)  # reverse-lexicographic


def _even_column_hook_sum(n, keep):
    return sum(hook_length_count(s) for s in all_partitions(n)
               if all(c % 2 == 0 for c in column_lengths(s)) and keep(s))


@pytest.mark.parametrize("n", range(0, 25))
def test_all_columns_even_matches_column_parity_filter(n):
    """Row-capped fixed-point-free counts equal hook sums over even-column shapes."""
    assert count_fpf(n) == _even_column_hook_sum(n, lambda s: True)
    for k in range(1, 9):
        assert count_fpf_lis_bounded(k, n) == _even_column_hook_sum(n, lambda s: not s or s[0] <= k)


def test_all_columns_even_respects_other_constraints():
    """Height-capped fixed-point-free counts equal hook sums over even-column shapes."""
    for n in range(0, 25):
        for k in range(1, 9):
            assert count_fpf_lds_bounded(k, n) == _even_column_hook_sum(n, lambda s: len(s) <= k)


# ---------------------------------------------------------------- hook lengths

def test_hook_length_examples():
    assert hook_length_count((7,)) == 1
    assert hook_length_count((2, 2)) == 2  # == len(all_syt((2, 2)))
    assert hook_length_count((2, 1)) == 2
    assert hook_length_count(()) == 1


@pytest.mark.parametrize("n", range(0, 11))
def test_hook_length_matches_exhaustive_generation(n):
    for shape in partitions(n):
        assert hook_length_count(shape) == len(all_syt(shape))


@pytest.mark.parametrize("n", range(0, 31))
def test_hook_length_matches_box_by_box_product(n):
    for shape in partitions(n):
        assert hook_length_count(shape) == hook_product_count(shape)


@pytest.mark.parametrize("n", range(0, 31))
def test_hook_length_is_conjugation_invariant(n):
    for shape in partitions(n):
        assert hook_length_count(shape) == hook_length_count(column_lengths(shape))


@pytest.mark.parametrize("count, walk", [
    pytest.param(count_syt_row_bounded, lambda k, n: partitions(n, max_parts=k), id="y"),
    pytest.param(count_perms_lis_bounded, lambda k, n: partitions(n, max_parts=k), id="u"),
    pytest.param(count_fpf_lds_bounded, lambda k, r: partitions(r // 2, max_parts=k // 2), id="fpf-lds"),
    pytest.param(count_fpf_lis_bounded, lambda k, r: partitions(r // 2, max_parts=k), id="fpf-lis"),
])
@pytest.mark.parametrize("k, n", [(4, 10), (5, 12), (7, 16)])
def test_shape_walk_checks_and_counts_each_shape_once(monkeypatch, count, walk, k, n):
    """The walk's kernel counts each shape once, and nothing re-checks the shapes partitions yields."""
    calls = {"as_shape": 0, "hook_length_count": 0, "_hook_count": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    as_shape = counted("as_shape", sytkit.core.as_shape)
    monkeypatch.setattr(sytkit.core, "as_shape", as_shape)
    monkeypatch.setattr(sytkit.counting, "as_shape", as_shape)
    monkeypatch.setattr(sytkit.counting, "hook_length_count",
                        counted("hook_length_count", hook_length_count))
    monkeypatch.setattr(sytkit.counting, "_hook_count",
                        counted("_hook_count", sytkit.counting._hook_count))
    count.__wrapped__(k, n)  # past the memo, so the walk runs
    walked = len(list(walk(k, n)))
    assert walked > 1
    assert calls == {"as_shape": 0, "hook_length_count": 0, "_hook_count": walked}


def test_walk_computes_only_the_factorials_it_reads_each_once(monkeypatch):
    computed = []
    monkeypatch.setattr(sytkit.counting, "factorial", lambda m: computed.append(m) or factorial(m))
    expected = sum(hook_product_count(s) for s in all_partitions(16) if len(s) <= 5)
    assert count_syt_row_bounded.__wrapped__(5, 16) == expected
    assert len(computed) == len(set(computed)) and max(computed) == 16
    # one-shape walks at a large size: a table filled to n up front would hold n^2 log n bits
    computed.clear()
    assert count_syt_row_bounded.__wrapped__(1, 5000) == 1  # the shape (5000)
    assert computed == [5000]
    computed.clear()
    assert count_fpf_lds_bounded.__wrapped__(2, 4000) == catalan(2000)  # the shape (2000, 2000)
    assert sorted(computed) == [2000, 2001, 4000]
    # 7,651 shapes read the 300 factorials 1! .. 300!, 276 kbit in all: within the table's bound
    computed.clear()
    assert count_syt_row_bounded.__wrapped__(3, 300) == motzkin(300)
    assert len(computed) == len(set(computed)) == 300


def test_walk_table_stops_storing_at_its_bit_bound(monkeypatch):
    tables = []

    class Recorded(sytkit.counting._Factorials):
        def __init__(self):
            tables.append(self)

    monkeypatch.setattr(sytkit.counting, "_Factorials", Recorded)
    # two-part shapes read each m! for m <= 2001 about once, 2.1 MiB in all
    assert count_syt_row_bounded.__wrapped__(2, 2000) == central_binomial(2000)
    [table] = tables
    bound = sytkit.counting._FACTORIAL_BITS
    assert table.bits == sum(value.bit_length() for value in table.values())
    assert bound <= table.bits < bound + factorial(2001).bit_length()
    assert 2000 in table and len(table) < 2000 // 2  # the first read, n!, is stored


@pytest.mark.parametrize("n", range(0, 21))
def test_walk_kernel_matches_the_public_count_on_every_shape(n, monkeypatch):
    shapes = list(partitions(n))
    assert any(s and len(s) > s[0] for s in shapes) == (n >= 2)  # the kernel's conjugate switch fires
    for bound in (sytkit.counting._FACTORIAL_BITS, 0):  # a table within its bound, and one that stores nothing
        monkeypatch.setattr(sytkit.counting, "_FACTORIAL_BITS", bound)
        table = sytkit.counting._Factorials()  # one table for the whole walk, as in _capped_sum
        for s in shapes:
            assert sytkit.counting._hook_count(s, table.__getitem__) == hook_length_count(s)
        assert (len(table) == 0) == (bound == 0)


def test_public_hook_count_on_long_rows_columns_and_two_rows():
    assert hook_length_count((3000,)) == hook_length_count((1,) * 3000) == 1
    for a in range(0, 40):
        for b in range(0, a + 1):  # the ballot numbers C(a + b, b) (a - b + 1) / (a + 1)
            assert hook_length_count(tuple(p for p in (a, b) if p)) == comb(a + b, b) * (a - b + 1) // (a + 1)


# ---------------------------------------------------------------- count families

def test_row_bounded_tableau_count_examples():
    assert all(count_syt_row_bounded(1, n) == 1 for n in range(12))
    assert count_syt_row_bounded(3, 2) == 2
    assert all(count_syt_row_bounded(k, 0) == 1 for k in range(1, 6))
    assert [count_syt_row_bounded(3, n) for n in range(5)] == [1, 1, 2, 4, 9]


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("n", range(0, 9))
def test_row_bounded_count_matches_generate_and_filter(k, n):
    support = range(1, n + 1)
    by_lis = sum(1 for v in generate_involutions(support) if lis(v.word()) <= k)
    by_lds = sum(1 for v in generate_involutions(support) if lds(v.word()) <= k)
    assert count_syt_row_bounded(k, n) == by_lis == by_lds


def test_lis_bounded_permutation_count_examples():
    assert count_perms_lis_bounded(2, 3) == 5
    assert count_perms_lis_bounded(1, 3) == 1
    for n in range(7):
        assert count_perms_lis_bounded(n + 1, n) == factorial(n)
        assert count_perms_lis_bounded(n + 5, n) == factorial(n)


@pytest.mark.parametrize("n", range(0, 13))
def test_unbounded_closed_forms_match_hook_sums(n):
    """With k >= n no shape is cut: y_k(n) = i(n) and u_k(n) = n!."""
    f = [hook_product_count(s) for s in all_partitions(n)]
    for k in range(max(n, 1), n + 4):
        assert count_syt_row_bounded(k, n) == sum(f)
        assert count_perms_lis_bounded(k, n) == sum(x * x for x in f)


@pytest.mark.parametrize("n", range(0, 25))
def test_part_capped_walks_match_first_part_filter(n):
    """All four counts against hook sums over shapes with first part <= k, the old side."""
    f = {s: hook_product_count(s) for s in all_partitions(n)}
    rows_even = [s for s in f if all(p % 2 == 0 for p in s)]
    columns_even = [s for s in f if all(c % 2 == 0 for c in column_lengths(s))]
    for k in range(1, 13):
        def capped(shapes):
            return [s for s in shapes if not s or s[0] <= k]
        assert count_syt_row_bounded(k, n) == sum(f[s] for s in capped(f))
        assert count_perms_lis_bounded(k, n) == sum(f[s] ** 2 for s in capped(f))
        assert count_fpf_lds_bounded(k, n) == sum(f[s] for s in capped(rows_even))
        assert count_fpf_lis_bounded(k, n) == sum(f[s] for s in capped(columns_even))


def test_small_bound_counts_match_closed_forms_at_large_n():
    for n in range(101):
        assert count_syt_row_bounded(2, n) == central_binomial(n)
        assert count_syt_row_bounded(3, n) == motzkin(n)
    for n in range(61):
        assert count_syt_row_bounded(4, n) == catalan_pair_product(n)
    for n in range(151):
        assert count_perms_lis_bounded(2, n) == catalan_number(n)
    for m in range(101):
        assert count_fpf_lds_bounded(2, 2 * m) == catalan_number(m)


def test_closed_form_oracles_match_small_values():
    assert [motzkin(n) for n in range(8)] == [1, 1, 2, 4, 9, 21, 51, 127]
    assert [catalan_pair_product(n) for n in range(6)] == [1, 1, 2, 4, 10, 25]
    assert [central_binomial(n) for n in range(6)] == [1, 1, 2, 3, 6, 10]


@pytest.mark.parametrize("k", range(1, 5))
@pytest.mark.parametrize("n", range(0, 7))
def test_lis_bounded_permutation_count_matches_brute_force(k, n):
    assert count_perms_lis_bounded(k, n) == brute_count_lis_bounded(k, n)


def test_lis_bounded_count_matches_single_pass_filter_at_size_eight():
    from itertools import permutations as perms

    by_lis = [0] * 9
    for p in perms(range(1, 9)):
        by_lis[lis(p)] += 1
    for k in range(1, 9):
        assert count_perms_lis_bounded(k, 8) == sum(by_lis[: k + 1])


def test_involution_count_examples():
    assert count_involutions(0) == 1
    assert count_involutions(3) == 4
    assert count_involutions(4) == 10


@pytest.mark.parametrize("m", range(0, 11))
def test_involution_count_matches_generation_and_tableaux(m):
    assert count_involutions(m) == sum(1 for _ in generate_involutions(range(1, m + 1)))
    assert count_involutions(m) == sum(hook_length_count(s) for s in partitions(m))


def test_fpf_count_examples():
    assert count_fpf(3) == 0
    assert count_fpf(4) == 3
    assert count_fpf(0) == 1
    assert count_fpf(8) == 7 * 5 * 3 * 1


@pytest.mark.parametrize("r", range(0, 11))
def test_fpf_count_matches_generation(r):
    generated = sum(1 for v in generate_involutions(range(1, r + 1)) if not v.fixed_points)
    assert count_fpf(r) == generated


def test_fpf_lds_bounded_examples():
    assert count_fpf_lds_bounded(2, 4) == 2
    for m in range(6):
        assert count_fpf_lds_bounded(2, 2 * m) == catalan(m)
    for r in range(11):
        for m in (1, 2):
            assert count_fpf_lds_bounded(2 * m + 1, r) == count_fpf_lds_bounded(2 * m, r)
    assert all(count_fpf_lds_bounded(k, r) == 0 for k in range(1, 7) for r in (1, 3, 5, 7, 9))


def test_fpf_lds_bounded_degenerate_bound():
    # the empty involution vacuously satisfies every bound
    assert count_fpf_lds_bounded(1, 0) == 1
    assert all(count_fpf_lds_bounded(1, r) == 0 for r in range(1, 11))


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("r", range(0, 9))
def test_fpf_bounded_counts_match_generate_and_filter(k, r):
    words = [w for w in involution_words_by_filter(r) if not word_fixed_points(w)]
    assert count_fpf_lds_bounded(k, r) == sum(1 for w in words if brute_lds(w) <= k)
    assert count_fpf_lis_bounded(k, r) == sum(1 for w in words if brute_lis(w) <= k)


@pytest.mark.parametrize("r", range(0, 25))
def test_fpf_closed_forms_match_even_column_hook_sums(r):
    """With k >= r (lds) or 2k >= r (lis) no shape is cut, so both counts are (r-1)!!."""
    for k in range(max(r, 1), r + 4):
        assert count_fpf_lds_bounded(k, r) == _even_column_hook_sum(r, lambda s: len(s) <= k)
    for k in range(max((r + 1) // 2, 1), (r + 1) // 2 + 4):
        assert count_fpf_lis_bounded(k, r) == _even_column_hook_sum(r, lambda s: not s or s[0] <= k)


def test_capped_sum_uses_the_closed_form_exactly_when_the_cap_cuts_nothing():
    def no_walk(shape, fact):
        raise AssertionError(f"walked {shape}")

    assert sytkit.counting._capped_sum(3, 3, lambda m: ("full", m), no_walk) == ("full", 3)
    assert sytkit.counting._capped_sum(0, 0, lambda m: ("full", m), no_walk) == ("full", 0)
    # partitions of 5 with at most 2 parts: (5), (4, 1), (3, 2)
    assert sytkit.counting._capped_sum(5, 2, None, lambda s, fact: s[0]) == 5 + 4 + 3
    with pytest.raises(ValueError):
        sytkit.counting._capped_sum(-1, 4, lambda m: m, no_walk)


def test_odd_fpf_lengths_answer_zero_without_the_closed_form(monkeypatch):
    monkeypatch.setattr(sytkit.counting, "count_fpf", lambda r: pytest.fail(f"count_fpf({r})"))
    for r in (1, 3, 5):
        assert sytkit.counting.count_fpf_lds_bounded.__wrapped__(r + 2, r) == 0
        assert sytkit.counting.count_fpf_lis_bounded.__wrapped__(r, r) == 0


@pytest.mark.parametrize("r", [-1, -2, -3])
def test_fpf_counts_reject_negative_length(r):
    for count in (count_fpf, lambda r: count_fpf_lds_bounded(2, r), lambda r: count_fpf_lis_bounded(2, r)):
        with pytest.raises(ValueError):
            count(r)


FLOAT_SIZE_CALLS = {
    "count_fpf": lambda size: count_fpf(size),
    "count_fpf_lds_bounded": lambda size: count_fpf_lds_bounded(2, size),
    "count_fpf_lis_bounded": lambda size: count_fpf_lis_bounded(2, size + 2),
    "count_family-x": lambda size: count_family("x", 2, size),
    "count_family-x_unbounded": lambda size: count_family("x_unbounded", None, size),
}


@pytest.mark.parametrize("call", FLOAT_SIZE_CALLS.values(), ids=FLOAT_SIZE_CALLS)
def test_an_odd_float_size_is_refused_not_counted_as_zero(call):
    assert call(3) == 0  # the equal int is memoized first, and must not answer for the float
    with pytest.raises(TypeError):
        call(3.0)


# every count, and every verifier that takes a size n >= 0
SIZE_CALLS = {
    "partitions": lambda n: list(partitions(n)),
    "count_involutions": count_involutions,
    "count_fpf": count_fpf,
    "count_syt_row_bounded": lambda n: count_syt_row_bounded(2, n),
    "count_perms_lis_bounded": lambda n: count_perms_lis_bounded(2, n),
    "count_fpf_lds_bounded": lambda n: count_fpf_lds_bounded(2, n),
    "count_fpf_lis_bounded": lambda n: count_fpf_lis_bounded(2, n),
    "catalan": catalan,
    "verify_a005568": verify_a005568,
    **{f"count_family-{family}": lambda n, family=family, k=2 if takes_k else None: count_family(family, k, n)
       for family, (_, takes_k) in sytkit.counting.FAMILIES.items()},
}


@pytest.mark.parametrize("n", [-1, -2])
@pytest.mark.parametrize("call", SIZE_CALLS.values(), ids=SIZE_CALLS)
def test_every_count_refuses_a_negative_size_in_one_wording(call, n):
    with pytest.raises(ValueError, match=rf"^n must be non-negative, got {n}$"):
        call(n)


def test_fpf_lis_bounded_differs_from_lds_bounded():
    assert [count_fpf_lis_bounded(2, r) for r in range(9)] == [1, 0, 1, 0, 3, 0, 10, 0, 35]
    assert [count_fpf_lds_bounded(2, r) for r in range(9)] == [1, 0, 1, 0, 2, 0, 5, 0, 14]


def test_catalan_examples():
    assert catalan(0) == 1
    assert catalan(3) == 5  # == len(all_syt((3, 3)))
    assert catalan(4) == 14  # == len(all_syt((4, 4)))
    assert catalan(3) == len(all_syt((3, 3)))
    assert catalan(4) == len(all_syt((4, 4)))


def test_row_bound_monotone_in_k():
    for n in range(0, 9):
        for k in range(1, n + 2):
            assert count_syt_row_bounded(k, n) <= count_syt_row_bounded(k + 1, n)
        assert count_syt_row_bounded(n + 1, n) == count_syt_row_bounded(n + 2, n)
        assert count_syt_row_bounded(max(n, 1), n) == count_involutions(n)


def test_lis_bound_saturates_at_factorial():
    for n in range(0, 9):
        assert count_perms_lis_bounded(max(n, 1), n) == factorial(n)


# ---------------------------------------------------------------- Bessel determinants (large n)

def test_bessel_determinants_match_the_closed_forms_to_80():
    sizes = range(81)
    assert series_y(1, 80) == (1,) * 81
    assert series_y(2, 80) == tuple(map(central_binomial, sizes))
    assert series_y(3, 80) == tuple(map(motzkin, sizes))
    assert series_y(4, 80) == tuple(map(catalan_pair_product, sizes))
    for k in (2, 3):  # X_2 = X_3, the Catalan numbers: lds <= 2 makes a matching nonnesting
        assert series_x(k, 80) == tuple(0 if r % 2 else catalan_number(r // 2) for r in sizes)
    assert series_fpf_lis(1, 80) == tuple(1 - r % 2 for r in sizes)  # only the reversal of an even size
    u2 = series_u(2, 160)  # u_2(n) = C_n; the coefficient at 2n is C(2n, n) u_2(n)
    assert u2[::2] == tuple(comb(2 * n, n) * catalan_number(n) for n in sizes) and not any(u2[1::2])


@pytest.mark.parametrize("k", range(1, 9))
def test_bessel_determinants_match_every_bounded_family_to_40(k):
    sizes = range(41)
    assert series_y(k, 80)[:41] == tuple(count_syt_row_bounded(k, n) for n in sizes)
    assert series_x(k, 80)[:41] == tuple(count_fpf_lds_bounded(k, r) for r in sizes)
    assert series_fpf_lis(k, 80)[:41] == tuple(count_fpf_lis_bounded(k, r) for r in sizes)
    assert series_u(k, 80)[::2] == tuple(comb(2 * n, n) * count_perms_lis_bounded(k, n) for n in sizes)


# ---------------------------------------------------------------- generation

def test_generate_involutions_small_cases():
    assert len(list(generate_involutions((1, 2)))) == 2
    assert sum(not v.fixed_points for v in generate_involutions((1, 2, 3, 4))) == 3
    assert list(generate_involutions(())) == [Involution()]


def test_generate_involutions_is_deterministic():
    first = list(generate_involutions(range(1, 6)))
    second = list(generate_involutions(range(1, 6)))
    assert first == second
    assert len(set(first)) == len(first)


@pytest.mark.parametrize("n", range(0, 8))
def test_generate_involutions_matches_permutation_filter(n):
    generated = sorted(v.word() for v in generate_involutions(range(1, n + 1)))
    assert generated == sorted(involution_words_by_filter(n))


def test_generate_involutions_on_scattered_support():
    vs = list(generate_involutions((2, 5, 9)))
    assert len(vs) == 4
    assert all(v.support == (2, 5, 9) for v in vs)


def test_generate_involutions_lds_filter():
    for n in range(0, 7):
        for k in (1, 2, 3):
            got = [w for w in map(Involution.word, generate_involutions(range(1, n + 1))) if lds(w) <= k]
            expected = [w for w in involution_words_by_filter(n) if brute_lds(w) <= k]
            assert sorted(got) == sorted(expected)


def test_generate_involutions_rejects_duplicate_support():
    with pytest.raises(ValueError):
        list(generate_involutions((1, 1, 2)))


# ---------------------------------------------------------------- family dispatch

def test_count_family_dispatch():
    assert count_family("u", 2, 3) == 5
    assert count_family("y", 3, 4) == 9
    assert count_family("y_unbounded", None, 4) == 10
    assert count_family("x", 2, 6) == 5
    assert count_family("x_unbounded", None, 6) == 15
    assert count_family("catalan", None, 0) == 1


def test_count_family_validates_bound_usage():
    for family in ("u", "y", "x"):
        with pytest.raises(ValueError):
            validate_family(family, None, 3)
        with pytest.raises(ValueError, match="bound k must be a positive integer, got 0"):
            validate_family(family, 0, 3)
        with pytest.raises(ValueError, match="n must be non-negative, got -1"):
            validate_family(family, 2, -1)
    for family in ("y_unbounded", "x_unbounded", "catalan"):
        with pytest.raises(ValueError):
            validate_family(family, 2, 3)
        with pytest.raises(ValueError, match="n must be non-negative, got -1"):
            validate_family(family, None, -1)
    with pytest.raises(ValueError):
        validate_family("z", None, 3)


@pytest.mark.parametrize("family", sytkit.counting.FAMILIES)
def test_count_family_refuses_a_query_as_validate_family_does(family):
    # count_family leaves its checks to the count function, which must raise what validate_family
    # raises: k missing, extra, 0 or 1.5, then n = -1 or 2.5, k checked first
    bad_ks, good_ks = ([None, 0, 1.5], [2, 5]) if sytkit.counting.FAMILIES[family][1] else ([2, 1.5], [None])
    for k, n in [(k, n) for k in bad_ks for n in (3, -1)] + [(k, n) for k in good_ks for n in (-1, 2.5)]:
        with pytest.raises((ValueError, TypeError)) as expected:
            validate_family(family, k, n)
        with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
            count_family(family, k, n)


@pytest.mark.parametrize("family", sytkit.counting.FAMILIES)
def test_every_count_fits_the_digit_bound_validate_family_returns(family):
    # the cache refuses a count longer than this bound as malformed; u needs twice the y and x
    # bound, as u_6(27) has 28 digits against n * len(str(6)) = 27
    ks, sizes = (range(1, 11), range(31)) if sytkit.counting.FAMILIES[family][1] else ([None], range(301))
    for k in ks:
        for n in sizes:
            assert len(str(count_family(family, k, n))) <= validate_family(family, k, n), (k, n)


def test_lookup_returns_a_function_of_n():
    from sytkit.counting import FAMILIES, lookup
    from sytkit.identities import IDENTITIES, verify_unrestricted, verify_wilf_even

    assert lookup("family", FAMILIES, "y", 3)(4) == 9
    assert lookup("family", FAMILIES, "catalan", None) is catalan
    assert lookup("identity", IDENTITIES, "wilf", 2)(3) == verify_wilf_even(2, 3)
    assert lookup("identity", IDENTITIES, "unrestricted", None) is verify_unrestricted
    for registry in (FAMILIES, IDENTITIES):
        for name, (fn, takes_k) in registry.items():
            k = 3 if name == "odd" else 2 if takes_k else None
            assert lookup("", registry, name, k)(4) == (fn(k, 4) if takes_k else fn(4))
