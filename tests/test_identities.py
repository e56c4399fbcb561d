import csv
import io
import json
from math import comb, factorial

import pytest

from sytkit import (
    catalan,
    count_fpf_lds_bounded,
    count_involutions,
    count_syt_row_bounded,
    demonstrate_naive_failure,
    verify_a005568,
    verify_corollary_k3,
    verify_fpf_pairs,
    verify_odd_k,
    verify_unrestricted,
    verify_wilf_even,
)
import sytkit
from sytkit import identities, output
from sytkit.identities import IdentityVerdict, TermBreakdown
from sytkit.output import render

from cli_runner import invoke
from oracles import series_fpf_lis, series_mul, series_reflect, series_u, series_x, series_y


def assert_terms_consistent(verdict):
    for term in verdict.lhs_terms + verdict.rhs_terms:
        assert term.term_value == term.sign * term.binomial * term.left_factor * term.right_factor
    assert verdict.lhs == sum(t.term_value for t in verdict.lhs_terms)
    assert verdict.rhs == sum(t.term_value for t in verdict.rhs_terms)


# ---------------------------------------------------------------- even bound

def test_wilf_even_smallest_case():
    v = verify_wilf_even(2, 1)
    assert (v.lhs, v.rhs, v.holds) == (2, 2, True)
    assert [t.term_value for t in v.rhs_terms] == [2, -2, 2]
    assert_terms_consistent(v)


def test_wilf_even_inactive_bound():
    v = verify_wilf_even(4, 1)
    assert (v.lhs, v.rhs, v.holds) == (2, 2, True)


def test_wilf_even_known_product_side():
    v = verify_wilf_even(2, 3)
    assert v.lhs == comb(6, 3) * 5 == 100
    assert v.holds


def test_wilf_even_rejects_odd_bound():
    with pytest.raises(ValueError):
        verify_wilf_even(3, 2)
    with pytest.raises(ValueError):
        verify_wilf_even(2, 0)


@pytest.mark.parametrize("k", (2, 4, 6))
@pytest.mark.parametrize("n", range(1, 6))
def test_wilf_even_holds(k, n):
    v = verify_wilf_even(k, n)
    assert v.holds
    assert_terms_consistent(v)


def test_wilf_even_with_inactive_bound_reduces_to_unrestricted():
    for n in range(1, 5):
        bounded = verify_wilf_even(2 * n, n)
        plain = verify_unrestricted(n)
        assert bounded.lhs == plain.lhs == comb(2 * n, n) * factorial(n)
        assert bounded.rhs == plain.rhs
        # the row bound 2n is inactive on every summand
        for r in range(2 * n + 1):
            assert count_syt_row_bounded(2 * n, r) == count_involutions(r)


# ---------------------------------------------------------------- unrestricted

def test_unrestricted_examples():
    assert (verify_unrestricted(1).lhs, verify_unrestricted(1).rhs) == (2, 2)
    v = verify_unrestricted(2)
    assert v.lhs == 12
    assert [t.term_value for t in v.rhs_terms] == [10, -16, 24, -16, 10]
    v3 = verify_unrestricted(3)
    assert v3.lhs == comb(6, 3) * 6 == 120
    assert v3.holds


@pytest.mark.parametrize("n", range(1, 7))
def test_unrestricted_holds(n):
    v = verify_unrestricted(n)
    assert v.holds
    assert_terms_consistent(v)


# ---------------------------------------------------------------- fpf pairs

def test_fpf_pairs_examples():
    assert verify_fpf_pairs(1).lhs == verify_fpf_pairs(1).rhs == 2
    v = verify_fpf_pairs(2)
    assert v.lhs == 12
    assert [t.term_value for t in v.rhs_terms] == [3, 0, 6, 0, 3]
    assert verify_fpf_pairs(3).holds


@pytest.mark.parametrize("n", range(1, 7))
def test_fpf_pairs_holds(n):
    v = verify_fpf_pairs(n)
    assert v.holds
    assert all(t.sign == 1 for t in v.rhs_terms)
    assert_terms_consistent(v)


# ---------------------------------------------------------------- odd bound

def test_odd_k_degenerate_bound_vanishes():
    for n in range(1, 5):
        v = verify_odd_k(1, n)
        assert (v.lhs, v.rhs, v.holds) == (0, 0, True)


def test_odd_k_examples():
    v = verify_odd_k(3, 1)
    assert (v.lhs, v.rhs) == (2, 2)
    assert verify_odd_k(5, 3).holds


def test_odd_k_rejects_even_bound():
    with pytest.raises(ValueError):
        verify_odd_k(2, 3)


@pytest.mark.parametrize("k", (1, 3, 5))
@pytest.mark.parametrize("n", range(1, 6))
def test_odd_k_holds(k, n):
    v = verify_odd_k(k, n)
    assert v.holds
    assert_terms_consistent(v)


# ---------------------------------------------------------------- bound-3 corollary

@pytest.mark.parametrize("n,value", [(1, 2), (2, 10), (3, 70)])
def test_corollary_k3_small_values(n, value):
    v = verify_corollary_k3(n)
    assert v.lhs == v.rhs == value
    assert value == catalan(n) * catalan(n + 1)
    assert dict(v.checks)["row_bound_4_count"] == value
    assert dict(v.checks)["closed_binomial_form"] == value


@pytest.mark.parametrize("n", range(1, 7))
def test_corollary_k3_four_way_equality(n):
    v = verify_corollary_k3(n)
    assert v.holds
    checks = dict(v.checks)
    assert v.lhs == v.rhs == checks["row_bound_4_count"] == checks["closed_binomial_form"]
    assert checks["row_bound_4_count"] == count_syt_row_bounded(4, 2 * n)
    assert_terms_consistent(v)


# ---------------------------------------------------------------- Catalan convolution

def test_a005568_examples():
    assert verify_a005568(0).lhs == 1 == catalan(0) * catalan(1)
    assert verify_a005568(1).lhs == 2
    assert [t.term_value for t in verify_a005568(1).lhs_terms] == [1, 1]
    assert verify_a005568(2).lhs == 10


@pytest.mark.parametrize("n", range(0, 7))
def test_a005568_holds(n):
    v = verify_a005568(n)
    assert v.holds
    assert v.rhs == catalan(n) * catalan(n + 1)
    assert dict(v.checks)["fpf_lds2_pair_sum"] == v.lhs
    assert_terms_consistent(v)


@pytest.mark.parametrize("n", range(1, 7))
def test_odd_k3_side_equals_catalan_pair_sum(n):
    # the bound-3 positive side collapses to the bound-2 fixed-point-free sum
    odd = verify_odd_k(3, n)
    pair_sum = dict(verify_a005568(n).checks)["fpf_lds2_pair_sum"]
    assert odd.lhs == pair_sum
    assert odd.rhs == pair_sum
    for r in range(2 * n + 1):
        assert count_fpf_lds_bounded(3, r) == count_fpf_lds_bounded(2, r)


# ---------------------------------------------------------------- verdict faults
# Each test below puts one fault into a count function that a check reads, and asserts that
# this check alone moves: the verdict fails, lhs, rhs, every term and every other check keep
# their unfaulted values, and `verify` exits 1.

def verdict_under_fault(monkeypatch, name, fault, verify, n, **changed):
    expected = verify(n)
    assert expected.holds
    monkeypatch.setattr(identities, name, fault)
    v = verify(n)
    assert not v.holds
    assert v._replace(holds=True, checks=()) == expected._replace(checks=())
    assert dict(v.checks) == {**dict(expected.checks), **changed}


def test_corollary_k3_fails_when_its_row_bound_4_count_is_off(monkeypatch):
    count = identities.count_syt_row_bounded
    verdict_under_fault(monkeypatch, "count_syt_row_bounded", lambda k, n: count(k, n) + (k == 4),
                        verify_corollary_k3, 3, row_bound_4_count=71)
    assert invoke("verify", "corollary-k3", "--n", "3").exit_code == 1


def test_a005568_fails_when_its_fpf_pair_sum_is_off(monkeypatch):
    # the count at (2, 2) is a factor of the terms at r = 2 and r = 4, each C(6, 2) * 1 * 2 = 30 larger
    count = identities.count_fpf_lds_bounded
    verdict_under_fault(monkeypatch, "count_fpf_lds_bounded", lambda k, r: count(k, r) + ((k, r) == (2, 2)),
                        verify_a005568, 3, fpf_lds2_pair_sum=130)
    assert invoke("verify", "a005568", "--n", "3").exit_code == 1


# ---------------------------------------------------------------- the broken variant

def test_naive_failure_reproduces_counterexample():
    v = demonstrate_naive_failure(2, 3)
    assert (v.lhs, v.rhs) == (100, 110)
    assert v.holds  # holds means the broken identity really differs
    assert_terms_consistent(v)


def test_naive_failure_equal_at_small_sizes():
    v = demonstrate_naive_failure(2, 1)
    assert (v.lhs, v.rhs) == (2, 2)
    assert not v.holds
    v32 = demonstrate_naive_failure(3, 2)
    assert (v32.lhs, v32.rhs) == (12, 12)
    assert not v32.holds


def test_naive_failure_counterexample_terms():
    v = demonstrate_naive_failure(2, 3)
    assert [t.term_value for t in v.rhs_terms] == [10, 0, 45, 0, 45, 0, 10]


# ---------------------------------------------------------------- Bessel series (large n)

def pair_sums(k):
    """The exponential series of u_k, of the alternating tableau pair sum, of the lds-bounded and of the
    lis-bounded fixed-point-free pair sums: the coefficient at 2n is each one's value at n."""
    y, x, fpf_lis = series_y(k, 80), series_x(k, 80), series_fpf_lis(k, 80)
    return series_u(k, 80), series_mul(y, series_reflect(y)), series_mul(x, x), series_mul(fpf_lis, fpf_lis)


@pytest.mark.parametrize("k", range(1, 9))
def test_both_series_identities_hold_to_degree_80(k):
    u, alternating, fpf_lds, fpf_lis = pair_sums(k)
    if k % 2 == 0:
        assert alternating == u  # Wilf's even-k identity: Y_k(x) Y_k(-x) = U_k(x)
    else:
        assert alternating == fpf_lds  # the odd-k identity: Y_k(x) Y_k(-x) = X_k(x)^2
        assert alternating != u  # Wilf's form does not hold at odd k
    assert fpf_lis != u  # nor does the naive variant, at any k


@pytest.mark.parametrize("k", range(1, 9))
def test_verdicts_match_the_bessel_series_to_n_20(k):
    u, alternating, fpf_lds, fpf_lis = pair_sums(k)
    for n in range(1, 21):
        v = verify_wilf_even(k, n) if k % 2 == 0 else verify_odd_k(k, n)
        assert (v.lhs, v.rhs, v.holds) == ((u if k % 2 == 0 else fpf_lds)[2 * n], alternating[2 * n], True)
        v = demonstrate_naive_failure(k, n)
        assert (v.lhs, v.rhs, v.holds) == (u[2 * n], fpf_lis[2 * n], u[2 * n] != fpf_lis[2 * n])


# ---------------------------------------------------------------- records

def test_term_fields_are_the_printed_columns():
    fields = TermBreakdown._fields
    v = verify_corollary_k3(2)
    terms = [["lhs", *map(str, t)] for t in v.lhs_terms] + [["rhs", *map(str, t)] for t in v.rhs_terms]
    doc = json.loads("".join(render("verdict", {"verdicts": [v]}, "json")))["verdicts"][0]
    for side in ("lhs", "rhs"):  # JSON: each term is the object of its fields
        assert [t for t in terms if t[0] == side] == [[side, *t.values()] for t in doc[f"{side}_terms"]]
        assert all(tuple(t) == fields for t in doc[f"{side}_terms"])
    rows = list(csv.DictReader(io.StringIO("".join(render("verdict", {"verdicts": [v]}, "csv")))))
    assert [[r[f] for f in ("side", *fields)] for r in rows if r["row_type"] == "term"] == terms
    table = "".join(render("verdict", {"verdicts": [v]}, "table")).splitlines()
    assert table[1].split() == ["side", *fields]
    assert [line.split() for line in table[3:3 + len(terms)]] == terms


def test_each_record_type_is_one_class_of_output():
    for name in ("IdentityVerdict", "TermBreakdown"):
        assert getattr(sytkit, name) is getattr(output, name) is getattr(identities, name)
    assert identities.Check is output.Check and "Check" not in sytkit.__all__ + dir(sytkit)  # unexported
    with pytest.raises(AttributeError, match="no attribute 'Check'"):
        sytkit.Check


def test_verdicts_and_terms_are_tuples_of_their_values():
    v = verify_wilf_even(2, 1)
    assert v.checks == ()  # wilf has no checks
    assert v == ("wilf_even", 2, 1, 2, 2, True, (), v.lhs_terms, v.rhs_terms)
    assert v.rhs_terms[1] == (1, -1, 2, 1, 1, -2) and v.rhs_terms[1][5] == v.rhs_terms[1].term_value
    assert isinstance(v, IdentityVerdict) and isinstance(v.rhs_terms[1], TermBreakdown)


def test_no_field_of_a_verdict_or_a_term_can_be_set():
    v = verify_corollary_k3(2)
    for record in (v, v.lhs_terms[0]):
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, 0)
