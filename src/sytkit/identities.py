"""Exact verification of the tableau/involution identities.

Each verifier evaluates both sides of one identity instance with integer
arithmetic and returns an `IdentityVerdict` carrying the full per-term
breakdown, so a failure (or the one deliberate non-identity) can be traced
to individual summands.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Callable, NamedTuple

from .core import _require_bound, _require_positive, _require_size
from .counting import (
    catalan,
    count_fpf,
    count_fpf_lds_bounded,
    count_fpf_lis_bounded,
    count_involutions,
    count_perms_lis_bounded,
    count_syt_row_bounded,
)


class TermBreakdown(NamedTuple):
    """One summand: term_value = sign * binomial * left_factor * right_factor."""

    r: int
    sign: int
    binomial: int
    left_factor: int
    right_factor: int
    term_value: int


def _term(r: int, sign: int, binomial: int, left: int, right: int) -> TermBreakdown:
    return TermBreakdown(r, sign, binomial, left, right, sign * binomial * left * right)


class IdentityVerdict(NamedTuple):
    """Exact two-side evaluation of one identity instance.

    An identity's ``holds`` means that lhs, rhs and every ``checks`` value are
    equal, except for ``naive_failure``, where it means lhs != rhs (that verdict
    passes when the broken identity really breaks).  The audit's holds exactly
    when its ``assertion_failures`` check, which counts every failed check, is
    0.  ``checks`` carries named side values for the multi-way equalities.
    Like each ``TermBreakdown``, it is a named tuple: it iterates and indexes
    like one, and equals the plain tuple of its values.
    """

    identity_id: str
    k: int | None
    n: int
    lhs: int
    rhs: int
    lhs_terms: tuple[TermBreakdown, ...]
    rhs_terms: tuple[TermBreakdown, ...]
    holds: bool
    checks: tuple[tuple[str, int], ...] = ()


def _pair_sum(count: Callable[[int], int], n: int, signed: bool) -> tuple[TermBreakdown, ...]:
    """The terms [(-1)^r] * C(2n, r) * count(r) * count(2n - r), for r = 0 .. 2n."""
    return tuple(_term(r, -1 if signed and r % 2 else 1, comb(2 * n, r), count(r), count(2 * n - r))
                 for r in range(2 * n + 1))


def _verdict(identity_id: str, k: int | None, n: int, lhs_terms: tuple[TermBreakdown, ...],
             rhs_terms: tuple[TermBreakdown, ...], *checks: tuple[str, int]) -> IdentityVerdict:
    """Sum each side; the verdict holds when both sides and every check value agree."""
    lhs = sum(t.term_value for t in lhs_terms)
    rhs = sum(t.term_value for t in rhs_terms)
    holds = lhs == rhs and all(value == lhs for _, value in checks)
    return IdentityVerdict(identity_id, k, n, lhs, rhs, lhs_terms, rhs_terms, holds, checks)


def verify_wilf_even(k: int, n: int) -> IdentityVerdict:
    """C(2n,n) u_k(n) against the alternating row-bounded tableau sum, even k.

    u_k(n) counts permutations with no increasing subsequence longer than k;
    the right side alternates over splittings of [2n] into two tableau
    supports with rows bounded by k.
    """
    _require_bound(k, parity=0)
    _require_positive(n)
    return _verdict("wilf_even", k, n, (_term(n, 1, comb(2 * n, n), count_perms_lis_bounded(k, n), 1),),
                    _pair_sum(lambda r: count_syt_row_bounded(k, r), n, signed=True))


def verify_unrestricted(n: int) -> IdentityVerdict:
    """C(2n,n) n! against the alternating involution-count sum (no bound)."""
    _require_positive(n)
    return _verdict("unrestricted", None, n, (_term(n, 1, comb(2 * n, n), factorial(n), 1),),
                    _pair_sum(count_involutions, n, signed=True))


def verify_fpf_pairs(n: int) -> IdentityVerdict:
    """C(2n,n) n! against the positive fixed-point-free pair sum."""
    _require_positive(n)
    return _verdict("fpf_pairs", None, n, (_term(n, 1, comb(2 * n, n), factorial(n), 1),),
                    _pair_sum(count_fpf, n, signed=False))


def verify_odd_k(k: int, n: int) -> IdentityVerdict:
    """Positive fixed-point-free pair sum against the alternating sum, odd k.

    Both involutions carry a "no decreasing subsequence longer than k" bound;
    the left side keeps only fixed-point-free ones and drops the signs.
    """
    _require_bound(k, parity=1)
    _require_positive(n)
    return _verdict("odd_k", k, n, _pair_sum(lambda r: count_fpf_lds_bounded(k, r), n, signed=False),
                    _pair_sum(lambda r: count_syt_row_bounded(k, r), n, signed=True))


def verify_corollary_k3(n: int) -> IdentityVerdict:
    """Four-way equality at bound 3: alternating sum = rows-bounded-by-4 count
    = C_n C_{n+1} = the closed binomial form."""
    _require_positive(n)
    return _verdict("corollary_k3", None, n, _pair_sum(lambda r: count_syt_row_bounded(3, r), n, signed=True),
                    (_term(n, 1, 1, catalan(n), catalan(n + 1)),),
                    ("row_bound_4_count", count_syt_row_bounded(4, 2 * n)),
                    ("closed_binomial_form", comb(2 * n, n) * comb(2 * n + 2, n + 1) // ((n + 1) * (n + 2))))


def verify_a005568(n: int) -> IdentityVerdict:
    """Catalan convolution over even split sizes against C_n C_{n+1}.

    The left side is sum over i of C(2n, 2i) C_i C_{n-i}; it is also checked
    against the equivalent pair sum of fixed-point-free involutions with
    decreasing subsequences bounded by 2.
    """
    _require_size(n)
    lhs_terms = tuple(_term(i, 1, comb(2 * n, 2 * i), catalan(i), catalan(n - i)) for i in range(n + 1))
    rhs_terms = (_term(n, 1, 1, catalan(n), catalan(n + 1)),)
    pair_sum = sum(t.term_value for t in _pair_sum(lambda r: count_fpf_lds_bounded(2, r), n, signed=False))
    return _verdict("a005568", None, n, lhs_terms, rhs_terms, ("fpf_lds2_pair_sum", pair_sum))


def demonstrate_naive_failure(k: int, n: int) -> IdentityVerdict:
    """The broken variant: bound the *increasing* statistic on the left-side pairs.

    Replacing n! by u_k(n) and the fixed-point-free counts by their
    increasing-subsequence-bounded variant does NOT give an identity; this
    verdict ``holds`` when the two sides differ, i.e. when the failure shows.
    """
    _require_bound(k)
    _require_positive(n)
    v = _verdict("naive_failure", k, n, (_term(n, 1, comb(2 * n, n), count_perms_lis_bounded(k, n), 1),),
                 _pair_sum(lambda r: count_fpf_lis_bounded(k, r), n, signed=False))
    return v._replace(holds=v.lhs != v.rhs)


#: CLI name -> (verifier, whether it takes the bound k); parity is checked by the verifier
IDENTITIES = {
    "wilf": (verify_wilf_even, True),
    "unrestricted": (verify_unrestricted, False),
    "fpf-pairs": (verify_fpf_pairs, False),
    "odd": (verify_odd_k, True),
    "corollary-k3": (verify_corollary_k3, False),
    "a005568": (verify_a005568, False),
    "naive-failure": (demonstrate_naive_failure, True),
}
