"""Exact counting and exhaustive generation.

Every count is an arbitrary-precision integer; nothing here touches floats.
Each closed-form or shape-sum path has a matching generate-and-filter oracle
(`generate_involutions`, `brute_count_lis_bounded`) so the two routes can be
checked against each other at small sizes.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, permutations
from math import comb, factorial
from typing import Callable, Iterator, Sequence

from .core import Involution, as_shape, lds, lis
from .errors import ScaleLimitError

DEFAULT_PERMUTATION_LIMIT = 8


def partitions(n: int, max_first_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield the partitions of n with no part above max_first_part, in reverse-lex order.

    Iterative: the next partition drops the trailing 1s, lowers the last part
    p to p - 1 and refills the freed boxes with parts p - 1 and a remainder.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        yield ()
        return
    parts: list[int] = []
    free, part = n, n if max_first_part is None else min(max_first_part, n)
    while part > 0:
        full, rest = divmod(free, part)
        parts += [part] * full + ([rest] if rest else [])
        yield tuple(parts)
        free = 0
        while parts and parts[-1] == 1:
            free += parts.pop()
        if not parts:
            return
        free += parts[-1]
        part = parts.pop() - 1


def hook_length_count(shape: Sequence[int]) -> int:
    """Number of standard tableaux of a shape, by the hook length formula."""
    s = as_shape(shape)
    below = [0] * max(s, default=0)  # per column: boxes in this row and those under it
    denom = 1
    for row_len in reversed(s):
        for j in range(row_len):
            below[j] += 1
            denom *= row_len - j + below[j] - 1
    return factorial(sum(s)) // denom


def _require_bound(k: int) -> None:
    if k < 1:
        raise ValueError(f"bound k must be a positive integer, got {k}")


@cache
def count_syt_row_bounded(k: int, n: int) -> int:
    """Standard tableaux on n boxes with no row longer than k.

    Equivalently: involutions of length n with no increasing subsequence
    longer than k (and, by conjugation, the same with "decreasing").
    """
    _require_bound(k)
    return sum(hook_length_count(s) for s in partitions(n, max_first_part=k))


@cache
def count_perms_lis_bounded(k: int, n: int) -> int:
    """Permutations of length n with no increasing subsequence longer than k.

    Robinson-Schensted pairs permutations with two same-shape tableaux, so
    this is the sum of squared tableau counts over shapes with rows <= k.
    """
    _require_bound(k)
    return sum(hook_length_count(s) ** 2 for s in partitions(n, max_first_part=k))


@cache
def count_involutions(m: int) -> int:
    """Involutions of an m-element set: i(m) = i(m-1) + (m-1) i(m-2)."""
    if m < 0:
        raise ValueError("m must be non-negative")
    prev, cur = 1, 1
    for i in range(2, m + 1):
        prev, cur = cur, cur + (i - 1) * prev
    return cur if m else 1


@cache
def count_fpf(r: int) -> int:
    """Fixed-point-free involutions of length r: (r-1)!! for even r, else 0."""
    if r < 0:
        raise ValueError("r must be non-negative")
    if r % 2 == 1:
        return 0
    out = 1
    for odd in range(1, r, 2):
        out *= odd
    return out


def _halved_hook_sum(
    r: int, max_half_part: int, shape_of: Callable[[tuple[int, ...]], tuple[int, ...]]
) -> int:
    """Sum of f over shape_of(mu) for mu a partition of r/2 with mu_1 <= max_half_part.

    Fixed points are odd columns (Beissinger), so fixed-point-free involutions
    have all columns even: mu with each row repeated, or its conjugate 2mu.
    """
    if r > 0 and r % 2 == 1:  # a negative r is rejected by partitions
        return 0
    return sum(hook_length_count(shape_of(mu)) for mu in partitions(r // 2, max_half_part))


@cache
def count_fpf_lds_bounded(k: int, r: int) -> int:
    """Fixed-point-free involutions of length r with no decreasing subsequence > k.

    The bound caps the height of the even columns at k; by conjugation
    (f_lambda = f_lambda') the shapes are 2mu with mu_1 <= k/2.  Zero for odd r.
    """
    _require_bound(k)
    return _halved_hook_sum(r, k // 2, lambda mu: tuple(2 * part for part in mu))


@cache
def count_fpf_lis_bounded(k: int, r: int) -> int:
    """Fixed-point-free involutions of length r with no increasing subsequence > k.

    The bound caps the row lengths instead: the shapes are mu with each row
    repeated and mu_1 <= k.  The two statistics agree on unrestricted
    involutions yet differ on fixed-point-free ones; keeping both explicit
    avoids ever conflating them.
    """
    _require_bound(k)
    return _halved_hook_sum(r, k, lambda mu: tuple(chain.from_iterable(zip(mu, mu))))


def catalan(n: int) -> int:
    """The n-th Catalan number, binomial(2n, n) / (n + 1), exactly."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return comb(2 * n, n) // (n + 1)


def generate_involutions(support: Sequence[int], max_lds: int | None = None) -> Iterator[Involution]:
    """Yield every involution on the given labels, deterministically ordered.

    Recursion on the smallest unmatched label: first leave it fixed, then
    pair it with each larger label in turn.
    ``max_lds`` keeps only involutions whose word has no decreasing
    subsequence longer than the bound.
    """
    labels = tuple(sorted(int(x) for x in support))
    if len(set(labels)) != len(labels):
        raise ValueError("support labels must be distinct")

    def rec(remaining: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]]:
        if not remaining:
            yield (), ()
            return
        s, rest = remaining[0], remaining[1:]
        for fps, cycles in rec(rest):
            yield (s, *fps), cycles
        for i, t in enumerate(rest):
            for fps, cycles in rec(rest[:i] + rest[i + 1:]):
                yield fps, ((s, t), *cycles)

    for fps, cycles in rec(labels):
        v = Involution(fps, cycles)
        if max_lds is not None and lds(v.word()) > max_lds:
            continue
        yield v


def brute_count_lis_bounded(k: int, n: int, limit: int = DEFAULT_PERMUTATION_LIMIT) -> int:
    """Oracle for ``count_perms_lis_bounded``: filter all n! permutations."""
    _require_bound(k)
    if n > limit:
        raise ScaleLimitError(f"oracle scale exceeded: n={n} > limit={limit}")
    return sum(1 for p in permutations(range(1, n + 1)) if lis(p) <= k)


#: (family, k, n) queries: name -> (count function, whether it takes the bound k)
FAMILIES = {
    "u": (count_perms_lis_bounded, True),
    "y": (count_syt_row_bounded, True),
    "y_unbounded": (count_involutions, False),
    "x_unbounded": (count_fpf, False),
    "x": (count_fpf_lds_bounded, True),
    "catalan": (catalan, False),
}


def validate_family(family: str, k: int | None) -> None:
    """Check a (family, k) query combination; k goes with u, y, x only."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}")
    takes_k = FAMILIES[family][1]
    if takes_k and k is None:
        raise ValueError(f"family {family!r} requires a bound k")
    if not takes_k and k is not None:
        raise ValueError(f"family {family!r} takes no bound k")


def count_family(family: str, k: int | None, n: int) -> int:
    """Evaluate one (family, k, n) count query."""
    validate_family(family, k)
    count, takes_k = FAMILIES[family]
    return count(k, n) if takes_k else count(n)
