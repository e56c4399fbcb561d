"""Exact counting.

Every count is an arbitrary-precision integer; nothing here touches floats.  Sizes and bounds
are checked by ``core``'s rules; the digits a count query can have, by ``validate_family``.
"""

from collections.abc import Callable, Iterator, Sequence
from functools import lru_cache, partial
from itertools import chain, combinations, starmap
from math import comb, factorial, prod
from operator import add, index, sub

from .core import _conjugate, _require_bound, _require_size, as_shape


# typed, so a float size never takes the memo entry of the equal int and is read by _require_size
_memo = lru_cache(maxsize=None, typed=True)


def partitions(n: int, *, max_parts: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield the partitions of n with at most max_parts parts, in reverse-lex order.

    Iterative, O(max_parts) per step: the next partition pops parts from the
    right, adding up the freed boxes, until some part p > 1 can be lowered to
    p - 1 with the freed boxes refilled, as parts p - 1 and a remainder, within
    the part cap.
    """
    _require_size(n)
    cap = n if max_parts is None else index(max_parts)
    if cap < 0:
        raise ValueError(f"max_parts must be non-negative, got {max_parts}")
    if n == 0:
        yield ()
        return
    if cap < 1:
        return
    parts: list[int] = []
    free, part = n, n
    while True:
        full, rest = divmod(free, part)
        parts += [part] * full + ([rest] if rest else [])
        yield tuple(parts)
        free = 0
        while parts:
            last = parts.pop()
            free += last
            if last > 1 and -(-free // (last - 1)) <= cap - len(parts):
                part = last - 1
                break
        else:
            return


def hook_length_count(shape: Sequence[int]) -> int:
    """Number of standard tableaux of a shape, by the hook length formula.

    The shape is checked with ``as_shape``; the count functions' walks call
    ``_hook_count`` on the shapes they generate, with one factorial table per walk.
    """
    return _hook_count(as_shape(shape), factorial)


def _hook_count(s: tuple[int, ...], fact: Callable[[int], int]) -> int:
    """f_s for a valid shape s, with factorials read from fact.

    The hook product is taken in Frobenius's form over the d parts of the
    shape or of its conjugate, whichever has fewer (f_lambda = f_lambda'):
    with l_i = s_i + d - i, f = n! prod_{i<j} (l_i - l_j) / prod l_i!.
    """
    if s and len(s) > s[0]:
        s = _conjugate(s)
    first_hooks = list(map(add, s, range(len(s) - 1, -1, -1)))  # hooks of the first column
    return fact(sum(s)) * prod(starmap(sub, combinations(first_hooks, 2))) // prod(map(fact, first_hooks))


#: the bits one walk's factorial table stores before it stops storing, 1 MiB: every m! for m < 1420.
#: It bounds bits, not entries, so a walk's few hundred small factorials (u(50, 200): 0! .. 200!) all
#: fit.  A walk reads m! only for m <= n.  One of three-part shapes reads each m! about n/3 times:
#: y(3, 1200) (0.7 MiB of factorials) took 10.5 s with a 2^20-bit bound against 6.6 s with this one.
#: One of two-part shapes reads each m! about once, and at n = 6000 (22 MiB of them) it stores 1 MiB.
_FACTORIAL_BITS = 1 << 23


class _Factorials(dict):
    """One walk's table m -> m!, filled as it is read until it holds _FACTORIAL_BITS; past that a
    factorial is computed on every read.  The walk's first read, n!, is always stored.  Filled up
    front to the shapes' size n, it would hold n^2 log n bits even for a walk of one shape."""

    bits = 0

    def __missing__(self, n: int) -> int:
        value = factorial(n)
        if self.bits < _FACTORIAL_BITS:
            self[n] = value
            self.bits += value.bit_length()
        return value


def _capped_sum(m: int, cap: int, full: Callable[[int], int],
                term: Callable[[tuple[int, ...], Callable[[int], int]], int]) -> int:
    """Sum term(shape, fact) over the partitions of m with at most cap parts,
    with fact reading one factorial table for the whole walk.

    When cap >= m no partition is cut, so the sum is the closed form full(m);
    a negative m falls through to ``partitions``, which rejects it.
    """
    if 0 <= m <= cap:
        return full(m)
    fact = _Factorials().__getitem__
    return sum(term(shape, fact) for shape in partitions(m, max_parts=cap))


@_memo
def count_syt_row_bounded(k: int, n: int) -> int:
    """Standard tableaux on n boxes with no row longer than k.

    Equivalently: involutions of length n with no increasing subsequence
    longer than k (and, by conjugation, the same with "decreasing").  The
    walk is over the conjugates, shapes with at most k rows (f_lambda =
    f_lambda').  When k >= n no shape is cut, so the count is i(n).
    """
    _require_bound(k)
    return _capped_sum(n, k, count_involutions, _hook_count)


@_memo
def count_perms_lis_bounded(k: int, n: int) -> int:
    """Permutations of length n with no increasing subsequence longer than k.

    Robinson-Schensted pairs permutations with two same-shape tableaux, so
    this is the sum of squared tableau counts over shapes with rows <= k,
    walked as their conjugates with at most k rows.  When k >= n no shape is
    cut, so the count is n!.
    """
    _require_bound(k)
    return _capped_sum(n, k, factorial, lambda s, fact: _hook_count(s, fact) ** 2)


@_memo
def count_involutions(m: int) -> int:
    """Involutions of an m-element set: i(m) = i(m-1) + (m-1) i(m-2)."""
    _require_size(m)
    prev, cur = 1, 1
    for i in range(2, m + 1):
        prev, cur = cur, cur + (i - 1) * prev
    return cur


@_memo
def count_fpf(r: int) -> int:
    """Fixed-point-free involutions of length r: (r-1)!! for even r, else 0."""
    _require_size(r)
    return 0 if r % 2 else prod(range(1, r, 2))


def _halved_hook_sum(
    r: int, max_half_parts: int, shape_of: Callable[[tuple[int, ...]], tuple[int, ...]]
) -> int:
    """Sum of f over shape_of(nu) for nu a partition of r/2 with at most max_half_parts parts.

    Fixed points are odd columns (Beissinger), so fixed-point-free involutions
    have all columns even: nu with each row repeated, or its conjugate 2nu.
    When the cap cuts nothing the sum is (r-1)!!.
    """
    _require_size(r)
    if r % 2:
        return 0
    return _capped_sum(r // 2, max_half_parts, lambda half: count_fpf(2 * half),
                       lambda nu, fact: _hook_count(shape_of(nu), fact))


@_memo
def count_fpf_lds_bounded(k: int, r: int) -> int:
    """Fixed-point-free involutions of length r with no decreasing subsequence > k.

    The bound caps the height of the even columns at k: the shapes are nu
    with each row repeated and at most k/2 parts in nu.  When k >= r no shape
    is cut, so the count is (r-1)!!.  Zero for odd r.
    """
    _require_bound(k)
    return _halved_hook_sum(r, k // 2, lambda nu: tuple(chain.from_iterable(zip(nu, nu))))


@_memo
def count_fpf_lis_bounded(k: int, r: int) -> int:
    """Fixed-point-free involutions of length r with no increasing subsequence > k.

    The bound caps the row lengths instead; by conjugation (f_lambda =
    f_lambda') the shapes are 2nu with at most k parts in nu.  When 2k >= r
    no shape is cut, so the count is (r-1)!!.  The two statistics agree on
    unrestricted involutions yet differ on fixed-point-free ones; keeping
    both explicit avoids ever conflating them.
    """
    _require_bound(k)
    return _halved_hook_sum(r, k, lambda nu: tuple(2 * part for part in nu))


def catalan(n: int) -> int:
    """The n-th Catalan number, binomial(2n, n) / (n + 1), exactly."""
    _require_size(n)
    return comb(2 * n, n) // (n + 1)


#: (family, k, n) queries: name -> (count function, whether it takes the bound k)
FAMILIES = {
    "u": (count_perms_lis_bounded, True),
    "y": (count_syt_row_bounded, True),
    "y_unbounded": (count_involutions, False),
    "x_unbounded": (count_fpf, False),
    "x": (count_fpf_lds_bounded, True),
    "catalan": (catalan, False),
}


def lookup(kind: str, registry: dict, name: str, k: int | None) -> Callable[[int], object]:
    """The named entry as a function of n, ``partial(fn, k)`` if it takes a bound k (given exactly then)."""
    if name not in registry:
        raise ValueError(f"unknown {kind} {name!r}; expected one of {', '.join(registry)}")
    fn, takes_k = registry[name]
    if takes_k and k is None:
        raise ValueError(f"{kind} {name!r} requires a bound k")
    if not takes_k and k is not None:
        raise ValueError(f"{kind} {name!r} takes no bound k")
    return partial(fn, k) if takes_k else fn


def validate_family(family: str, k: int | None, n: int) -> int:
    """Check a (family, k, n) count query without counting anything: a known family, k given
    for u, y, x only and then k >= 1, and n >= 0.  Return the most decimal digits its count can have."""
    lookup("family", FAMILIES, family, k)
    if k is not None:
        _require_bound(k)
    _require_size(n)
    # y_k(n), x_k(n) <= m**n and u_k(n) <= m**(2n), m = min(k, n) or n without k (Schur-Weyl; i(n), n! <= n**n),
    # so n*len(str(m)) digits, u twice, at least 1; a Catalan number is below 4**n: 0.60206 > log10(4)
    digits = max(1, (2 if family == "u" else 1) * n * len(str(min(k or n, n))))
    return n * 60206 // 100000 + 1 if family == "catalan" else digits


def count_family(family: str, k: int | None, n: int) -> int:
    """Evaluate one (family, k, n) count query; the count function checks k, then n, as ``validate_family``."""
    return lookup("family", FAMILIES, family, k)(n)
