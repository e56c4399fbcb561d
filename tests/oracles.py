"""Independent brute-force oracles used to compute expected test values.

Deliberately naive and structurally different from the library: subsequence
search over index combinations, tableau generation by backtracking,
involution generation by filtering whole permutations or by recursion on the
smallest label (the reference for the audit's generation order), and JSON
records laid out by the stdlib's ``json.dumps(indent=2)``.  Past the exhaustive sizes, the hook
walk draws uniform random tableaux, so involutions by ``rs_inverse``.  The exponential
routes at the end (every maximum decreasing subsequence, every permutation)
live here and not in the library, which keeps only what its commands run.
"""

import json
from functools import cache
from itertools import accumulate, combinations, permutations
from math import comb, factorial
from typing import NamedTuple

from sytkit.core import Involution, StandardTableau, lis
from sytkit.counting import hook_length_count


def brute_lis(word):
    n = len(word)
    for m in range(n, 0, -1):
        for idxs in combinations(range(n), m):
            vals = [word[i] for i in idxs]
            if all(a < b for a, b in zip(vals, vals[1:])):
                return m
    return 0


def brute_lds(word):
    n = len(word)
    for m in range(n, 0, -1):
        for idxs in combinations(range(n), m):
            vals = [word[i] for i in idxs]
            if all(a > b for a, b in zip(vals, vals[1:])):
                return m
    return 0


def brute_max_decreasing(word):
    """(length, all index tuples) of maximum-length decreasing subsequences."""
    n = len(word)
    length = brute_lds(word)
    if length == 0:
        return 0, []
    found = []
    for idxs in combinations(range(n), length):
        vals = [word[i] for i in idxs]
        if all(a > b for a, b in zip(vals, vals[1:])):
            found.append(idxs)
    return length, found


def all_syt(shape):
    """Every standard filling of `shape`, generated by backtracking."""
    cells = [(i, j) for i, r in enumerate(shape) for j in range(r)]
    n = len(cells)
    results = []
    grid = {}

    def place(v):
        if v > n:
            results.append(tuple(tuple(grid[(i, j)] for j in range(r))
                                 for i, r in enumerate(shape)))
            return
        for (i, j) in cells:
            if (i, j) in grid:
                continue
            if (j == 0 or (i, j - 1) in grid) and (i == 0 or (i - 1, j) in grid):
                # values are placed in increasing order, so v always exceeds
                # its filled neighbours; the corner condition is enough
                grid[(i, j)] = v
                place(v + 1)
                del grid[(i, j)]

    place(1)
    return results


def all_partitions(n):
    out = []

    def rec(n, cap, cur):
        if n == 0:
            out.append(tuple(cur))
            return
        for first in range(min(cap, n), 0, -1):
            cur.append(first)
            rec(n - first, first, cur)
            cur.pop()

    rec(n, n, [])
    return out


def column_lengths(shape):
    if not shape:
        return ()
    return tuple(sum(1 for p in shape if p > j) for j in range(shape[0]))


def hook_product_count(shape):
    """Tableaux of a shape by the hook length formula, one hook per box."""
    cols = column_lengths(shape)
    denom = 1
    for i, row in enumerate(shape):
        for j in range(row):
            denom *= (row - j) + (cols[j] - i) - 1
    return factorial(sum(shape)) // denom


def catalan_number(n):
    return comb(2 * n, n) // (n + 1)


def motzkin(n):
    """Motzkin number M_n: choose the 2j steps of n that are up or down, then a Dyck path on them."""
    return sum(comb(n, 2 * j) * catalan_number(j) for j in range(n // 2 + 1))


def central_binomial(n):
    """y_2(n) = C(n, floor(n/2)): tableaux with at most two columns."""
    return comb(n, n // 2)


def catalan_pair_product(n):
    """y_4(n) = C_{floor((n+1)/2)} C_{ceil((n+1)/2)} (Gouyou-Beauchamps 1989)."""
    return catalan_number((n + 1) // 2) * catalan_number((n + 2) // 2)


def involution_words_by_filter(n):
    """Involutions on {1..n} as one-line words, by filtering all n! permutations."""
    return [p for p in permutations(range(1, n + 1))
            if all(p[p[i] - 1] == i + 1 for i in range(n))]


def generate_involutions(support):
    """Yield every involution on the given labels, deterministically ordered.

    Recursion on the smallest unmatched label: first leave it fixed, then
    pair it with each larger label in turn.  This is the order the audit's
    side-word lists follow, so it is the reference they are checked against.
    """
    labels = tuple(sorted(int(x) for x in support))
    if len(set(labels)) != len(labels):
        raise ValueError("support labels must be distinct")

    def rec(remaining):
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
        yield Involution(fps, cycles)


def word_fixed_points(w):
    return [i + 1 for i in range(len(w)) if w[i] == i + 1]


def oracle_s(value):
    """Integers (not bools) to decimal strings, recursively; named tuples become the dicts of their
    fields, and other tuples lists."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if hasattr(value, "_asdict"):
        return oracle_s(value._asdict())
    if isinstance(value, (list, tuple)):
        return [oracle_s(v) for v in value]
    if isinstance(value, dict):
        return {k: oracle_s(v) for k, v in value.items()}
    return value


def oracle_json(kind, payload):
    """Oracle for ``render(kind, payload, "json")``: the stdlib encoder's indent=2 layout."""
    return json.dumps({"kind": kind, **oracle_s(payload)}, indent=2)


# ---------------------------------------------------------------- random tableaux


def hook_walk(shape, rng):
    """A uniform random standard tableau of a shape, by the hook walk of Greene, Nijenhuis and Wilf
    (Adv. Math. 31, 1979).  Each label from n down to 1 starts on a uniform cell of those left,
    steps to a uniform other cell of its hook until it stands on a corner, and fills that corner."""
    rows, cols = list(shape), list(column_lengths(shape))
    grid = [[0] * r for r in shape]
    for label in range(sum(shape), 0, -1):  # as many cells are left as the label
        i, j = 0, rng.randrange(label)
        while j >= rows[i]:
            j -= rows[i]
            i += 1
        while (arm := rows[i] - j - 1) + (leg := cols[j] - i - 1):
            step = rng.randrange(arm + leg)
            if step < arm:
                j += 1 + step
            else:
                i += 1 + step - arm
        grid[i][j] = label
        rows[i] -= 1
        cols[j] -= 1
    return StandardTableau(grid)


def _shapes(m, rows, cap):
    """Partitions of m into at most `rows` parts, none above cap, largest part first."""
    if m == 0:
        yield ()
        return
    for first in range(min(m, cap), -(-m // rows) - 1, -1):
        for rest in _shapes(m - first, rows - 1, first):
            yield (first, *rest)


@cache
def _bounded_shapes(m, k):
    """The shapes of m with at most k rows, and their running f_lambda sums.  The library's hook
    count takes a third of the time ``hook_product_count`` does; a wrong weight only skews the draw."""
    shapes = list(_shapes(m, k, m))
    return shapes, list(accumulate(map(hook_length_count, shapes)))


def random_bounded_tableau(m, k, rng):
    """A uniform random standard tableau of m boxes with at most k rows: a shape drawn with weight
    f_lambda, then filled by the hook walk.  Through ``rs_inverse`` it is a uniform involution of
    length m with lds <= k (Schensted: the rows count a longest decreasing subsequence)."""
    shapes, weights = _bounded_shapes(m, k)
    return hook_walk(rng.choices(shapes, cum_weights=weights)[0], rng)


# ---------------------------------------------------------------- exponential routes
# These enumerate every witness or every permutation, so the tests call them
# at small sizes only.


def brute_count_lis_bounded(k, n):
    """Oracle for ``count_perms_lis_bounded``: filter all n! permutations."""
    return sum(1 for p in permutations(range(1, n + 1)) if lis(p) <= k)


def max_decreasing_subsequences(word):
    """All index tuples realizing the longest strictly decreasing subsequence.

    Backtracks over a memoized "longest decreasing run starting here" table;
    the number of maximum-length subsequences can grow exponentially, so
    callers cap the word length.  Returns (length, index tuples); the empty
    word yields (0, []).
    """
    n = len(word)
    if n == 0:
        return 0, []
    longest = [1] * n
    for i in range(n - 2, -1, -1):
        best = 0
        for j in range(i + 1, n):
            if word[j] < word[i] and longest[j] > best:
                best = longest[j]
        longest[i] = best + 1
    target = max(longest)

    out = []
    prefix = []

    def extend(i):
        prefix.append(i)
        if longest[i] == 1:
            out.append(tuple(prefix))
        else:
            for j in range(i + 1, n):
                if word[j] < word[i] and longest[j] == longest[i] - 1:
                    extend(j)
        prefix.pop()

    for i in range(n):
        if longest[i] == target:
            extend(i)
    return target, out


class LongestDecreasingReport(NamedTuple):
    """All maximum-length decreasing subsequences of an involution's word.

    When the maximum length is odd, every such subsequence must pass through
    a fixed point; ``all_contain_fixed_point`` records whether that held.
    """

    lds_length: int
    max_decreasing_count: int
    all_contain_fixed_point: bool


def report_longest_decreasing(v):
    """Enumerate every maximum-length decreasing subsequence and check fixed points.

    An entry of the word is a fixed point exactly when it equals the support
    label at its own position.
    """
    word = v.word()
    support = v.support
    length, index_runs = max_decreasing_subsequences(word)
    all_fixed = all(
        any(word[i] == support[i] for i in run) for run in index_runs
    )
    return LongestDecreasingReport(length, len(index_runs), all_fixed)
