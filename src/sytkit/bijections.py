"""Executable forms of the constructive maps behind the identities.

Two maps do the real work:

* the free-point toggle: on a pair of involutions whose supports split
  [2n], move the largest fixed point present to the other side.  It is a
  sign-reversing involution, so all pairs cancel out of the alternating sum
  except those where it is undefined (both sides fixed-point-free);
* the arrangement/matching correspondence: an ordered choice of n labels
  from [2n] versus a red/blue-colored perfect matching on [2n].

`signed_cancellation_audit` replays the cancellation argument exhaustively
and compares the surviving pairs against the closed counts.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from .core import (
    Involution,
    lds,
    max_decreasing_subsequences,
    odd_columns,
    rs_of_involution,
)
from .counting import count_fpf, count_fpf_lds_bounded, generate_involutions
from .errors import ClosureViolationError, PivotAbsentError, ScaleLimitError
from .identities import IdentityVerdict, _pair_sum, _term

DEFAULT_PAIR_SPACE_LIMIT = 4
DEFAULT_SUBSEQUENCE_LIMIT = 12


@dataclass(frozen=True)
class PairState:
    """An ordered pair of involutions whose supports partition [2n]."""

    p: Involution
    q: Involution
    n: int

    def __post_init__(self) -> None:
        sp, sq = self.p._partner.keys(), self.q._partner.keys()
        if not sp.isdisjoint(sq):
            raise ValueError(f"supports overlap: {sorted(sp & sq)}")
        if sp | sq != set(range(1, 2 * self.n + 1)):
            raise ValueError(f"supports must partition 1..{2 * self.n}")


@dataclass(frozen=True)
class ColoredInvolution:
    """A fixed-point-free involution on [2n] with each 2-cycle colored red or blue."""

    n: int
    red: tuple[tuple[int, int], ...]
    blue: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        # Involution rejects degenerate, overlapping and non-positive cycles and sorts them
        for color in ("red", "blue"):
            object.__setattr__(self, color, Involution((), getattr(self, color)).two_cycles)
        if Involution((), self.red + self.blue).support != tuple(range(1, 2 * self.n + 1)):
            raise ValueError(f"cycles must cover 1..{2 * self.n}")


@dataclass(frozen=True)
class LongestDecreasingReport:
    """All maximum-length decreasing subsequences of an involution's word.

    When the maximum length is odd, every such subsequence must pass through
    a fixed point; ``all_contain_fixed_point`` records whether that held.
    """

    involution: Involution
    lds_length: int
    max_decreasing_count: int
    all_contain_fixed_point: bool


def free_points(s: PairState) -> tuple[int, ...]:
    """Fixed points of both sides together, sorted."""
    return tuple(sorted(s.p.fixed_points + s.q.fixed_points))


def pivot(s: PairState) -> int | None:
    """Largest free point, or None when both sides are fixed-point-free."""
    free = free_points(s)
    return free[-1] if free else None


def _toggle_fixed_point(v: Involution, m: int) -> Involution:
    """v with m dropped from its fixed points if it is one there, else added as one.

    m must be a fixed point of v or outside its support; the cycles are
    shared unchanged, so the trusted build applies.
    """
    partner = v._partner.copy()
    fps = v.fixed_points
    i = bisect_left(fps, m)
    if m in partner:
        del partner[m]
        fps = fps[:i] + fps[i + 1:]
    else:
        partner[m] = m
        fps = fps[:i] + (m,) + fps[i:]
    return Involution(fps, v.two_cycles, _partner=partner)


def toggle_pivot(s: PairState) -> PairState:
    """Move the largest free point to the other involution.

    Self-inverse wherever defined: the free-point set is unchanged, so the
    same label moves straight back.  The side sizes change by one, flipping
    the parity that weights the pair in the alternating sum.
    """
    m = pivot(s)
    if m is None:
        raise PivotAbsentError("toggle undefined: both involutions are fixed-point-free")
    # the supports partition [2n], so m is fixed on exactly one side and absent from the other
    return PairState(_toggle_fixed_point(s.p, m), _toggle_fixed_point(s.q, m), s.n)


def toggle_pivot_bounded(s: PairState, k: int) -> PairState:
    """The toggle restricted to pairs with both decreasing statistics <= k.

    Only odd bounds are accepted: for odd k the image provably stays inside
    the bounded space, and the function re-checks that on every call, raising
    `ClosureViolationError` if the guarantee were ever violated.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError(f"bounded toggle requires an odd bound, got k={k}")
    if lds(s.p.word()) > k or lds(s.q.word()) > k:
        raise ValueError(f"pair outside the bounded space: a side exceeds lds bound {k}")
    out = toggle_pivot(s)
    if lds(out.p.word()) > k or lds(out.q.word()) > k:
        raise ClosureViolationError(
            f"toggle left the lds<={k} space at n={s.n}: p={s.p.cycle_string()} q={s.q.cycle_string()}"
        )
    return out


def arrangement_to_matching(chosen: Sequence[int]) -> ColoredInvolution:
    """Pair an arranged n-subset of [2n] with the unchosen labels, coloring by order.

    The j-th smallest unchosen label is matched with the j-th chosen one; the
    cycle is red when the unchosen label is the smaller of the two, blue
    otherwise.  The coloring is exactly what makes the map invertible.
    """
    a = tuple(int(x) for x in chosen)
    n = len(a)
    ground = set(range(1, 2 * n + 1))
    if len(set(a)) != n:
        raise ValueError("chosen labels must be distinct")
    if not set(a) <= ground:
        raise ValueError(f"chosen labels must lie in 1..{2 * n}")
    unchosen = sorted(ground - set(a))
    red, blue = [], []
    for i_j, a_j in zip(unchosen, a):
        (red if i_j < a_j else blue).append((min(i_j, a_j), max(i_j, a_j)))
    return ColoredInvolution(n, tuple(red), tuple(blue))


def matching_to_arrangement(c: ColoredInvolution) -> tuple[int, ...]:
    """Invert the pairing: small entries of red cycles and large entries of blue
    cycles are the unchosen labels; their partners, in that order, are the
    arrangement."""
    pairs = sorted([(a, b) for a, b in c.red] + [(b, a) for a, b in c.blue])
    return tuple(chosen for _, chosen in pairs)


def report_longest_decreasing(
    v: Involution, limit: int = DEFAULT_SUBSEQUENCE_LIMIT
) -> LongestDecreasingReport:
    """Enumerate every maximum-length decreasing subsequence and check fixed points.

    An entry of the word is a fixed point exactly when it equals the support
    label at its own position.
    """
    if v.size > limit:
        raise ScaleLimitError(f"subsequence enumeration limited to {limit} elements, got {v.size}")
    word = v.word()
    support = v.support
    length, index_runs = max_decreasing_subsequences(word)
    all_fixed = all(
        any(word[i] == support[i] for i in run) for run in index_runs
    )
    return LongestDecreasingReport(v, length, len(index_runs), all_fixed)


def check_beissinger(v: Involution) -> bool:
    """Beissinger's theorem instance: fixed points == odd columns of the image."""
    return len(v.fixed_points) == odd_columns(rs_of_involution(v))


def _relabel(word: Sequence[int], labels: Sequence[int]) -> Involution:
    """Carry the word of an involution on 1..m onto m sorted labels by x -> labels[x - 1].

    The map is increasing, so reading the relabelled pairs in label order
    gives fixed points and cycles in canonical order and the trusted build
    applies.
    """
    partner = {x: labels[y - 1] for x, y in zip(labels, word)}
    fps = tuple(x for x, y in partner.items() if x == y)
    cycles = tuple((x, y) for x, y in partner.items() if x < y)
    return Involution(fps, cycles, _partner=partner)


def enumerate_pair_space(
    n: int, k: int | None = None, limit: int = DEFAULT_PAIR_SPACE_LIMIT
) -> Iterator[PairState]:
    """Yield every pair of involutions on complementary subsets of [2n].

    With k, both sides are restricted to decreasing subsequences of length at
    most k.  Order: by the size r of the first support, then by the chosen
    subset lexicographically, then by generation order on each side.

    Generation order and lds depend only on the relative order of the labels,
    so each size is generated and filtered once on 1..m, and its words are
    relabelled onto every subset of that size.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > limit:
        raise ScaleLimitError(f"pair space enumeration limited to n={limit}, got n={n}")
    ground = tuple(range(1, 2 * n + 1))
    words = [
        [w for w in map(Involution.word, generate_involutions(ground[:m])) if k is None or lds(w) <= k]
        for m in range(2 * n + 1)
    ]
    for r in range(2 * n + 1):
        for chosen in combinations(ground, r):
            rest = tuple(x for x in ground if x not in chosen)
            qs = [_relabel(w, rest) for w in words[2 * n - r]]
            for w in words[r]:
                p = _relabel(w, chosen)
                for q in qs:
                    yield PairState(p, q, n)


def signed_cancellation_audit(
    n: int, k: int | None = None, limit: int = DEFAULT_PAIR_SPACE_LIMIT
) -> IdentityVerdict:
    """Replay the cancellation argument over the whole (possibly bounded) pair space.

    Checks, exhaustively: the toggle is defined exactly off the
    fixed-point-free pairs, is an involution, flips the side-size parity,
    preserves the free-point set, and (bounded case) never leaves the space.
    The surviving pairs are then counted per split size and compared against
    the closed form, which is the positive side of the matching identity.
    """
    if k is not None and (k < 1 or k % 2 == 0):
        raise ValueError(f"audit bound must be odd, got k={k}")
    survivors_by_r = [0] * (2 * n + 1)
    states = 0
    orbits = 0
    signed_total = 0
    failures: list[str] = []
    for s in enumerate_pair_space(n, k, limit):
        states += 1
        r = s.p.size
        signed_total += -1 if r % 2 else 1
        if pivot(s) is None:
            if not (s.p.is_fixed_point_free() and s.q.is_fixed_point_free()):
                failures.append(f"survivor with a fixed point: {s}")
            survivors_by_r[r] += 1
            continue
        image = toggle_pivot(s) if k is None else toggle_pivot_bounded(s, k)
        orbits += 1  # each 2-element orbit is seen once from each end
        back = toggle_pivot(image)
        if back != s:
            failures.append(f"toggle not an involution at {s}")
        if (image.p.size - r) % 2 == 0:
            failures.append(f"toggle did not flip parity at {s}")
        if free_points(image) != free_points(s):
            failures.append(f"free points not preserved at {s}")
    orbits //= 2

    count = count_fpf if k is None else (lambda r: count_fpf_lds_bounded(k, r))
    lhs_terms = tuple(
        _term(r, 1, 1, survivors_by_r[r], 1) for r in range(2 * n + 1)
    )
    rhs, rhs_terms = _pair_sum(count, n, signed=False)
    lhs = sum(t.term_value for t in lhs_terms)
    per_r_match = all(lhs_terms[r].term_value == rhs_terms[r].term_value for r in range(2 * n + 1))
    holds = not failures and per_r_match and lhs == rhs and signed_total == lhs
    checks = (
        ("states", states),
        ("orbits", orbits),
        ("survivors", lhs),
        ("signed_total", signed_total),
        ("assertion_failures", len(failures)),
    )
    return IdentityVerdict("audit", k, n, lhs, rhs, lhs_terms, rhs_terms, holds, checks)
