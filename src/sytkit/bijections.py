"""Executable forms of the constructive maps behind the identities.

Two maps do the real work:

* the free-point toggle: on a pair of involutions whose supports split
  [2n], move the largest fixed point present to the other side.  It is a
  sign-reversing involution, so all pairs cancel out of the alternating sum
  except those where it is undefined (both sides fixed-point-free);
* the arrangement/matching correspondence: an ordered choice of n labels
  from [2n] versus a red/blue-colored perfect matching on [2n], which is a
  fixed-point-free `PairState` with the red cycles on p and the blue on q.

`signed_cancellation_audit` replays the cancellation argument exhaustively
and compares the surviving pairs against the closed counts.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from operator import index
from typing import TYPE_CHECKING, Iterator, Sequence

from .core import Involution, lds, lis
from .errors import DEFAULT_PAIR_SPACE_LIMIT, ClosureViolationError, PivotAbsentError, ScaleLimitError

if TYPE_CHECKING:
    from .identities import IdentityVerdict

# A slotted class written out by hand: the dataclass decorator would load dataclasses (and with
# it inspect) in every process that walks pair states.  Like Involution, it is treated as
# immutable.  PairState(...) always checks the [2n] cover.  _pair_state is the one trusted
# build, for the two builders that cover [2n] by construction: enumerate_pair_space (sides
# relabelled onto a subset and its complement) and toggle_pivot (one label moved across).
class PairState:
    """An ordered pair of involutions whose supports partition [2n]; compared by value."""

    __slots__ = ("p", "q", "n")

    def __init__(self, p: Involution, q: Involution, n: int) -> None:
        if (n := index(n)) < 0:
            raise ValueError(f"n must be non-negative, got n={n}")
        sp, sq = p._partner, q._partner
        if not sp.keys().isdisjoint(sq):
            raise ValueError(f"supports overlap: {sorted(sp.keys() & sq.keys())}")
        # labels are positive, so disjoint supports of 2n labels, none above 2n, are 1..2n
        if len(sp) + len(sq) != 2 * n or max((0, *sp, *sq)) > 2 * n:
            raise ValueError(f"supports must partition 1..{2 * n}")
        self.p, self.q, self.n = p, q, n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PairState):
            return NotImplemented
        return (self.p, self.q, self.n) == (other.p, other.q, other.n)

    def __hash__(self) -> int:
        return hash((self.p, self.q, self.n))

    def __repr__(self) -> str:
        return f"PairState(p={self.p!r}, q={self.q!r}, n={self.n!r})"


def _pair_state(p: Involution, q: Involution, n: int) -> PairState:
    s = object.__new__(PairState)
    s.p, s.q, s.n = p, q, n
    return s


def free_points(s: PairState) -> tuple[int, ...]:
    """Fixed points of both sides together, sorted."""
    return tuple(sorted(s.p.fixed_points + s.q.fixed_points))


def pivot(s: PairState) -> int | None:
    """Largest free point, or None when both sides are fixed-point-free."""
    fp, fq = s.p.fixed_points, s.q.fixed_points  # sorted, so each side's largest is last
    if fp and fq:
        return max(fp[-1], fq[-1])
    return fp[-1] if fp else fq[-1] if fq else None


def toggle_pivot(s: PairState) -> PairState:
    """Move the largest free point to the other involution.

    Self-inverse wherever defined: the free-point set is unchanged, so the
    same label moves straight back.  The side sizes change by one, flipping
    the parity that weights the pair in the alternating sum.
    """
    p, q = s.p, s.q
    fp, fq = p.fixed_points, q.fixed_points  # sorted, so each side's largest is last
    # the supports partition [2n], so the pivot is the last fixed point of one side and lands
    # on the other above all of its fixed points; the cycles are shared unchanged
    if fp and not (fq and fq[-1] > fp[-1]):
        fp, fq = fp[:-1], fq + fp[-1:]
    elif fq:
        fp, fq = fp + fq[-1:], fq[:-1]
    else:
        raise PivotAbsentError("toggle undefined: both involutions are fixed-point-free")
    return _pair_state(Involution._canonical(fp, p.two_cycles), Involution._canonical(fq, q.two_cycles), s.n)


def _side_lds(v: Involution, top: int) -> int:
    """lds(v.word()) for a side with no label above top, read off its images laid out by label."""
    images = [0] * (top + 1)  # labels are positive, so 0 marks a label off the support
    for x in v.fixed_points:
        images[x] = x
    for a, b in v.two_cycles:
        images[a], images[b] = b, a
    return lis(filter(None, reversed(images)))


def _in_bounded_space(s: PairState, k: int) -> bool:
    """Whether both sides of s have lds <= k."""
    return _side_lds(s.p, 2 * s.n) <= k and _side_lds(s.q, 2 * s.n) <= k


def toggle_pivot_bounded(s: PairState, k: int) -> PairState:
    """The toggle restricted to pairs with both decreasing statistics <= k.

    Only odd bounds are accepted: for odd k the image provably stays inside
    the bounded space, and the function re-checks that on every call, raising
    `ClosureViolationError` if the guarantee were ever violated.
    """
    if (k := index(k)) < 1 or k % 2 == 0:
        raise ValueError(f"bounded toggle requires an odd bound, got k={k}")
    if not _in_bounded_space(s, k):
        raise ValueError(f"pair outside the bounded space: a side exceeds lds bound {k}")
    out = toggle_pivot(s)
    if not _in_bounded_space(out, k):
        raise ClosureViolationError(
            f"toggle left the lds<={k} space at n={s.n}: p={s.p.cycle_string()} q={s.q.cycle_string()}")
    return out


def arrangement_to_matching(chosen: Sequence[int]) -> PairState:
    """Pair an arranged n-subset of [2n] with the unchosen labels, coloring by order.

    The j-th smallest unchosen label is matched with the j-th chosen one; the
    cycle is red when the unchosen label is the smaller of the two, blue
    otherwise.  The coloring is exactly what makes the map invertible.
    """
    a = tuple(map(index, chosen))
    n = len(a)
    ground = set(range(1, 2 * n + 1))
    if len(set(a)) != n:
        raise ValueError("chosen labels must be distinct")
    if not set(a) <= ground:
        raise ValueError(f"chosen labels must lie in 1..{2 * n}")
    unchosen = sorted(ground - set(a))
    red, blue = [], []
    for i_j, a_j in zip(unchosen, a):
        (red if i_j < a_j else blue).append((i_j, a_j))  # Involution sorts each cycle
    return PairState(Involution((), red), Involution((), blue), n)


def _colored_pairs(s: PairState) -> list[list]:
    """[unchosen, chosen, color] for each cycle of a red/blue matching, sorted: the small entry of a
    red cycle and the large entry of a blue one are the unchosen labels."""
    return sorted([[a, b, "red"] for a, b in s.p.two_cycles] + [[b, a, "blue"] for a, b in s.q.two_cycles])


def matching_to_arrangement(s: PairState) -> tuple[int, ...]:
    """Invert the pairing: the partners of the unchosen labels, in their order, are the arrangement."""
    if pivot(s) is not None:
        raise ValueError("colored cycles must all be 2-cycles")
    return tuple(chosen for _, chosen, _ in _colored_pairs(s))


def _relabel(word: Sequence[int], labels: Sequence[int]) -> Involution:
    """Carry the word of an involution on 1..m onto m sorted labels by x -> labels[x - 1].

    The labels are sorted, so the relabelled fixed points and cycles come out
    canonical and the trusted build applies.
    """
    return Involution._canonical(
        tuple(x for x, y in zip(labels, word) if labels[y - 1] == x),
        tuple((x, labels[y - 1]) for x, y in zip(labels, word) if labels[y - 1] > x),
    )


def _side_words(top: int, k: int | None) -> list[list[tuple[int, ...]]]:
    """Words of the involutions on 1..m with lds <= k, in generation order, for m <= top.

    Generation order leaves 1 fixed first, then pairs it with t = 2..m, and
    relabels each smaller word onto the rest.  Deleting 1 and its partner
    leaves an order-isomorphic subword, whose lds is no larger, so growing
    each size from the pruned smaller lists loses no word.
    """
    words: list[list[tuple[int, ...]]] = [[()]]
    for m in range(1, top + 1):
        grown = [(1, *(x + 1 for x in w)) for w in words[m - 1]]
        for t in range(2, m + 1):
            labels = (*range(2, t), *range(t + 1, m + 1))
            for w in words[m - 2]:
                image = [labels[x - 1] for x in w]
                grown.append((t, *image[:t - 2], 1, *image[t - 2:]))
        words.append([w for w in grown if k is None or lds(w) <= k])
    return words


def enumerate_pair_space(
    n: int, k: int | None = None, limit: int = DEFAULT_PAIR_SPACE_LIMIT
) -> Iterator[PairState]:
    """Yield every pair of involutions on complementary subsets of [2n].

    With k, both sides are restricted to decreasing subsequences of length at
    most k.  Order: by the size r of the first support, then by the chosen
    subset lexicographically, then by generation order on each side.

    Generation order and lds depend only on the relative order of the labels,
    so each size is grown and filtered once on 1..m (see `_side_words`), and
    its words are relabelled onto every subset of that size.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if n > limit:
        raise ScaleLimitError(f"pair space enumeration limited to n={limit}, got n={n}")
    ground = tuple(range(1, 2 * n + 1))
    words = _side_words(2 * n, k if k is None else index(k))
    for r in range(2 * n + 1):
        for chosen in combinations(ground, r):
            rest = tuple(x for x in ground if x not in chosen)
            qs = [_relabel(w, rest) for w in words[2 * n - r]]
            for w in words[r]:
                p = _relabel(w, chosen)
                for q in qs:
                    yield _pair_state(p, q, n)


def signed_cancellation_audit(
    n: int, k: int | None = None, limit: int = DEFAULT_PAIR_SPACE_LIMIT
) -> IdentityVerdict:
    """Replay the cancellation argument over the whole (possibly bounded) pair space.

    Each state is classified by its sides' last fixed points, without a
    toggle: a survivor has none; P_r holds the states of split size r whose
    pivot is on p, and Q_r those whose pivot is on q.  Each state s in P_r is
    toggled once, and its image f(s) is checked to be closed under the bound,
    to lie in Q_{r-1}, to keep the free points, and to give back s when
    toggled again.  After the walk, |P_r| = |Q_{r-1}| is checked for every
    r, P_0 and Q_{2n} empty included.

    That covers Q without toggling it.  f(f(s)) = s makes f one to one on P,
    and f maps P_r into Q_{r-1}, a set of the same size, so onto it.  Every t
    in Q is then f(s) for one s in P, and f(t) = s: on t the toggle is
    defined, flips the parity, keeps the free points and stays in the space,
    because it does so on s.  The orbits are the pairs {s, f(s)}, Sigma |P_r|
    of them, and they cancel out of the alternating sum, which leaves the
    survivors.  Those are compared per split size against the closed form,
    the positive side of the matching identity, and in number against the
    signed total.  Every failed check adds 1 to `assertion_failures`, and the
    verdict holds exactly when that count is 0.
    """
    from .counting import count_fpf, count_fpf_lds_bounded
    from .identities import _pair_sum, _term, _verdict

    if k is not None and ((k := index(k)) < 1 or k % 2 == 0):
        raise ValueError(f"audit bound must be odd, got k={k}")
    # states counted by split size r: pivot on p (P_r), pivot on q (Q_r), fixed-point-free
    on_p: Counter[int] = Counter()
    on_q: Counter[int] = Counter()
    survivors: Counter[int] = Counter()
    failures = 0  # each failed check adds 1
    for s in enumerate_pair_space(n, k, limit):
        fp, fq = s.p.fixed_points, s.q.fixed_points  # sorted, so each side's largest is last
        r = s.p.size
        if not fp or fq and fq[-1] > fp[-1]:
            (on_q if fq else survivors)[r] += 1
            continue
        on_p[r] += 1
        # the enumeration kept only sides with lds <= k, so only the image is checked
        image = toggle_pivot(s)
        if k is not None and not _in_bounded_space(image, k):
            failures += 1
        ifp, ifq = image.p.fixed_points, image.q.fixed_points
        if image.p.size != r - 1 or not ifq or ifp and ifp[-1] > ifq[-1]:  # not in Q_{r-1}
            failures += 1
        if toggle_pivot(image) != s:
            failures += 1
        if free_points(image) != free_points(s):
            failures += 1
    # P_0 faces the empty Q_{-1}, and Q_{2n} the empty P_{2n+1}
    failures += sum(on_p[r] != on_q[r - 1] for r in range(2 * n + 2))

    count = count_fpf if k is None else (lambda r: count_fpf_lds_bounded(k, r))
    lhs_terms = tuple(_term(r, 1, 1, survivors[r], 1) for r in range(2 * n + 1))
    rhs_terms = _pair_sum(count, n, signed=False)
    failures += sum(left.term_value != right.term_value for left, right in zip(lhs_terms, rhs_terms))
    lhs = survivors.total()
    signed_total = sum((-1) ** r * c for r, c in (on_p + on_q + survivors).items())
    failures += signed_total != lhs
    checks = (("states", on_p.total() + on_q.total() + lhs), ("orbits", on_p.total()), ("survivors", lhs),
              ("signed_total", signed_total), ("assertion_failures", failures))
    return _verdict("audit", k, n, lhs_terms, rhs_terms, *checks)._replace(holds=not failures)
