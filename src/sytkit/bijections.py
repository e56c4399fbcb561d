"""Executable forms of the constructive maps behind the identities.

The free-point toggle moves the largest fixed point of a pair of involutions whose supports split
[2n] to the other side: a sign-reversing involution, so every pair cancels out of the alternating
sum but the fixed-point-free ones, where it is undefined.  The arrangement/matching map pairs an
ordered choice of n labels from [2n] with a red/blue perfect matching on [2n], a fixed-point-free
`PairState` with the red cycles on p and the blue on q.  `signed_cancellation_audit` replays the
cancellation argument exhaustively.
"""

from collections import Counter
from collections.abc import Iterator, Sequence
from itertools import combinations
from operator import index

from .core import (DEFAULT_PAIR_SPACE_LIMIT, Involution, ScaleLimitError, _require_bound, _require_positive,
                   _require_size, lds, lis)


class PivotAbsentError(ValueError):
    """The free-point toggle was applied to a pair with no free points.

    Both involutions of the pair are fixed-point-free, so the toggle map is
    undefined there; such pairs are exactly its fixed set.
    """


class ClosureViolationError(RuntimeError):
    """A bounded toggle produced a pair outside the bounded pair space.

    For odd bounds this must never happen; raising instead of returning keeps
    a silent invariant breach from contaminating downstream counts.
    """


# Written out by hand: a dataclass would load dataclasses and inspect.  Treated as immutable.
# PairState(...) checks the [2n] cover; _pair_state, the one trusted build, serves the builders
# that cover [2n] by construction: the pair space (a subset and its complement) and toggle_pivot.
# == reads the sides' four tuples and n one by one: the audit runs it once per orbit.
class PairState:
    """An ordered pair of involutions whose supports partition [2n]; compared by value."""

    __slots__ = ("p", "q", "n")

    def __init__(self, p: Involution, q: Involution, n: int) -> None:
        _require_size(n)
        sp, sq = p._partner, q._partner
        if not sp.keys().isdisjoint(sq):
            raise ValueError(f"supports overlap: {sorted(sp.keys() & sq.keys())}")
        # labels are positive, so disjoint supports of 2n labels, none above 2n, are 1..2n
        if len(sp) + len(sq) != 2 * n or max((0, *sp, *sq)) > 2 * n:
            raise ValueError(f"supports must partition 1..{2 * n}")
        self.p, self.q, self.n = p, q, index(n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PairState):
            return NotImplemented
        p, q, op, oq = self.p, self.q, other.p, other.q
        return (p.fixed_points == op.fixed_points and p.two_cycles == op.two_cycles
                and q.fixed_points == oq.fixed_points and q.two_cycles == oq.two_cycles and self.n == other.n)

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
    return max(s.p.fixed_points[-1:] + s.q.fixed_points[-1:], default=None)  # each side's largest is last


def toggle_pivot(s: PairState) -> PairState:
    """Move the largest free point to the other involution.  Self-inverse wherever defined: the
    free points stay, so the same label moves straight back; the side sizes change by one,
    flipping the parity that weights the pair in the alternating sum."""
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
    """The toggle on pairs whose sides both have lds <= k, for odd k only: the image provably stays
    in that space, and each call re-checks it, raising `ClosureViolationError` if it did not."""
    _require_bound(k, parity=1)
    if not _in_bounded_space(s, k):
        raise ValueError(f"pair outside the bounded space: a side exceeds lds bound {k}")
    out = toggle_pivot(s)
    if not _in_bounded_space(out, k):
        raise ClosureViolationError(
            f"toggle left the lds<={k} space at n={s.n}: p={s.p.cycle_string()} q={s.q.cycle_string()}")
    return out


def arrangement_to_matching(chosen: Sequence[int]) -> PairState:
    """Match the j-th smallest unchosen label of [2n] with the j-th of n chosen ones: red when the
    unchosen label is the smaller, blue otherwise.  The coloring makes the map invertible."""
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


def _positions(word: Sequence[int]) -> tuple[int, ...]:
    """(fixed count, fixed positions..., cycle positions...) of a word on 1..m: 0-based, canonical order."""
    fixed = [i for i, y in enumerate(word) if y == i + 1]
    return (len(fixed), *fixed, *(j for i, y in enumerate(word) if y > i + 1 for j in (i, y - 1)))


def _relabel(form: tuple[int, ...], labels: Sequence[int]) -> Involution:
    """A `_positions` form on sorted labels, position x to labels[x], so canonical."""
    ends = map(labels.__getitem__, form[form[0] + 1:])
    return Involution._canonical(tuple(map(labels.__getitem__, form[1:form[0] + 1])), tuple(zip(ends, ends)))


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


def _pair_rows(n: int, k: int | None, limit: int) -> Iterator[tuple]:
    """Yield (r, p, qs): p of size r on a subset, and the qs on its complement, one list for every
    p there.  Each subset S is walked once with its complement: S's rows, then the complement's,
    whose qs are S's sides.  Each word's positions are read once, and each side relabelled once."""
    _require_positive(n)
    if n > index(limit):
        raise ScaleLimitError(f"pair space enumeration limited to n={limit}, got n={n}")
    if k is not None:
        _require_bound(k)
    ground = tuple(range(1, 2 * n + 1))
    forms = _side_words(2 * n, k)
    # in place, from the top size down: a form of size m reuses the tuple a word of size m + 1 freed
    for words in reversed(forms):
        for i, w in enumerate(words):
            words[i] = _positions(w)
    for r in range(n + 1):
        for chosen in combinations(ground, r):
            if r == n and chosen[0] != 1:  # an n-subset and its complement: the one holding 1 walks both
                break  # lexicographic, so every later n-subset lacks 1 too
            rest = tuple(x for x in ground if x not in chosen)
            ps = [_relabel(form, chosen) for form in forms[r]]
            qs = [_relabel(form, rest) for form in forms[2 * n - r]]
            for p in ps:
                yield r, p, qs
            for q in qs:
                yield 2 * n - r, q, ps


def enumerate_pair_space(n: int, k: int | None = None,
                         limit: int = DEFAULT_PAIR_SPACE_LIMIT) -> Iterator[PairState]:
    """Yield every pair of involutions on complementary subsets of [2n].

    With k, at least 1, both sides are restricted to decreasing subsequences
    of length at most k.  Order: by complementary support pair, the rows of
    `_pair_rows` flattened.  For r = 0..n, and each r-subset S of [2n] in
    lexicographic order (at r = n only those that hold 1), first the states
    whose p is on S, then those whose p is on its complement; within each,
    by generation order (`_side_words`) of p, then of q.
    """
    for _, p, qs in _pair_rows(n, k, limit):
        for q in qs:
            yield _pair_state(p, q, n)


def signed_cancellation_audit(
    n: int, k: int | None = None, limit: int = DEFAULT_PAIR_SPACE_LIMIT
) -> "IdentityVerdict":
    """Replay the cancellation argument over the whole (possibly bounded) pair space.

    Each state of each `_pair_rows` row is classified by its sides' last fixed
    points, p's read once per row: a survivor has none; P_r holds the states
    of split size r whose pivot is on p, and Q_r those whose pivot is on q.
    Each side is built once and serves both orders of its split; a row's
    states share r, so they are tallied in ints and added once per row.
    Only a state s in P_r is built, and toggled once; its image f(s) is
    checked, off the tuples in hand, to be closed under the bound, to lie in
    Q_{r-1}, to keep the free points, and to give back s when toggled again.
    A row's images share a p side in value, p less its pivot, so that side is
    bound-checked once per value; the q side, once per image.  After the walk,
    |P_r| = |Q_{r-1}| is checked for every r, P_0 and Q_{2n} empty included.

    That covers Q without toggling it.  f(f(s)) = s makes f one to one on P,
    and f maps P_r into Q_{r-1}, a set of the same size, so onto it.  Every t
    in Q is then f(s) for one s in P, and f(t) = s: on t the toggle is
    defined, flips the parity, keeps the free points and stays in the space,
    because it does so on s.  The orbits are the pairs {s, f(s)}, Sigma |P_r|
    of them, and they cancel out of the alternating sum, which leaves the
    survivors.  Those are compared per split size against the positive side
    of the identity it replays, read from that identity's verdict: the right
    side of `verify_fpf_pairs` with no bound, the left side of `verify_odd_k`
    with one; and in number against the signed total.  Every failed check
    adds 1 to `assertion_failures`, and the verdict holds exactly when that
    count is 0.
    """
    from .identities import _term, _verdict, verify_fpf_pairs, verify_odd_k

    if k is not None:
        _require_bound(k, parity=1)
    # states by split size r: pivot on p (P_r), on q (Q_r), none
    on_p, on_q, survivors = Counter(), Counter(), Counter()
    failures = 0  # each failed check adds 1
    seen_fp = seen_tc = p_closed = None  # the last image p side checked for closure, and its result
    for r, p, qs in _pair_rows(n, k, limit):
        fp = p.fixed_points
        last = fp[-1] if fp else None  # sorted, so the largest is last
        in_p = in_q = free = 0  # r is fixed within a row, so the row's states are tallied once
        for q in qs:
            fq = q.fixed_points
            if not fp or fq and fq[-1] > last:
                if fq:
                    in_q += 1
                else:
                    free += 1
                continue
            s = _pair_state(p, q, n)
            in_p += 1
            # the enumeration kept only sides with lds <= k, so only the image is checked
            image = toggle_pivot(s)
            ip = image.p
            ifp, ifq = ip.fixed_points, image.q.fixed_points
            if k is not None:
                if ifp != seen_fp or ip.two_cycles != seen_tc:
                    seen_fp, seen_tc, p_closed = ifp, ip.two_cycles, _side_lds(ip, 2 * n) <= k
                if _side_lds(image.q, 2 * n) > k or not p_closed:
                    failures += 1
            if len(ifp) + 2 * len(ip.two_cycles) != r - 1 or not ifq or ifp and ifp[-1] > ifq[-1]:  # not Q_{r-1}
                failures += 1
            if toggle_pivot(image) != s:
                failures += 1
            if sorted(ifp + ifq) != sorted(fp + fq):  # the free points stay
                failures += 1
        on_p[r] += in_p
        on_q[r] += in_q
        survivors[r] += free
    # P_0 faces the empty Q_{-1}, and Q_{2n} the empty P_{2n+1}
    failures += sum(on_p[r] != on_q[r - 1] for r in range(2 * n + 2))

    lhs_terms = tuple(_term(r, 1, 1, survivors[r], 1) for r in range(2 * n + 1))
    rhs_terms = verify_fpf_pairs(n).rhs_terms if k is None else verify_odd_k(k, n).lhs_terms
    failures += sum(left.term_value != right.term_value for left, right in zip(lhs_terms, rhs_terms))
    lhs = survivors.total()
    signed_total = sum((-1) ** r * c for r, c in (on_p + on_q + survivors).items())
    failures += signed_total != lhs
    checks = (("states", on_p.total() + on_q.total() + lhs), ("orbits", on_p.total()), ("survivors", lhs),
              ("signed_total", signed_total), ("assertion_failures", failures))
    return _verdict("audit", k, n, lhs_terms, rhs_terms, *checks)._replace(holds=not failures)
