"""Involutions, standard Young tableaux, and the Robinson-Schensted map.

Involutions live on arbitrary finite sets of positive integer labels, not
just {1..n}: the bijection machinery moves labels between the two halves of
a pair while keeping their identities.  Subsequence statistics of an
involution are statistics of its one-line word, read off the support in
increasing label order.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import ge
from typing import Iterable, Sequence


def lis(word: Iterable[int]) -> int:
    """Length of the longest strictly increasing subsequence (patience sorting)."""
    tails: list[int] = []
    for x in word:
        j = bisect_left(tails, x)
        if j == len(tails):
            tails.append(x)
        else:
            tails[j] = x
    return len(tails)


def lds(word: Sequence[int]) -> int:
    """Length of the longest strictly decreasing subsequence."""
    # a decreasing subsequence read right-to-left is increasing
    return lis(reversed(word))


class Involution:
    """A self-inverse partial permutation, stored as fixed points plus 2-cycles.

    The support is the set of labels the involution acts on; labels are
    positive integers and need not be contiguous.

    Passing ``_partner`` (the label -> image dict) is the trusted build: the
    caller guarantees that ``fixed_points`` and ``two_cycles`` are already
    canonical sorted tuples that agree with it, and nothing is re-checked.
    """

    __slots__ = ("fixed_points", "two_cycles", "_partner")

    def __init__(
        self,
        fixed_points: Iterable[int] = (),
        two_cycles: Iterable[tuple[int, int]] = (),
        *,
        _partner: dict[int, int] | None = None,
    ):
        if _partner is None:
            fixed_points = tuple(sorted(int(x) for x in fixed_points))
            two_cycles = tuple(sorted(tuple(sorted((int(a), int(b)))) for a, b in two_cycles))
            _partner = {}
            for x in fixed_points:
                if x < 1:
                    raise ValueError(f"labels must be positive, got {x}")
                if x in _partner:
                    raise ValueError(f"label {x} appears twice")
                _partner[x] = x
            for a, b in two_cycles:
                if a < 1:
                    raise ValueError(f"labels must be positive, got {a}")
                if a == b:
                    raise ValueError(f"degenerate 2-cycle ({a},{b})")
                for x in (a, b):
                    if x in _partner:
                        raise ValueError(f"label {x} appears twice")
                _partner[a] = b
                _partner[b] = a
        self.fixed_points = fixed_points
        self.two_cycles = two_cycles
        self._partner = _partner

    @classmethod
    def _from_partner(cls, partner: dict[int, int]) -> "Involution":
        """The trusted build from a self-inverse map on positive labels, keys inserted in
        increasing order, so that the fixed points and cycles read off it are canonical."""
        fps = tuple(x for x, y in partner.items() if x == y)
        cycles = tuple((x, y) for x, y in partner.items() if x < y)
        return cls(fps, cycles, _partner=partner)

    @classmethod
    def from_word(cls, word: Sequence[int]) -> "Involution":
        """Build an involution from its one-line word.

        Position i of the word holds the image of the i-th smallest support
        label; the support is the set of word entries.  Raises if the word
        has repeats, a label below 1, or an induced map that is not its own inverse.
        """
        entries = tuple(int(x) for x in word)
        if len(set(entries)) != len(entries):
            raise ValueError("word has repeated labels")
        partner = dict(zip(sorted(entries), entries))
        for x, y in partner.items():
            if partner[y] != x:
                raise ValueError(f"not an involution: {x} -> {y} -> {partner[y]}")
        # as in the validated build, a non-positive fixed point is named before any cycle label
        bad = next((x for x, y in partner.items() if x == y and x < 1), min(partner, default=1))
        if bad < 1:
            raise ValueError(f"labels must be positive, got {bad}")
        return cls._from_partner(partner)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._partner))

    @property
    def size(self) -> int:
        return len(self._partner)

    def word(self) -> tuple[int, ...]:
        """One-line word: images of the support labels in increasing order."""
        return tuple(map(self._partner.__getitem__, sorted(self._partner)))

    def is_fixed_point_free(self) -> bool:
        return not self.fixed_points

    def cycle_string(self) -> str:
        """Cycle notation, e.g. '(13)(26)(5)'.

        Labels of two or more digits switch the group to comma form:
        '(3,12)' for a 2-cycle, '(12,)' for a fixed point.
        """
        groups: list[tuple[int, ...]] = sorted(self.two_cycles + tuple((x,) for x in self.fixed_points))
        parts = []
        for g in groups:
            if any(x >= 10 for x in g):
                tail = "," if len(g) == 1 else ""
                parts.append("(" + ",".join(str(x) for x in g) + tail + ")")
            else:
                parts.append("(" + "".join(str(x) for x in g) + ")")
        return "".join(parts) or "()"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Involution):
            return NotImplemented
        return self.fixed_points == other.fixed_points and self.two_cycles == other.two_cycles

    def __hash__(self) -> int:
        return hash((self.fixed_points, self.two_cycles))

    def __repr__(self) -> str:
        return f"Involution{self.cycle_string()}"


def as_shape(parts: Sequence[int]) -> tuple[int, ...]:
    """Validate and normalize a partition (weakly decreasing positive parts)."""
    shape = tuple(map(int, parts))
    if shape and not (shape[-1] >= 1 and all(map(ge, shape, shape[1:]))):
        for i, p in enumerate(shape):  # the slow scan names the first bad part
            if p < 1:
                raise ValueError(f"shape parts must be positive, got {p}")
            if i and shape[i - 1] < p:
                raise ValueError(f"shape parts must be weakly decreasing, got {shape}")
    return shape


def _conjugate(shape: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose of an already valid partition; the columns are filled from the bottom row up."""
    cols: list[int] = []
    for height in range(len(shape), 0, -1):
        cols += [height] * (shape[height - 1] - len(cols))
    return tuple(cols)


def conjugate(shape: Sequence[int]) -> tuple[int, ...]:
    """Transpose of a partition: part j of the result is the length of column j."""
    return _conjugate(as_shape(shape))


class StandardTableau:
    """A Young-diagram filling with 1..n, strictly increasing in rows and columns."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Sequence[int]] = ()):
        normalized = tuple(tuple(int(x) for x in row) for row in rows)
        self._validate(normalized)
        self.rows = normalized

    @staticmethod
    def _validate(rows: tuple[tuple[int, ...], ...]) -> None:
        for i, row in enumerate(rows):
            if not row:
                raise ValueError("empty row in tableau")
            if i and len(rows[i - 1]) < len(row):
                raise ValueError("row lengths must be weakly decreasing")
            if any(a >= b for a, b in zip(row, row[1:])):
                raise ValueError(f"row {i} is not strictly increasing: {row}")
            if i:
                above = rows[i - 1]
                if any(above[j] >= row[j] for j in range(len(row))):
                    raise ValueError(f"column through row {i} is not strictly increasing")
        n = sum(len(row) for row in rows)
        if {x for row in rows for x in row} != set(range(1, n + 1)):
            raise ValueError("entries must be exactly 1..n")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.rows)

    @property
    def n(self) -> int:
        return sum(len(row) for row in self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StandardTableau):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"StandardTableau({list(list(r) for r in self.rows)!r})"


def odd_columns(t: StandardTableau) -> int:
    """Number of columns of odd length."""
    return sum(1 for c in conjugate(t.shape) if c % 2 == 1)


def _row_insert(rows: list[list[int]], x: int) -> None:
    """Row-insert x: bump the smallest larger entry down a row until one appends."""
    i = 0
    while i < len(rows):
        row = rows[i]
        j = bisect_left(row, x)
        if j == len(row):
            row.append(x)
            return
        x, row[j] = row[j], x
        i += 1
    rows.append([x])


def rs_of_involution(v: Involution) -> StandardTableau:
    """The single standard tableau matching an involution under Robinson-Schensted.

    The insertion and recording tableaux of an involution's word coincide, so
    one tableau carries the whole image.  The support is first relabeled
    order-isomorphically to 1..n, which leaves the shape and all subsequence
    statistics unchanged.
    """
    rank = {label: i for i, label in enumerate(v.support, 1)}
    rows: list[list[int]] = []
    for label in v.word():
        _row_insert(rows, rank[label])
    return StandardTableau(rows)


def check_beissinger(v: Involution) -> bool:
    """Beissinger's theorem instance: fixed points == odd columns of the image."""
    return len(v.fixed_points) == odd_columns(rs_of_involution(v))


def rs_inverse(t: StandardTableau) -> Involution:
    """The unique involution on {1..n} whose Robinson-Schensted image is t.

    Runs reverse row insertion with t doubling as the recording tableau:
    entries n, n-1, ... mark which outer corner to evacuate, and each
    evacuated value reverse-bumps its way back to the first row.
    """
    position = {}
    for i, row in enumerate(t.rows):
        for j, x in enumerate(row):
            position[x] = (i, j)
    rows = [list(row) for row in t.rows]
    letters = []
    for k in range(t.n, 0, -1):
        i, j = position[k]
        x = rows[i].pop(j)
        if not rows[i]:
            del rows[i]
        for r in range(i - 1, -1, -1):
            row = rows[r]
            jj = bisect_left(row, x) - 1
            x, row[jj] = row[jj], x
        letters.append(x)
    return Involution.from_word(tuple(reversed(letters)))
