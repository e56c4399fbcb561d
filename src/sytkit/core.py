"""Involutions, standard Young tableaux, and the Robinson-Schensted map.

Involutions live on arbitrary finite sets of positive integer labels, not
just {1..n}: the bijection machinery moves labels between the two halves of
a pair while keeping their identities.  Subsequence statistics of an
involution are statistics of its one-line word, read off the support in
increasing label order.

Every layer's size and bound rules live beside ``as_shape``, each read with ``operator.index``: n >= 0
(``_require_size``), n >= 1 (``_require_positive``), k >= 1 of a parity if one is given (``_require_bound``).
The scale rule lives there too: ``ScaleLimitError``, which the CLI maps to exit 3, and the default
largest n whose pair space the cancellation audit enumerates, ``DEFAULT_PAIR_SPACE_LIMIT``.
"""

import re
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from operator import index


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
    """A self-inverse partial permutation: its sorted fixed points and 2-cycles are the value.

    The support is the set of labels it acts on: positive integers, not
    necessarily contiguous.  ``Involution(...)`` validates its input in one scan, each
    fixed point and then each sorted 2-cycle; the notation readers ``from_cycles`` and
    ``from_word`` check their grammar and build through it, and ``_canonical`` is the one
    trusted build.  Labels are read with ``operator.index``.  The label -> image map
    ``_partner`` is derived on each read, keys in increasing order; only the two tuples are kept.
    """

    __slots__ = ("fixed_points", "two_cycles")

    def __init__(self, fixed_points: Iterable[int] = (), two_cycles: Iterable[tuple[int, int]] = ()):
        fixed_points = tuple(sorted(map(index, fixed_points)))
        two_cycles = tuple(sorted(tuple(sorted((index(a), index(b)))) for a, b in two_cycles))
        seen: set[int] = set()
        for group in (*((x,) for x in fixed_points), *two_cycles):  # each sorted, so its least label is first
            if group[0] < 1:
                raise ValueError(f"labels must be positive, got {group[0]}")
            if len(group) == 2 and group[0] == group[1]:
                raise ValueError(f"degenerate 2-cycle ({group[0]},{group[1]})")
            for x in group:
                if x in seen:
                    raise ValueError(f"label {x} appears twice")
                seen.add(x)
        self.fixed_points, self.two_cycles = fixed_points, two_cycles

    @classmethod
    def _canonical(cls, fixed_points: tuple[int, ...], two_cycles: tuple[tuple[int, int], ...]) -> "Involution":
        """An involution from tuples its caller guarantees canonical (sorted, positive, disjoint)."""
        v = object.__new__(cls)
        v.fixed_points, v.two_cycles = fixed_points, two_cycles
        return v

    @property
    def _partner(self) -> dict[int, int]:
        fps, cycles = self.fixed_points, self.two_cycles
        return dict(sorted([*zip(fps, fps), *cycles, *((b, a) for a, b in cycles)]))

    @classmethod
    def from_word(cls, word: Sequence[int]) -> "Involution":
        """Build an involution from its one-line word.

        Position i holds the image of the i-th smallest support label, the support being the
        set of entries.  Raises on repeats or a map that is not its own inverse, then, through
        ``Involution(...)``, on a label below 1.
        """
        entries = tuple(map(index, word))
        if len(set(entries)) != len(entries):
            raise ValueError("word has repeated labels")
        partner = dict(zip(sorted(entries), entries))
        for x, y in partner.items():
            if partner[y] != x:
                raise ValueError(f"not an involution: {x} -> {y} -> {partner[y]}")
        return cls([x for x, y in partner.items() if x == y], [(x, y) for x, y in partner.items() if x < y])

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(self._partner)

    @property
    def size(self) -> int:
        return len(self.fixed_points) + 2 * len(self.two_cycles)

    def word(self) -> tuple[int, ...]:
        """One-line word: images of the support labels in increasing order."""
        return tuple(self._partner.values())

    def cycle_string(self) -> str:
        """Cycle notation, e.g. '(13)(26)(5)'.

        Labels of two or more digits switch the group to comma form:
        '(3,12)' for a 2-cycle, '(12,)' for a fixed point.
        """
        groups = sorted(self.two_cycles + tuple((x,) for x in self.fixed_points))  # each group is sorted
        return "".join(f"({','.join(map(str, g))}{',' * (len(g) == 1)})" if g[-1] >= 10
                       else f"({''.join(map(str, g))})" for g in groups) or "()"

    @classmethod
    def from_cycles(cls, text: str) -> "Involution":
        """Read cycle notation as ``cycle_string`` writes it, groups in any order, each a digit,
        juxtaposed digits or comma form ('(31)(5)(12,3)(14,)'); whitespace is ignored, '' is empty."""
        compact = re.sub(r"\s+", "", text)
        if compact in ("", "()"):
            return cls()
        if not re.fullmatch(r"(\([^()]*\))+", compact):
            raise ValueError(f"malformed cycle notation {text!r}")
        parsed = []
        for group in re.findall(r"\(([^()]*)\)", compact):
            juxtaposed = "," not in group and len(group) > 1
            pieces = list(group) if juxtaposed else group.split(",")
            if pieces[1:] == [""]:
                pieces.pop()  # '(12,)' is a fixed point with a wide label
            if not all(re.fullmatch("[0-9]+", p) for p in pieces):
                raise ValueError(f"malformed cycle ({group})")
            labels = [int(p) for p in pieces]
            if juxtaposed and 0 in labels:
                raise ValueError(f"cycle ({group}) needs comma form for labels >= 10")
            if len(labels) > 2:
                raise ValueError(f"cycle ({group}) has {len(labels)} labels; involutions allow 1 or 2")
            parsed.append(labels)
        return cls([g[0] for g in parsed if len(g) == 1], [g for g in parsed if len(g) == 2])

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
    shape = tuple(map(index, parts))
    for i, p in enumerate(shape):
        if p < 1:
            raise ValueError(f"shape parts must be positive, got {p}")
        if i and shape[i - 1] < p:
            raise ValueError(f"shape parts must be weakly decreasing, got {shape}")
    return shape


def _require_size(n: int) -> None:
    if index(n) < 0:
        raise ValueError(f"n must be non-negative, got {n}")


def _require_positive(n: int) -> None:
    if index(n) < 1:
        raise ValueError(f"n must be a positive integer, got {n}")


def _require_bound(k: int, parity: int | None = None) -> None:
    if index(k) < 1:
        raise ValueError(f"bound k must be a positive integer, got {k}")
    if parity is not None and k % 2 != parity:
        raise ValueError(f"bound k must be {('even', 'odd')[parity]}, got {k}")


#: largest n whose pair space the cancellation audit enumerates unless told otherwise
DEFAULT_PAIR_SPACE_LIMIT = 4


class ScaleLimitError(RuntimeError):
    """A size exceeds the audit's exhaustive-search limit, or a size or bound is above sys.maxsize."""


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
        rows = tuple(tuple(map(index, row)) for row in rows)
        as_shape([len(row) for row in rows])
        for i, row in enumerate(rows):
            if any(a >= b for a, b in zip(row, row[1:])):
                raise ValueError(f"row {i} is not strictly increasing: {row}")
            if i:
                above = rows[i - 1]
                if any(above[j] >= row[j] for j in range(len(row))):
                    raise ValueError(f"column through row {i} is not strictly increasing")
        n = sum(len(row) for row in rows)
        if {x for row in rows for x in row} != set(range(1, n + 1)):
            raise ValueError("entries must be exactly 1..n")
        self.rows = rows

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
    return sum(1 for c in _conjugate(t.shape) if c % 2 == 1)


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
