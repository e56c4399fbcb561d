import pytest
from hypothesis import given, strategies as st

from sytkit import (
    Involution,
    StandardTableau,
    check_beissinger,
    conjugate,
    lds,
    lis,
    odd_columns,
    rs_inverse,
    rs_of_involution,
)
from sytkit.core import as_shape
from sytkit.counting import hook_length_count, partitions

from oracles import (
    all_syt,
    brute_lds,
    brute_lis,
    brute_max_decreasing,
    generate_involutions,
    max_decreasing_subsequences,
)

# distinct-entry words (partial permutations with arbitrary labels)
words = st.sets(st.integers(min_value=1, max_value=60), max_size=10).map(tuple).flatmap(
    lambda labels: st.permutations(labels).map(tuple)
)


@st.composite
def large_involutions(draw):
    """Involutions on 1..n for n <= 200: a shuffled 1..n whose first 2c entries pair off."""
    n = draw(st.integers(min_value=0, max_value=200))
    labels = draw(st.permutations(range(1, n + 1)))
    c = 2 * draw(st.integers(min_value=0, max_value=n // 2))
    return Involution(labels[c:], zip(labels[:c:2], labels[1:c:2]))


def test_lis_examples():
    assert lis(()) == 0
    assert lis((2, 1, 4, 3)) == 2  # == brute_lis
    assert lis((1, 2, 3)) == 3


def test_lds_examples():
    assert lds((4, 3, 2, 1)) == 4
    assert lds((3, 4, 1, 2)) == 2  # == brute_lds
    assert lds(()) == 0


@given(words)
def test_lis_lds_match_brute_force(word):
    assert lis(word) == brute_lis(word)
    assert lds(word) == brute_lds(word)


@given(words)
def test_lds_is_lis_of_reversal(word):
    assert lds(word) == lis(word[::-1])


@given(words)
def test_max_decreasing_subsequences_match_brute(word):
    length, runs = max_decreasing_subsequences(word)
    brute_length, brute_runs = brute_max_decreasing(word)
    assert length == brute_length
    assert sorted(runs) == sorted(brute_runs)


# ---------------------------------------------------------------- Involution

def test_involution_construction_and_word():
    v = Involution((5,), ((3, 1), (6, 2)))
    assert v.support == (1, 2, 3, 5, 6)
    assert v.word() == (3, 6, 1, 5, 2)
    assert v.cycle_string() == "(13)(26)(5)"


def test_involution_word_trivial_cases():
    assert Involution().word() == ()
    assert Involution((1, 2, 3)).word() == (1, 2, 3)


def test_involution_rejects_bad_input():
    with pytest.raises(ValueError):
        Involution((1,), ((1, 2),))  # duplicate label
    with pytest.raises(ValueError):
        Involution((), ((2, 2),))  # degenerate cycle
    with pytest.raises(ValueError):
        Involution((0,))  # labels start at 1


def test_involution_from_word():
    assert Involution.from_word((2, 1, 4, 3)) == Involution((), ((1, 2), (3, 4)))
    assert Involution.from_word(()) == Involution()
    with pytest.raises(ValueError):
        Involution.from_word((2, 1, 2))
    with pytest.raises(ValueError):
        Involution.from_word((2, 3, 1))  # a 3-cycle, not self-inverse
    # with several faults, the involution check comes first, then a non-positive fixed point
    # is named before a smaller non-positive cycle label, as the validated build names them
    with pytest.raises(ValueError, match=r"^not an involution: 0 -> 2 -> 1$"):
        Involution.from_word((2, 3, 1, 0))
    with pytest.raises(ValueError, match=r"^labels must be positive, got 0$"):
        Involution.from_word((1, 0, -1))
    with pytest.raises(ValueError, match=r"^labels must be positive, got -1$"):
        Involution.from_word((0, -1, -2))
    with pytest.raises(ValueError, match=r"^labels must be positive, got -1$"):
        Involution.from_word((2, 1, -1))  # no fixed point below 1, so the smallest cycle label


def test_cycle_string_uses_commas_for_wide_labels():
    v = Involution((3,), ((1, 12),))
    assert v.cycle_string() == "(1,12)(3)"


# ---------------------------------------------------------------- tableaux

def test_rs_of_involution_examples():
    assert rs_of_involution(Involution((), ((1, 2),))).rows == ((1,), (2,))
    assert rs_of_involution(Involution((1, 2))).rows == ((1, 2),)
    assert rs_of_involution(Involution((), ((1, 2), (3, 4)))).rows == ((1, 3), (2, 4))


def test_rs_relabels_scattered_support():
    # (13)(26)(5) on {1,2,3,5,6}; relabeled word is 3 5 1 4 2
    t = rs_of_involution(Involution((5,), ((1, 3), (2, 6))))
    assert t.rows == ((1, 2), (3, 4), (5,))
    assert t.shape == (2, 2, 1)


def test_rs_inverse_examples():
    assert rs_inverse(StandardTableau([[1, 2]])) == Involution((1, 2))
    assert rs_inverse(StandardTableau([[1], [2]])) == Involution((), ((1, 2),))
    assert rs_inverse(StandardTableau([[1, 3], [2, 4]])) == Involution((), ((1, 2), (3, 4)))


def test_rs_empty_objects():
    t = rs_of_involution(Involution())
    assert t.rows == () and t.n == 0 and t.shape == ()
    assert rs_inverse(t) == Involution()
    assert odd_columns(t) == 0


def test_tableau_validation():
    with pytest.raises(ValueError):
        StandardTableau([[2, 1]])
    with pytest.raises(ValueError):
        StandardTableau([[1, 3], [2, 2]])
    with pytest.raises(ValueError):
        StandardTableau([[1, 2], [3, 4, 5]])  # row lengths increase
    with pytest.raises(ValueError):
        StandardTableau([[1, 3], [4, 5]])  # entries not 1..n
    with pytest.raises(ValueError):
        StandardTableau([[2, 3], [1, 4]])  # column decreases


@pytest.mark.parametrize("n", range(0, 9))
def test_rs_round_trip_and_bijectivity(n):
    tableaux = set()
    count = 0
    for v in generate_involutions(range(1, n + 1)):
        t = rs_of_involution(v)
        assert t.n == v.size
        assert rs_inverse(t) == v
        tableaux.add(t.rows)
        count += 1
    # injective onto standard tableaux with n boxes: counts match
    total_syt = sum(hook_length_count(s) for s in partitions(n))
    assert len(tableaux) == count == total_syt


@given(large_involutions())
def test_rs_round_trip_on_large_involutions(v):
    assert rs_inverse(rs_of_involution(v)) == v


@given(large_involutions())
def test_beissinger_on_large_involutions(v):
    # fixed points of v = odd columns of its tableau
    assert check_beissinger(v)


@pytest.mark.parametrize("n", range(0, 9))
def test_first_row_and_column_are_subsequence_statistics(n):
    for v in generate_involutions(range(1, n + 1)):
        t = rs_of_involution(v)
        w = v.word()
        first_row = t.shape[0] if t.rows else 0
        first_col = len(t.rows)
        assert lis(w) == first_row
        assert lds(w) == first_col


# ---------------------------------------------------------------- shapes

def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 2)) == (2, 2)
    assert conjugate(()) == ()


@given(st.lists(st.integers(min_value=1, max_value=8), max_size=8).map(
    lambda parts: tuple(sorted(parts, reverse=True))))
def test_conjugate_is_involutive(shape):
    assert conjugate(conjugate(shape)) == shape


def test_conjugate_rejects_non_partition():
    with pytest.raises(ValueError):
        conjugate((1, 2))
    with pytest.raises(ValueError):
        conjugate((2, 0))


@pytest.mark.parametrize("fn", [as_shape, conjugate, hook_length_count])
@pytest.mark.parametrize("parts, message", [
    ((2, 0), "shape parts must be positive, got 0"),
    ((0, 1), "shape parts must be positive, got 0"),
    ((1, 2), "shape parts must be weakly decreasing, got (1, 2)"),
    ((3, -1, 2), "shape parts must be positive, got -1"),  # the first bad part is named
])
def test_shape_errors_name_the_first_bad_part(fn, parts, message):
    with pytest.raises(ValueError) as info:
        fn(parts)
    assert str(info.value) == message


@pytest.mark.parametrize("n", range(0, 11))
def test_row_and_column_bounds_are_exchanged_by_conjugation(n):
    # exhaustive generation: as many tableaux with rows <= k as with columns <= k
    by_shape = {s: len(all_syt(s)) for s in partitions(n)}
    for k in range(1, n + 2):
        rows_bounded = sum(c for s, c in by_shape.items() if not s or s[0] <= k)
        cols_bounded = sum(c for s, c in by_shape.items() if len(s) <= k)
        assert rows_bounded == cols_bounded


def test_odd_columns_examples():
    assert odd_columns(StandardTableau([[1, 2], [3, 4]])) == 0
    assert odd_columns(StandardTableau([[1, 2, 3], [4, 5]])) == 1
    assert odd_columns(StandardTableau([[1]])) == 1


def test_public_exports_resolve_once():
    import sytkit

    assert len(sytkit.__all__) == len(set(sytkit.__all__))
    for name in sytkit.__all__:
        assert getattr(sytkit, name) is not None
