import random
import time
import tracemalloc
from collections import Counter
from functools import cache
from itertools import combinations, permutations
from math import comb, factorial

import pytest

from sytkit import (
    ClosureViolationError,
    Involution,
    PairState,
    PivotAbsentError,
    ScaleLimitError,
    StandardTableau,
    arrangement_to_matching,
    check_beissinger,
    count_fpf,
    count_fpf_lds_bounded,
    count_involutions,
    count_syt_row_bounded,
    enumerate_pair_space,
    free_points,
    lds,
    lis,
    matching_to_arrangement,
    pivot,
    rs_inverse,
    rs_of_involution,
    signed_cancellation_audit,
    toggle_pivot,
    toggle_pivot_bounded,
    verify_odd_k,
    verify_wilf_even,
)

from sytkit import bijections
from sytkit.core import as_shape

from cli_runner import invoke
from oracles import (brute_lds, generate_involutions, max_decreasing_subsequences, random_bounded_tableau,
                     report_longest_decreasing)

WORKED_PAIR = PairState(
    Involution((5,), ((1, 3), (2, 6))), Involution((7,), ((4, 8),)), 4
)


# ---------------------------------------------------------------- pair states

def test_pair_state_validation():
    with pytest.raises(ValueError):
        PairState(Involution((1,)), Involution((1, 2)), 1)  # overlap
    with pytest.raises(ValueError):
        PairState(Involution((1,)), Involution(), 1)  # does not cover 1..2
    with pytest.raises(ValueError):
        PairState(Involution((1,)), Involution((3,)), 1)  # label outside 1..2


def test_pair_state_rejects_a_huge_n_without_building_the_ground_set():
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match=r"^supports must partition 1\.\.200000000$"):
            PairState(Involution((1,)), Involution((2,)), 10**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1
    assert peak < 2**20


@pytest.mark.parametrize("n", range(-1, 4))
def test_pair_state_cover_check_matches_the_set_rule(n):
    # the rule the O(support) check replaces: disjoint supports whose union is exactly 1..2n
    labels = range(1, 7)
    subsets = [c for r in range(len(labels) + 1) for c in combinations(labels, r)]
    for a in subsets:
        for b in subsets:
            if n < 0:
                expected = f"n must be non-negative, got {n}"
            elif set(a) & set(b):
                expected = f"supports overlap: {sorted(set(a) & set(b))}"
            elif set(a) | set(b) != set(range(1, 2 * n + 1)):
                expected = f"supports must partition 1..{2 * n}"
            else:
                expected = None
            try:
                PairState(Involution(a), Involution(b), n)
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == expected, (a, b)


def test_free_points_and_pivot_worked_example():
    assert free_points(WORKED_PAIR) == (5, 7)
    assert pivot(WORKED_PAIR) == 7


def test_free_points_edge_cases():
    fpf = PairState(Involution((), ((1, 2),)), Involution((), ((3, 4),)), 2)
    assert free_points(fpf) == ()
    assert pivot(fpf) is None
    all_fixed = PairState(Involution((1, 2, 3, 4)), Involution(), 2)
    assert free_points(all_fixed) == (1, 2, 3, 4)
    singleton = PairState(Involution((1,)), Involution((2,)), 1)
    assert pivot(singleton) == 2


def test_toggle_worked_example():
    image = toggle_pivot(WORKED_PAIR)
    assert image.p == Involution((5, 7), ((1, 3), (2, 6)))
    assert image.q == Involution((), ((4, 8),))


def test_toggle_moves_between_sides():
    state = PairState(Involution((1,)), Involution((2,)), 1)
    image = toggle_pivot(state)
    assert image.p == Involution((1, 2)) and image.q == Involution()


def test_toggle_twice_restores():
    assert toggle_pivot(toggle_pivot(WORKED_PAIR)) == WORKED_PAIR


def test_toggle_undefined_on_fixed_point_free_pairs():
    fpf = PairState(Involution((), ((1, 2),)), Involution(), 1)
    with pytest.raises(PivotAbsentError):
        toggle_pivot(fpf)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_toggle_is_a_parity_reversing_involution(n):
    for s in enumerate_pair_space(n):
        if pivot(s) is None:
            assert not s.p.fixed_points and not s.q.fixed_points
            continue
        image = toggle_pivot(s)
        assert toggle_pivot(image) == s
        assert (len(image.p.support) - len(s.p.support)) % 2 == 1
        assert free_points(image) == free_points(s)
        assert pivot(image) == pivot(s)


# ---------------------------------------------------------------- bounded toggle

def test_bounded_toggle_rejects_even_bound():
    with pytest.raises(ValueError):
        toggle_pivot_bounded(WORKED_PAIR, 2)


def test_bounded_toggle_rejects_out_of_space_input():
    state = PairState(Involution((2,), ((1, 3),)), Involution((4, 5, 6, 7, 8)), 4)
    assert lds(state.p.word()) == 3
    with pytest.raises(ValueError):
        toggle_pivot_bounded(state, 1)


def test_bounded_toggle_matches_unbounded_when_slack():
    assert toggle_pivot_bounded(WORKED_PAIR, 5) == toggle_pivot(WORKED_PAIR)


@pytest.mark.parametrize("k", (1, 3, 5))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_bounded_toggle_closure_for_odd_bounds(k, n):
    for s in enumerate_pair_space(n, k):
        if pivot(s) is None:
            continue
        image = toggle_pivot_bounded(s, k)  # raises ClosureViolationError on failure
        assert lds(image.p.word()) <= k and lds(image.q.word()) <= k


def test_side_lds_agrees_with_the_word_routes():
    # validated, relabelled and toggled sides of every involution on every subset of [7]
    for r in range(8):
        words = [v.word() for v in generate_involutions(range(1, r + 1))]
        for labels in combinations(range(1, 8), r):
            sides = [*generate_involutions(labels),
                     *(bijections._relabel(bijections._positions(w), labels) for w in words)]
            # as the toggle builds them: 8 added as the largest fixed point, or the last one dropped
            toggled = [Involution._canonical(v.fixed_points + (8,), v.two_cycles) for v in sides]
            toggled += [Involution._canonical(v.fixed_points[:-1], v.two_cycles) for v in sides if v.fixed_points]
            for v in sides + toggled:
                assert bijections._side_lds(v, 8) == lds(v.word()) == brute_lds(v.word())


def test_increasing_bound_analogue_has_closure_counterexample():
    # with the increasing statistic and an even bound the toggle escapes:
    # this is the structural reason the naive identity variant fails
    k, n = 2, 3
    escaped = 0
    for s in enumerate_pair_space(n):
        if lis(s.p.word()) > k or lis(s.q.word()) > k or pivot(s) is None:
            continue
        image = toggle_pivot(s)
        if lis(image.p.word()) > k or lis(image.q.word()) > k:
            escaped += 1
    assert escaped > 0


# ---------------------------------------------------------------- sampled bounded toggle

def sampled_pair(n, k, rng):
    """A pair of involutions with lds <= k on a random split of [2n], each side drawn uniformly by
    the hook walk and relabelled from 1..m onto its labels; with the two tableaux drawn."""
    ground = range(1, 2 * n + 1)
    chosen = set(rng.sample(ground, rng.randint(0, 2 * n)))
    labels = (sorted(chosen), [x for x in ground if x not in chosen])
    tableaux = [random_bounded_tableau(len(side), k, rng) for side in labels]
    p, q = (bijections._relabel(bijections._positions(rs_inverse(t).word()), side)
            for t, side in zip(tableaux, labels))
    return PairState(p, q, n), tableaux


@pytest.mark.parametrize("n, k", [(50, 3), (25, 5)])
def test_bounded_toggle_closure_on_sampled_pairs_past_the_exhaustive_sizes(n, k):
    # 100 and 50 labels, where the exhaustive checks stop at 10
    rng = random.Random(14)
    toggled = 0
    for _ in range(200):
        s, tableaux = sampled_pair(n, k, rng)
        for t, side in zip(tableaux, (s.p, s.q)):
            assert rs_of_involution(rs_inverse(t)) == t
            assert check_beissinger(side) and lds(side.word()) == len(t.rows) <= k
        if pivot(s) is None:
            continue
        image = toggle_pivot_bounded(s, k)  # raises ClosureViolationError on failure
        assert toggle_pivot(image) == s and free_points(image) == free_points(s)
        assert abs(image.p.size - s.p.size) == 1
        toggled += 1
    assert toggled > 100


def test_sampled_pairs_leave_the_space_at_an_even_bound():
    # the positive control: the sampler reaches pairs whose toggle escapes when the bound is even
    rng = random.Random(2)
    pairs = [sampled_pair(10, 2, rng)[0] for _ in range(100)]
    assert any(not bijections._in_bounded_space(toggle_pivot(s), 2) for s in pairs if pivot(s) is not None)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_hook_walk_sampler_reaches_every_bounded_involution(k):
    rng = random.Random(k)
    for m in range(7):
        expected = {v for v in generate_involutions(range(1, m + 1)) if brute_lds(v.word()) <= k}
        seen = set()
        for _ in range(2000):
            seen.add(rs_inverse(random_bounded_tableau(m, k, rng)))
            if seen == expected:
                break
        assert seen == expected, m


# ---------------------------------------------------------------- coloring bijection

def test_arrangement_to_matching_examples():
    c = arrangement_to_matching((3, 1))
    assert c.p.two_cycles == ((2, 3),) and c.q.two_cycles == ((1, 4),)
    assert arrangement_to_matching((2,)).p.two_cycles == ((1, 2),)
    assert arrangement_to_matching((1,)).q.two_cycles == ((1, 2),)


def test_matching_to_arrangement_examples():
    assert matching_to_arrangement(PairState(Involution((), ((2, 3),)), Involution((), ((1, 4),)), 2)) == (3, 1)
    assert matching_to_arrangement(PairState(Involution((), ((1, 2),)), Involution((), ()), 1)) == (2,)
    assert matching_to_arrangement(PairState(Involution((), ()), Involution((), ((1, 2),)), 1)) == (1,)


def test_matching_to_arrangement_rejects_fixed_points():
    with pytest.raises(ValueError, match="2-cycles"):
        matching_to_arrangement(PairState(Involution((1,)), Involution((2,)), 1))


def test_arrangement_validation():
    with pytest.raises(ValueError):
        arrangement_to_matching((1, 1))
    with pytest.raises(ValueError):
        arrangement_to_matching((1, 5))  # 5 outside 1..4


def test_colored_involution_validation():
    with pytest.raises(ValueError):
        PairState(Involution((), ((1, 1),)), Involution((), ()), 1)
    with pytest.raises(ValueError):
        PairState(Involution((), ((1, 2),)), Involution((), ((2, 3),)), 2)  # overlap
    with pytest.raises(ValueError):
        PairState(Involution((), ((1, 2),)), Involution((), ()), 2)  # does not cover 1..4
    assert PairState(Involution((), ((2, 1),)), Involution((), ()), 1).p.two_cycles == ((1, 2),)  # normalized


@pytest.mark.parametrize("n", (1, 2, 3))
def test_coloring_bijection_round_trips(n):
    from math import factorial

    ground = range(1, 2 * n + 1)
    arrangements = [a for subset in combinations(ground, n) for a in permutations(subset)]
    assert len(arrangements) == comb(2 * n, n) * factorial(n)
    images = set()
    for a in arrangements:
        c = arrangement_to_matching(a)
        assert matching_to_arrangement(c) == a
        images.add(c)
    # forward map is a bijection onto all colorings of all matchings
    all_colorings = set()
    for v in filter(lambda v: not v.fixed_points, generate_involutions(ground)):
        cycles = v.two_cycles
        for mask in range(2 ** n):
            red = tuple(c for i, c in enumerate(cycles) if mask >> i & 1)
            blue = tuple(c for i, c in enumerate(cycles) if not mask >> i & 1)
            all_colorings.add(PairState(Involution((), red), Involution((), blue), n))
    assert images == all_colorings
    assert len(images) == count_fpf(2 * n) * 2 ** n
    for c in all_colorings:
        assert arrangement_to_matching(matching_to_arrangement(c)) == c


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_audit_survivors_map_onto_every_arrangement(n):
    survivors = [s for s in enumerate_pair_space(n) if pivot(s) is None]
    images = {}
    for s in survivors:
        images[matching_to_arrangement(s)] = s
    assert len(images) == len(survivors) == comb(2 * n, n) * factorial(n)
    for a, s in images.items():
        assert arrangement_to_matching(a) == s


# ---------------------------------------------------------------- subsequence reports

def test_report_examples():
    rep = report_longest_decreasing(Involution((5,), ((1, 3), (2, 4))))
    assert rep.lds_length == 2  # even: the fixed-point claim is vacuous here
    rep1 = report_longest_decreasing(Involution((1,)))
    assert (rep1.lds_length, rep1.max_decreasing_count, rep1.all_contain_fixed_point) == (1, 1, True)
    rep3 = report_longest_decreasing(Involution((2,), ((1, 3),)))
    assert (rep3.lds_length, rep3.max_decreasing_count, rep3.all_contain_fixed_point) == (3, 1, True)


def test_report_empty_involution():
    rep = report_longest_decreasing(Involution())
    assert (rep.lds_length, rep.max_decreasing_count, rep.all_contain_fixed_point) == (0, 0, True)


@pytest.mark.parametrize("n", range(1, 9))
def test_odd_lds_forces_fixed_points_in_every_witness(n):
    for v in generate_involutions(range(1, n + 1)):
        rep = report_longest_decreasing(v)
        if rep.lds_length % 2 == 1:
            assert rep.all_contain_fixed_point


@pytest.mark.parametrize("n", range(1, 9))
def test_no_decreasing_witness_contains_two_fixed_points(n):
    for v in generate_involutions(range(1, n + 1)):
        word, support = v.word(), v.support
        _, runs = max_decreasing_subsequences(word)
        for run in runs:
            assert sum(1 for i in run if word[i] == support[i]) <= 1


@pytest.mark.parametrize("n", range(0, 8))
def test_beissinger_holds_exhaustively(n):
    for v in generate_involutions(range(1, n + 1)):
        assert check_beissinger(v)


def test_beissinger_examples():
    assert check_beissinger(Involution((1, 2, 3)))
    assert check_beissinger(Involution((), ((1, 2), (3, 4))))
    assert check_beissinger(Involution((5,), ((1, 3), (2, 4))))


# ---------------------------------------------------------------- pair space

def test_pair_space_sizes():
    assert len(list(enumerate_pair_space(1))) == 6
    # bound 1 excludes the two pairs with a 2-cycle side (lds 2 on that side)
    assert len(list(enumerate_pair_space(1, 1))) == 4
    assert len(list(enumerate_pair_space(2))) == 76


def test_pair_space_at_the_raised_limit_with_bound_one():
    # lds 1 leaves only the identity on each side: one state per subset of [10]
    assert sum(1 for _ in enumerate_pair_space(5, 1, limit=5)) == 1024


@cache
def _brute_lds_of(word):
    return brute_lds(word)


@pytest.mark.parametrize("k", (None, 1, 2, 3, 5))
def test_side_words_are_generation_order_filtered_by_lds(k):
    words = bijections._side_words(9, k)
    assert len(words) == 10
    for m, got in enumerate(words):
        generated = (v.word() for v in generate_involutions(range(1, m + 1)))
        assert got == [w for w in generated if k is None or _brute_lds_of(w) <= k]


def test_pair_space_respects_limit():
    with pytest.raises(ScaleLimitError):
        list(enumerate_pair_space(5))
    with pytest.raises(ValueError):
        list(enumerate_pair_space(0))


@pytest.mark.parametrize("k", (None, 1, 2, 3))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_pair_space_cardinality_per_split_size(n, k):
    by_r = {}
    for s in enumerate_pair_space(n, k):
        by_r[len(s.p.support)] = by_r.get(len(s.p.support), 0) + 1

    def side_count(m):
        return count_involutions(m) if k is None else count_syt_row_bounded(k, m)

    for r in range(2 * n + 1):
        assert by_r.get(r, 0) == comb(2 * n, r) * side_count(r) * side_count(2 * n - r)


def test_pair_space_is_deterministic_and_duplicate_free():
    first = list(enumerate_pair_space(2))
    assert first == list(enumerate_pair_space(2))
    assert len(set(first)) == len(first)


@pytest.mark.parametrize("k", (None, 1, 2, 3))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_pair_space_order_matches_per_subset_generation(n, k):
    def side(labels):
        return [v for v in generate_involutions(labels) if k is None or brute_lds(v.word()) <= k]

    ground = range(1, 2 * n + 1)
    expected = [
        PairState(p, q, n)
        for r in range(2 * n + 1)
        for chosen in combinations(ground, r)
        for p in side(chosen)
        for q in side([x for x in ground if x not in chosen])
    ]
    assert list(enumerate_pair_space(n, k)) == expected


@pytest.mark.parametrize("k", (None, 1, 3))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_trusted_sides_equal_validated_sides(n, k):
    # the pair space and the toggle build sides without re-checking them
    def same(a, b):
        return (
            a.fixed_points == b.fixed_points
            and a.two_cycles == b.two_cycles
            and a.support == b.support
            and a.word() == b.word()
            and a.size == b.size
            and a == b
            and hash(a) == hash(b)
        )

    for s in enumerate_pair_space(n, k):
        states = [s] if pivot(s) is None else [s, toggle_pivot(s)]
        for v in (side for state in states for side in (state.p, state.q)):
            assert same(v, Involution(v.fixed_points, v.two_cycles))
            assert same(v, Involution.from_word(v.word()))
        if pivot(s) is None:
            continue
        # an Involution keeps only its two tuples and derives its map on every read; of two
        # builds of each image, only the first has its map read before its word
        for state in (s, toggle_pivot(s)):
            read, unread = toggle_pivot(state), toggle_pivot(state)
            for v, fresh in ((read.p, unread.p), (read.q, unread.q)):
                validated = Involution(v.fixed_points, v.two_cycles)
                assert v._partner == validated._partner
                assert list(v._partner) == sorted(v._partner)
                assert v.size == len(v.support) == validated.size
                assert v.word() == fresh.word() == validated.word()


@pytest.mark.parametrize("k", (None, 1, 3))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_trusted_pair_states_pass_the_cover_check(n, k):
    # the pair space and the toggle build their states without the [2n] cover check
    for s in enumerate_pair_space(n, k):
        for state in [s] if pivot(s) is None else [s, toggle_pivot(s)]:
            assert PairState(state.p, state.q, state.n) == state


def test_pair_state_takes_exactly_its_three_fields():
    # PairState takes its three fields and nothing else; the trusted build is a private function
    with pytest.raises(TypeError):
        PairState(Involution((1,)), Involution((2,)), 1, True)


def test_pair_states_compare_and_hash_by_value():
    twin = PairState(Involution((5,), ((3, 1), (6, 2))), Involution((7,), ((8, 4),)), 4)
    trusted = bijections._pair_state(WORKED_PAIR.p, WORKED_PAIR.q, WORKED_PAIR.n)
    for same in (twin, trusted):
        assert same is not WORKED_PAIR
        assert same == WORKED_PAIR and not same != WORKED_PAIR
        assert hash(same) == hash(WORKED_PAIR)
    assert len({WORKED_PAIR, twin, trusted}) == 1
    assert toggle_pivot(WORKED_PAIR) != WORKED_PAIR


def test_a_pair_state_never_equals_its_fields_as_a_tuple():
    fields = (WORKED_PAIR.p, WORKED_PAIR.q, WORKED_PAIR.n)
    assert WORKED_PAIR.__eq__(fields) is NotImplemented
    assert WORKED_PAIR != fields and fields != WORKED_PAIR
    assert WORKED_PAIR not in {fields} and fields not in {WORKED_PAIR}


def test_pair_state_repr_names_its_fields():
    assert repr(WORKED_PAIR) == "PairState(p=Involution(13)(26)(5), q=Involution(48)(7), n=4)"


def test_pair_state_has_only_its_three_slots():
    with pytest.raises(AttributeError):
        WORKED_PAIR.extra = 1
    assert not hasattr(WORKED_PAIR, "__dict__")


def test_involution_has_only_its_two_slots():
    assert Involution.__slots__ == ("fixed_points", "two_cycles")
    assert not hasattr(WORKED_PAIR.p, "__dict__")


@pytest.mark.parametrize("value", [1.5, "3"])
@pytest.mark.parametrize("build", [
    lambda x: Involution([x]),
    lambda x: Involution([], [(x, 4)]),
    lambda x: Involution.from_word([x]),
    lambda x: as_shape([x]),
    lambda x: StandardTableau([[x]]),
    lambda x: arrangement_to_matching([x]),
    lambda x: PairState(Involution(), Involution(), x),
    lambda x: count_syt_row_bounded(x, 4),
    lambda x: list(enumerate_pair_space(2, x)),
    lambda x: toggle_pivot_bounded(PairState(Involution([1]), Involution([2]), 1), x),
    lambda x: signed_cancellation_audit(2, x, limit=1),
    lambda x: verify_wilf_even(x, 1),
    lambda x: verify_odd_k(x, 1),
], ids=["fixed-point", "two-cycle", "word", "shape", "tableau", "arrangement", "pair-n", "bound-k",
        "pair-k", "toggle-k", "audit-k", "wilf-k", "odd-k"])
def test_library_builders_take_only_integers(build, value):
    # int() would truncate 1.5 and parse "3"; operator.index refuses both.  The audit reads its bound
    # before it checks n against the limit, so before any walk, and not with its closing count.
    with pytest.raises(TypeError):
        build(value)


@pytest.mark.parametrize("k", [0, -1])
def test_pair_space_refuses_a_bound_below_1_before_any_walk(monkeypatch, k):
    # refused as every count refuses it, not walked as an empty pair space
    monkeypatch.setattr(bijections, "_side_words", lambda *args: pytest.fail("walked the sides"))
    with pytest.raises(ValueError, match=f"^bound k must be a positive integer, got {k}$"):
        next(enumerate_pair_space(2, k))


def test_pair_space_bound_filters_both_sides():
    for s in enumerate_pair_space(2, 2):
        assert brute_lds(s.p.word()) <= 2 and brute_lds(s.q.word()) <= 2


# ---------------------------------------------------------------- audits

def toggled(s):
    """Whether the audit toggles s: its pivot is on p."""
    return pivot(s) in s.p.fixed_points


def test_audit_unbounded_examples():
    v1 = signed_cancellation_audit(1)
    assert v1.lhs == 2 and v1.holds
    v2 = signed_cancellation_audit(2)
    assert v2.lhs == 12 and v2.holds
    assert dict(v2.checks)["states"] == 76
    assert dict(v2.checks)["orbits"] == 32


def test_audit_bounded_example():
    v = signed_cancellation_audit(2, 3)
    assert v.holds
    assert v.lhs == v.rhs == sum(
        comb(4, r) * count_fpf_lds_bounded(3, r) * count_fpf_lds_bounded(3, 4 - r)
        for r in range(5)
    ) == 10


def test_audit_survivor_terms_match_closed_form_per_split_size():
    v = signed_cancellation_audit(3, 3)
    for lhs_t, rhs_t in zip(v.lhs_terms, v.rhs_terms):
        assert lhs_t.term_value == rhs_t.term_value


def test_audit_toggles_each_state_before_the_next_is_enumerated(monkeypatch):
    events = []
    pair_rows = bijections._pair_rows

    def logged_states(qs):
        for q in qs:
            events.append("state")
            yield q

    def logged_rows(*args):
        for r, p, qs in pair_rows(*args):
            yield r, p, logged_states(qs)

    def logged_toggle(s):
        events.append("toggle")
        return toggle_pivot(s)

    # a state whose pivot is on p is toggled, and its image toggled back, before the next state
    expected = [e for s in enumerate_pair_space(2) for e in ("state", *("toggle",) * 2 * toggled(s))]
    monkeypatch.setattr(bijections, "_pair_rows", logged_rows)
    monkeypatch.setattr(bijections, "toggle_pivot", logged_toggle)
    assert signed_cancellation_audit(2).holds
    assert events == expected


@pytest.mark.parametrize("k", (None, 1, 3))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_audit_counts_agree_with_the_pivot_of_every_state(monkeypatch, n, k):
    # an independent route: every state of the public pair space, classified by pivot()
    states = list(enumerate_pair_space(n, k))
    orbits = sum(map(toggled, states))
    survivors = Counter(s.p.size for s in states if pivot(s) is None)
    built = 0
    pair_state = bijections._pair_state

    def counted(*args):
        nonlocal built
        built += 1
        return pair_state(*args)

    monkeypatch.setattr(bijections, "_pair_state", counted)
    v = signed_cancellation_audit(n, k)
    assert v.holds
    assert dict(v.checks)["states"] == len(states)
    assert dict(v.checks)["orbits"] == orbits
    assert [t.term_value for t in v.lhs_terms] == [survivors[r] for r in range(2 * n + 1)]
    # a P state, its image and the image toggled back; a Q state or a survivor builds no PairState
    assert built == 3 * orbits


@pytest.mark.parametrize("args, built", [((3,), 3526), ((3, 3), 3146)])
def test_audit_builds_every_involution_through_the_constructor(monkeypatch, args, built):
    # every pair side, relabelled or toggled, is built once, by Involution.__init__ or the
    # trusted Involution._canonical, and only the states with the pivot on p are toggled;
    # the side word lists are grown as plain words and build none (sum of i(m) for m <= 6 = 120)
    calls = 0
    init, canonical = Involution.__init__, Involution._canonical

    def counted_init(self, *a, **kw):
        nonlocal calls
        calls += 1
        init(self, *a, **kw)

    def counted_canonical(cls, *a, **kw):
        nonlocal calls
        calls += 1
        return canonical(*a, **kw)

    monkeypatch.setattr(Involution, "__init__", counted_init)
    monkeypatch.setattr(Involution, "_canonical", classmethod(counted_canonical))
    assert signed_cancellation_audit(*args).holds
    assert calls == built


@pytest.mark.parametrize("k", (None, 3))
def test_audit_checks_closure_on_both_sides_of_every_image(monkeypatch, k):
    calls = 0
    side_lds = bijections._side_lds

    def counted(v, top):
        nonlocal calls
        calls += 1
        return side_lds(v, top)

    monkeypatch.setattr(bijections, "_side_lds", counted)
    orbits = dict(signed_cancellation_audit(3, k).checks)["orbits"]
    assert orbits > 0
    # one toggle image per orbit
    assert calls == (0 if k is None else 2 * orbits)


# a toggle that swaps the p side's 2-cycles (1 2)(3 4) <-> (1 4)(2 3): still an involution
# that flips parity and keeps the free points, but (1 4)(2 3) has lds 4, so each image of
# a state with (1 2)(3 4) on p breaches the lds <= 3 space and no other check fails
BREACH_CYCLES = {((1, 2), (3, 4)): ((1, 4), (2, 3)), ((1, 4), (2, 3)): ((1, 2), (3, 4))}


def breaching_toggle(s):
    image = toggle_pivot(s)
    cycles = BREACH_CYCLES.get(image.p.two_cycles)
    if cycles is None:
        return image
    return PairState(Involution(image.p.fixed_points, cycles), image.q, image.n)


def test_audit_records_a_closure_breach_as_a_failure(monkeypatch):
    # only the states with the pivot on p are toggled
    breaching = [s for s in enumerate_pair_space(3, 3) if toggled(s) and s.p.two_cycles in BREACH_CYCLES]
    assert breaching
    expected = dict(signed_cancellation_audit(3, 3).checks)
    monkeypatch.setattr(bijections, "toggle_pivot", breaching_toggle)
    v = signed_cancellation_audit(3, 3)
    assert not v.holds
    assert dict(v.checks) == {**expected, "assertion_failures": len(breaching)}
    # a direct caller of the bounded toggle still gets the exception
    with pytest.raises(ClosureViolationError, match=r"^toggle left the lds<=3 space at n=3: p="):
        toggle_pivot_bounded(breaching[0], 3)

    result = invoke("audit", "--n", "3", "--k", "3")
    assert result.exit_code == 1
    assert result.stderr == ""  # the failing verdict is reported on stdout alone
    assert "Traceback" not in result.stdout + result.stderr
    assert "[FAILS]" in result.stdout and f"assertion_failures = {len(breaching)}\n" in result.stdout


# ---------------------------------------------------------------- audit faults
# Each test below injects one fault through the toggle, the pair space or the count function,
# and asserts the checks it breaks, exactly: the verdict fails, `assertion_failures` counts every
# failed check (per toggled state, per balance r, per survivor term, and the signed total) and is
# at least 1, every other check keeps its unfaulted value, and `audit` exits 1.

def audit_under_fault(monkeypatch, target, name, fault, n, k=None, **changed):
    expected = dict(signed_cancellation_audit(n, k).checks)
    monkeypatch.setattr(target, name, fault)
    v = signed_cancellation_audit(n, k)
    assert not v.holds
    assert dict(v.checks) == {**expected, **changed}
    assert dict(v.checks)["assertion_failures"] >= 1
    bound = () if k is None else ("--k", str(k))
    assert invoke("audit", "--n", str(n), *bound).exit_code == 1
    return v


# a 3-cycle on the p side's 2-cycles (1 2)(3 4) -> (1 3)(2 4) -> (1 4)(2 3) -> (1 2)(3 4): the
# image keeps its fixed points, so it flips parity and keeps the free points, but toggling it
# again turns the cycles once more; unbounded, so no image is checked for closure
ROTATED_CYCLES = {((1, 2), (3, 4)): ((1, 3), (2, 4)), ((1, 3), (2, 4)): ((1, 4), (2, 3)),
                  ((1, 4), (2, 3)): ((1, 2), (3, 4))}


def test_audit_fails_a_toggle_that_is_not_an_involution(monkeypatch):
    def rotating_toggle(s):
        image = toggle_pivot(s)
        cycles = ROTATED_CYCLES.get(image.p.two_cycles, image.p.two_cycles)
        return PairState(Involution(image.p.fixed_points, cycles), image.q, image.n)

    rotated = [s for s in enumerate_pair_space(3) if toggled(s) and s.p.two_cycles in ROTATED_CYCLES]
    assert rotated
    audit_under_fault(monkeypatch, bijections, "toggle_pivot", rotating_toggle, 3,
                      assertion_failures=len(rotated))


def test_audit_fails_a_toggle_that_leaves_the_split_size(monkeypatch):
    # the identity: an involution that keeps the free points and the space, but moves no label
    v = audit_under_fault(monkeypatch, bijections, "toggle_pivot", lambda s: s, 2,
                          assertion_failures=sum(map(toggled, enumerate_pair_space(2))))
    assert v.lhs == v.rhs


def test_audit_fails_a_toggle_that_flips_parity_onto_the_wrong_side(monkeypatch):
    # moving the second largest free point, where there are two, is an involution that flips
    # parity and keeps the free points, but leaves the pivot on p, or grows p
    def second_free_point_toggle(s):
        z = free_points(s)[-2:][0]
        on_p = z in s.p.fixed_points
        src, dst = (s.p, s.q) if on_p else (s.q, s.p)
        src = Involution([x for x in src.fixed_points if x != z], src.two_cycles)
        dst = Involution((*dst.fixed_points, z), dst.two_cycles)
        return PairState(*((src, dst) if on_p else (dst, src)), s.n)

    moved = [s for s in enumerate_pair_space(3) if toggled(s) and len(free_points(s)) > 1]
    assert moved
    audit_under_fault(monkeypatch, bijections, "toggle_pivot", second_free_point_toggle, 3,
                      assertion_failures=len(moved))


def swap_1_2(v):
    swap = {1: 2, 2: 1}
    return Involution([swap.get(x, x) for x in v.fixed_points],
                      [(swap.get(a, a), swap.get(b, b)) for a, b in v.two_cycles])


def p_fixes_one_of_1_2(s):
    """p holds 1 and 2, one fixed and one in a 2-cycle, and the pivot is above both."""
    fixed = {1, 2} & set(s.p.fixed_points)
    return len(fixed) == 1 and {1, 2} - fixed <= set(s.p.support) and pivot(s) > 2


def test_audit_fails_a_toggle_that_trades_one_free_point_for_another(monkeypatch):
    # the image's p side is relabelled by the transposition (1 2): the fault commutes with the
    # toggle, so it stays an involution that flips parity, and the number of free points stays,
    # but their set trades 1 for 2 or back
    def trading_toggle(s):
        image = toggle_pivot(s)
        return PairState(swap_1_2(image.p), image.q, image.n) if p_fixes_one_of_1_2(image) else image

    traded = [s for s in enumerate_pair_space(3) if toggled(s) and p_fixes_one_of_1_2(s)]
    assert traded
    audit_under_fault(monkeypatch, bijections, "toggle_pivot", trading_toggle, 3,
                      assertion_failures=len(traded))


def test_audit_fails_survivors_that_miss_the_closed_form_term_by_term(monkeypatch):
    # the matching counts 1, 0, 6 at sizes 0, 2, 4 give the pair-sum terms 6, 0, 6: the total
    # still equals the 3 + 6 + 3 survivors, but no term does, so each of the three fails
    from sytkit import counting
    wrong = {2: 0, 4: 6}
    v = audit_under_fault(monkeypatch, counting, "count_fpf", lambda m: wrong.get(m, count_fpf(m)), 2,
                          assertion_failures=3)
    assert v.lhs == v.rhs == 12
    assert [t.term_value for t in v.lhs_terms] == [3, 0, 6, 0, 3]
    assert [t.term_value for t in v.rhs_terms] == [6, 0, 0, 0, 6]


# Once |P_r| = |Q_{r-1}| for every r, the orbits cancel out of the signed total and leave the
# survivors, all of even split size.  So no fault breaks `signed_total == lhs` alone: a pair space
# missing one state fails it and one balance check, two failed checks.

def audit_without_one_state(monkeypatch, on_p):
    """Drop from the pair space its first state with the pivot on p, or on q, from a copy of its row."""
    missing = next(s for s in enumerate_pair_space(2) if pivot(s) is not None and toggled(s) == on_p)
    checks = dict(signed_cancellation_audit(2).checks)
    pair_rows = bijections._pair_rows
    rows = lambda *args: ((r, p, [q for q in qs if (p, q) != (missing.p, missing.q)])
                          for r, p, qs in pair_rows(*args))
    v = audit_under_fault(monkeypatch, bijections, "_pair_rows", rows, 2,
                          states=checks["states"] - 1, orbits=checks["orbits"] - on_p,
                          signed_total=checks["signed_total"] - (-1) ** missing.p.size,
                          assertion_failures=2)
    assert v.lhs == v.rhs


def test_audit_fails_a_signed_total_off_the_survivors(monkeypatch):
    audit_without_one_state(monkeypatch, on_p=True)


def test_audit_fails_an_unbalanced_pair_space(monkeypatch):
    # the missing state's partner is still toggled onto it and back
    audit_without_one_state(monkeypatch, on_p=False)


def test_audit_rejects_even_bound_and_scale():
    with pytest.raises(ValueError):
        signed_cancellation_audit(2, 2)
    with pytest.raises(ScaleLimitError):
        signed_cancellation_audit(9)
    # nothing is sized from n before the pair space accepts it
    tracemalloc.start()
    try:
        with pytest.raises(ScaleLimitError):
            signed_cancellation_audit(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
