#!/usr/bin/env python3
"""Walk through the two constructive maps on concrete inputs, then replay the
cancellation argument exhaustively for a small ground set."""

from sytkit import (
    Involution,
    PairState,
    arrangement_to_matching,
    free_points,
    lds,
    lis,
    matching_to_arrangement,
    odd_columns,
    pivot,
    rs_of_involution,
    signed_cancellation_audit,
    toggle_pivot,
)

print("The free-point toggle")
print("-" * 60)
state = PairState(Involution((5,), ((1, 3), (2, 6))), Involution((7,), ((4, 8),)), 4)
print(f"p = {state.p.cycle_string()}   q = {state.q.cycle_string()}   on 1..8")
print(f"free points: {free_points(state)}; the pivot (largest) is {pivot(state)}")
image = toggle_pivot(state)
print(f"after the toggle: p' = {image.p.cycle_string()}   q' = {image.q.cycle_string()}")
back = toggle_pivot(image)
print(f"toggling again restores the pair: {back == state}")
print(f"side sizes swapped parity: |p|={state.p.size} -> |p'|={image.p.size}")

print()
print("Robinson-Schensted statistics of the first side")
print("-" * 60)
word = state.p.word()
tableau = rs_of_involution(state.p)
print(f"word of p: {' '.join(map(str, word))}")
print(f"tableau rows: {[list(r) for r in tableau.rows]}  shape {list(tableau.shape)}")
print(f"lis {lis(word)} = first row, lds {lds(word)} = first column")
print(f"fixed points {len(state.p.fixed_points)} = odd columns {odd_columns(tableau)}")

print()
print("The arrangement/colored-matching correspondence")
print("-" * 60)
for chosen in ((3, 1), (2,), (1,), (4, 2, 6)):
    colored = arrangement_to_matching(chosen)
    red, blue = colored.p.cycle_string(), colored.q.cycle_string()
    recovered = matching_to_arrangement(colored)
    print(f"chosen {chosen} -> red {red} blue {blue} -> recovered {recovered}")

print()
print("Exhaustive cancellation audit")
print("-" * 60)
for n in (1, 2, 3):
    for k in (None, 3):
        verdict = signed_cancellation_audit(n, k)
        checks = dict(verdict.checks)
        bound = "unbounded" if k is None else f"lds<={k}"
        print(f"n={n} {bound:>9}: {checks['states']} pairs, {checks['orbits']} cancelling "
              f"orbits, {checks['survivors']} survivors = closed count {verdict.rhs} "
              f"[{'ok' if verdict.holds else 'FAIL'}]")
