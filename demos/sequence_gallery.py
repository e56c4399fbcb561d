#!/usr/bin/env python3
"""Print the counting sequences side by side, fast formula paths against
generate-and-filter oracles."""

from itertools import permutations

from sytkit import (
    catalan,
    count_fpf,
    count_fpf_lds_bounded,
    count_involutions,
    count_perms_lis_bounded,
    count_syt_row_bounded,
    lds,
    lis,
)

SIZES = range(0, 11)

print("involutions and fixed-point-free involutions by size")
print("-" * 64)
print("m           " + "".join(f"{m:>7}" for m in SIZES))
print("involutions " + "".join(f"{count_involutions(m):>7}" for m in SIZES))
print("fpf         " + "".join(f"{count_fpf(m):>7}" for m in SIZES))

print()
print("tableaux on n boxes with rows bounded by k (= involutions with lis <= k)")
print("-" * 64)
for k in (1, 2, 3, 4):
    print(f"k={k}  " + "".join(f"{count_syt_row_bounded(k, n):>7}" for n in SIZES))

print()
print("permutations with lis <= k (k=2 row is the Catalan sequence)")
print("-" * 64)
for k in (2, 3):
    values = [count_perms_lis_bounded(k, n) for n in range(0, 9)]
    print(f"k={k}  " + "".join(f"{v:>7}" for v in values))
print("oracle, n<=6: " + " ".join(
    str(sum(1 for p in permutations(range(1, n + 1)) if lis(p) <= 2)) for n in range(7)))

print()
print("fixed-point-free involutions with lds <= k; the k=2 row is Catalan")
print("-" * 64)
for k in (2, 3, 4):
    print(f"k={k}  " + "".join(f"{count_fpf_lds_bounded(k, r):>7}" for r in SIZES))
print("catalan C_m:  " + " ".join(str(catalan(m)) for m in range(6)))

print()
print("cross-check at size 8: filter the generated involutions directly")
print("-" * 64)
# a permutation is an involution when it sends each image back: p(p(i)) = i
words = [p for p in permutations(range(1, 9)) if all(p[x - 1] == i for i, x in enumerate(p, 1))]
stats = [(lis(w), lds(w), all(x != i for i, x in enumerate(w, 1))) for w in words]
print(f"generated {len(stats)} involutions; formula says {count_involutions(8)}")
for k in (2, 3):
    filtered = sum(1 for l, _, _ in stats if l <= k)
    print(f"lis <= {k}: filtered {filtered}, formula {count_syt_row_bounded(k, 8)}")
filtered_fpf = sum(1 for _, d, fpf in stats if fpf and d <= 2)
print(f"fpf with lds <= 2: filtered {filtered_fpf}, formula {count_fpf_lds_bounded(2, 8)}")
