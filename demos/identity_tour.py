#!/usr/bin/env python3
"""Tour of the identities: evaluate both sides of each one exactly and show
the term-by-term breakdown for a small instance."""

from sytkit import (
    demonstrate_naive_failure,
    verify_a005568,
    verify_corollary_k3,
    verify_fpf_pairs,
    verify_odd_k,
    verify_unrestricted,
    verify_wilf_even,
)
from sytkit.output import render, verdict_payload


def show(verdict):
    status = "holds" if verdict.holds else "FAILS"
    bound = "-" if verdict.k is None else verdict.k
    print(f"{verdict.identity_id:<14} k={bound:<2} n={verdict.n}  "
          f"lhs={verdict.lhs}  rhs={verdict.rhs}  [{status}]")


print("Alternating sums against closed products, swept over small sizes")
print("-" * 68)
for n in range(1, 6):
    show(verify_unrestricted(n))
for n in range(1, 6):
    show(verify_fpf_pairs(n))
for k in (2, 4, 6):
    for n in range(1, 5):
        show(verify_wilf_even(k, n))
for k in (1, 3, 5):
    for n in range(1, 5):
        show(verify_odd_k(k, n))
for n in range(1, 6):
    show(verify_corollary_k3(n))
for n in range(0, 6):
    show(verify_a005568(n))

print()
print("One instance in full: the odd-bound identity at k=3, n=2, the record")
print("`sytkit verify odd --k 3 --n 2` prints")
print("lhs: sum of C(4,r) * fpf(r, lds<=3) * fpf(4-r, lds<=3)")
print("rhs: sum of (-1)^r C(4,r) * rows<=3 tableau counts")
print("-" * 68)
print(render("verdict", {"verdicts": [verdict_payload(verify_odd_k(3, 2))]}, "table"))

print()
print("Why the obvious variant is NOT an identity: bound the increasing")
print("statistic instead and the two sides drift apart.")
print("-" * 68)
for (k, n) in ((2, 1), (2, 2), (2, 3), (3, 2), (3, 3)):
    v = demonstrate_naive_failure(k, n)
    relation = "!=" if v.lhs != v.rhs else "=="
    print(f"  k={k} n={n}: {v.lhs} {relation} {v.rhs}")
print("the (2,3) case is the canonical counterexample: 100 vs 110")
