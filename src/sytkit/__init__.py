"""Exact combinatorics of standard Young tableaux and involutions.

Core objects (involutions, tableaux, the Robinson-Schensted map), exact
arbitrary-precision counting with brute-force oracles, verifiers for a
family of alternating-sum identities, and the sign-reversing bijections
behind them.
"""

from .bijections import (
    ColoredInvolution,
    LongestDecreasingReport,
    PairState,
    arrangement_to_matching,
    check_beissinger,
    enumerate_pair_space,
    free_points,
    matching_to_arrangement,
    pivot,
    report_longest_decreasing,
    signed_cancellation_audit,
    toggle_pivot,
    toggle_pivot_bounded,
)
from .core import (
    Involution,
    StandardTableau,
    conjugate,
    lds,
    lis,
    max_decreasing_subsequences,
    odd_columns,
    rs_inverse,
    rs_of_involution,
)
from .counting import (
    brute_count_lis_bounded,
    catalan,
    count_family,
    count_fpf,
    count_fpf_lds_bounded,
    count_fpf_lis_bounded,
    count_involutions,
    count_perms_lis_bounded,
    count_syt_row_bounded,
    generate_involutions,
    hook_length_count,
    partitions,
)
from .errors import (
    CacheMismatchError,
    ClosureViolationError,
    PivotAbsentError,
    ScaleLimitError,
)
from .identities import (
    IdentityVerdict,
    TermBreakdown,
    demonstrate_naive_failure,
    verify_a005568,
    verify_corollary_k3,
    verify_fpf_pairs,
    verify_odd_k,
    verify_unrestricted,
    verify_wilf_even,
)

__all__ = [
    "CacheMismatchError",
    "ClosureViolationError",
    "ColoredInvolution",
    "IdentityVerdict",
    "Involution",
    "LongestDecreasingReport",
    "PairState",
    "PivotAbsentError",
    "ScaleLimitError",
    "StandardTableau",
    "TermBreakdown",
    "arrangement_to_matching",
    "brute_count_lis_bounded",
    "catalan",
    "check_beissinger",
    "conjugate",
    "count_family",
    "count_fpf",
    "count_fpf_lds_bounded",
    "count_fpf_lis_bounded",
    "count_involutions",
    "count_perms_lis_bounded",
    "count_syt_row_bounded",
    "demonstrate_naive_failure",
    "enumerate_pair_space",
    "free_points",
    "generate_involutions",
    "hook_length_count",
    "lds",
    "lis",
    "matching_to_arrangement",
    "max_decreasing_subsequences",
    "odd_columns",
    "partitions",
    "pivot",
    "report_longest_decreasing",
    "rs_inverse",
    "rs_of_involution",
    "signed_cancellation_audit",
    "toggle_pivot",
    "toggle_pivot_bounded",
    "verify_a005568",
    "verify_corollary_k3",
    "verify_fpf_pairs",
    "verify_odd_k",
    "verify_unrestricted",
    "verify_wilf_even",
]

__version__ = "0.1.0"
