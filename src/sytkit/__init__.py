"""Exact combinatorics of standard Young tableaux and involutions.

Core objects (involutions, tableaux, the Robinson-Schensted map), exact
arbitrary-precision counting, verifiers for a family of alternating-sum
identities, and the sign-reversing bijections behind them.

Importing the package loads none of its layers: each public name is looked
up in its module on first use (PEP 562), so ``sytkit.lis`` loads only
``sytkit.core``.
"""

_LAYERS = {
    "bijections": (
        "ClosureViolationError",
        "PairState",
        "PivotAbsentError",
        "arrangement_to_matching",
        "enumerate_pair_space",
        "free_points",
        "matching_to_arrangement",
        "pivot",
        "signed_cancellation_audit",
        "toggle_pivot",
        "toggle_pivot_bounded",
    ),
    "core": (
        "Involution",
        "ScaleLimitError",
        "StandardTableau",
        "check_beissinger",
        "conjugate",
        "lds",
        "lis",
        "odd_columns",
        "rs_inverse",
        "rs_of_involution",
    ),
    "counting": (
        "catalan",
        "count_family",
        "count_fpf",
        "count_fpf_lds_bounded",
        "count_fpf_lis_bounded",
        "count_involutions",
        "count_perms_lis_bounded",
        "count_syt_row_bounded",
        "hook_length_count",
        "partitions",
    ),
    "identities": (
        "demonstrate_naive_failure",
        "verify_a005568",
        "verify_corollary_k3",
        "verify_fpf_pairs",
        "verify_odd_k",
        "verify_unrestricted",
        "verify_wilf_even",
    ),
    "output": ("CacheMismatchError", "IdentityVerdict", "TermBreakdown"),
}
_MODULE_OF = {name: module for module, names in _LAYERS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib  # here, not at the top: only a public name's first lookup loads it

    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
