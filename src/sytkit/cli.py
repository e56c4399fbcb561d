"""Command-line front end.

One argparse parser (``build_parser``) reads the global flags, then a subcommand:
count, verify, rsk, bijection f|g|g-inverse, audit.  Every command reads --format, and
declares the other global flags it reads: count --cache and --verify-cache, bijection f
and g --trace, audit --oracle-limit; any other is a usage error.  Sizes and bounds are read
by ``integer``, involutions by ``Involution.from_cycles`` and ``from_word``, names by ``counting.lookup``.

``run`` maps every outcome to one exit code: 0 success / all verdicts hold; 1 a failing
verdict or cache entry; 2 a parser error, ``ValueError`` or ``OSError``, printed as
``Error: <message>`` on stderr; 3 ``ScaleLimitError``, such as a size above sys.maxsize, or ``MemoryError``.
A reader that closes stdout early changes no code.  ``main``, the ``sytkit`` entry point, exits with it.

Core and output load with this module; each command imports any other layer
it runs inside its own body, so a process loads only those: ``count``
counting, ``verify`` identities, ``bijection`` bijections, ``audit`` all.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections.abc import Iterable
from pathlib import Path

from .core import Involution, odd_columns, rs_of_involution
from .errors import DEFAULT_PAIR_SPACE_LIMIT, CacheMismatchError, ScaleLimitError
from .output import FORMATS, load_cache, render, save_cache, verdict_payload, verify_cache_entries

EXIT_VERIFICATION_FAILURE = 1
EXIT_USAGE = 2
EXIT_SCALE_LIMIT = 3

# every integer the CLI reads; ASCII digits only, since \d, str.isdecimal and int()
# also accept the decimal digits of other scripts
INTEGER = "-?[0-9]+"


# ---------------------------------------------------------------- parsing

def integer(text: str) -> int:
    """A size or bound; argparse names this function in its error message.  Past sys.maxsize, the
    cache's 19-digit k and n fields, math.factorial and math.comb all overflow: a scale limit."""
    if re.fullmatch(INTEGER, text.strip()) is None:
        raise ValueError(text)
    if (value := int(text)) > sys.maxsize:
        raise ScaleLimitError(f"{value} is above {sys.maxsize}, the largest size or bound (sys.maxsize)")
    return value


def parse_range(text: str) -> range:
    """Inclusive 'a..b' range, or a single integer; each end is read by ``integer``."""
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo, hi = integer(lo_text), integer(hi_text if dots else lo_text)
    except ValueError:
        raise ValueError(f"expected an integer or 'a..b' range, got {text.strip()!r}") from None
    if lo > hi:
        raise ValueError(f"empty range {text.strip()!r}")
    return range(lo, hi + 1)


def _parse_ints(text: str, noun: str) -> tuple[int, ...]:
    """Whitespace- or comma-separated integers; ``noun`` names them in the error."""
    parts = [p for p in re.split(r"[,\s]+", text.strip()) if p]
    if not all(re.fullmatch(INTEGER, p) for p in parts):
        raise ValueError(f"{noun} must be integers, got {text!r}")
    return tuple(map(int, parts))


def _emit(args: argparse.Namespace, kind: str, payload: dict) -> None:
    text = render(kind, payload, args.format) + "\n"
    try:
        sys.stdout.write(text)  # one write, so `| head` ends it cleanly
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left early: not an error, and the exit flush must not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _verdicts(args: argparse.Namespace, verdicts: Iterable) -> int:
    """Emit one verdict record, each verdict rendered as it is made and then dropped; the exit
    code is 1 if any verdict fails."""
    holds = []

    def payload(v) -> dict:
        holds.append(v.holds)
        return verdict_payload(v)

    _emit(args, "verdict", {"verdicts": map(payload, verdicts)})
    return 0 if all(holds) else EXIT_VERIFICATION_FAILURE


# ---------------------------------------------------------------- commands

def count(args: argparse.Namespace) -> None:
    """Evaluate one counting family at the given sizes."""
    from .counting import count_family, validate_family

    family, k, sizes = args.family, args.k, parse_range(args.n)
    validate_family(family, k, sizes[0])  # before the cache, so a bad query is reported first
    entries = load_cache(args.cache) if args.cache is not None and Path(args.cache).exists() else {}
    if args.verify_cache:
        verify_cache_entries(entries)
    missing = [n for n in sizes if (family, k, n) not in entries]  # a cached value is not recomputed
    for n in missing:
        entries[family, k, n] = str(count_family(family, k, n))
    rows = [{"family": family, "k": k, "n": n, "value": entries[family, k, n]} for n in sizes]
    if args.cache is not None and missing:
        save_cache(entries, args.cache)
    _emit(args, "count", {"rows": rows})


def verify(args: argparse.Namespace) -> int:
    """Check identity instances exactly; exit 0 only if every verdict holds."""
    from .counting import lookup
    from .identities import IDENTITIES

    verifier, takes_k = lookup("identity", IDENTITIES, args.identity, args.k)
    return _verdicts(args, (verifier(args.k, n) if takes_k else verifier(n) for n in parse_range(args.n)))


def rsk(args: argparse.Namespace) -> None:
    """Map an involution to its standard tableau and report its statistics."""
    v = (Involution.from_cycles(args.cycles) if args.cycles is not None
         else Involution.from_word(_parse_ints(args.word, "word entries")))
    t = rs_of_involution(v)
    odd = odd_columns(t)
    # Schensted: the first row is a longest increasing subsequence, the rows count a decreasing one
    fields = [
        ("involution", v.cycle_string()),
        ("word", " ".join(str(x) for x in v.word()) or "-"),
        ("tableau", str([list(r) for r in t.rows])),
        ("shape", str(list(t.shape))),
        ("lis", t.shape[0] if t.rows else 0),
        ("lds", len(t.rows)),
        ("fixed_points", len(v.fixed_points)),
        ("odd_columns", odd),
        ("beissinger_ok", odd == len(v.fixed_points)),
    ]
    _emit(args, "trace", {"fields": fields})


def bijection_f(args: argparse.Namespace) -> None:
    """Toggle the largest free point of a pair to the other side."""
    from .bijections import PairState, free_points, pivot, toggle_pivot

    state = PairState(Involution.from_cycles(args.p), Involution.from_cycles(args.q), args.n)
    image = toggle_pivot(state)
    fields = [
        ("p", state.p.cycle_string()),
        ("q", state.q.cycle_string()),
        ("p_out", image.p.cycle_string()),
        ("q_out", image.q.cycle_string()),
    ]
    if args.trace:
        moved_from, moved_to = ("p", "q") if image.p.size < state.p.size else ("q", "p")
        fields += [
            ("free_points", " ".join(str(x) for x in free_points(state)) or "-"),
            ("pivot", pivot(state)),
            ("moved_from", moved_from),
            ("moved_to", moved_to),
        ]
    _emit(args, "trace", {"fields": fields})


def bijection_g(args: argparse.Namespace) -> None:
    """Match an arrangement with the unchosen labels, red or blue."""
    from .bijections import _colored_pairs, arrangement_to_matching

    labels = _parse_ints(args.chosen, "labels")
    if args.n is not None and args.n != len(labels):
        raise ValueError(f"--n {args.n} does not match the number of chosen labels, {len(labels)}")
    colored = arrangement_to_matching(labels)
    payload = {"fields": [
        ("n", colored.n),
        ("chosen", " ".join(str(x) for x in labels) or "-"),
        ("red", colored.p.cycle_string()),
        ("blue", colored.q.cycle_string()),
    ]}
    if args.trace:
        payload["table"] = {"columns": ["unchosen", "chosen", "color"], "rows": _colored_pairs(colored)}
    _emit(args, "trace", payload)


def bijection_g_inverse(args: argparse.Namespace) -> None:
    """Recover the arrangement from a red/blue matching."""
    from .bijections import PairState, matching_to_arrangement

    red_inv, blue_inv = Involution.from_cycles(args.red), Involution.from_cycles(args.blue)
    colored = PairState(red_inv, blue_inv, (red_inv.size + blue_inv.size) // 2)
    _emit(args, "trace", {"fields": [
        ("red", red_inv.cycle_string()),
        ("blue", blue_inv.cycle_string()),
        ("chosen", " ".join(str(x) for x in matching_to_arrangement(colored)) or "-"),
    ]})


def audit(args: argparse.Namespace) -> int:
    """Exhaustively audit the cancellation argument; exit 0 iff it all checks out."""
    from .bijections import signed_cancellation_audit

    limit = args.oracle_limit or DEFAULT_PAIR_SPACE_LIMIT
    return _verdicts(args, [signed_cancellation_audit(args.n, args.k, limit=limit)])


# ---------------------------------------------------------------- parser

# the global flags besides --format, which every command reads; each defaults to None, so a given flag
# shows.  Each command names the ones it reads in its _command call, and is refused any other.
GLOBAL_FLAGS = ("--cache", "--verify-cache", "--oracle-limit", "--trace")


class _Parser(argparse.ArgumentParser):
    """A parser whose errors go to ``run``'s exit-code mapping, not to ``sys.exit``."""

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, **kwargs)  # so '--verify-c' is refused
        self._negative_number_matcher = re.compile("-[0-9]")  # '--n -2..1' passes a range

    def error(self, message: str):
        raise ValueError(message)


def _command(commands, name: str, func, *reads: str) -> argparse.ArgumentParser:
    parser = commands.add_parser(name, help=func.__doc__, description=func.__doc__)
    parser.set_defaults(func=func, command=parser.prog, reads=reads)  # prog: 'sytkit bijection f'
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The one parser: global flags, then a subcommand and its options."""
    parser = _Parser(prog="sytkit",
                     description="Exact tableau/involution counts, identity checks, and bijection tools.")
    parser.add_argument("--format", choices=FORMATS, default="table", help="Output rendering (default: table).")
    parser.add_argument("--cache", help="Count cache file to read and update.")
    parser.add_argument("--verify-cache", action="store_true", default=None,
                        help="Recompute and check every cache entry on load.")
    parser.add_argument("--oracle-limit", type=integer, help="Override the exhaustive-search size limit "
                        f"(at least 1, default {DEFAULT_PAIR_SPACE_LIMIT}).")
    parser.add_argument("--trace", action="store_true", default=None, help="Show intermediate bijection data.")
    commands = parser.add_subparsers(metavar="COMMAND", dest="COMMAND")

    sub = _command(commands, "count", count, "--cache", "--verify-cache")
    sub.add_argument("family", metavar="FAMILY", help="u, y, y_unbounded, x, x_unbounded or catalan.")
    sub.add_argument("--k", type=integer, help="Subsequence/row bound (families u, y, x).")
    sub.add_argument("--n", required=True, help="Size, or inclusive range 'a..b'.")
    sub = _command(commands, "verify", verify)
    sub.add_argument("identity", metavar="IDENTITY", help="An identity name, e.g. wilf, odd or a005568.")
    sub.add_argument("--k", type=integer, help="Bound parameter, where the identity takes one.")
    sub.add_argument("--n", required=True, help="Instance size, or inclusive range 'a..b'.")
    one_of = _command(commands, "rsk", rsk).add_mutually_exclusive_group(required=True)
    one_of.add_argument("--cycles", help="Involution in cycle notation, e.g. '(13)(26)(5)'.")
    one_of.add_argument("--word", help="Involution as a one-line word, e.g. '2 1 4 3'.")
    doc = "Apply one of the constructive maps to explicit inputs."
    maps = commands.add_parser("bijection", help=doc, description=doc).add_subparsers(metavar="MAP", dest="MAP")
    sub = _command(maps, "f", bijection_f, "--trace")
    sub.add_argument("--n", type=integer, required=True, help="Half the ground-set size.")
    sub.add_argument("--p", required=True, help="First involution, cycle notation.")
    sub.add_argument("--q", required=True, help="Second involution, cycle notation.")
    sub = _command(maps, "g", bijection_g, "--trace")
    sub.add_argument("--chosen", required=True, help="Arranged labels, e.g. '3 1'.")
    sub.add_argument("--n", type=integer, help="Number of chosen labels, checked if given.")
    sub = _command(maps, "g-inverse", bijection_g_inverse)
    sub.add_argument("--red", required=True, help="Red 2-cycles, cycle notation.")
    sub.add_argument("--blue", required=True, help="Blue 2-cycles, cycle notation.")
    sub = _command(commands, "audit", audit, "--oracle-limit")
    sub.add_argument("--n", type=integer, required=True, help="Half the ground-set size.")
    sub.add_argument("--k", type=integer, help="Odd decreasing-subsequence bound.")
    return parser


# ---------------------------------------------------------------- run

# build_parser() of the first run in this process: argparse keeps no state between parses, so
# later runs reuse it.  Not functools.cache: bench/inproc.py clears every memo of the modules it
# traces before each command, and counts it in counting.memo.
_parser: argparse.ArgumentParser | None = None


def run(argv: list[str]) -> int:
    """Run one command line and return its exit code; nothing here raises ``SystemExit``."""
    global _parser
    # exact counts can run past Python's int/str digit cap; the setting is process-wide
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        if _parser is None:
            _parser = build_parser()
        args = _parser.parse_args(argv)
        if "func" not in args:  # neither group is required, so an unknown flag is named before this
            raise ValueError(f"the following arguments are required: {'MAP' if args.COMMAND else 'COMMAND'}")
        if args.verify_cache and args.cache is None:
            raise ValueError("--verify-cache needs --cache")
        if args.oracle_limit is not None and args.oracle_limit < 1:
            raise ValueError(f"--oracle-limit must be at least 1, got {args.oracle_limit}")
        given = [f for f in GLOBAL_FLAGS if getattr(args, f[2:].replace("-", "_")) is not None]
        unread = [f for f in given if f not in args.reads]
        if unread:
            raise ValueError(f"{args.command} does not read the global flag{'s' * (len(unread) > 1)} "
                             f"{', '.join(unread)}")
        return args.func(args) or 0
    except SystemExit as exc:  # --help has printed the help text
        return exc.code
    except ScaleLimitError as exc:
        print(exc, file=sys.stderr)
        return EXIT_SCALE_LIMIT
    except MemoryError:  # the frames that held the memory are gone by now, so the message can be printed
        print("out of memory: the command needs more than this process can allocate", file=sys.stderr)
        return EXIT_SCALE_LIMIT
    except CacheMismatchError as exc:
        print(f"cache verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE
    except (ValueError, OSError) as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    """The ``sytkit`` entry point: run the process's arguments and exit with the code."""
    sys.exit(run(sys.argv[1:]))


# bench/inproc.py's call form, main.main(args=…, prog_name=…, standalone_mode=False); goes when it calls run
main.main = lambda args, prog_name=None, standalone_mode=False: run(args)
