"""Command-line front end.

Subcommands: count, verify, rsk, bijection f|g|g-inverse, audit.  Global flags
--format, --cache, --verify-cache, --oracle-limit, --trace come before the subcommand.
Every command reads --format; only count reads --cache and --verify-cache, only
bijection f and g read --trace, and only audit reads --oracle-limit.  A global flag
given to a command that does not read it is a usage error.

Exit codes: 0 success / all verdicts hold, 1 verification failure,
2 usage or parse error, 3 scale-limit error.

Core and output load with this module; each command imports any other layer
it runs inside its own body, so a process loads only those: ``count``
counting, ``verify`` identities, ``bijection`` bijections, ``audit`` all.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import click
from click.core import ParameterSource

from .core import Involution, odd_columns, rs_of_involution
from .errors import DEFAULT_PAIR_SPACE_LIMIT, CacheMismatchError, PivotAbsentError, ScaleLimitError
from .output import FORMATS, load_cache, render, save_cache, verdict_payload, verify_cache_entries

EXIT_VERIFICATION_FAILURE = 1
EXIT_SCALE_LIMIT = 3


# ---------------------------------------------------------------- parsing

def parse_range(text: str) -> range:
    """Inclusive 'a..b' range, or a single integer."""
    text = text.strip()
    m = re.fullmatch(r"(-?\d+)(?:\.\.(-?\d+))?", text)
    if m is None:
        raise click.UsageError(f"expected an integer or 'a..b' range, got {text!r}")
    lo, hi = int(m.group(1)), int(m.group(2) or m.group(1))
    if lo > hi:
        raise click.UsageError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _parse_cycle_group(group: str) -> list[int]:
    """Labels of one group: comma form ('12,3', or '12,' for a fixed point),
    a single digit, or juxtaposed single digits ('13')."""
    pieces = group.split(",")
    juxtaposed = len(pieces) == 1 and len(group) > 1
    if juxtaposed:
        pieces = list(group)
    elif pieces[1:] == [""]:
        pieces.pop()  # '(12,)' is a fixed point with a wide label
    if not all(p.isdigit() for p in pieces):
        raise click.UsageError(f"malformed cycle ({group})")
    labels = [int(p) for p in pieces]
    if juxtaposed and 0 in labels:
        raise click.UsageError(f"cycle ({group}) needs comma form for labels >= 10")
    return labels


def parse_cycles(text: str) -> Involution:
    """Cycle notation: '(13)(26)(5)'; comma form for wide labels, e.g. '(12,3)(4)'."""
    compact = re.sub(r"\s+", "", text)
    if compact in ("", "()"):
        return Involution()
    if not re.fullmatch(r"(\([^()]*\))+", compact):
        raise click.UsageError(f"malformed cycle notation {text!r}")
    fixed, cycles = [], []
    for group in re.findall(r"\(([^()]*)\)", compact):
        labels = _parse_cycle_group(group)
        if len(labels) == 1:
            fixed.append(labels[0])
        elif len(labels) == 2:
            cycles.append((labels[0], labels[1]))
        else:
            raise click.UsageError(
                f"cycle ({group}) has {len(labels)} labels; involutions allow 1 or 2"
            )
    return Involution(fixed, cycles)


def _parse_ints(text: str, noun: str) -> tuple[int, ...]:
    """Whitespace- or comma-separated integers; ``noun`` names them in the error."""
    try:
        return tuple(int(p) for p in re.split(r"[,\s]+", text.strip()) if p)
    except ValueError:
        raise click.UsageError(f"{noun} must be integers, got {text!r}")


def parse_word(text: str) -> Involution:
    """One-line word, whitespace- or comma-separated."""
    return Involution.from_word(_parse_ints(text, "word entries"))


# ---------------------------------------------------------------- group

class ExitCodeCommand(click.Command):
    """A subcommand whose library errors end in the documented exit codes, and
    which refuses a global flag given on the command line that it does not read."""

    def invoke(self, ctx: click.Context):
        root, reads = ctx.find_root(), {"--format", *GLOBAL_FLAGS_READ.get(self.name, ())}
        unread = [f.opts[0] for f in root.command.params if f.opts[0] not in reads
                  and root.get_parameter_source(f.name) is ParameterSource.COMMANDLINE]
        if unread:
            flags = "flags" if len(unread) > 1 else "flag"
            raise click.UsageError(f"{ctx.command_path} does not read the global {flags} {', '.join(unread)}", ctx)
        try:
            return super().invoke(ctx)
        except ScaleLimitError as exc:
            click.echo(str(exc), err=True)
            ctx.exit(EXIT_SCALE_LIMIT)
        except CacheMismatchError as exc:
            click.echo(f"cache verification failed: {exc}", err=True)
            ctx.exit(EXIT_VERIFICATION_FAILURE)
        except (ValueError, OSError) as exc:
            raise click.UsageError(str(exc), ctx) from exc


class ExitCodeGroup(click.Group):
    command_class = ExitCodeCommand


class IdentityChoice(click.Choice):
    """The names in ``identities.IDENTITIES``, read when first needed, so that
    building the command line does not import the identities layer."""

    def __init__(self) -> None:
        self.case_sensitive = True

    @property
    def choices(self) -> tuple[str, ...]:
        from .identities import IDENTITIES

        return tuple(sorted(IDENTITIES))


@click.group(cls=ExitCodeGroup)
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="table",
              show_default=True, help="Output rendering.")
@click.option("--cache", "cache_path", type=click.Path(dir_okay=False), default=None,
              help="Count cache file to read and update.")
@click.option("--verify-cache", is_flag=True,
              help="Recompute and check every cache entry on load.")
@click.option("--oracle-limit", type=click.IntRange(min=1), default=DEFAULT_PAIR_SPACE_LIMIT,
              help="Override the exhaustive-search size limit.")
@click.option("--trace", is_flag=True, help="Show intermediate bijection data.")
@click.pass_context
def main(ctx: click.Context, cache_path: str | None, verify_cache: bool, **_: object) -> None:
    """Exact tableau/involution counts, identity checks, and bijection tools."""
    if verify_cache and cache_path is None:
        raise click.UsageError("--verify-cache needs --cache")
    # exact counts can run past Python's int/str digit cap; the setting is process-wide
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    ctx.obj = ctx.params  # the global flags, by parameter name


# the global flags each command reads besides --format, which every command reads;
# bijection f and g are the subcommands named f and g
GLOBAL_FLAGS_READ = {"count": ("--cache", "--verify-cache"), "f": ("--trace",), "g": ("--trace",),
                     "audit": ("--oracle-limit",)}


def _emit(ctx: click.Context, kind: str, payload: dict) -> None:
    click.echo(render(kind, payload, ctx.obj["fmt"]))


# ---------------------------------------------------------------- count

@main.command()
@click.argument("family")
@click.option("--k", type=int, default=None, help="Subsequence/row bound (families u, y, x).")
@click.option("--n", "n_range", required=True, help="Size, or inclusive range 'a..b'.")
@click.pass_context
def count(ctx: click.Context, family: str, k: int | None, n_range: str) -> None:
    """Evaluate one counting family at the given sizes."""
    from .counting import count_family, validate_family

    sizes = parse_range(n_range)
    validate_family(family, k, sizes[0])  # before the cache, so a bad query is reported first
    cache_path = ctx.obj["cache_path"]
    entries = load_cache(cache_path) if cache_path is not None and Path(cache_path).exists() else {}
    if ctx.obj["verify_cache"]:
        verify_cache_entries(entries)
    missing = [n for n in sizes if (family, k, n) not in entries]  # a cached value is not recomputed
    for n in missing:
        entries[family, k, n] = count_family(family, k, n)
    rows = [{"family": family, "k": k, "n": n, "value": entries[family, k, n]} for n in sizes]
    if cache_path is not None and missing:
        save_cache(entries, cache_path)

    _emit(ctx, "count", {"rows": rows})


# ---------------------------------------------------------------- verify

@main.command()
@click.argument("identity", type=IdentityChoice())
@click.option("--k", type=int, default=None, help="Bound parameter, where the identity takes one.")
@click.option("--n", "n_range", required=True, help="Instance size, or inclusive range 'a..b'.")
@click.pass_context
def verify(ctx: click.Context, identity: str, k: int | None, n_range: str) -> None:
    """Check identity instances exactly; exit 0 only if every verdict holds."""
    from .counting import check_takes_k
    from .identities import IDENTITIES

    verifier, takes_k = IDENTITIES[identity]
    check_takes_k("identity", identity, takes_k, k)
    verdicts = [verifier(k, n) if takes_k else verifier(n) for n in parse_range(n_range)]
    _emit(ctx, "verdict", {"verdicts": [verdict_payload(v) for v in verdicts]})
    if not all(v.holds for v in verdicts):
        ctx.exit(EXIT_VERIFICATION_FAILURE)


# ---------------------------------------------------------------- rsk

@main.command()
@click.option("--cycles", default=None, help="Involution in cycle notation, e.g. '(13)(26)(5)'.")
@click.option("--word", default=None, help="Involution as a one-line word, e.g. '2 1 4 3'.")
@click.pass_context
def rsk(ctx: click.Context, cycles: str | None, word: str | None) -> None:
    """Map an involution to its standard tableau and report its statistics."""
    if (cycles is None) == (word is None):
        raise click.UsageError("provide exactly one of --cycles or --word")
    v = parse_cycles(cycles) if cycles is not None else parse_word(word)
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
    _emit(ctx, "trace", {"fields": fields})


# ---------------------------------------------------------------- bijection

@main.group(cls=ExitCodeGroup)
def bijection() -> None:
    """Apply one of the constructive maps to explicit inputs."""


@bijection.command("f")
@click.option("--n", type=click.IntRange(min=0), required=True, help="Half the ground-set size.")
@click.option("--p", "p_text", required=True, help="First involution, cycle notation.")
@click.option("--q", "q_text", required=True, help="Second involution, cycle notation.")
@click.pass_context
def bijection_f(ctx: click.Context, n: int, p_text: str, q_text: str) -> None:
    """Toggle the largest free point of a pair to the other side."""
    from .bijections import PairState, free_points, pivot, toggle_pivot

    state = PairState(parse_cycles(p_text), parse_cycles(q_text), n)
    try:
        image = toggle_pivot(state)
    except PivotAbsentError:
        click.echo("f undefined: both involutions fixed-point-free", err=True)
        ctx.exit(2)
    fields = [
        ("p", state.p.cycle_string()),
        ("q", state.q.cycle_string()),
        ("p_out", image.p.cycle_string()),
        ("q_out", image.q.cycle_string()),
    ]
    if ctx.obj["trace"]:
        m = pivot(state)
        moved_from = "p" if m in state.p.fixed_points else "q"
        fields += [
            ("free_points", " ".join(str(x) for x in free_points(state)) or "-"),
            ("pivot", m),
            ("moved_from", moved_from),
            ("moved_to", "q" if moved_from == "p" else "p"),
        ]
    _emit(ctx, "trace", {"fields": fields})


@bijection.command("g")
@click.option("--chosen", required=True, help="Arranged labels, e.g. '3 1'.")
@click.option("--n", type=int, default=None, help="Number of chosen labels, checked if given.")
@click.pass_context
def bijection_g(ctx: click.Context, chosen: str, n: int | None) -> None:
    """Match an arrangement with the unchosen labels, red or blue."""
    from .bijections import arrangement_to_matching

    labels = _parse_ints(chosen, "labels")
    if n is not None and n != len(labels):
        raise click.UsageError(f"--n {n} does not match the number of chosen labels, {len(labels)}")
    colored = arrangement_to_matching(labels)
    payload = {"fields": [
        ("n", colored.n),
        ("chosen", " ".join(str(x) for x in labels) or "-"),
        ("red", colored.p.cycle_string()),
        ("blue", colored.q.cycle_string()),
    ]}
    if ctx.obj["trace"]:
        # red cycles have the unchosen label first, blue ones the chosen label
        payload["table"] = {
            "columns": ["unchosen", "chosen", "color"],
            "rows": sorted([[a, b, "red"] for a, b in colored.p.two_cycles]
                           + [[b, a, "blue"] for a, b in colored.q.two_cycles]),
        }
    _emit(ctx, "trace", payload)


@bijection.command("g-inverse")
@click.option("--red", required=True, help="Red 2-cycles, cycle notation.")
@click.option("--blue", required=True, help="Blue 2-cycles, cycle notation.")
@click.pass_context
def bijection_g_inverse(ctx: click.Context, red: str, blue: str) -> None:
    """Recover the arrangement from a red/blue matching."""
    from .bijections import PairState, matching_to_arrangement

    red_inv, blue_inv = parse_cycles(red), parse_cycles(blue)
    colored = PairState(red_inv, blue_inv, (red_inv.size + blue_inv.size) // 2)
    _emit(ctx, "trace", {"fields": [
        ("red", red_inv.cycle_string()),
        ("blue", blue_inv.cycle_string()),
        ("chosen", " ".join(str(x) for x in matching_to_arrangement(colored)) or "-"),
    ]})


# ---------------------------------------------------------------- audit

@main.command()
@click.option("--n", type=int, required=True, help="Half the ground-set size.")
@click.option("--k", type=int, default=None, help="Odd decreasing-subsequence bound.")
@click.pass_context
def audit(ctx: click.Context, n: int, k: int | None) -> None:
    """Exhaustively audit the cancellation argument; exit 0 iff it all checks out."""
    from .bijections import signed_cancellation_audit

    verdict = signed_cancellation_audit(n, k, limit=ctx.obj["oracle_limit"])
    _emit(ctx, "verdict", {"verdicts": [verdict_payload(verdict)]})
    if not verdict.holds:
        ctx.exit(EXIT_VERIFICATION_FAILURE)


if __name__ == "__main__":
    main()
