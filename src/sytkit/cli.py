"""Command-line front end.

Subcommands: count, verify, rsk, bijection, audit.  Global flags --format,
--cache, --verify-cache, --oracle-limit, --trace come before the subcommand.

Exit codes: 0 success / all verdicts hold, 1 verification failure,
2 usage or parse error, 3 scale-limit error.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import click

from .bijections import (
    DEFAULT_PAIR_SPACE_LIMIT,
    ColoredInvolution,
    PairState,
    arrangement_to_matching,
    check_beissinger,
    free_points,
    matching_to_arrangement,
    pivot,
    signed_cancellation_audit,
    toggle_pivot,
)
from .core import Involution, lds, lis, odd_columns, rs_of_involution
from .counting import count_family
from .errors import CacheMismatchError, PivotAbsentError, ScaleLimitError
from .identities import IDENTITIES
from .output import (
    FORMATS,
    OutputRecord,
    load_cache,
    render,
    save_cache,
    verdict_payload,
    verify_cache_entries,
)

EXIT_VERIFICATION_FAILURE = 1
EXIT_SCALE_LIMIT = 3


# ---------------------------------------------------------------- parsing

def parse_range(text: str) -> list[int]:
    """Inclusive 'a..b' range, or a single integer."""
    text = text.strip()
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if lo > hi:
            raise click.UsageError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    if re.fullmatch(r"-?\d+", text):
        return [int(text)]
    raise click.UsageError(f"expected an integer or 'a..b' range, got {text!r}")


def _parse_cycle_group(group: str) -> list[int]:
    if group.endswith(",") and "," not in group[:-1]:
        body = group[:-1]  # '(12,)' is a fixed point with a wide label
        if not body.isdigit():
            raise click.UsageError(f"malformed cycle ({group})")
        return [int(body)]
    if "," in group:
        pieces = group.split(",")
        if not all(p.isdigit() for p in pieces):
            raise click.UsageError(f"malformed cycle ({group})")
        return [int(p) for p in pieces]
    if not group.isdigit():
        raise click.UsageError(f"malformed cycle ({group})")
    if len(group) == 1:
        return [int(group)]
    labels = [int(ch) for ch in group]  # juxtaposed single digits
    if 0 in labels:
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


def parse_word(text: str) -> Involution:
    """One-line word, whitespace- or comma-separated."""
    pieces = [p for p in re.split(r"[,\s]+", text.strip()) if p]
    try:
        entries = [int(p) for p in pieces]
    except ValueError:
        raise click.UsageError(f"word entries must be integers, got {text!r}")
    return Involution.from_word(entries)


def parse_labels(text: str) -> tuple[int, ...]:
    pieces = [p for p in re.split(r"[,\s]+", text.strip()) if p]
    try:
        return tuple(int(p) for p in pieces)
    except ValueError:
        raise click.UsageError(f"labels must be integers, got {text!r}")


def _cycles_str(pairs) -> str:
    return Involution((), pairs).cycle_string()


# ---------------------------------------------------------------- group

class ExitCodeCommand(click.Command):
    """A subcommand whose library errors end in the documented exit codes."""

    def invoke(self, ctx: click.Context):
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
def main(ctx: click.Context, fmt: str, cache_path: str | None, verify_cache: bool,
         oracle_limit: int, trace: bool) -> None:
    """Exact tableau/involution counts, identity checks, and bijection tools."""
    # exact counts can run past Python's int/str digit cap; the setting is process-wide
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    ctx.obj = {
        "fmt": fmt,
        "cache": cache_path,
        "verify_cache": verify_cache,
        "oracle_limit": oracle_limit,
        "trace": trace,
    }


def _emit(ctx: click.Context, record: OutputRecord) -> None:
    click.echo(render(record, ctx.obj["fmt"]))


# ---------------------------------------------------------------- count

@main.command()
@click.argument("family")
@click.option("--k", type=int, default=None, help="Subsequence/row bound (families u, y, x).")
@click.option("--n", "n_range", required=True, help="Size, or inclusive range 'a..b'.")
@click.pass_context
def count(ctx: click.Context, family: str, k: int | None, n_range: str) -> None:
    """Evaluate one counting family at the given sizes."""
    rows = [{"family": family, "k": k, "n": n, "value": count_family(family, k, n)}
            for n in parse_range(n_range)]

    cache_path = ctx.obj["cache"]
    if cache_path is not None:
        entries = load_cache(cache_path) if Path(cache_path).exists() else {}
        if ctx.obj["verify_cache"]:
            verify_cache_entries(entries)
        entries.update({(r["family"], r["k"], r["n"]): r["value"] for r in rows})
        save_cache(entries, cache_path)

    _emit(ctx, OutputRecord("count", {"rows": rows}))


# ---------------------------------------------------------------- verify

@main.command()
@click.argument("identity", type=click.Choice(sorted(IDENTITIES)))
@click.option("--k", type=int, default=None, help="Bound parameter, where the identity takes one.")
@click.option("--n", "n_range", required=True, help="Instance size, or inclusive range 'a..b'.")
@click.pass_context
def verify(ctx: click.Context, identity: str, k: int | None, n_range: str) -> None:
    """Check identity instances exactly; exit 0 only if every verdict holds."""
    verifier, takes_k = IDENTITIES[identity]
    if takes_k and k is None:
        raise click.UsageError(f"identity {identity!r} requires --k")
    if not takes_k and k is not None:
        raise click.UsageError(f"identity {identity!r} takes no --k")
    verdicts = [verifier(k, n) if takes_k else verifier(n) for n in parse_range(n_range)]
    _emit(ctx, OutputRecord("verdict", {"verdicts": [verdict_payload(v) for v in verdicts]}))
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
    w = v.word()
    fields = [
        ("involution", v.cycle_string()),
        ("word", " ".join(str(x) for x in w) or "-"),
        ("tableau", str([list(r) for r in t.rows])),
        ("shape", str(list(t.shape))),
        ("lis", lis(w)),
        ("lds", lds(w)),
        ("fixed_points", len(v.fixed_points)),
        ("odd_columns", odd_columns(t)),
        ("beissinger_ok", check_beissinger(v)),
    ]
    _emit(ctx, OutputRecord("trace", {"fields": fields}))


# ---------------------------------------------------------------- bijection

@main.command()
@click.argument("map_id", type=click.Choice(["f", "g", "g-inverse"]))
@click.option("--n", type=int, default=None, help="Half the ground-set size (map f).")
@click.option("--p", "p_text", default=None, help="First involution, cycle notation (map f).")
@click.option("--q", "q_text", default=None, help="Second involution, cycle notation (map f).")
@click.option("--chosen", default=None, help="Arranged labels, e.g. '3 1' (map g).")
@click.option("--red", default=None, help="Red 2-cycles, cycle notation (map g-inverse).")
@click.option("--blue", default=None, help="Blue 2-cycles, cycle notation (map g-inverse).")
@click.pass_context
def bijection(ctx: click.Context, map_id: str, n: int | None, p_text: str | None,
              q_text: str | None, chosen: str | None, red: str | None,
              blue: str | None) -> None:
    """Apply one of the constructive maps to explicit inputs."""
    trace = ctx.obj["trace"]
    if map_id == "f":
        if n is None or p_text is None or q_text is None:
            raise click.UsageError("map f needs --n, --p and --q")
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
        if trace:
            m = pivot(state)
            moved_from = "p" if m in state.p.fixed_points else "q"
            fields += [
                ("free_points", " ".join(str(x) for x in free_points(state)) or "-"),
                ("pivot", m),
                ("moved_from", moved_from),
                ("moved_to", "q" if moved_from == "p" else "p"),
            ]
        _emit(ctx, OutputRecord("trace", {"fields": fields}))
        return

    if map_id == "g":
        if chosen is None:
            raise click.UsageError("map g needs --chosen")
        labels = parse_labels(chosen)
        colored = arrangement_to_matching(labels)
        payload = {"fields": [
            ("n", colored.n),
            ("chosen", " ".join(str(x) for x in labels) or "-"),
            ("red", _cycles_str(colored.red)),
            ("blue", _cycles_str(colored.blue)),
        ]}
        if trace:
            # the j-th smallest unchosen label is paired with the j-th chosen one
            unchosen = sorted(set(range(1, 2 * colored.n + 1)) - set(labels))
            payload["table"] = {
                "columns": ["unchosen", "chosen", "color"],
                "rows": [[i, a, "red" if i < a else "blue"] for i, a in zip(unchosen, labels)],
            }
        _emit(ctx, OutputRecord("trace", payload))
        return

    # g-inverse
    if red is None or blue is None:
        raise click.UsageError("map g-inverse needs --red and --blue")
    red_inv, blue_inv = parse_cycles(red), parse_cycles(blue)
    if red_inv.fixed_points or blue_inv.fixed_points:
        raise click.UsageError("colored cycles must all be 2-cycles")
    pairs = red_inv.two_cycles + blue_inv.two_cycles
    colored = ColoredInvolution(len(pairs), red_inv.two_cycles, blue_inv.two_cycles)
    arrangement = matching_to_arrangement(colored)
    _emit(ctx, OutputRecord("trace", {"fields": [
        ("red", _cycles_str(colored.red)),
        ("blue", _cycles_str(colored.blue)),
        ("chosen", " ".join(str(x) for x in arrangement) or "-"),
    ]}))


# ---------------------------------------------------------------- audit

@main.command()
@click.option("--n", type=int, required=True, help="Half the ground-set size.")
@click.option("--k", type=int, default=None, help="Odd decreasing-subsequence bound.")
@click.pass_context
def audit(ctx: click.Context, n: int, k: int | None) -> None:
    """Exhaustively audit the cancellation argument; exit 0 iff it all checks out."""
    verdict = signed_cancellation_audit(n, k, limit=ctx.obj["oracle_limit"])
    _emit(ctx, OutputRecord("verdict", {"verdicts": [verdict_payload(verdict)]}))
    if not verdict.holds:
        ctx.exit(EXIT_VERIFICATION_FAILURE)


if __name__ == "__main__":
    main()
