"""Structured output records, text renderers, and the persistent count cache.

All integers are rendered as decimal strings in every format; the same
record carries the same digit strings as a table, JSON, or CSV, and the json
and csv modules load only for their own formats.  The cache file is a
versioned, sorted-key text document, so a load/save round trip is byte-identical.
"""

from __future__ import annotations

import io
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from .errors import CacheMismatchError

if TYPE_CHECKING:
    from .identities import IdentityVerdict

FORMATS = ("table", "json", "csv")
CACHE_HEADER = "sytkit cache v1"


def _s(value: Any) -> Any:
    """Integers (not bools) to decimal strings, recursively."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_s(v) for v in value]
    if isinstance(value, dict):
        return {k: _s(v) for k, v in value.items()}
    return value


def _cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def verdict_payload(v: IdentityVerdict) -> dict:
    return {
        "identity": v.identity_id,
        "k": v.k,
        "n": v.n,
        "lhs": v.lhs,
        "rhs": v.rhs,
        "holds": v.holds,
        "checks": [{"name": name, "value": value} for name, value in v.checks],
        "lhs_terms": [dict(vars(t)) for t in v.lhs_terms],
        "rhs_terms": [dict(vars(t)) for t in v.rhs_terms],
    }


def render(kind: str, payload: dict, fmt: str) -> str:
    """One record (kind count, verdict or trace) as text in the given format."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    if kind not in ("count", "verdict", "trace"):
        raise ValueError(f"unknown record kind {kind!r}")
    if fmt == "json":
        import json

        return json.dumps({"kind": kind, **_s(payload)}, indent=2)
    tabulate = _aligned if fmt == "table" else _csv_text
    if kind == "count":
        return tabulate(
            ["family", "k", "n", "value"],
            [[r["family"], r["k"], r["n"], r["value"]] for r in payload["rows"]],
        )
    if kind == "verdict":
        return (_verdicts_table if fmt == "table" else _verdicts_csv)(payload["verdicts"])
    # a trace: its named fields, then an optional table
    if fmt == "table":
        out = "\n".join(f"{name}: {_cell(value)}" for name, value in payload["fields"])
    else:
        out = _csv_text(["name", "value"], payload["fields"])
    if "table" in payload:
        out += "\n" + tabulate(payload["table"]["columns"], payload["table"]["rows"])
    return out


# ---------------------------------------------------------------- csv

def _csv_text(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(x) for x in row])
    return buf.getvalue().rstrip("\n")


#: the columns of one ``TermBreakdown``, in the order both verdict layouts print them
_TERM_FIELDS = ("r", "sign", "binomial", "left_factor", "right_factor", "term_value")
_VERDICT_CSV_HEADER = ["row_type", "identity", "k", "n", "lhs", "rhs", "holds",
                       "side", *_TERM_FIELDS, "check_name", "check_value"]


def _term_rows(v: dict) -> list[list[Any]]:
    """One row per term of a verdict payload: its side, then its ``_TERM_FIELDS``."""
    return [[side, *(t[f] for f in _TERM_FIELDS)]
            for side in ("lhs", "rhs") for t in v[f"{side}_terms"]]


def _verdicts_csv(verdicts: list[dict]) -> str:
    no_term = [""] * (1 + len(_TERM_FIELDS))
    rows = []
    for v in verdicts:
        base = [v["identity"], v["k"], v["n"]]
        rows.append(["verdict", *base, v["lhs"], v["rhs"], v["holds"], *no_term, "", ""])
        for term in _term_rows(v):
            rows.append(["term", *base, "", "", "", *term, "", ""])
        for c in v["checks"]:
            rows.append(["check", *base, "", "", "", *no_term, c["name"], c["value"]])
    return _csv_text(_VERDICT_CSV_HEADER, rows)


# ---------------------------------------------------------------- table

def _aligned(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    cells = [header] + [[_cell(x) for x in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _verdicts_table(verdicts: list[dict]) -> str:
    blocks = []
    for v in verdicts:
        status = "holds" if v["holds"] else "FAILS"
        head = (
            f"{v['identity']}  k={_cell(v['k'])}  n={v['n']}  "
            f"lhs={v['lhs']}  rhs={v['rhs']}  [{status}]"
        )
        block = head + "\n" + _aligned(["side", *_TERM_FIELDS], _term_rows(v))
        if v["checks"]:
            block += "\n" + "\n".join(f"  {c['name']} = {c['value']}" for c in v["checks"])
        blocks.append(block)
    return "\n\n".join(blocks)


# ---------------------------------------------------------------- cache

CacheKey = tuple[str, int | None, int]


def _key_sort(key: CacheKey) -> tuple:
    family, k, n = key
    return (family, k is not None, k if k is not None else 0, n)


def save_cache(entries: dict[CacheKey, int], path: str | Path) -> None:
    """Write the cache through a temporary file in the same directory, then rename
    it over ``path``, so a failed write leaves the old file as it was."""
    lines = [CACHE_HEADER]
    for family, k, n in sorted(entries, key=_key_sort):
        lines.append(f"{family} {'-' if k is None else k} {n} {entries[(family, k, n)]}")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="ascii") as fh:
                fh.write("\n".join(lines) + "\n")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        # report the cache path the caller gave, not the temporary file
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


# no k or n past sys.maxsize can be computed; longer text is refused before the quadratic int()
_MAX_INDEX_DIGITS = len(str(sys.maxsize))


def _parse_index(name: str, text: str) -> int:
    if len(text.lstrip("+-")) > _MAX_INDEX_DIGITS:
        raise ValueError(f"{name} has more than {_MAX_INDEX_DIGITS} digits")
    return int(text)


def _parse_cache_line(line: str) -> tuple[CacheKey, int]:
    from .counting import validate_family

    parts = line.split()
    if len(parts) != 4:
        raise ValueError("expected 'family k n value'")
    family, k_text, n_text, value_text = parts
    k = None if k_text == "-" else _parse_index("k", k_text)
    n = _parse_index("n", n_text)
    validate_family(family, k, n)
    # every family's count is at most n**n (1 at n = 0); checked before the quadratic int()
    if len(value_text) > max(1, n * len(str(n))):
        raise ValueError(f"count has {len(value_text)} digits, more than any count at n={n}")
    value = int(value_text)
    if value < 0:
        raise ValueError(f"count must be non-negative, got {value}")
    return (family, k, n), value


def load_cache(path: str | Path) -> dict[CacheKey, int]:
    """Read a cache file; any malformed or duplicate entry raises ValueError."""
    text = Path(path).read_text(encoding="ascii")
    lines = text.splitlines()
    if not lines or lines[0] != CACHE_HEADER:
        raise ValueError(f"not a cache file (expected header {CACHE_HEADER!r})")
    entries: dict[CacheKey, int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            key, value = _parse_cache_line(line)
        except ValueError as exc:
            raise ValueError(f"malformed cache line {lineno}: {line!r}: {exc}") from None
        if key in entries:
            raise ValueError(f"duplicate cache entry on line {lineno}: {line!r}")
        entries[key] = value
    return entries


def verify_cache_entries(entries: dict[CacheKey, int]) -> None:
    """Recompute every entry; raise on the first disagreement."""
    from .counting import count_family

    for (family, k, n), value in sorted(entries.items(), key=lambda kv: _key_sort(kv[0])):
        expected = count_family(family, k, n)
        if expected != value:
            raise CacheMismatchError(
                f"cache entry {family} k={'-' if k is None else k} n={n} "
                f"has {value}, recomputation gives {expected}"
            )
