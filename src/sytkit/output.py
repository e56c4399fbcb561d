"""Structured output records, text renderers, and the persistent count cache.

Every format writes integers as decimal strings.  A verdict record's verdicts
may come from an iterator: each is rendered as it comes, its terms read from
their ``TermBreakdown`` named tuples, and dropped.  JSON is written in the
layout of ``json.dumps(indent=2)``; it loads only the C string escaper from
``_json``, not the json package, and csv loads only for CSV.  The cache
file is a versioned, sorted-key text document, so a load/save round trip is
byte-identical.  A cached count is kept as the decimal text it was read as
and is never parsed.
"""

from __future__ import annotations

import io
import os
import re
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .errors import CacheMismatchError

if TYPE_CHECKING:
    from .identities import IdentityVerdict

FORMATS = ("table", "json", "csv")
CACHE_HEADER = "sytkit cache v1"


def _json(value: Any, out: list[str], pad: str, quote: Callable[[str], str]) -> list[str]:
    """Append ``value`` to ``out`` (and return it) as ``json.dumps(indent=2)`` would, ints as strings,
    a named tuple as the object of its fields, and an iterator as a list, each item joined as it comes."""
    inner = pad + "  "
    if value is None or isinstance(value, bool):
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, (int, str)):
        out.append(quote(str(value)))
    elif isinstance(value, dict) or hasattr(value, "_fields"):
        items = value.items() if isinstance(value, dict) else zip(value._fields, value)  # a named tuple
        for i, (key, item) in enumerate(items):
            head = f"{',' if i else '{'}\n{inner}{quote(key)}: "
            out.append(f'{head}"{item}"' if type(item) is int else head)  # int fields: no call
            if type(item) is not int:
                _json(item, out, inner, quote)
        out.append(f"\n{pad}}}" if value else "{}")
    elif isinstance(value, (list, tuple, Iterator)):
        i = -1
        for i, item in enumerate(value):  # one string per item, so a long list keeps few fragments
            out.append(f"{',' if i else '['}\n{inner}{''.join(_json(item, [], inner, quote))}")
        out.append(f"\n{pad}]" if i >= 0 else "[]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return out


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
        "lhs_terms": v.lhs_terms,
        "rhs_terms": v.rhs_terms,
    }


def render(kind: str, payload: dict, fmt: str) -> str:
    """One record (kind count, verdict or trace) as text in the given format."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    if kind not in ("count", "verdict", "trace"):
        raise ValueError(f"unknown record kind {kind!r}")
    if fmt == "json":
        from _json import encode_basestring_ascii  # json.encoder's own escaper, without json's import
        return "".join(_json({"kind": kind, **payload}, [], "", encode_basestring_ascii))
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

def _csv_text(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
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
    """One row per term of a verdict payload: its side, then the ``TermBreakdown``'s fields."""
    return [[side, *t] for side in ("lhs", "rhs") for t in v[f"{side}_terms"]]


def _verdicts_csv(verdicts: Iterable[dict]) -> str:
    def rows():  # verdict by verdict, so a verdict is dropped once its rows are written
        no_term = [""] * (1 + len(_TERM_FIELDS))
        for v in verdicts:
            base = [v["identity"], v["k"], v["n"]]
            yield ["verdict", *base, v["lhs"], v["rhs"], v["holds"], *no_term, "", ""]
            for term in _term_rows(v):
                yield ["term", *base, "", "", "", *term, "", ""]
            for c in v["checks"]:
                yield ["check", *base, "", "", "", *no_term, c["name"], c["value"]]
    return _csv_text(_VERDICT_CSV_HEADER, rows())


# ---------------------------------------------------------------- table

def _aligned(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    cells = [header] + [[_cell(x) for x in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _verdicts_table(verdicts: Iterable[dict]) -> str:
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


def save_cache(entries: dict[CacheKey, str], path: str | Path) -> None:
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


# The one form save_cache writes in each field (int() would also take '+9', '09' and '9_0'):
# a k or n has at most as many digits as sys.maxsize, so int() stays cheap on a hostile line,
# and a count is unsigned and never parsed.
_INDEX_FORM = rf"0|-?[1-9][0-9]{{0,{len(str(sys.maxsize)) - 1}}}"
_FIELD_FORMS = (
    ("k", f"-|{_INDEX_FORM}", f" of at most {len(str(sys.maxsize))} digits"),
    ("n", _INDEX_FORM, f" of at most {len(str(sys.maxsize))} digits"),
    ("count", "0|[1-9][0-9]*", " >= 0"),
)


def _parse_cache_line(line: str) -> tuple[CacheKey, str]:
    from .counting import validate_family

    parts = line.split()
    if len(parts) != 4:
        raise ValueError("expected 'family k n value'")
    for (name, form, rule), text in zip(_FIELD_FORMS, parts[1:]):
        if not re.fullmatch(form, text):
            raise ValueError(f"{name} is not a canonical decimal integer{rule}")
    family, k_text, n_text, value = parts
    k = None if k_text == "-" else int(k_text)
    n = int(n_text)
    for name, index in (("k", k), ("n", n)):
        if index is not None and index > sys.maxsize:
            raise ValueError(f"{name} is above {sys.maxsize}, the largest size or bound (sys.maxsize)")
    validate_family(family, k, n)
    # every family's count is at most n**n (1 at n = 0), and a Catalan number below 4**n: 0.60206 > log10(4)
    if len(value) > (n * 60206 // 100000 + 1 if family == "catalan" else max(1, n * len(n_text))):
        raise ValueError(f"count has {len(value)} digits, more than any count at n={n}")
    return (family, k, n), value


def load_cache(path: str | Path) -> dict[CacheKey, str]:
    """Read a cache file; any malformed or duplicate entry raises ValueError."""
    text = Path(path).read_text(encoding="ascii")
    lines = text.splitlines()
    if not lines or lines[0] != CACHE_HEADER:
        raise ValueError(f"not a cache file (expected header {CACHE_HEADER!r})")
    entries: dict[CacheKey, str] = {}
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


def verify_cache_entries(entries: dict[CacheKey, str]) -> None:
    """Recompute every entry; raise on the first disagreement."""
    from .counting import count_family

    for (family, k, n), value in sorted(entries.items(), key=lambda kv: _key_sort(kv[0])):
        expected = str(count_family(family, k, n))
        if expected != value:
            raise CacheMismatchError(
                f"cache entry {family} k={'-' if k is None else k} n={n} "
                f"has {value}, recomputation gives {expected}"
            )
