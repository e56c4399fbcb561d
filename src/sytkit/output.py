"""Structured output records, text renderers, and the persistent count cache.

Every format writes integers as decimal strings.  ``render`` returns a record
as the list of pieces of its text, and the CLI writes them one by one after
the last one is made; a caller that wants the text joins them.  A verdict
record's verdicts are the ``IdentityVerdict`` named tuples the verifiers
return, whose fields are the record's, in its order; they may come from an
iterator: each is rendered as it comes, into its own piece, and dropped.
JSON is written in the layout of ``json.dumps(indent=2)``, a named tuple as
the object of its fields; it loads only the C string escaper from ``_json``,
not the json package, and csv loads only for CSV.  The cache file is a
versioned, sorted-key text document, so a load/save round trip is
byte-identical; a missing file is an empty cache, and pathlib loads only to
read or write one.  A cached count is kept as the decimal text it was read as
and is never parsed.
"""

import io
import os
import re
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain

FORMATS = ("table", "json", "csv")
CACHE_HEADER = "sytkit cache v1"


class CacheMismatchError(RuntimeError):
    """A persisted count disagrees with its recomputed value."""


#: (named tuple type, indent) -> the %-template of its object, for a tuple of ints
_TEMPLATES: dict[tuple[type, str], str] = {}


def _json(value: object, out: list[str], pad: str, quote: Callable[[str], str]) -> list[str]:
    """Append ``value`` to ``out`` (and return it) as ``json.dumps(indent=2)`` would, ints as strings,
    a named tuple as the object of its fields, and an iterator as a list, each item joined as it comes."""
    inner = pad + "  "
    if value is None or isinstance(value, bool):
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, (int, str)):
        out.append(quote(str(value)))
    elif hasattr(value, "_fields") and {*map(type, value)} == {int}:  # a term: one template
        if (template := _TEMPLATES.get((type(value), pad))) is None:  # each int field written as '"%d"'
            template = _TEMPLATES[type(value), pad] = "".join(_json(value._make(["%d"] * len(value)), [], pad, quote))
        out.append(template % value)
    elif isinstance(value, dict) or hasattr(value, "_fields"):
        items = value.items() if isinstance(value, dict) else zip(value._fields, value)  # a named tuple
        for i, (key, item) in enumerate(items):
            out.append(f"{',' if i else '{'}\n{inner}{quote(key)}: ")
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


def _cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render(kind: str, payload: dict, fmt: str) -> list[str]:
    """One record (kind count, verdict or trace) in the given format, as the list of pieces of its
    text; ``"".join`` of them is the record, with no final newline."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    if kind not in ("count", "verdict", "trace"):
        raise ValueError(f"unknown record kind {kind!r}")
    if fmt == "json":
        from _json import encode_basestring_ascii  # json.encoder's own escaper, without json's import
        return _json({"kind": kind, **payload}, [], "", encode_basestring_ascii)

    def tabulate(header: Sequence[str], rows: Sequence[Sequence[object]]) -> list[str]:
        return [_aligned(header, rows)] if fmt == "table" else _csv(header, [rows])

    if kind == "count":
        return tabulate(
            ["family", "k", "n", "value"],
            [[r["family"], r["k"], r["n"], r["value"]] for r in payload["rows"]],
        )
    if kind == "verdict":
        return (_verdicts_table if fmt == "table" else _verdicts_csv)(payload["verdicts"])
    # a trace: its named fields, then an optional table
    if fmt == "table":
        out = ["\n".join(f"{name}: {_cell(value)}" for name, value in payload["fields"])]
    else:
        out = _csv(["name", "value"], [payload["fields"]])
    if "table" in payload:
        out += ["\n", *tabulate(payload["table"]["columns"], payload["table"]["rows"])]
    return out


# ---------------------------------------------------------------- csv

def _csv(header: Sequence[str], groups: Iterable[Iterable[Sequence[object]]]) -> list[str]:
    """CSV of a header and groups of rows, a piece for each (the header's first), no final newline."""
    import csv

    pieces = []
    for rows in chain([[header]], groups):  # a buffer per group: a drained one keeps its largest size
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([_cell(x) for x in row] for row in rows)
        if buf.tell():
            pieces.append(buf.getvalue())
    pieces[-1] = pieces[-1].rstrip("\n")
    return pieces


#: the columns of one ``TermBreakdown``, in the order both verdict layouts print them
_TERM_FIELDS = ("r", "sign", "binomial", "left_factor", "right_factor", "term_value")
_VERDICT_CSV_HEADER = ["row_type", "identity", "k", "n", "lhs", "rhs", "holds",
                       "side", *_TERM_FIELDS, "check_name", "check_value"]


def _term_rows(v: "IdentityVerdict") -> list[list[object]]:
    """One row per term of a verdict: its side, then the ``TermBreakdown``'s fields."""
    return [["lhs", *t] for t in v.lhs_terms] + [["rhs", *t] for t in v.rhs_terms]


def _verdicts_csv(verdicts: Iterable["IdentityVerdict"]) -> list[str]:
    no_term = [""] * (1 + len(_TERM_FIELDS))

    def rows(v: "IdentityVerdict") -> Iterator[list[object]]:  # one group per verdict, dropped once written
        base = [v.identity, v.k, v.n]
        yield ["verdict", *base, v.lhs, v.rhs, v.holds, *no_term, "", ""]
        for term in _term_rows(v):
            yield ["term", *base, "", "", "", *term, "", ""]
        for c in v.checks:
            yield ["check", *base, "", "", "", *no_term, c.name, c.value]
    return _csv(_VERDICT_CSV_HEADER, map(rows, verdicts))


# ---------------------------------------------------------------- table

def _aligned(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    cells = [header] + [[_cell(x) for x in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _verdicts_table(verdicts: Iterable["IdentityVerdict"]) -> list[str]:
    blocks: list[str] = []  # one piece per verdict, a blank line before each after the first
    for v in verdicts:
        status = "holds" if v.holds else "FAILS"
        head = f"{v.identity}  k={_cell(v.k)}  n={v.n}  lhs={v.lhs}  rhs={v.rhs}  [{status}]"
        block = ("\n\n" if blocks else "") + head + "\n" + _aligned(["side", *_TERM_FIELDS], _term_rows(v))
        if v.checks:
            block += "\n" + "\n".join(f"  {c.name} = {c.value}" for c in v.checks)
        blocks.append(block)
    return blocks


# ---------------------------------------------------------------- cache

CacheKey = tuple[str, int | None, int]


def _key_sort(key: CacheKey) -> tuple:
    family, k, n = key
    return (family, k is not None, k if k is not None else 0, n)


def save_cache(entries: dict[CacheKey, str], path: str | os.PathLike) -> None:
    """Write the cache through a temporary file in the same directory, then rename
    it over ``path``, so a failed write leaves the old file as it was."""
    from pathlib import Path

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

    if not line.isascii():
        raise ValueError("not ASCII")
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
    if len(value) > validate_family(family, k, n):
        raise ValueError(f"count has {len(value)} digits, more than any count at n={n}")
    return (family, k, n), value


def load_cache(path: str | os.PathLike) -> dict[CacheKey, str]:
    """Read a cache file; a missing file is an empty cache, and a malformed entry (a byte past ASCII
    too) or a duplicate one raises ValueError."""
    from pathlib import Path

    if not (path := Path(path)).exists():
        return {}
    lines = path.read_bytes().decode("ascii", "surrogateescape").splitlines()
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
