"""Seeded workloads for the sytkit benchmark: commands, correctness gates, units.

A workload is a list of `Cmd`: the argv given to the `sytkit` CLI (global
flags first), a gate that accepts or rejects the command's exit code and
stdout, and a count of the work units its output represents.  Nothing here
imports sytkit: the gates are either digests recorded at a known-good commit
(`expected.json`) or oracles computed independently in this file.

Why each workload exists:

* identity-sweep: the paper's identities as exact pair sums over tableau
  counts, so the counting layer (shape walk, hook lengths) dominates, with
  identities pair sums and JSON rendering of big integers on top;
* pair-audit: the sign-reversing toggle replayed over an explicit pair space,
  so core (Involution construction, lds) and bijections dominate and peak
  RSS follows the materialized pair list;
* interactive-cli: a stream of short commands, so interpreter start-up, CLI
  parsing, rendering and cache I/O dominate.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass(frozen=True)
class Cmd:
    argv: tuple[str, ...]
    gate: Callable[[int, bytes], bool]
    units: Callable[[bytes], int]


@dataclass(frozen=True)
class Workload:
    name: str
    cmds: list[Cmd]
    min_passes: int
    cache_path: Path | None  # removed before every pass
    sizes: dict


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_gate(exit_code: int, digest: str) -> Callable[[int, bytes], bool]:
    return lambda code, out: code == exit_code and sha256(out) == digest


def cmd_key(argv) -> str:
    return " ".join(argv)


# ---------------------------------------------------------------- fixed workloads

# sizes are scaled so a pass takes a few seconds, which leaves room for several
# passes in a run: each command's time is a median over passes
IDENTITY_SWEEP = [
    ("--format", "json", "verify", "corollary-k3", "--n", "1..28"),
    ("--format", "json", "verify", "wilf", "--k", "4", "--n", "1..22"),
    ("--format", "json", "verify", "odd", "--k", "3", "--n", "1..30"),
    ("--format", "json", "verify", "naive-failure", "--k", "2", "--n", "1..30"),
    ("--format", "json", "verify", "a005568", "--n", "0..40"),
    ("--format", "json", "verify", "unrestricted", "--n", "1..60"),
    ("--format", "json", "count", "u", "--k", "3", "--n", "90..96"),
    ("--format", "json", "count", "y", "--k", "32", "--n", "32"),
]

PAIR_AUDIT = [
    ("--format", "json", "audit", "--n", "4"),
    ("--format", "json", "audit", "--n", "4", "--k", "3"),
    ("--format", "json", "audit", "--n", "4", "--k", "1"),
    ("--format", "json", "--oracle-limit", "5", "audit", "--n", "5", "--k", "1"),
]


def values_produced(out: bytes) -> int:
    """Verdicts plus count rows in a JSON record."""
    doc = json.loads(out)
    return len(doc.get("verdicts", ())) + len(doc.get("rows", ()))


def states_audited(out: bytes) -> int:
    """Sum of the `states` check over the verdicts of a JSON audit record."""
    doc = json.loads(out)
    return sum(int(c["value"]) for v in doc["verdicts"] for c in v["checks"]
               if c["name"] == "states")


def fixed_workload(name: str, argvs, units, seed: int, min_passes: int) -> Workload:
    """Fixed commands in a seeded order, gated by the digests in expected.json."""
    expected = json.loads(EXPECTED_PATH.read_text())
    order = list(argvs)
    random.Random(seed).shuffle(order)
    cmds = []
    for argv in order:
        rec = expected[cmd_key(argv)]
        cmds.append(Cmd(argv, digest_gate(rec["exit"], rec["sha256"]), units))
    return Workload(name, cmds, min_passes, None, {"commands_per_pass": len(cmds)})


# ---------------------------------------------------------------- oracles

def lis_dp(word) -> int:
    best = []
    for i, x in enumerate(word):
        best.append(1 + max((best[j] for j in range(i) if word[j] < x), default=0))
    return max(best, default=0)


def lds_dp(word) -> int:
    return lis_dp([-x for x in word])


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def motzkin(n: int) -> int:
    a, b = 1, 1  # M(0), M(1)
    for m in range(2, n + 1):
        a, b = b, ((2 * m + 1) * b + (3 * m - 3) * a) // (m + 2)
    return b if n else a


def involutions(n: int) -> int:
    a, b = 1, 1
    for m in range(2, n + 1):
        a, b = b, b + (m - 1) * a
    return b


def closed_form(family: str, k: int | None, n: int) -> int:
    """Independent value of a count query, for the families the stream uses."""
    if family == "catalan":
        return catalan(n)
    if family == "y_unbounded" or (family == "y" and k >= n):
        return involutions(n)
    if family == "y" and k == 2:
        return comb(n, n // 2)
    if family == "y" and k == 3:
        return motzkin(n)
    if family == "y" and k == 4:  # Gouyou-Beauchamps
        return catalan((n + 1) // 2) * catalan((n + 2) // 2)
    if family == "u" and k == 2:
        return catalan(n)
    raise ValueError(f"no closed form for {family} k={k}")


def cycle_string(fixed, cycles) -> str:
    """Canonical cycle notation: juxtaposed digits, comma form for labels >= 10."""
    return groups_string(sorted([tuple(sorted(c)) for c in cycles] + [(x,) for x in fixed]))


def scrambled_cycles(rng: random.Random, fixed, cycles) -> str:
    """The same involution with groups shuffled and 2-cycles randomly flipped."""
    groups = [(x,) for x in fixed] + [c if rng.random() < 0.5 else c[::-1] for c in cycles]
    rng.shuffle(groups)
    return groups_string(groups)


def groups_string(groups) -> str:
    parts = []
    for g in groups:
        if any(x >= 10 for x in g):
            parts.append("(" + ",".join(map(str, g)) + ("," if len(g) == 1 else "") + ")")
        else:
            parts.append("(" + "".join(map(str, g)) + ")")
    return "".join(parts) or "()"


def random_involution(rng: random.Random, labels):
    labels = list(labels)
    rng.shuffle(labels)
    pairs = rng.randint(0, len(labels) // 2)
    cycles = [tuple(sorted(labels[2 * i:2 * i + 2])) for i in range(pairs)]
    return sorted(labels[2 * pairs:]), sorted(cycles)


def word_of(fixed, cycles) -> list[int]:
    image = {x: x for x in fixed}
    for a, b in cycles:
        image[a], image[b] = b, a
    return [image[x] for x in sorted(image)]


def fields(out: bytes) -> dict[str, str]:
    """`name: value` lines of a table-format trace record."""
    text = out.decode()
    return dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)


def count_rows(out: bytes, fmt: str) -> list[tuple[str, str, str, str]]:
    """(family, k, n, value) rows of a count record; k is '-' when absent."""
    text = out.decode()
    if fmt == "json":
        doc = json.loads(text)
        return [(r["family"], "-" if r["k"] is None else r["k"], r["n"], r["value"])
                for r in doc["rows"]]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["family", "k", "n", "value"]:
            raise ValueError("bad csv header")
        return [tuple(r) for r in rows[1:]]
    lines = text.splitlines()
    if lines[0].split() != ["family", "k", "n", "value"]:
        raise ValueError("bad table header")
    return [tuple(line.split()) for line in lines[2:]]


def oracle_gate(check: Callable[[bytes], bool], exit_code: int = 0) -> Callable[[int, bytes], bool]:
    def gate(code: int, out: bytes) -> bool:
        if code != exit_code:
            return False
        try:
            return bool(check(out))
        except (ValueError, KeyError, IndexError, TypeError):
            return False
    return gate


# ---------------------------------------------------------------- interactive-cli

def rsk_check(fixed, cycles, label_count: int):
    word = word_of(fixed, cycles)

    def check(out: bytes) -> bool:
        f = fields(out)
        printed = [int(x) for x in f["word"].split()]
        shape = json.loads(f["shape"])
        lis, lds = int(f["lis"]), int(f["lds"])
        return (
            f["involution"] == cycle_string(fixed, cycles)
            and printed == word
            and lis == lis_dp(printed) and lds == lds_dp(printed)
            and sum(shape) == label_count and shape[0] == lis and len(shape) == lds
            and int(f["fixed_points"]) == len(fixed) == int(f["odd_columns"])
            and f["beissinger_ok"] == "true"
        )
    return check


def one_unit(out: bytes) -> int:
    return 1


def toggle(p, q):
    """Oracle for map f: move the largest fixed point of the pair across."""
    (pf, pc), (qf, qc) = p, q
    m = max(pf + qf)
    if m in pf:
        return ([x for x in pf if x != m], pc), (sorted(qf + [m]), qc)
    return (sorted(pf + [m]), pc), ([x for x in qf if x != m], qc)


def f_command(rng, n, p, q, traced: bool) -> Cmd:
    p_out, q_out = toggle(p, q)
    free = sorted(p[0] + q[0])
    argv = (("--trace",) if traced else ()) + (
        "bijection", "f", "--n", str(n),
        "--p", scrambled_cycles(rng, *p), "--q", scrambled_cycles(rng, *q))

    def check(out: bytes) -> bool:
        f = fields(out)
        ok = (f["p"] == cycle_string(*p) and f["q"] == cycle_string(*q)
              and f["p_out"] == cycle_string(*p_out) and f["q_out"] == cycle_string(*q_out))
        if traced:
            moved_from = "p" if free[-1] in p[0] else "q"
            ok = ok and (f["free_points"] == " ".join(map(str, free))
                         and int(f["pivot"]) == free[-1] and f["moved_from"] == moved_from
                         and f["moved_to"] == ("q" if moved_from == "p" else "p"))
        return ok
    return Cmd(argv, oracle_gate(check), one_unit)


def g_commands(rng, chosen, traced: bool) -> list[Cmd]:
    """Map g on an arrangement, then g-inverse on the matching g must give."""
    n = len(chosen)
    unchosen = sorted(set(range(1, 2 * n + 1)) - set(chosen))
    red = [(i, a) for i, a in zip(unchosen, chosen) if i < a]
    blue = [(a, i) for i, a in zip(unchosen, chosen) if i > a]
    text = " ".join(map(str, chosen))

    def check_g(out: bytes) -> bool:
        f = fields(out)
        return (f["n"] == str(n) and f["chosen"] == text
                and f["red"] == cycle_string((), red) and f["blue"] == cycle_string((), blue))

    return [
        Cmd((("--trace",) if traced else ()) + ("bijection", "g", "--chosen", text),
            oracle_gate(check_g), one_unit),
        Cmd(("bijection", "g-inverse", "--red", scrambled_cycles(rng, [], red),
             "--blue", scrambled_cycles(rng, [], blue)),
            oracle_gate(lambda out: fields(out)["chosen"] == text), one_unit),
    ]


def count_command(fmt: str, cache_path: Path, verify: bool, family: str, k: int | None,
                  lo: int, hi: int) -> Cmd:
    """A cached count query in one output format, checked row by row against closed forms."""
    argv = ("--format", fmt, "--cache", str(cache_path)) + (("--verify-cache",) if verify else ()) + (
        "count", family) + (() if k is None else ("--k", str(k))) + ("--n", f"{lo}..{hi}")
    expect = [(family, "-" if k is None else str(k), str(n), str(closed_form(family, k, n)))
              for n in range(lo, hi + 1)]
    return Cmd(argv, oracle_gate(lambda out: count_rows(out, fmt) == expect), one_unit)


RSK, F_PAIRS, G_PAIRS, COUNTS = 9, 3, 3, 12  # every fourth count also verifies the cache


def interactive_workload(seed: int, cache_path: Path) -> Workload:
    rng = random.Random(seed)
    cmds: list[Cmd] = []

    for i in range(RSK):  # rsk, alternately by cycles and by word
        size = rng.randint(8, 30)
        fixed, cycles = random_involution(rng, rng.sample(range(1, 37), size))
        if i % 2:
            argv = ("rsk", "--word", " ".join(map(str, word_of(fixed, cycles))))
        else:
            argv = ("rsk", "--cycles", scrambled_cycles(rng, fixed, cycles))
        cmds.append(Cmd(argv, oracle_gate(rsk_check(fixed, cycles, size)), one_unit))

    for i in range(F_PAIRS):  # f and then f on the image: the pair must come back
        n = rng.randint(3, 12)
        while True:
            ground = list(range(1, 2 * n + 1))
            rng.shuffle(ground)
            r = rng.randint(0, 2 * n)
            p = random_involution(rng, ground[:r])
            q = random_involution(rng, ground[r:])
            if p[0] or q[0]:
                break
        cmds.append(f_command(rng, n, p, q, traced=i % 2 == 0))
        cmds.append(f_command(rng, n, *toggle(p, q), traced=i % 2 == 1))

    for i in range(G_PAIRS):  # g, then g-inverse on its matching: the arrangement must come back
        n = rng.randint(3, 12)
        cmds += g_commands(rng, rng.sample(range(1, 2 * n + 1), n), traced=i % 2 == 1)

    queries = [  # (family, k or None, largest n)
        ("y", 2, 40), ("y", 3, 40), ("y", 4, 30), ("u", 2, 30),
        ("y_unbounded", None, 40), ("catalan", None, 40), ("y", "n", 16),
    ]
    counts: list[Cmd] = []
    for i in range(COUNTS):
        family, k, top = queries[i % len(queries)] if i < len(queries) else rng.choice(queries)
        hi = rng.randint(4, top)
        lo = max(0, hi - rng.randint(0, 5))
        if k == "n":
            k = hi + rng.randint(0, 3)
        counts.append(count_command(("table", "json", "csv")[i % 3], cache_path, i % 4 == 3,
                                    family, k, lo, hi))

    # the first count creates the cache file, so every --verify-cache read finds one
    rest = cmds + counts[1:]
    rng.shuffle(rest)
    return Workload("interactive-cli", [counts[0]] + rest, 3, cache_path,
                    {"commands_per_pass": len(cmds) + len(counts), "rsk": RSK,
                     "f": 2 * F_PAIRS, "g_and_inverse": 2 * G_PAIRS, "count": COUNTS})


# ---------------------------------------------------------------- registry

WORKLOADS = ("identity-sweep", "pair-audit", "interactive-cli")


def build(name: str, seed: int, scratch: Path) -> Workload:
    if name == "identity-sweep":
        return fixed_workload(name, IDENTITY_SWEEP, values_produced, seed, 4)
    if name == "pair-audit":
        return fixed_workload(name, PAIR_AUDIT, states_audited, seed, 3)
    if name == "interactive-cli":
        return interactive_workload(seed, scratch / "counts.cache")
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
