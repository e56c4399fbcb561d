"""Run one workload pass in a single fresh interpreter, optionally traced.

Usage: python3 inproc.py <pass.json> <result.json> <spans.jsonl or ->

`pass.json` holds {"cmds": [argv, ...], "traced": bool}.  Every command goes
through the click entry point with ``standalone_mode=False`` and its stdout
captured; before each one every memoized function in sytkit is cleared, so
each command starts as cold as a CLI process.

When traced, wrappers go on every module attribute (and every registry dict
entry) that binds a traced function, because ``from .x import f`` copies the
reference into other modules.  Coarse calls become spans (name, start, end,
parent id) kept in memory and written to the spans file at the end; hot calls,
which run about 10^5 times per command, only get counters and accumulated
time.  A call's self time is its duration minus that of the traced calls
directly inside it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

perf_counter = time.perf_counter

MODULES = ("core", "counting", "identities", "bijections", "output", "cli")

# module -> names of functions whose calls become spans
COARSE = {
    "counting": ("count_syt_row_bounded", "count_perms_lis_bounded", "count_involutions",
                 "count_fpf", "count_fpf_lds_bounded", "count_fpf_lis_bounded", "catalan"),
    "identities": ("verify_wilf_even", "verify_unrestricted", "verify_fpf_pairs",
                   "verify_odd_k", "verify_corollary_k3", "verify_a005568",
                   "demonstrate_naive_failure"),
    "bijections": ("signed_cancellation_audit",),
    "output": ("render", "load_cache", "save_cache", "verify_cache_entries"),
}
# module -> names of functions that only get counters and time
HOT = {
    "core": ("lis", "lds", "as_shape", "rs_of_involution", "rs_inverse"),
    "counting": ("hook_length_count",),
    "bijections": ("toggle_pivot", "toggle_pivot_bounded", "arrangement_to_matching",
                   "matching_to_arrangement", "check_beissinger"),
}
HOT_GENERATORS = {"counting": ("generate_involutions",)}
# (module, class) -> constructor counted as a hot call
HOT_INIT = {("core", "Involution"): "core.Involution", ("bijections", "PairState"): "bijections.PairState"}
# hot call -> the caller whose direct calls to it are counted as "<call>.in.<caller>"
NESTED = {"core.Involution": "counting.generate_involutions",
          "bijections.toggle_pivot": "bijections.toggle_pivot_bounded"}


class Tracer:
    """Call counts, self times and spans, kept in memory for one pass."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # frames: [name, child time, span id, parent span id]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.next_span = 0

    def enter(self, name: str, span: bool) -> list:
        parent_span = self.stack[-1][2] if self.stack else None
        if name in NESTED and self.stack and self.stack[-1][0] == NESTED[name]:
            self.counts[f"{name}.in.{NESTED[name]}"] += 1
        if span:
            span_id = self.next_span
            self.next_span += 1
        else:
            span_id = parent_span
        frame = [name, 0.0, span_id, parent_span]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list, start: float, end: float, span: bool) -> None:
        self.stack.pop()
        elapsed = end - start
        name = frame[0]
        self.calls[name] += 1
        self.total_s[name] += elapsed
        self.self_s[name] += elapsed - frame[1]
        if self.stack:
            self.stack[-1][1] += elapsed
        if span:
            self.spans.append((frame[2], name, start, end, frame[3]))

    def wrap(self, name: str, fn, span: bool, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter(name, span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(frame, start, perf_counter(), span)
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def wrap_generator(self, name: str, fn):
        """Time each resumption of a generator as one call; count what it yields."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                frame = tracer.enter(name, False)
                start = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.leave(frame, start, perf_counter(), False)
                tracer.counts[name + ".yielded"] += 1
                yield item
        return traced


def rebind(modules, originals: dict) -> None:
    """Point every module attribute or registry entry bound to an original at its wrapper."""
    def swap(value):
        if isinstance(value, tuple):
            return tuple(swap(v) for v in value)
        return originals.get(id(value), value) if callable(value) else value

    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if attr.startswith("__"):
                continue
            if callable(value) and id(value) in originals:
                setattr(mod, attr, originals[id(value)])
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    value[key] = swap(entry)


def install(tracer: Tracer, mods: dict) -> None:
    counts = tracer.counts

    # hooks read results defensively: a changed return type must not fail the command
    def int_bits(result):
        if isinstance(result, int):
            counts["counting.max_int_bits"] = max(counts["counting.max_int_bits"], result.bit_length())

    def verdict(result):
        counts["identities.terms"] += (len(getattr(result, "lhs_terms", ()))
                                       + len(getattr(result, "rhs_terms", ())))

    def audit(result):
        checks = dict(getattr(result, "checks", ()))
        counts["bijections.states"] += checks.get("states", 0)
        counts["bijections.orbits"] += checks.get("orbits", 0)

    def rendered(result):
        if isinstance(result, str):
            counts["output.render.bytes"] += len(result.encode())

    def loaded(result):
        if isinstance(result, dict):
            counts["output.cache.entries"] += len(result)

    hooks = {"counting": int_bits, "identities": verdict, "bijections.signed_cancellation_audit": audit,
             "output.render": rendered, "output.load_cache": loaded}

    wrappers = {}
    for table, span in ((COARSE, True), (HOT, False)):
        for mod_name, names in table.items():
            for fn_name in names:
                fn = getattr(mods[mod_name], fn_name, None)
                if fn is None:
                    continue
                name = f"{mod_name}.{fn_name}"
                hook = (hooks.get(name) or hooks.get(mod_name)) if span else None
                wrappers[id(fn)] = tracer.wrap(name, fn, span, hook)
    for mod_name, names in HOT_GENERATORS.items():
        for fn_name in names:
            fn = getattr(mods[mod_name], fn_name, None)
            if fn is not None:
                wrappers[id(fn)] = tracer.wrap_generator(f"{mod_name}.{fn_name}", fn)
    rebind(mods.values(), wrappers)

    for (mod_name, cls_name), name in HOT_INIT.items():
        cls = getattr(mods[mod_name], cls_name, None)
        if cls is None:
            continue
        cls.__init__ = tracer.wrap(name, cls.__init__, False)


def memo_functions(mods: dict) -> list:
    return [v for mod in mods.values() for v in vars(mod).values()
            if callable(getattr(v, "cache_clear", None)) and callable(getattr(v, "cache_info", None))]


def run_pass(cmds, traced: bool):
    start = perf_counter()
    cli = importlib.import_module("sytkit.cli")
    import_s = perf_counter() - start
    mods = {name: importlib.import_module(f"sytkit.{name}") for name in MODULES}
    memos = list({id(f): f for f in memo_functions(mods)}.values())
    main = cli.main

    tracer = Tracer() if traced else None
    if traced:
        install(tracer, mods)

    results = []
    hits = misses = 0
    pass_start = perf_counter()
    for argv in cmds:
        for f in memos:
            f.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        frame = tracer.enter("cli.command", True) if traced else None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main.main(args=list(argv), prog_name="sytkit", standalone_mode=False)
            code = code or 0
        except Exception as exc:  # a traceback in a CLI process
            code = getattr(exc, "exit_code", 1)
        finally:
            if traced:
                tracer.leave(frame, t0, perf_counter(), True)
        wall = perf_counter() - t0
        for f in memos:
            info = f.cache_info()
            hits += info.hits
            misses += info.misses
        data = out.getvalue().encode()
        results.append({"exit": code, "sha256": hashlib.sha256(data).hexdigest(), "wall_s": wall})
    pass_s = perf_counter() - pass_start

    summary = {"import_s": import_s, "pass_s": pass_s, "results": results}
    if traced:
        counts = dict(tracer.counts)
        counts["counting.memo.hits"] = hits
        counts["counting.memo.misses"] = misses
        summary.update(calls=dict(tracer.calls), self_s=dict(tracer.self_s),
                       total_s=dict(tracer.total_s), counts=counts)
    return summary, tracer


def main() -> None:
    pass_path, result_path, spans_path = sys.argv[1:4]
    spec = json.loads(Path(pass_path).read_text())
    summary, tracer = run_pass(spec["cmds"], spec["traced"])
    if tracer is not None and spans_path != "-":
        with open(spans_path, "w") as fh:
            for span_id, name, start, end, parent in tracer.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
    with open(result_path, "w") as fh:
        json.dump(summary, fh)


if __name__ == "__main__":
    main()
