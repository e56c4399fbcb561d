"""Quick self-test of the benchmark at tiny sizes (about half a minute).

    python3 bench/selftest.py

Run from the root of a checkout.  Checks that the metric names each mode
emits are exactly those declared in BENCHMARK.json, that the correctness
gate rejects a corrupted digest, a wrong exit code and a wrong count, and
that two traced passes over the same commands give identical exact counters.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def tiny_workload(out_dir) -> workloads.Workload:
    sweep = ("--format", "json", "verify", "wilf", "--k", "2", "--n", "1..3")
    code, out = run.cli(sweep)
    cache = out_dir / "counts.cache"
    cmds = [
        workloads.Cmd(sweep, workloads.digest_gate(code, workloads.sha256(out)),
                      workloads.values_produced),
        workloads.count_command("csv", cache, False, "y", 3, 0, 6),
        workloads.count_command("table", cache, True, "y", 4, 5, 9),
        workloads.Cmd(("--format", "json", "audit", "--n", "2", "--k", "1"),
                      lambda code, out: code == 0, workloads.states_audited),
    ]
    return workloads.Workload("tiny", cmds, 1, cache, {"commands_per_pass": len(cmds)})


def check(cond: bool, what: str, failures: list[str]) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def main() -> int:
    failures: list[str] = []
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    out_dir = run.ROOT / ".bench_out" / "selftest"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    wl = tiny_workload(out_dir)

    with run.Launcher(out_dir) as launcher:
        plain = run.untraced(wl, 0, launcher)
        traced = [run.traced(wl, out_dir, launcher) for _ in range(2)]
    check(plain["failed"] == 0, "tiny untraced run passes its gates", failures)
    check(set(plain["metrics"]) == {m["name"] for m in declared["end_to_end"]},
          "--trace 0 emits exactly the declared end_to_end metrics", failures)
    check(all(v > 0 for v, _ in plain["metrics"].values()), "no end_to_end metric is 0", failures)

    check(all(t["failed"] == 0 for t in traced),
          "traced and untraced passes agree command for command", failures)
    check(set(traced[0]["metrics"]) == {m["name"] for m in declared["per_layer"]},
          "--trace 1 emits exactly the declared per_layer metrics", failures)
    check(all(traced[0]["detail"][k] == traced[1]["detail"][k] for k in ("calls", "counts")),
          "exact counters repeat across two traced runs", failures)
    run.reset_cache(wl)

    sweep, count = wl.cmds[0], wl.cmds[1]
    _, out = run.cli(count.argv)
    code, sweep_out = run.cli(sweep.argv)
    corrupted = workloads.digest_gate(code, "0" * 64)
    check(not corrupted(code, sweep_out), "gate rejects a corrupted digest", failures)
    check(not sweep.gate(code + 1, sweep_out), "gate rejects a wrong exit code", failures)
    last = out.rstrip().rsplit(b",", 1)
    wrong = last[0] + b"," + str(int(last[1]) + 1).encode() + b"\n"
    check(count.gate(0, out) and not count.gate(0, wrong), "gate rejects a wrong count", failures)
    run.reset_cache(wl)

    print("self-test " + ("passed" if not failures else f"FAILED: {len(failures)} checks"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
