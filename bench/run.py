"""Benchmark for the sytkit CLI, run from the root of a source checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop with one client, a user or script running one
`sytkit` command at a time and waiting for it.  The program is taken from
`src/` of the checkout; stdlib only.

--trace 0 times whole CLI processes.  After one discarded warm-up pass (so
.pyc compilation and the file cache are not timed) it repeats the workload's
pass until --seconds have gone by, and at least `min_passes` times, with
interpreter set-up sampled after every pass.

Times are scaled to a reference speed (see launcher.py): the launcher
stops each command every 0.1 s to time a fixed loop on the same CPU and
scales each slice of running time by it, because on a shared machine a
core's speed drifts by up to about 2x.  The raw wall times are kept in the
record.  Metrics:

  setup_s      median scaled time of a fresh interpreter importing sytkit.cli
  work_per_s   work units of one pass over the sum of the commands' times,
               each command taken at its median over the passes
  cmd_p50_s    median over the pass's commands of that per-command time,
               spawn to exit
  cmd_tail_s   the per-command time with 10 commands above it, or the
               slowest command when a pass has fewer than 11 (count recorded)
  peak_rss_mb  largest child peak RSS, from os.wait4 per child

--trace 1 runs the warm-up pass as subprocesses, then the same commands in
two fresh interpreters, untraced and traced (see inproc.py), checks that all
three agree command for command, and reports per-layer metrics, with times
scaled the same way.

Every command's exit code and stdout pass a correctness gate (workloads.py);
the last stdout line is the JSON result, and a fuller record is written to
.bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inproc
import workloads

perf_counter = time.perf_counter

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
ENTRY = "from sytkit.cli import main; main()"
SETUP_PER_PASS = 6
TAIL_ABOVE = 10


# ---------------------------------------------------------------- subprocess passes

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # set order fixed, so traced counters repeat exactly
    return env


def cli(argv) -> tuple[int, bytes]:
    """Run one sytkit command untimed: its exit code and stdout."""
    done = subprocess.run([sys.executable, "-c", ENTRY, *argv], env=child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return done.returncode, done.stdout


class Launcher:
    """The small process that spawns every timed command (see launcher.py)."""

    def __init__(self, out_dir: Path) -> None:
        self.stdout = out_dir / "stdout"
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(BENCH / "launcher.py"), str(self.stdout)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        with contextlib.suppress(BrokenPipeError):
            self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str]) -> tuple[dict, bytes]:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited {self.proc.wait()}")
        return json.loads(line), self.stdout.read_bytes()


def reset_cache(wl: workloads.Workload) -> None:
    if wl.cache_path is not None:
        wl.cache_path.unlink(missing_ok=True)


def subprocess_pass(wl: workloads.Workload, launcher: Launcher) -> dict:
    reset_cache(wl)
    runs = []
    units = 0
    for cmd in wl.cmds:
        run, out = launcher.run([sys.executable, "-c", ENTRY, *cmd.argv])
        run["ok"] = cmd.gate(run["exit"], out)
        run["sha256"] = workloads.sha256(out)
        units += cmd.units(out) if run["ok"] else 0
        runs.append(run)
    return {"runs": runs, "units": units}


def tail(samples: list[float]) -> float:
    """The sample with TAIL_ABOVE samples above it, or the largest if there are fewer."""
    ordered = sorted(samples)
    return ordered[-TAIL_ABOVE - 1] if len(ordered) > TAIL_ABOVE else ordered[-1]


def untraced(wl: workloads.Workload, seconds: float, launcher: Launcher) -> dict:
    warm = subprocess_pass(wl, launcher)
    setup, passes = [], []
    start = perf_counter()
    while len(passes) < wl.min_passes or perf_counter() - start < seconds:
        passes.append(subprocess_pass(wl, launcher))
        setup += [launcher.run([sys.executable, "-c", "import sytkit.cli"])[0]
                  for _ in range(SETUP_PER_PASS)]
    measured = [r for p in passes for r in p["runs"]]
    cmd_s = [statistics.median(p["runs"][i]["scaled_s"] for p in passes) for i in range(len(wl.cmds))]
    runs = warm["runs"] + measured
    failed = sum(not r["ok"] for r in runs)
    metrics = {
        "setup_s": (statistics.median(r["scaled_s"] for r in setup), "s"),
        "work_per_s": (passes[0]["units"] / sum(cmd_s), "1/s"),
        "cmd_p50_s": (statistics.median(cmd_s), "s"),
        "cmd_tail_s": (tail(cmd_s), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in measured), "MB"),
    }
    detail = {
        "passes": len(passes),
        "measured_s": perf_counter() - start,
        "setup_samples": len(setup),
        "setup_wall_s": statistics.median(r["wall_s"] for r in setup),
        "units_per_pass": passes[0]["units"],
        "cmd_scaled_s": {workloads.cmd_key(c.argv): t for c, t in zip(wl.cmds, cmd_s)},
        "cmd_wall_s": {workloads.cmd_key(c.argv): [p["runs"][i]["wall_s"] for p in passes]
                       for i, c in enumerate(wl.cmds)},
        "cmd_tail": {"samples": len(cmd_s), "above": min(TAIL_ABOVE, len(cmd_s) - 1)},
        "fail_ratio": failed / len(runs),
        "failed_commands": sorted({workloads.cmd_key(c.argv) for p in [warm, *passes]
                                   for c, r in zip(wl.cmds, p["runs"]) if not r["ok"]}),
    }
    return {"metrics": metrics, "attempted": len(runs), "failed": failed, "detail": detail}


# ---------------------------------------------------------------- traced run

def inproc_pass(wl: workloads.Workload, traced: bool, out_dir: Path, launcher: Launcher) -> dict:
    """One in-process pass (inproc.py), its times scaled to reference speed.

    The pass times itself with its own clock, which also runs while the
    launcher has it stopped; scaled time over elapsed time converts both.
    """
    reset_cache(wl)
    tag = "traced" if traced else "untraced"
    spec, result = out_dir / f"{tag}-pass.json", out_dir / f"{tag}-result.json"
    spec.write_text(json.dumps({"cmds": [list(c.argv) for c in wl.cmds], "traced": traced}))
    spans = out_dir / "spans.jsonl" if traced else "-"
    run, _ = launcher.run([sys.executable, str(BENCH / "inproc.py"), str(spec), str(result), str(spans)])
    if run["exit"] != 0:
        raise RuntimeError(f"{tag} in-process pass exited {run['exit']}")
    summary = json.loads(result.read_text())
    scale = run["scaled_s"] / run["elapsed_s"]
    summary["import_s"] *= scale
    summary["pass_s"] *= scale
    for key in ("self_s", "total_s"):
        summary[key] = {name: t * scale for name, t in summary.get(key, {}).items()}
    return summary


def layer_metrics(t: dict, units: int, untraced_s: float) -> dict:
    calls, self_s, total_s, counts = t["calls"], t["self_s"], t["total_s"], t["counts"]

    def n(name):
        return calls.get(name, 0)

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

    def ratio(a, b):
        return a / b if b else 0.0

    shapes = n("counting.hook_length_count")
    untraced_rate, traced_rate = units / untraced_s, units / t["pass_s"]
    toggles = (n("bijections.toggle_pivot") + n("bijections.toggle_pivot_bounded")
               - counts.get("bijections.toggle_pivot.in.bijections.toggle_pivot_bounded", 0))
    return {
        "cli.import_s": (t["import_s"], "s"),
        "cli.self_s": (self_s.get("cli.command", 0.0), "s"),
        "core.lds.calls": (n("core.lds"), "count"),
        "core.lis.calls": (n("core.lis"), "count"),
        "core.lds.self_s": (self_s.get("core.lds", 0.0), "s"),
        "core.involution.built": (n("core.Involution"), "count"),
        "core.rs.calls": (n("core.rs_of_involution") + n("core.rs_inverse"), "count"),
        "core.rs.self_s": (self_s.get("core.rs_of_involution", 0.0)
                           + self_s.get("core.rs_inverse", 0.0), "s"),
        "core.shape_checks": (n("core.as_shape"), "count"),
        "counting.count.calls": (sum(n(f"counting.{f}") for f in inproc.COARSE["counting"]), "count"),
        "counting.memo.hits": (counts.get("counting.memo.hits", 0), "count"),
        "counting.memo.misses": (counts.get("counting.memo.misses", 0), "count"),
        "counting.shapes": (shapes, "count"),
        "counting.self_s": (layer_self("counting"), "s"),
        "counting.hook.self_s": (self_s.get("counting.hook_length_count", 0.0), "s"),
        "counting.max_int_bits": (counts.get("counting.max_int_bits", 0), "bits"),
        "counting.shape_checks_per_shape": (ratio(n("core.as_shape"), shapes), "ratio"),
        "counting.gen.kept_ratio": (ratio(
            counts.get("counting.generate_involutions.yielded", 0),
            counts.get("core.Involution.in.counting.generate_involutions", 0)), "ratio"),
        "identities.verdicts": (sum(v for k, v in calls.items() if k.startswith("identities.")), "count"),
        "identities.terms": (counts.get("identities.terms", 0), "count"),
        "identities.self_s": (layer_self("identities"), "s"),
        "bijections.states": (counts.get("bijections.states", 0), "count"),
        "bijections.orbits": (counts.get("bijections.orbits", 0), "count"),
        "bijections.toggles": (toggles, "count"),
        "bijections.pairstate.built": (n("bijections.PairState"), "count"),
        "bijections.self_s": (layer_self("bijections"), "s"),
        "output.render.calls": (n("output.render"), "count"),
        "output.render.self_s": (self_s.get("output.render", 0.0), "s"),
        "output.render.bytes": (counts.get("output.render.bytes", 0), "bytes"),
        "output.cache.loads": (n("output.load_cache"), "count"),
        "output.cache.saves": (n("output.save_cache"), "count"),
        "output.cache.entries": (counts.get("output.cache.entries", 0), "count"),
        "output.cache.load_s": (total_s.get("output.load_cache", 0.0), "s"),
        "output.cache.save_s": (total_s.get("output.save_cache", 0.0), "s"),
        "output.cache.verify_s": (self_s.get("output.verify_cache_entries", 0.0), "s"),
        "trace.untraced_work_per_s": (untraced_rate, "1/s"),
        "trace.traced_work_per_s": (traced_rate, "1/s"),
        "trace.overhead_ratio": (traced_rate / untraced_rate, "ratio"),
    }


def traced(wl: workloads.Workload, out_dir: Path, launcher: Launcher) -> dict:
    warm = subprocess_pass(wl, launcher)
    plain = inproc_pass(wl, False, out_dir, launcher)
    trace = inproc_pass(wl, True, out_dir, launcher)
    failed = sum(not r["ok"] for r in warm["runs"])
    mismatches = []
    for i, (cmd, run) in enumerate(zip(wl.cmds, warm["runs"])):
        want = (run["exit"], run["sha256"])
        for tag, p in (("untraced", plain), ("traced", trace)):
            got = p["results"][i]
            if (got["exit"], got["sha256"]) != want:
                mismatches.append(f"{tag}: {workloads.cmd_key(cmd.argv)}")
    failed += len(mismatches)
    detail = {
        "subprocess_failed": [workloads.cmd_key(c.argv) for c, r in zip(wl.cmds, warm["runs"]) if not r["ok"]],
        "inproc_mismatches": mismatches,
        "units_per_pass": warm["units"],
        "untraced_inproc_s": plain["pass_s"],
        "traced_inproc_s": trace["pass_s"],
        "calls": trace["calls"],
        "counts": trace["counts"],
    }
    return {"metrics": layer_metrics(trace, warm["units"], plain["pass_s"]),
            "attempted": 3 * len(wl.cmds), "failed": failed, "detail": detail}


# ---------------------------------------------------------------- main

def environment(args, wl: workloads.Workload) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit, "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "sizes": wl.sizes, "min_passes": wl.min_passes}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "sytkit" / "cli.py").is_file():
        print(f"no sytkit source under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, out_dir)
    try:
        with Launcher(out_dir) as launcher:
            res = traced(wl, out_dir, launcher) if args.trace else untraced(wl, args.seconds, launcher)
    finally:
        reset_cache(wl)

    record = {"env": environment(args, wl), **res,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}}
    (out_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    for name, m in record["metrics"].items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {res['attempted']}  failed {res['failed']}  record {out_dir / 'result.json'}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
