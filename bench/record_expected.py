"""Record exit codes and stdout digests of the fixed workloads' commands.

    python3 bench/record_expected.py

Run from the root of a checkout whose outputs are known to be right; the
result, bench/expected.json, is the correctness gate for identity-sweep and
pair-audit.  Exit codes are recorded, not assumed: `verify naive-failure`
exits 1 at n=1 and n=2 by design.
"""

import json

import run
import workloads


def main() -> None:
    expected = {}
    for argv in workloads.IDENTITY_SWEEP + workloads.PAIR_AUDIT:
        code, out = run.cli(argv)
        expected[workloads.cmd_key(argv)] = {"exit": code, "sha256": workloads.sha256(out)}
        print(code, workloads.cmd_key(argv))
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=2) + "\n")


if __name__ == "__main__":
    main()
