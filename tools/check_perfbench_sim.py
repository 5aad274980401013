#!/usr/bin/env python3
"""Pin perfbench's simulated metrics to tools/perfbench_sim_metrics.json.

Usage (from the repository root):

    python3 tools/check_perfbench_sim.py

Runs `perfbench/run.py --seconds 1 --trace 0` for every workload and
seed in the pinned file and compares the simulated metrics (what the
simulator computed, not how fast it ran) with exact equality — the
standard the byte-pinned goldens hold. A change meant only to make the
simulator faster must leave every one of them untouched. Exits 1 on
any drift or failed perfbench check, printing the observed table so a
deliberate model change can re-pin it by pasting that table over the
file.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINNED = os.path.join(ROOT, "tools", "perfbench_sim_metrics.json")


def run_perfbench(workload, seed):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", seed,
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    with open(PINNED) as f:
        pinned = json.load(f)
    observed = {}
    ok = True
    for workload, seeds in pinned.items():
        observed[workload] = {}
        for seed, metrics in seeds.items():
            report = run_perfbench(workload, seed)
            if report is None or report["failed"] != 0:
                print(f"{workload} seed {seed}: perfbench failed")
                ok = False
                continue
            got = {k: report["metrics"][k]["value"] for k in metrics}
            observed[workload][seed] = got
            for name, want in metrics.items():
                if got[name] != want:
                    print(f"{workload} seed {seed}: {name} = "
                          f"{got[name]!r}, pinned {want!r}")
                    ok = False
    if not ok:
        print("observed:")
        print(json.dumps(observed, indent=2))
        return 1
    print(f"perfbench simulated metrics match {os.path.relpath(PINNED, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
