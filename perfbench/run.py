#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/LAYERS.md).

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --table [--seed N] [--seconds S]
  python3 perfbench/run.py --make-reference

The first form builds perfbench/main.exe from source with dune and runs
one workload; the last stdout line is the result JSON. --table runs every
workload untraced and traced and prints every metric by name and unit,
one row per workload. --make-reference rewrites perfbench/reference.txt.

Everything the benchmark writes stays under the current directory:
dune's _build/, and .perfbench/ for native binaries, the C compiler's
temporary files and traced runs' span dumps.
"""

import json
import os
import subprocess
import sys

ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".perfbench")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ["sweep-staged", "sweep-native", "tune-native", "feasible-query"]


def environment():
    env = dict(os.environ)
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    # Binaries always go to a fresh per-run directory; this only keeps a
    # stray default-cache lookup inside the checkout too.
    env["BEAST_NATIVE_CACHE"] = os.path.join(OUT, "default-cache")
    env["DUNE_CACHE"] = "disabled"
    return env


def build(env):
    cmd = ["dune", "build", "--root", ROOT, "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return False
    return done.returncode == 0 and os.path.isfile(EXE)


def option(args, name, default):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def table(args, env):
    seed = option(args, "--seed", "1")
    seconds = option(args, "--seconds", "24")
    rows = {"0": [], "1": []}
    failed = False
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            cmd = [EXE, "--workload", workload, "--seed", seed,
                   "--seconds", seconds, "--trace", trace]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True)
            lines = done.stdout.strip().splitlines()
            sys.stderr.write("\n".join(lines[:-1]) + "\n")
            if done.returncode != 0 or not lines:
                print(f"perfbench: {workload} --trace {trace} failed", file=sys.stderr)
                failed = True
                continue
            result = json.loads(lines[-1])
            failed = failed or not result["correct"]
            rows[trace].append((workload, result))
    for trace, title in (("0", "end-to-end"), ("1", "per-layer (traced run)")):
        if not rows[trace]:
            continue
        names = list(rows[trace][0][1]["metrics"])
        header = ["workload", "correct", "ops", "failed"] + [
            f"{n} [{rows[trace][0][1]['metrics'][n]['unit']}]" for n in names]
        body = [[w, str(r["correct"]).lower(), str(r["attempted"]), str(r["failed"])]
                + [f"{r['metrics'][n]['value']:.6g}" for n in names]
                for w, r in rows[trace]]
        widths = [max(len(row[i]) for row in [header] + body) for i in range(len(header))]
        print(f"{title}, seed {seed}, {seconds} s per run")
        for row in [header] + body:
            print("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
        print()
    return 1 if failed else 0


def main():
    args = sys.argv[1:]
    env = environment()
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if "--table" in args:
        return table(args, env)
    sys.stdout.flush()
    os.execve(EXE, [EXE] + args, env)


if __name__ == "__main__":
    sys.exit(main())
