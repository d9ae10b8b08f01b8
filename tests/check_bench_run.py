#!/usr/bin/env python3
"""Run one emerald_bench command and check how it ends.

  check_bench_run.py --traces DIR LABEL... -- BENCH ARGS...
      Runs the command with --trace-file=DIR/t.json and
      --stats-out=DIR/s.json appended; it must exit 0. DIR must then
      hold exactly one trace per label, t.<LABEL>.json, that json.load
      parses (each is deleted once it parses: they run to tens of MB),
      and s.json one stats tree per label (check_stats_trees.py).
  check_bench_run.py --fatal REGEX -- BENCH ARGS...
      The command must exit nonzero, printing a match for REGEX.
  check_bench_run.py --listed NAME=MODE... -- BENCH --list
      Every row of the listing must have four tab-separated columns
      (name, kind, description, quick or full), and each NAME's last
      column must be MODE.
"""

import json
import os
import re
import shutil
import subprocess
import sys


def main(mode, args, cmd):
    if mode == "--fatal":
        run = subprocess.run(cmd, capture_output=True, text=True)
        output = run.stdout + run.stderr
        print(output, end="")
        if run.returncode == 0 or not re.search(args[0], output):
            sys.exit(f"check_bench_run: no fatal exit matching {args[0]}")
        return
    if mode == "--listed":
        rows = subprocess.run(cmd, capture_output=True, text=True,
                              check=True).stdout.splitlines()
        modes = {}
        for row in rows:
            cols = row.split("\t")
            if len(cols) != 4 or cols[3] not in ("quick", "full"):
                sys.exit(f"check_bench_run: bad --list row {row!r}")
            modes[cols[0]] = cols[3]
        for want in args:
            name, mode_want = want.split("=")
            if modes.get(name) != mode_want:
                sys.exit(f"check_bench_run: {name} listed "
                         f"{modes.get(name)}, expected {mode_want}")
            print(f"OK   {name} {mode_want}")
        return
    out_dir, labels = args[0], args[1:]
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    stats = os.path.join(out_dir, "s.json")
    subprocess.run(cmd + [f"--trace-file={out_dir}/t.json",
                          f"--stats-out={stats}"], check=True)
    for label in labels:
        trace = os.path.join(out_dir, f"t.{label}.json")
        with open(trace, encoding="utf-8") as f:
            json.load(f)
        os.remove(trace)
        print(f"OK   t.{label}.json parses")
    others = [f for f in os.listdir(out_dir) if f.startswith("t.")]
    if others:
        sys.exit(f"check_bench_run: traces of no label: {others}")
    tool = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "check_stats_trees.py")
    subprocess.run([sys.executable, tool, stats] + labels, check=True)


if __name__ == "__main__":
    if len(sys.argv) < 5 or "--" not in sys.argv or \
            sys.argv[1] not in ("--fatal", "--traces", "--listed"):
        sys.exit(__doc__)
    split = sys.argv.index("--")
    try:
        main(sys.argv[1], sys.argv[2:split], sys.argv[split + 1:])
    except (OSError, ValueError, subprocess.CalledProcessError) as err:
        sys.exit(f"check_bench_run: {err}")
