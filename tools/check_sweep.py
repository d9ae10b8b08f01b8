#!/usr/bin/env python3
"""Sweep gate: the results store must be complete, intact, and match
the execution-driven reference shape.

Inputs are a sweep results DB (written by emerald_sweep's children via
--stats-out=sqlite:...) and the sweep's manifest.json. Checks:

  1. SQLite integrity (PRAGMA integrity_check) and the expected
     schema (sweep_meta/runs/run_params/stats/run_failures,
     schema_version 1).
  2. Every manifest point has a committed 'done' run, and every run
     carries stats rows — a killed-and-resumed sweep that silently
     dropped a point fails here. With --allow-quarantined, a point
     the orchestrator explicitly quarantined (retry budget exhausted,
     see docs/resilience.md) is accounted for rather than missing.
  3. Optionally (--reference): the normalized per-config shape
     computed from SQL (gpu_ms grouped by the config axis, normalized
     to BAS) matches the reference figure's *_norm results within an
     absolute tolerance — the same contract `check_restore.py
     --replay` applies between execution and replay runs.

Exit status: 0 when every check passes, 1 otherwise.

Usage: check_sweep.py sweep.db --manifest out/manifest.json
       [--reference fig12.json --model M2-cube --where fps=60
        --tolerance 0.25]
"""

import argparse
import json
import sqlite3
import sys

from sweep_query import load_runs, shape_of

EXPECTED_TABLES = {"sweep_meta", "runs", "run_params", "stats",
                   "run_failures"}


def fail(msg):
    print(f"FAIL {msg}")
    return 1


def check_integrity(con):
    failures = 0
    row = con.execute("PRAGMA integrity_check").fetchone()
    if row is None or row[0] != "ok":
        failures += fail(f"integrity_check: {row and row[0]}")
    else:
        print("OK   integrity_check")
    tables = {name for (name,) in con.execute(
        "SELECT name FROM sqlite_master WHERE type='table'")}
    missing = EXPECTED_TABLES - tables
    if missing:
        failures += fail(f"schema: missing table(s) {sorted(missing)}")
    else:
        print("OK   schema tables")
    row = con.execute(
        "SELECT value FROM sweep_meta WHERE key='schema_version'"
    ).fetchone()
    if row is None or row[0] != "1":
        failures += fail(f"schema_version: {row and row[0]!r} != '1'")
    else:
        print("OK   schema_version 1")
    return failures


def check_complete(con, manifest_path, git_sha=None,
                   allow_quarantined=False):
    failures = 0
    try:
        with open(manifest_path, encoding="utf-8") as f:
            manifest = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"check_sweep: cannot read '{manifest_path}': {err}")
    points = manifest.get("points", [])
    if not points:
        sys.exit(f"check_sweep: '{manifest_path}' lists no points")

    query = "SELECT run_id, fingerprint FROM runs WHERE status='done'"
    params = ()
    if git_sha:
        query += " AND git_sha=?"
        params = (git_sha,)
    done = {fp: run_id
            for run_id, fp in con.execute(query, params)}
    stat_counts = dict(con.execute(
        "SELECT run_id, COUNT(*) FROM stats GROUP BY run_id"))
    qquery = ("SELECT fingerprint FROM runs "
              "WHERE status='quarantined'")
    quarantined = {fp for (fp,) in con.execute(qquery, ())}

    accounted = 0
    for point in points:
        fp = point.get("fingerprint", "")
        if fp in done:
            if not stat_counts.get(done[fp]):
                failures += fail(f"point {fp}: run committed but has "
                                 "no stats rows")
            continue
        if fp in quarantined:
            # An explicitly quarantined point is accounted for — its
            # budget was exhausted and the DB says so (resilience
            # taxonomy). Only --allow-quarantined accepts that; the
            # default gate still wants every point green.
            if allow_quarantined:
                accounted += 1
                print(f"note quarantined point {fp} "
                      f"({json.dumps(point.get('params'))})")
                continue
            failures += fail(f"point {fp}: quarantined "
                             f"({json.dumps(point.get('params'))})")
            continue
        failures += fail(f"point {fp}: no committed run "
                         f"({json.dumps(point.get('params'))})")
    if not failures:
        print(f"OK   completion: {len(points) - accounted}/"
              f"{len(points)} points committed with stats"
              + (f", {accounted} quarantined" if accounted else ""))
    return failures


def check_shape(con, reference_path, model, where, tolerance,
                git_sha=None):
    failures = 0
    try:
        with open(reference_path, encoding="utf-8") as f:
            reference = json.load(f).get("results", {})
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"check_sweep: cannot read '{reference_path}': "
                 f"{err}")

    runs = load_runs(con, dict(where, model=model), git_sha)
    shape = shape_of(con, runs, "results.gpu_ms", "config")
    if "BAS" not in shape or shape["BAS"] == 0:
        sys.exit("check_sweep: no BAS run to normalize to")
    base = shape["BAS"]

    compared = 0
    for config in sorted(shape):
        ref_key = f"{model}.{config}.gpu_ms_norm"
        if ref_key not in reference:
            failures += fail(f"shape {config}: reference has no "
                             f"'{ref_key}'")
            continue
        norm = shape[config] / base
        delta = abs(norm - reference[ref_key])
        compared += 1
        if delta > tolerance:
            failures += fail(
                f"shape {config}: sweep {norm:.3f} vs reference "
                f"{reference[ref_key]:.3f} (|delta| {delta:.3f} > "
                f"{tolerance:g})")
        else:
            print(f"OK   shape {config}: sweep {norm:.3f} vs "
                  f"reference {reference[ref_key]:.3f} "
                  f"(|delta| {delta:.3f})")
    if not compared:
        failures += fail("shape: nothing compared")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("db", help="sweep results store")
    parser.add_argument("--manifest", required=True,
                        help="manifest.json emerald_sweep wrote")
    parser.add_argument("--reference",
                        help="execution-driven fig12 --stats-out JSON "
                             "to compare the SQL shape against")
    parser.add_argument("--model", default="M2-cube",
                        help="workload whose shape to compare "
                             "(default M2-cube)")
    parser.add_argument("--where", action="append", metavar="k=v",
                        default=[],
                        help="extra param filter for the shape "
                             "selection, e.g. fps=60")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="max absolute delta per normalized bar "
                             "(default 0.25, matching "
                             "check_restore.py --replay)")
    parser.add_argument("--allow-quarantined", action="store_true",
                        help="accept points whose runs.status is "
                             "'quarantined' (chaos sweeps that "
                             "deliberately poison a point)")
    parser.add_argument("--git-sha",
                        help="only consider runs recorded under this "
                             "sha — required when the DB accumulates "
                             "several nightlies (the regress ratchet "
                             "cache)")
    args = parser.parse_args(argv)

    where = {}
    for pair in args.where:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            sys.exit(f"check_sweep: bad --where '{pair}'")
        where[key] = value

    try:
        con = sqlite3.connect(f"file:{args.db}?mode=ro", uri=True)
        con.execute("SELECT 1")
    except sqlite3.Error as err:
        sys.exit(f"check_sweep: cannot open '{args.db}': {err}")

    failures = check_integrity(con)
    failures += check_complete(con, args.manifest, args.git_sha,
                               args.allow_quarantined)
    if args.reference:
        failures += check_shape(con, args.reference, args.model,
                                where, args.tolerance, args.git_sha)

    if failures:
        print(f"check_sweep: {failures} check(s) failed",
              file=sys.stderr)
        return 1
    print("check_sweep: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
