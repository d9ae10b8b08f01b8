#!/usr/bin/env python3
"""Run comparator: a second bench run must reproduce a reference run.

Both inputs are --stats-out files written by a bench (BenchHarness
format: {"bench": ..., "results": {...}, "sim": {...}}).

Modes:

  (default)   restore determinism: the cold run executed end to end
              while writing a mid-run checkpoint; the warm run
              restored that checkpoint and executed only the suffix.
              Every `<case>.event_hash` result, or the bare
              `event_hash` that single-point scenarios such as
              soc_point write, must match bit for bit. The restored
              determinism verifier resumes the cold run's hash stream
              (docs/checkpointing.md), so any divergence means the
              restored state was not equivalent to the cold run's at
              the checkpoint boundary. Any two runs of one
              configuration compare the same way (determinism gate).
  --supervisor=<supervisor.json>
              supervised recovery (docs/resilience.md): the second run
              was supervised, its first attempt was killed mid-flight
              (or hung) and a retry resumed each simulation from the
              newest rotated checkpoint in its label's directory.
              Hashes must match as above, and the supervisor's
              summary must also prove a recovery happened: success
              with >= 2 attempts, at least one classified failure,
              and at least one label that restarted from a
              checkpoint (--allow-cold-recovery accepts a recovery
              that restarted cold because no rotation existed yet). A
              kill that landed after the run finished would otherwise
              pass the hash check without exercising recovery at all.
  --replay    trace replay (docs/scheduling.md): the reference run
              executed shaders (typically while writing a traffic
              trace with --capture-trace); the second re-drove the
              memory system from that trace with --replay-trace.
              Replay is a timing approximation, so instead of hashes
              this mode compares the figure's normalized results
              (`*_norm` keys, the bars-normalized-to-BAS shape) within
              an absolute --tolerance, and requires the replay to be
              --min-speedup times faster on summed `*.wall_ms`: a
              replay that is no faster than execution has lost its
              reason to exist.

Exit status: 0 when every check passes, 1 otherwise.

Usage: check_restore.py cold.json warm.json
       check_restore.py cold.json recovered.json \\
           --supervisor=sup/supervisor.json [--allow-cold-recovery]
       check_restore.py exec.json replay.json --replay \\
           [--tolerance 0.25] [--min-speedup 1.2]
"""

import argparse
import json
import sys

HASH_SUFFIX = ".event_hash"
NORM_SUFFIX = "_norm"
WALL_SUFFIX = ".wall_ms"


class Report:
    """OK/FAIL lines on stdout, counting the failures."""

    def __init__(self):
        self.failures = 0

    def ok(self, what, detail):
        print(f"OK   {what}: {detail}")

    def fail(self, what, detail):
        print(f"FAIL {what}: {detail}")
        self.failures += 1


def hash_keys(results):
    """Hash-carrying result keys: `<case>.event_hash` from the grid
    benches, or a bare `event_hash` from single-point scenarios."""
    return {k: v for k, v in results.items()
            if k == "event_hash" or k.endswith(HASH_SUFFIX)}


def case_of(key):
    return key[: -len(HASH_SUFFIX)] if key.endswith(HASH_SUFFIX) \
        else "(run)"


def load_json(path, what):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"check_restore: cannot read {what} '{path}': {err}")


def load_results(path):
    results = load_json(path, "stats-out file").get("results")
    if not isinstance(results, dict):
        sys.exit(f"check_restore: '{path}' has no results object — "
                 "was the bench run with --stats-out?")
    return results


def compare_keys(ref, run, other, label, judge, report):
    """judge(key, ref_value, run_value) every key of `ref`; a key on
    only one side fails."""
    for key in sorted(ref):
        if key in run:
            judge(key, ref[key], run[key])
        else:
            report.fail(label(key), f"missing from the {other} run")
    for key in sorted(set(run) - set(ref)):
        report.fail(label(key), f"present only in the {other} run")


def check_supervisor(path, allow_cold, report):
    doc = load_json(path, "supervisor summary")
    if not doc.get("succeeded"):
        report.fail("supervisor", "run did not succeed "
                    f"(gave_up={doc.get('gave_up')})")
    attempts = doc.get("attempts", 0)
    if attempts < 2:
        report.fail("supervisor", f"{attempts} attempt(s) — no failure "
                    "was injected, recovery was not exercised")
    recs = doc.get("failures", [])
    if not recs:
        report.fail("supervisor", "no classified failures on record")
    for rec in recs:
        cls = rec.get("class", "?")
        ticks = rec.get("recovered_from_ticks", {})
        origin = ", ".join(
            f"{label} from checkpoint tick {tick}" if tick else
            f"{label} cold" for label, tick in sorted(ticks.items()))
        print(f"info supervisor: attempt {rec.get('attempt')} "
              f"failed as '{cls}' ({rec.get('detail', '')}); "
              f"next attempt: {origin or 'cold start'}")
    # Warm when any label's simulation resumed from a checkpoint.
    warm = any(tick > 0 for rec in recs
               for tick in rec.get("recovered_from_ticks", {}).values())
    if not warm and not allow_cold:
        report.fail("supervisor", "every retry was a cold restart — "
                    "no checkpoint recovery was exercised (pass "
                    "--allow-cold-recovery if that is expected)")


def compare_hashes(cold, warm, other, report):
    cold_hashes = hash_keys(cold)
    if not cold_hashes:
        sys.exit("check_restore: no *.event_hash results in the cold "
                 "run — pass --check-determinism to the bench")

    def judge(key, ch, wh):
        case = case_of(key)
        if ch == 0 or wh == 0:
            report.fail(case, "hash is zero (determinism check was "
                        "off in one of the runs)")
        elif ch != wh:
            report.fail(case, f"cold hash {ch:.0f} != {other} hash "
                        f"{wh:.0f} — the {other} run diverged")
        else:
            speed = ""
            cw = cold.get(case + WALL_SUFFIX)
            ww = warm.get(case + WALL_SUFFIX)
            if cw and ww:
                speed = (f" (wall {cw:.0f} ms cold -> {ww:.0f} ms "
                         f"{other}, {cw / ww:.2f}x)")
            report.ok(case, f"hash {ch:.0f}{speed}")

    compare_keys(cold_hashes, hash_keys(warm), other, case_of, judge,
                 report)
    return (f"{len(cold_hashes)} case(s) reproduced the cold event "
            "stream exactly")


def compare_replay(exe, rep, tolerance, min_speedup, report):
    def norms(results):
        return {k: v for k, v in results.items()
                if k.endswith(NORM_SUFFIX)}

    exe_norms = norms(exe)
    if not exe_norms:
        sys.exit("check_restore: no *_norm results in the exec run — "
                 "is this a figure bench's --stats-out?")
    worst = 0.0

    def judge(key, ev, rv):
        nonlocal worst
        delta = abs(ev - rv)
        worst = max(worst, delta)
        detail = f"exec {ev:.3f} vs replay {rv:.3f} (|delta| {delta:.3f}"
        if delta > tolerance:
            report.fail(key, f"{detail} > {tolerance:g}) — the "
                        "replayed shape drifted")
        else:
            report.ok(key, detail + ")")

    compare_keys(exe_norms, norms(rep), "replay", str, judge, report)

    exe_wall = sum(v for k, v in exe.items() if k.endswith(WALL_SUFFIX))
    rep_wall = sum(v for k, v in rep.items() if k.endswith(WALL_SUFFIX))
    if exe_wall <= 0 or rep_wall <= 0:
        report.fail("speedup", "missing *.wall_ms results in one of "
                    "the runs")
        return ""
    speedup = exe_wall / rep_wall
    detail = (f"exec {exe_wall:.0f} ms vs replay {rep_wall:.0f} ms "
              f"({speedup:.2f}x")
    if speedup < min_speedup:
        report.fail("speedup", f"{detail} < {min_speedup:g}x) — replay "
                    "is not earning its keep")
    else:
        report.ok("speedup", detail + ")")
    return (f"{len(exe_norms)} norm(s) within {tolerance:g} (worst "
            f"{worst:.3f}), replay {speedup:.1f}x faster")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("reference", help="stats-out file of the cold "
                        "(or execution-driven) run")
    parser.add_argument("run", help="stats-out file of the warm, "
                        "repeated, supervised or replayed run")
    parser.add_argument("--supervisor", metavar="SUPERVISOR_JSON",
                        help="supervisor.json of a supervised run "
                        "(supervised-recovery mode)")
    parser.add_argument("--allow-cold-recovery", action="store_true",
                        help="accept recovery without a checkpoint")
    parser.add_argument("--replay", action="store_true",
                        help="trace-replay mode: compare *_norm "
                        "results and the speedup instead of hashes")
    parser.add_argument("--tolerance", type=float,
                        help="--replay: max absolute delta per *_norm "
                        "result (default 0.25; quick-run deltas "
                        "measure under 0.08)")
    parser.add_argument("--min-speedup", type=float,
                        help="--replay: required exec/replay wall-time "
                        "ratio (default 1.2; measured ~10x)")
    args = parser.parse_args(argv)
    if args.allow_cold_recovery and not args.supervisor:
        parser.error("--allow-cold-recovery needs --supervisor")
    if args.replay and args.supervisor:
        parser.error("--replay and --supervisor are separate modes")
    if not args.replay and (args.tolerance is not None or
                            args.min_speedup is not None):
        parser.error("--tolerance and --min-speedup need --replay")

    report = Report()
    if args.supervisor:
        check_supervisor(args.supervisor, args.allow_cold_recovery,
                         report)
    ref = load_results(args.reference)
    run = load_results(args.run)
    if args.replay:
        summary = compare_replay(
            ref, run,
            0.25 if args.tolerance is None else args.tolerance,
            1.2 if args.min_speedup is None else args.min_speedup,
            report)
    else:
        summary = compare_hashes(
            ref, run, "recovered" if args.supervisor else "warm", report)

    if report.failures:
        print(f"check_restore: {report.failures} check(s) failed",
              file=sys.stderr)
        return 1
    print(f"check_restore: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
