#!/usr/bin/env python3
"""Event-hash gate: a rerun must reproduce a reference bench run's
event streams bit for bit.

Both inputs are --stats-out files written by a bench (BenchResults
format: {"bench": ..., "results": {...}, "sim": {...}}). Every
`<case>.event_hash` result, or the bare `event_hash` that single-point
scenarios such as soc_point write, must match between the two runs.

Modes:

  (default)   restore determinism: the cold run executed end to end
              while writing a mid-run checkpoint; the warm run
              restored that checkpoint and executed only the suffix.
              The restored determinism verifier resumes the cold run's
              hash stream (docs/checkpointing.md), so any divergence
              means the restored state was not equivalent to the cold
              run's at the checkpoint boundary. Any two runs of one
              configuration compare the same way (determinism gate).
  --supervisor=<supervisor.json>
              supervised recovery (docs/resilience.md): the second run
              was supervised, its first attempt was killed mid-flight
              (or hung) and a retry resumed from the newest rotated
              checkpoint. The supervisor's summary must also prove a
              recovery happened: success with >= 2 attempts, at least
              one classified failure, and at least one restart from a
              checkpoint (--allow-cold-recovery accepts a recovery
              that restarted cold because no rotation existed yet). A
              kill that landed after the run finished would otherwise
              pass the hash check without exercising recovery at all.

Exit status: 0 when every check passes, 1 otherwise.

Usage: check_restore.py cold.json warm.json
       check_restore.py cold.json recovered.json \\
           --supervisor=sup/supervisor.json [--allow-cold-recovery]
"""

import argparse
import json
import sys

HASH_SUFFIX = ".event_hash"
WALL_SUFFIX = ".wall_ms"


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


def check_supervisor(path, allow_cold):
    doc = load_json(path, "supervisor summary")
    failures = 0
    if not doc.get("succeeded"):
        print("FAIL supervisor: run did not succeed "
              f"(gave_up={doc.get('gave_up')})")
        failures += 1
    attempts = doc.get("attempts", 0)
    if attempts < 2:
        print(f"FAIL supervisor: {attempts} attempt(s) — no failure "
              "was injected, recovery was not exercised")
        failures += 1
    recs = doc.get("failures", [])
    if not recs:
        print("FAIL supervisor: no classified failures on record")
        failures += 1
    for rec in recs:
        cls = rec.get("class", "?")
        tick = rec.get("recovered_from_tick", 0)
        origin = f"checkpoint tick {tick}" if tick else "cold start"
        print(f"info supervisor: attempt {rec.get('attempt')} "
              f"failed as '{cls}' ({rec.get('detail', '')}); "
              f"next attempt from {origin}")
    warm = any(rec.get("recovered_from_tick", 0) > 0 for rec in recs)
    if not warm and not allow_cold:
        print("FAIL supervisor: every retry was a cold restart — "
              "no checkpoint recovery was exercised (pass "
              "--allow-cold-recovery if that is expected)")
        failures += 1
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("cold", help="stats-out file of the cold run")
    parser.add_argument("warm", help="stats-out file of the warm, "
                        "repeated or supervised run")
    parser.add_argument("--supervisor", metavar="SUPERVISOR_JSON",
                        help="supervisor.json of a supervised warm run "
                        "(supervised-recovery mode)")
    parser.add_argument("--allow-cold-recovery", action="store_true",
                        help="accept recovery without a checkpoint")
    args = parser.parse_args(argv)
    if args.allow_cold_recovery and not args.supervisor:
        parser.error("--allow-cold-recovery needs --supervisor")
    other = "recovered" if args.supervisor else "warm"

    failures = 0
    if args.supervisor:
        failures += check_supervisor(args.supervisor,
                                     args.allow_cold_recovery)

    cold = load_results(args.cold)
    warm = load_results(args.warm)
    cold_hashes = hash_keys(cold)
    warm_hashes = hash_keys(warm)
    if not cold_hashes:
        sys.exit("check_restore: no *.event_hash results in the cold "
                 "run — pass --check-determinism to the bench")

    for key in sorted(cold_hashes):
        case = case_of(key)
        if key not in warm_hashes:
            print(f"FAIL {case}: missing from the {other} run")
            failures += 1
            continue
        ch, wh = cold_hashes[key], warm_hashes[key]
        if ch == 0 or wh == 0:
            print(f"FAIL {case}: hash is zero (determinism check "
                  "was off in one of the runs)")
            failures += 1
        elif ch != wh:
            print(f"FAIL {case}: cold hash {ch:.0f} != {other} hash "
                  f"{wh:.0f} — the {other} run diverged")
            failures += 1
        else:
            speed = ""
            cw = cold.get(case + WALL_SUFFIX)
            ww = warm.get(case + WALL_SUFFIX)
            if cw and ww:
                speed = (f" (wall {cw:.0f} ms cold -> {ww:.0f} ms "
                         f"{other}, {cw / ww:.2f}x)")
            print(f"OK   {case}: hash {ch:.0f}{speed}")

    for key in sorted(set(warm_hashes) - set(cold_hashes)):
        print(f"FAIL {case_of(key)}: present only in the {other} run")
        failures += 1

    if failures:
        print(f"check_restore: {failures} check(s) failed",
              file=sys.stderr)
        return 1
    print(f"check_restore: {len(cold_hashes)} case(s) reproduced the "
          "cold event stream exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
