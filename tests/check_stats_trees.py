#!/usr/bin/env python3
"""Check the stats trees of a bench --stats-out file.

Every JSON object in the file must hold each key once, and its `sim`
object must hold exactly one stats tree per label. The labels are the
ones given, or else the document's own: one per `<label>.event_hash`
result, which every simulation of a bench records when it exits (a
bare `event_hash` is the unlabelled simulation, filed as `sim`).
With --finite, each named result must also be present and a finite
number (the stats sink writes a non-finite value as null).

Usage: check_stats_trees.py out.json [LABEL...] [--finite=KEY,KEY...]
Exit status: 0 when all of it holds, 1 otherwise.
"""

import collections
import json
import math
import sys

FINITE = "--finite="


def unique_keys(pairs):
    counts = collections.Counter(key for key, _ in pairs)
    dups = sorted(key for key, n in counts.items() if n > 1)
    if dups:
        sys.exit(f"check_stats_trees: duplicate JSON keys {dups}")
    return dict(pairs)


def simulated_labels(doc):
    """The label of every simulation with an `event_hash` result."""
    labels = []
    for key in doc.get("results", {}):
        if key == "event_hash":
            labels.append("sim")
        elif key.endswith(".event_hash"):
            labels.append(key[:-len(".event_hash")])
    return labels


def main():
    args = [a for a in sys.argv[1:] if not a.startswith(FINITE)]
    finite = [key for a in sys.argv[1:] if a.startswith(FINITE)
              for key in a[len(FINITE):].split(",") if key]
    if not args:
        sys.exit(__doc__)
    path = args[0]
    with open(path, encoding="utf-8") as f:
        doc = json.load(f, object_pairs_hook=unique_keys)
    labels = sorted(args[1:] or simulated_labels(doc))
    if not labels:
        sys.exit(f"check_stats_trees: '{path}' records no simulation")
    trees = sorted(doc.get("sim", {}))
    if trees != labels:
        sys.exit(f"check_stats_trees: '{path}' holds stats trees "
                 f"{trees}, expected {labels}")
    print(f"OK   {path}: one stats tree per label {trees}")
    results = doc.get("results", {})
    for key in finite:
        value = results.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            found = json.dumps(value) if key in results else "missing"
            sys.exit(f"check_stats_trees: '{path}' result {key} is "
                     f"{found}, expected a finite number")
        print(f"OK   {key} = {value}")


if __name__ == "__main__":
    main()
