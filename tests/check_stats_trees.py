#!/usr/bin/env python3
"""Check the stats trees of a bench --stats-out file.

Every JSON object in the file must hold each key once, and its `sim`
object must hold exactly one stats tree per label. The labels are the
ones given, or else the document's own: one per `<label>.event_hash`
result, which every simulation of a bench records when it exits (a
bare `event_hash` is the unlabelled simulation, filed as `sim`).

Usage: check_stats_trees.py out.json [LABEL...]
Exit status: 0 when both hold, 1 otherwise.
"""

import collections
import json
import sys


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
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    path = sys.argv[1]
    with open(path, encoding="utf-8") as f:
        doc = json.load(f, object_pairs_hook=unique_keys)
    labels = sorted(sys.argv[2:] or simulated_labels(doc))
    if not labels:
        sys.exit(f"check_stats_trees: '{path}' records no simulation")
    trees = sorted(doc.get("sim", {}))
    if trees != labels:
        sys.exit(f"check_stats_trees: '{path}' holds stats trees "
                 f"{trees}, expected {labels}")
    print(f"OK   {path}: one stats tree per label {trees}")


if __name__ == "__main__":
    main()
