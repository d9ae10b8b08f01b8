#!/usr/bin/env python3
"""Check that every stat a doc names exists in a bench's stats dump.

  check_doc_stats.py DOC -- BENCH ARGS...

Runs the command with --stats-out=<tmp>/s.json appended (it must exit
0), then reads DOC's stat sections: the `##` sections whose heading
names a stat in backticks. Every backticked stat name in them must
match a stat of some tree under the dump's `sim`:

- A stat name starts with a lowercase letter, `<` or `*`, holds only
  letters, digits, `_`, `.`, `*` and `<placeholder>`s, and has a `.`
  or a `_` in it. Code, flags, paths and expressions are not.
- A name followed by the word "event" is an event name, not a stat.
- `*` and a `<placeholder>` (`<core>`, `<component>`) stand for one
  or more dotted components.
- A dotted name must match a whole stat path (`gpu.sc0.quiet_ticks`);
  a bare name (`quiet_ticks`) matches a path's last component.
"""

import json
import os
import re
import subprocess
import sys
import tempfile

STAT = re.compile(r"[a-z<*][A-Za-z0-9_.<>*]*")
SPAN = re.compile(r"`([^`]+)`(\s+events?\b)?")


def is_stat(text):
    return STAT.fullmatch(text) is not None and ("." in text or "_" in text)


def sections(doc):
    """(heading, body) of each `##` section, fenced code left out."""
    heading, body, fenced = None, [], False
    with open(doc, encoding="utf-8") as f:
        for line in f:
            if line.startswith("```"):
                fenced = not fenced
                continue
            if fenced:
                continue
            if line.startswith("#"):
                if heading is not None:
                    yield heading, "".join(body)
                heading, body = line, []
            else:
                body.append(line)
    if heading is not None:
        yield heading, "".join(body)


def doc_stat_names(doc):
    names = []
    for heading, body in sections(doc):
        if not heading.startswith("## ") or not any(
                is_stat(span) for span, _ in SPAN.findall(heading)):
            continue
        for span, event in SPAN.findall(heading + body):
            if not event and is_stat(span) and span not in names:
                names.append(span)
    return names


def dump_stat_paths(stats_file):
    with open(stats_file, encoding="utf-8") as f:
        trees = json.load(f)["sim"]
    paths = set()

    def walk(group, prefix):
        for stat in group.get("stats", {}):
            paths.add(prefix + stat)
        for name, child in group.get("groups", {}).items():
            walk(child, prefix + name + ".")

    for tree in trees.values():
        walk(tree, "")
    return paths


def pattern(name):
    parts = re.split(r"(\*|<[^>]+>)", name)
    regex = "".join(".+" if p == "*" or p.startswith("<") else re.escape(p)
                    for p in parts)
    return re.compile(regex if "." in name else r"(?:.+\.)?" + regex)


def main(doc, cmd):
    names = doc_stat_names(doc)
    if not names:
        sys.exit(f"check_doc_stats: no stat names found in {doc}")
    with tempfile.TemporaryDirectory() as tmp:
        stats = os.path.join(tmp, "s.json")
        subprocess.run(cmd + [f"--stats-out={stats}"], check=True,
                       stdout=subprocess.DEVNULL)
        paths = dump_stat_paths(stats)
    missing = []
    for name in names:
        regex = pattern(name)
        hit = next((p for p in sorted(paths) if regex.fullmatch(p)), None)
        print(f"{'OK  ' if hit else 'MISS'} {name}" +
              (f" ({hit})" if hit else ""))
        if not hit:
            missing.append(name)
    if missing:
        sys.exit(f"check_doc_stats: {len(missing)} of {len(names)} stat "
                 f"names in {doc} match nothing in the dump: {missing}")


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[2] != "--":
        sys.exit(__doc__)
    try:
        main(sys.argv[1], sys.argv[3:])
    except (OSError, ValueError, KeyError,
            subprocess.CalledProcessError) as err:
        sys.exit(f"check_doc_stats: {err}")
