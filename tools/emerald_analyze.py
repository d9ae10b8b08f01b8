#!/usr/bin/env python3
"""Emerald's static analyzer (docs/static_analysis.md).

Checks the model invariants no compiler or clang-tidy knows about:
every packet comes from the pool, all randomness comes from one seed,
every stateful SimObject lands in a checkpoint, and no mutable state
is reachable from outside a component except through its ports.
`--list-rules` prints the rule registry (RULES below).

Engines:

  ast      clang `-Xclang -ast-dump=json -fsyntax-only` over
           compile_commands.json (no libclang).  Authoritative for the
           rules it implements; rules without an AST implementation
           (the line rules) still run textually under it.
  textual  comment-stripped scope tracking and line patterns; runs
           anywhere, carries the local ctest gate on machines without
           clang.
  auto     ast when clang + compile_commands.json are found, else
           textual (with a note saying so).

A whole-tree run (no paths given) first holds its engine to
tests/analyze_fixtures/: every `// EXPECT: <rule>` annotation must be
reported and nothing unannotated may be, so a rule that stops matching
fails instead of printing "clean".

Findings are suppressed only by tools/analyze_allowlist.txt entries of
the form `rule path symbol -- justification`; the justification is
mandatory.  Exit status is the number of unallowlisted findings plus
fixture mismatches (capped at 99).
"""

import argparse
import gzip
import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

SRC_SUFFIXES = {".cc", ".hh", ".cpp", ".hpp", ".h"}

FIXTURES = Path("tests") / "analyze_fixtures"
EXPECT_RE = re.compile(r"//\s*EXPECT:\s*([\w-]+)")

# Port/registry/kernel types a component may legitimately point at:
# the seams the shard partitioner can cut (or per-shard kernel state).
INTERFACE_TYPES = {
    "SimObject", "Simulation", "SimulationBuilder", "EventQueue",
    "Event", "EventFunction", "MemSink", "MemClient", "StatGroup",
    "FaultDomain", "FaultInjector", "CheckContext", "ClockDomain",
    "TraceSink", "StatsSink",
}

ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
              "<<=", ">>="}


class Finding:
    def __init__(self, rule, path, line, symbol, message):
        self.rule = rule
        self.path = path          # repo-relative, forward slashes
        self.line = line
        self.symbol = symbol
        self.message = message

    def key(self):
        return (self.rule, self.path, self.line, self.symbol)

    def __str__(self):
        return (f"{self.path}:{self.line}: [{self.rule}] "
                f"{self.symbol}: {self.message}")


# allowlist -----------------------------------------------------------

ALLOW_RE = re.compile(
    r"^(?P<rule>[\w-]+)\s+(?P<path>\S+)\s+(?P<symbol>\S+)"
    r"\s+--\s+(?P<why>\S.*)$")


def load_allowlist(path):
    """Parse `rule path symbol -- justification` lines."""
    entries = []
    if not path.exists():
        return entries
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = ALLOW_RE.match(line)
        if not match:
            sys.exit(f"{path}:{lineno}: bad allowlist entry (need "
                     f"`rule path symbol -- justification`): {line}")
        if match.group("rule") not in RULES:
            sys.exit(f"{path}:{lineno}: unknown rule "
                     f"'{match.group('rule')}'")
        entries.append({"rule": match.group("rule"),
                        "path": match.group("path"),
                        "symbol": match.group("symbol"),
                        "why": match.group("why"),
                        "used": False})
    return entries


def allowed(finding, entries):
    for entry in entries:
        if entry["rule"] != finding.rule:
            continue
        if entry["path"] != finding.path:
            continue
        if entry["symbol"] not in ("*", finding.symbol):
            continue
        entry["used"] = True
        return True
    return False


# textual engine ------------------------------------------------------

# Scope kinds for the brace tracker.
NS, CLASS, FUNC, ENUM, OTHER = "ns", "class", "func", "enum", "other"

DECL_SKIP_RE = re.compile(
    r"^\s*(using|typedef|friend|extern|template|return|case|goto|"
    r"public|private|protected|static_assert|namespace)\b")
FWD_DECL_RE = re.compile(r"^\s*(class|struct|enum|union)\b[^{=]*$")
STATIC_RE = re.compile(r"\b(?:inline\s+)?static\b(?!_cast|_assert)")
CONSTISH_RE = re.compile(r"\b(const|constexpr|constinit)\b")
SYMBOL_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*$")

# `) const ... {` introduces a const member-function body.
CONST_METHOD_RE = re.compile(r"\)\s*const\b[^;{}]*\{")
# A write to a member (`_x = v`, `++_x`, `_x += v`, `this->x = v`).
MEMBER_WRITE_RE = re.compile(
    r"(\+\+|--)\s*(?:this->)?(_\w+)|"
    r"\b(?:this->)?(_\w+)(?:\[[^\]]*\])?\s*"
    r"(?:(\+\+|--)|(?<![<>=!+\-*/&|^])(?:[+\-*/%&|^]|<<|>>)?=(?!=))")

MUTABLE_FIELD_RE = re.compile(
    r"^\s*mutable\s+[\w:<>,\s*&\[\]]+?([A-Za-z_]\w*)\s*"
    r"(=[^;]*|\{[^;]*)?;")

FIELD_PTR_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?P<type>[A-Za-z_][\w:]*(?:<[^;]*>)?)"
    r"(?:\s+const)?\s*(?P<ptr>[*&]+)\s*(?:const\s+)?"
    r"(?P<name>[A-Za-z_]\w*)\s*(=[^;]*|\{[^;]*\})?;")

CLASS_HEAD_RE = re.compile(
    r"\b(class|struct)\s+(?:\[\[[^\]]*\]\]\s*)?"
    r"(?:EMERALD_\w+\s+)?(?P<name>[A-Za-z_]\w*)\s*"
    r"(?:final\s*)?(?::\s*(?P<bases>[^{;]+))?$")

CAPTURE_SINK_RE = re.compile(
    r"(?:\b(?:re)?schedule\w*\s*\(|\bEventFunction\b\s*\w*\s*[({])")
LAMBDA_CAPTURE_RE = re.compile(r"\[([^\[\]]*)\]\s*(?:\([^)]*\))?\s*"
                               r"(?:mutable\s*)?(?:->[^{]*)?\{")


def _strip_parens(text):
    """Blank out balanced parenthesis contents."""
    out, depth = [], 0
    for ch in text:
        if ch == "(":
            depth += 1
            out.append(ch)
        elif ch == ")":
            depth = max(0, depth - 1)
            out.append(ch)
        else:
            out.append(ch if depth == 0 else " ")
    return "".join(out)


def _strip_templates(text):
    out, depth = [], 0
    for ch in text:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth = max(0, depth - 1)
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def _base_type(type_text):
    """`const emerald::mem::Cache` -> `Cache`."""
    text = _strip_templates(type_text)
    text = re.sub(r"\b(const|volatile|struct|class)\b", " ", text)
    text = text.replace("*", " ").replace("&", " ")
    parts = text.strip().rsplit("::", 1)
    return parts[-1].strip()


class TextScanner:
    """One pass over comment-stripped text, tracking brace scopes and
    emitting (statement, scopes, class-name, line) tuples."""

    def __init__(self, clean_text):
        self.text = clean_text
        self.statements = []       # (stmt, tuple(scopes), class, line)
        self.classes = {}          # name -> [base names]
        self._scan()

    def _scope_kind(self, pending, scopes):
        head = pending.strip()
        if re.search(r"\bnamespace\b[^=;]*$", head):
            return NS, None
        match = CLASS_HEAD_RE.search(head)
        if match and "enum" not in head.split():
            bases = []
            if match.group("bases"):
                for base in match.group("bases").split(","):
                    base = re.sub(r"\b(public|private|protected|"
                                  r"virtual)\b", " ", base)
                    name = _base_type(base)
                    if name:
                        bases.append(name)
            name = match.group("name")
            self.classes.setdefault(name, []).extend(bases)
            return CLASS, name
        if re.search(r"\benum\b", head):
            return ENUM, None
        return FUNC, None

    def _scan(self):
        scopes = []            # (kind, class_name, saved_stmt)
        stmt = []
        line = 1
        stmt_line = 1
        text = self.text
        i = 0
        while i < len(text):
            ch = text[i]
            if ch == "\n":
                line += 1
                if not "".join(stmt).strip():
                    stmt_line = line
                stmt.append(" ")
            elif ch == "{":
                pending = "".join(stmt)
                kind, cls = self._scope_kind(pending, scopes)
                # Restore the statement after `}` only when the brace
                # belongs to an initializer (top-level `=` before it);
                # bodies of functions/classes end the statement.
                keep = ("=" in _strip_parens(pending)
                        and kind == FUNC)
                scopes.append((kind, cls,
                               (pending + "{}", stmt_line)
                               if keep else None))
                stmt = []
                stmt_line = line
            elif ch == "}":
                saved = scopes.pop()[2] if scopes else None
                if saved:
                    stmt = [saved[0]]
                    stmt_line = saved[1]
                else:
                    stmt = []
                    stmt_line = line
            elif ch == ";":
                body = "".join(stmt).strip()
                body = re.sub(r"^(?:\s*(?:public|private|protected)"
                              r"\s*:)+\s*", "", body)
                if body:
                    kinds = tuple(k for k, _, _ in scopes)
                    cls = next((c for _, c, _ in reversed(scopes)
                                if c), None)
                    self.statements.append(
                        (body, kinds, cls, stmt_line))
                stmt = []
                stmt_line = line
            else:
                stmt.append(ch)
                # Access-specifier labels are statement separators;
                # folding them into the next statement would pin its
                # reported line to the label's line.
                if ch == ":" and "".join(stmt).strip() in (
                        "public:", "private:", "protected:"):
                    stmt = []
                    stmt_line = line
            i += 1


def strip_comments(lines):
    """Yield (lineno, text) with // and /* */ comments blanked out.

    String literals are not tracked; rule patterns are specific enough
    that code-like text inside strings does not occur in this repo.
    """
    in_block = False
    for lineno, line in enumerate(lines, start=1):
        out = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = len(line)
                else:
                    i = end + 2
                    in_block = False
            else:
                slash = line.find("//", i)
                block = line.find("/*", i)
                if slash >= 0 and (block < 0 or slash < block):
                    out.append(line[i:slash])
                    i = len(line)
                elif block >= 0:
                    out.append(line[i:block])
                    i = block + 2
                    in_block = True
                else:
                    out.append(line[i:])
                    i = len(line)
        yield lineno, "".join(out)


STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')
CHAR_RE = re.compile(r"'(?:[^'\\]|\\.)'")


def _code_text(lines):
    """Comment-stripped text with preprocessor lines blanked and
    string/char literal contents removed, so the brace tracker never
    sees braces or semicolons that are not code."""
    in_directive = False
    out = []
    for _, line in lines:
        if in_directive or line.lstrip().startswith("#"):
            in_directive = line.rstrip().endswith("\\")
            out.append("")
            continue
        line = STRING_RE.sub('""', line)
        line = CHAR_RE.sub("''", line)
        out.append(line)
    return "\n".join(out)


class SourceFile:
    """One file as the textual checks read it.  `lines` are
    comment-stripped (lineno, text) pairs with string literals intact,
    since the line rules match inside them (stat names); `scanner`
    tracks scopes over code only."""

    def __init__(self, path, rel):
        self.rel = rel
        text = path.read_text(encoding="utf-8", errors="replace")
        self.lines = list(strip_comments(text.splitlines()))
        self.scanner = TextScanner(_code_text(self.lines))


# Each textual check takes (SourceFile, SimObject-derived class names)
# and yields (line, symbol, message) per finding.

# scope rules ---------------------------------------------------------

def check_global_state(src, _derived):
    for stmt, kinds, _cls, line in src.scanner.statements:
        if DECL_SKIP_RE.match(stmt) or FWD_DECL_RE.match(stmt):
            continue
        is_static = bool(STATIC_RE.search(stmt))
        at_ns = bool(kinds) and all(k == NS for k in kinds)
        if not is_static and not at_ns:
            continue
        if CONSTISH_RE.search(_strip_templates(
                stmt.split("=", 1)[0])):
            continue
        decl = stmt.split("=", 1)[0].rstrip()
        if decl.endswith("{}"):       # function/struct body
            continue
        no_parens = _strip_parens(decl)
        if "(" in no_parens or decl.endswith(")"):
            continue                   # function declaration
        if not at_ns and "(" in _strip_templates(decl):
            continue                   # ctor-style initializer
        match = SYMBOL_RE.search(_strip_templates(decl))
        if not match:
            continue
        symbol = match.group(1)
        if symbol in ("override", "final", "default", "delete",
                      "noexcept"):
            continue
        where = ("namespace scope" if at_ns and not is_static
                 else "static storage")
        yield (line, symbol,
               f"mutable variable with {where} — every shard would "
               "share it; move it onto per-Simulation state or "
               "allowlist it with a justification")


def check_reach_through(src, derived):
    for stmt, kinds, cls, line in src.scanner.statements:
        if not kinds or kinds[-1] != CLASS or cls not in derived:
            continue
        match = FIELD_PTR_RE.match(stmt + ";")
        if not match:
            continue
        target = _base_type(match.group("type"))
        if target not in derived or target in INTERFACE_TYPES:
            continue
        yield (line, match.group("name"),
               f"{cls} holds a raw {match.group('ptr')} to component "
               f"type {target} — reach through a MemClient/port/"
               "registry interface instead so the shard partitioner "
               "can cut the seam")


def check_capture_escape(src, _derived):
    text = src.scanner.text
    for sink in CAPTURE_SINK_RE.finditer(text):
        args, _end = _balanced(text, sink.end() - 1, "()" if
                               text[sink.end() - 1] == "(" else "{}")
        if args is None:
            continue
        for lam in LAMBDA_CAPTURE_RE.finditer(args):
            captures = [c.strip() for c in
                        lam.group(1).split(",") if c.strip()]
            by_ref = [c for c in captures
                      if c == "&" or (c.startswith("&") and c != "&&")]
            if not by_ref:
                continue
            line = text.count("\n", 0, sink.end() + lam.start()) + 1
            yield (line, ",".join(by_ref),
                   "lambda captures by reference but is handed to "
                   "the event queue — the frame is gone by fire "
                   "time; capture by value or bind `this`")


def check_tick_smuggle(src, _derived):
    for stmt, kinds, _cls, line in src.scanner.statements:
        if not kinds or kinds[-1] != CLASS:
            continue
        match = MUTABLE_FIELD_RE.match(stmt + ";")
        if match:
            yield (line, match.group(1),
                   "`mutable` member — a logically-const cache "
                   "becomes a cross-shard write race; make the "
                   "mutation explicit or allowlist with the "
                   "synchronization story")
    text = src.scanner.text
    for method in CONST_METHOD_RE.finditer(text):
        body, _end = _balanced(text, method.end() - 1, "{}")
        if body is None:
            continue
        offset = method.end()
        for write in MEMBER_WRITE_RE.finditer(body):
            symbol = write.group(2) or write.group(3)
            if not symbol:
                continue
            line = text.count("\n", 0, offset + write.start()) + 1
            yield (line, symbol,
                   "member written from a const method — hidden "
                   "state change on the tick path; make the method "
                   "non-const or allowlist with the reason it is safe")


# line rules ----------------------------------------------------------

OFFER_CALL_RE = re.compile(r"[.>]\s*offer\s*\(")
# A used result: condition, assignment, return, negation, boolean op.
OFFER_USED_RE = re.compile(
    r"(if\s*\(|while\s*\(|return\b|[=!&|]\s*|\bbool\b[^;]*=\s*)[^;]*"
    r"[.>]\s*offer\s*\(")


def check_offer_checked(src, _derived):
    lines = dict(src.lines)
    for lineno, line in lines.items():
        if not OFFER_CALL_RE.search(line):
            continue
        # Join the statement across a couple of lines so wrapped
        # conditions are seen whole.
        start = lineno
        while start - 1 in lines and \
                re.search(r"(if|while|return|[=!&|(])\s*$",
                          lines[start - 1].rstrip()):
            start -= 1
        stmt = " ".join(lines[n] for n in range(start, lineno + 1))
        if not OFFER_USED_RE.search(stmt):
            yield (lineno, "offer",
                   "offer() result ignored — a rejected offer leaves "
                   "the packet with the caller "
                   "(docs/memory_protocol.md)")


# Concrete scheduling-policy classes. Holding a pointer/reference to
# one is fine (rigs own the factory's bundle); *constructing* one —
# new, make_unique, or a by-value member/local — outside the factory
# files bypasses the registry that --warp-sched/--mem-sched select
# from.
SCHED_CLASSES = (r"(?P<cls>FrfcfsScheduler|DashScheduler|"
                 r"DashCoordinator|LrrScheduler|GtoScheduler|"
                 r"WaspScheduler)")
SCHED_CONSTRUCT_RE = re.compile(
    r"(?:\bnew\s+|make_unique<\s*)(?:\w+::)*" + SCHED_CLASSES + r"\b")
SCHED_VALUE_DECL_RE = re.compile(
    r"\b(?:\w+::)*" + SCHED_CLASSES + r"\s+\w+\s*[;({=]")
SCHED_MESSAGE = ("direct construction of a scheduling policy — go "
                 "through createWarpScheduler()/createMemScheduler() "
                 "so --warp-sched/--mem-sched stay authoritative "
                 "(docs/scheduling.md)")


def check_sched_factory(src, _derived):
    for lineno, line in src.lines:
        match = SCHED_CONSTRUCT_RE.search(line) or \
            SCHED_VALUE_DECL_RE.search(line)
        if match:
            yield lineno, match.group("cls"), SCHED_MESSAGE


RAW_NEW_RE = re.compile(r"\bnew\s+MemPacket\b")
RAW_DELETE_RE = re.compile(r"\bdelete\s+(\w*pkt\w*|\w*packet\w*)\b")


def check_packet_alloc(src, _derived):
    for lineno, line in src.lines:
        if RAW_NEW_RE.search(line):
            yield (lineno, "MemPacket",
                   "raw `new MemPacket` — allocate from "
                   "Simulation::packetPool() so the pool stats and "
                   "lifecycle checks see it")
        match = RAW_DELETE_RE.search(line)
        if match:
            yield (lineno, match.group(1),
                   "raw `delete` of a packet — release with "
                   "freePacket() or completePacket()")


RANDOM_RE = re.compile(
    r"(?<![\w:])(s?rand)\s*\(|std::(mt19937|random_device)")


def check_randomness(src, _derived):
    for lineno, line in src.lines:
        match = RANDOM_RE.search(line)
        if match:
            yield (lineno, match.group(1) or match.group(2),
                   "raw randomness — draw from sim/random.hh so runs "
                   "replay from one seed")


# Bare printf only: strprintf/fprintf/snprintf have \w before "printf"
# and fprintf-to-a-FILE* (framebuffer dumps) is legitimate.
PRINT_RE = re.compile(
    r"(?<![\w:])(printf)\s*\(|std::(cout|cerr)\b")


def check_raw_print(src, _derived):
    for lineno, line in src.lines:
        match = PRINT_RE.search(line)
        if match:
            yield (lineno, match.group(1) or match.group(2),
                   "direct console output in src/ — use logging.hh "
                   "(diagnostics) or stats (results)")


# Stat construction: Type name(parent, "stat_name", ... or the member
# initializer form statX(parent, "stat_name", ...
STAT_REG_RE = re.compile(
    r"\b\w+\s*\(\s*([*\w][\w.\->]*)\s*,\s*\"([\w.]+)\"\s*,")


def check_stat_dup(src, _derived):
    seen = {}
    for lineno, line in src.lines:
        for match in STAT_REG_RE.finditer(line):
            parent, name = match.group(1), match.group(2)
            if (parent, name) in seen:
                yield (lineno, name,
                       f'stat "{name}" registered twice on {parent} '
                       f"(first at line {seen[parent, name]}) — the "
                       "dumps would carry two entries with one name")
            else:
                seen[parent, name] = lineno


ABORT_RE = re.compile(
    r"(?<![\w:.])(?:std::)?(abort|_Exit|quick_exit|exit)\s*\(")


def check_fatal_exit(src, _derived):
    for lineno, line in src.lines:
        match = ABORT_RE.search(line)
        if match:
            yield (lineno, match.group(1),
                   f"direct {match.group(1)}() — terminate via panic() "
                   "/ fatal() (logging.hh) so stats flush and the hang "
                   "report prints")


SIMOBJECT_CLASS_RE = re.compile(
    r"\bclass\s+(\w+)\s*(?:final\s*)?:[^;{]*\bpublic\s+SimObject\b")
SERIALIZE_DECL_RE = re.compile(r"\bserialize\s*\(\s*CheckpointOut\b")
CLASS_DECL_RE = re.compile(r"\bclass\s+\w+\s*(?:final\s*)?[:{]")


def check_serializable_coverage(src, _derived):
    if not src.rel.endswith(".hh"):
        return
    text = "\n".join(line for _, line in src.lines)
    for match in SIMOBJECT_CLASS_RE.finditer(text):
        # Scope the serialize() search to this class: from its
        # declaration to the next class declaration (or EOF).
        tail = text[match.end():]
        nxt = CLASS_DECL_RE.search(tail)
        body = tail[:nxt.start()] if nxt else tail
        if SERIALIZE_DECL_RE.search(body):
            continue
        cls = match.group(1)
        yield (text.count("\n", 0, match.start()) + 1, cls,
               f"SimObject subclass {cls} does not override "
               "serialize(CheckpointOut&) — its state silently "
               "vanishes from checkpoints. Implement it "
               "(docs/checkpointing.md) or allowlist the class as "
               "stateless in tools/analyze_allowlist.txt")


# registry ------------------------------------------------------------

# `textual` runs under the textual engine, and under the ast engine
# too when `ast` is False (no AST implementation).
Rule = namedtuple("Rule", "summary textual ast")

RULES = {
    "global-mutable-state": Rule(
        "namespace-scope, function-local-static or class-static "
        "non-const variable", check_global_state, True),
    "cross-component-reach-through": Rule(
        "SimObject field holding a raw pointer/reference to another "
        "SimObject type instead of a port/registry interface",
        check_reach_through, True),
    "event-capture-escape": Rule(
        "by-reference lambda handed to schedule()/reschedule() or an "
        "EventFunction", check_capture_escape, True),
    "tick-state-smuggle": Rule(
        "`mutable` member, or a member written from a const method",
        check_tick_smuggle, True),
    "offer-checked": Rule(
        "offer() called as a bare statement (result dropped)",
        check_offer_checked, True),
    "sched-factory": Rule(
        "scheduling policy constructed outside its factory",
        check_sched_factory, True),
    "packet-alloc": Rule(
        "raw `new MemPacket` / `delete pkt` bypassing PacketPool",
        check_packet_alloc, False),
    "randomness": Rule(
        "rand()/srand()/std::mt19937/std::random_device outside "
        "sim/random.hh", check_randomness, False),
    "raw-print": Rule(
        "printf/std::cout/std::cerr instead of logging.hh or stats",
        check_raw_print, False),
    "stat-dup": Rule(
        "two stats registered with one name on one parent",
        check_stat_dup, False),
    "fatal-exit": Rule(
        "raw abort()/exit()/_Exit()/quick_exit() instead of "
        "panic()/fatal()", check_fatal_exit, False),
    "serializable-coverage": Rule(
        "SimObject subclass (in a header) without "
        "serialize(CheckpointOut&)", check_serializable_coverage,
        False),
}


def run_textual(root, rules, files):
    """Findings of the textual checks of `rules` over `files`."""
    sources = sorted((SourceFile(path, rel_path(path, root))
                      for path in files), key=lambda s: s.rel)
    classes = {}
    for src in sources:
        for cls, bases in src.scanner.classes.items():
            classes.setdefault(cls, []).extend(bases)
    derived = simobject_closure(classes)
    return [Finding(name, src.rel, line, symbol, message)
            for src in sources
            for name, rule in RULES.items() if name in rules
            for line, symbol, message in rule.textual(src, derived)]


def _balanced(text, start, pair):
    """Return (contents, end) of the balanced pair opening at start."""
    op, cl = pair
    if start >= len(text) or text[start] != op:
        return None, start
    depth = 0
    for i in range(start, len(text)):
        if text[i] == op:
            depth += 1
        elif text[i] == cl:
            depth -= 1
            if depth == 0:
                return text[start + 1:i], i
    return None, start


def simobject_closure(classes):
    """Transitive set of classes deriving from SimObject."""
    derived = {"SimObject"}
    changed = True
    while changed:
        changed = False
        for cls, bases in classes.items():
            if cls not in derived and any(b in derived
                                          for b in bases):
                derived.add(cls)
                changed = True
    return derived


# ast engine ----------------------------------------------------------

def find_clang():
    if os.environ.get("EMERALD_CLANG"):
        return os.environ["EMERALD_CLANG"]
    for name in ("clang++", "clang", "clang++-19", "clang++-18",
                 "clang++-17", "clang++-16"):
        path = shutil.which(name)
        if path:
            return path
    return None


class LocTracker:
    """clang's JSON dump differentially encodes file/line: each is
    omitted when unchanged from the previously printed location."""

    def __init__(self):
        self.file = None
        self.line = None

    def update(self, loc):
        if not isinstance(loc, dict):
            return
        if "expansionLoc" in loc or "spellingLoc" in loc:
            # Spelling is printed first, expansion second; replay in
            # that order so the differential state stays in sync.
            self.update(loc.get("spellingLoc"))
            self.update(loc.get("expansionLoc"))
            return
        if "file" in loc:
            self.file = loc["file"]
        if "line" in loc:
            self.line = loc["line"]


class AstEngine:
    """clang -ast-dump=json over compile_commands.json."""

    name = "ast"

    def __init__(self, root, rules, clang, compdb_path, cache_dir,
                 extra_scope=()):
        self.root = root
        self.rules = rules
        self.clang = clang
        self.compdb_path = compdb_path
        self.cache_dir = cache_dir
        self.findings = []
        self.analyzed = set()       # absolute paths of TUs consumed
        self._scope = set(extra_scope)  # extra rel paths to report on
        self._seen = set()
        self._classes = {}          # name -> set(bases)
        self._fields = []           # candidate reach-through fields
        self._version = subprocess.run(
            [clang, "--version"], capture_output=True,
            text=True).stdout.splitlines()[0]

    def run(self, files):
        wanted = {str(p.resolve()) for p in files}
        entries = json.loads(self.compdb_path.read_text())
        tus = []
        for entry in entries:
            src = Path(entry["directory"]) / entry["file"]
            src = Path(os.path.normpath(src))
            if str(src) in wanted:
                tus.append((src, entry))
        if not tus:
            sys.exit("emerald_analyze: compile_commands.json has no "
                     "entry for the requested files")
        for src, entry in tus:
            self._one_tu(src, entry)
            self.analyzed.add(str(src))
        self._resolve_fields()
        return self.findings

    # -- per-TU --------------------------------------------------------

    def _clang_args(self, entry):
        if "arguments" in entry:
            args = list(entry["arguments"])
        else:
            args = shlex.split(entry["command"])
        args[0] = self.clang
        out = []
        skip = False
        for arg in args:
            if skip:
                skip = False
                continue
            if arg in ("-o", "-MF", "-MT", "-MQ"):
                skip = True
                continue
            if arg in ("-c", "-MD", "-MMD") or arg.endswith(".o"):
                continue
            out.append(arg)
        out += ["-fsyntax-only", "-Wno-everything",
                "-Xclang", "-ast-dump=json"]
        return out

    def _cache_key(self, entry, args):
        pre = subprocess.run(
            [a for a in args if a not in
             ("-Xclang", "-ast-dump=json", "-fsyntax-only")]
            + ["-E"],
            cwd=entry["directory"], capture_output=True)
        digest = hashlib.sha256()
        digest.update(self._version.encode())
        # Cached states hold findings, so a rule change must miss.
        digest.update(Path(__file__).read_bytes())
        digest.update(" ".join(args).encode())
        digest.update(pre.stdout)
        return digest.hexdigest()

    def _one_tu(self, src, entry):
        args = self._clang_args(entry)
        cache_file = None
        if self.cache_dir:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            key = self._cache_key(entry, args)
            cache_file = self.cache_dir / f"{key}.json.gz"
            if cache_file.exists():
                state = json.loads(gzip.decompress(
                    cache_file.read_bytes()))
                self._absorb(state)
                return
        proc = subprocess.run(args, cwd=entry["directory"],
                              capture_output=True)
        if proc.returncode != 0:
            sys.exit(f"emerald_analyze: clang failed on {src}:\n"
                     f"{proc.stderr.decode(errors='replace')[:2000]}")
        ast = json.loads(proc.stdout)
        state = self._extract(ast)
        self._absorb(state)
        if cache_file:
            cache_file.write_bytes(gzip.compress(
                json.dumps(state).encode()))

    def _absorb(self, state):
        for cls, bases in state["classes"].items():
            self._classes.setdefault(cls, set()).update(bases)
        self._fields.extend(state["fields"])
        for f in state["findings"]:
            finding = Finding(*f)
            if finding.key() not in self._seen:
                self._seen.add(finding.key())
                self.findings.append(finding)

    # -- AST walk ------------------------------------------------------

    def _extract(self, ast):
        state = {"classes": {}, "fields": [], "findings": []}
        tracker = LocTracker()
        self._walk(ast, [], tracker, state)
        return state

    def _rel(self, tracker):
        if not tracker.file:
            return None
        path = Path(tracker.file)
        if not path.is_absolute():
            path = (self.root / path).resolve()
        try:
            return path.resolve().relative_to(
                self.root).as_posix()
        except ValueError:
            return None

    def _in_src(self, rel):
        if rel is None:
            return False
        return rel in self._scope or rel.startswith("src/")

    def _walk(self, node, ancestors, tracker, state):
        if isinstance(node, list):
            for item in node:
                self._walk(item, ancestors, tracker, state)
            return
        if not isinstance(node, dict):
            return
        tracker.update(node.get("loc"))
        rng = node.get("range")
        if isinstance(rng, dict):
            tracker.update(rng.get("begin"))
        here = (tracker.file, tracker.line)
        self._visit(node, ancestors, here, state)
        ancestors.append(node)
        for child in node.get("inner", []) or []:
            self._walk(child, ancestors, tracker, state)
        ancestors.pop()
        if isinstance(rng, dict):
            tracker.update(rng.get("end"))

    def _visit(self, node, ancestors, here, state):
        kind = node.get("kind")
        if kind == "CXXRecordDecl" and node.get("name"):
            bases = [_base_type(b.get("type", {}).get("qualType", ""))
                     for b in node.get("bases", [])]
            if node.get("completeDefinition") or bases:
                state["classes"].setdefault(
                    node["name"], []).extend(b for b in bases if b)
        if kind == "VarDecl":
            self._var_decl(node, ancestors, here, state)
        if kind == "FieldDecl":
            self._field_decl(node, ancestors, here, state)
        if kind in ("BinaryOperator", "CompoundAssignOperator",
                    "UnaryOperator"):
            self._member_write(node, ancestors, here, state)
        if kind == "LambdaExpr":
            self._lambda(node, ancestors, here, state)
        if kind == "CXXMemberCallExpr":
            self._offer_call(node, ancestors, here, state)
        if kind in ("CXXNewExpr", "CXXConstructExpr",
                    "CXXTemporaryObjectExpr", "CallExpr"):
            self._sched_construct(node, kind, here, state)

    def _emit(self, state, rule, here, symbol, message):
        file, line = here
        rel = self._rel_of(file)
        if not self._in_src(rel):
            return
        state["findings"].append(
            [rule, rel, line or 0, symbol, message])

    def _rel_of(self, file):
        tracker = LocTracker()
        tracker.file = file
        return self._rel(tracker)

    @staticmethod
    def _type_of(node):
        return node.get("type", {}).get("qualType", "")

    @staticmethod
    def _is_const_type(qual_type):
        stripped = _strip_templates(qual_type)
        return bool(re.search(r"\bconst\b", stripped))

    def _var_decl(self, node, ancestors, here, state):
        if "global-mutable-state" not in self.rules:
            return
        if node.get("isImplicit"):
            return
        storage = node.get("storageClass", "")
        if storage == "extern":
            return
        if node.get("constexpr"):
            return
        if self._is_const_type(self._type_of(node)):
            return
        kinds = [a.get("kind") for a in ancestors]
        in_func = any(k in ("FunctionDecl", "CXXMethodDecl",
                            "CXXConstructorDecl", "CXXDestructorDecl",
                            "CXXConversionDecl", "LambdaExpr")
                      for k in kinds)
        in_class = any(k == "CXXRecordDecl" for k in kinds)
        at_ns = all(k in ("TranslationUnitDecl", "NamespaceDecl",
                          "LinkageSpecDecl", None)
                    for k in kinds)
        if (in_func or in_class) and storage != "static":
            return
        if not (at_ns or storage == "static"):
            return
        where = ("namespace scope" if at_ns else "static storage")
        self._emit(state, "global-mutable-state", here,
                   node.get("name", "?"),
                   f"mutable variable with {where} — every shard "
                   "would share it; move it onto per-Simulation "
                   "state or allowlist it with a justification")

    def _field_decl(self, node, ancestors, here, state):
        name = node.get("name", "")
        qual = self._type_of(node)
        if "tick-state-smuggle" in self.rules and \
                (node.get("mutable") or node.get("isMutable")):
            self._emit(state, "tick-state-smuggle", here, name,
                       "`mutable` member — a logically-const cache "
                       "becomes a cross-shard write race; make the "
                       "mutation explicit or allowlist with the "
                       "synchronization story")
        if "cross-component-reach-through" in self.rules and \
                re.search(r"[*&]\s*$", qual):
            owner = next((a.get("name") for a in reversed(ancestors)
                          if a.get("kind") == "CXXRecordDecl"), None)
            if owner:
                file, line = here
                state["fields"].append(
                    [owner, name, _base_type(qual),
                     qual.strip()[-1], self._rel_of(file), line or 0])

    def _member_write(self, node, ancestors, here, state):
        """Write to a this-member while the innermost enclosing method
        is const.  Checked during the main walk so `here` carries the
        write's own (differentially decoded) line."""
        if "tick-state-smuggle" not in self.rules:
            return
        kind = node.get("kind")
        if kind == "UnaryOperator":
            if node.get("opcode") not in ("++", "--"):
                return
        elif node.get("opcode") not in ASSIGN_OPS:
            return
        inner = node.get("inner", []) or []
        member = self._this_member(inner[0] if inner else None)
        if not member:
            return
        method = next((a for a in reversed(ancestors)
                       if a.get("kind") in
                       ("CXXMethodDecl", "CXXConstructorDecl",
                        "CXXDestructorDecl", "FunctionDecl",
                        "LambdaExpr")), None)
        if method is None or method.get("kind") != "CXXMethodDecl":
            return
        if " const" not in self._type_of(method):
            return
        self._emit(state, "tick-state-smuggle", here, member,
                   "member written from a const method — hidden "
                   "state change on the tick path; make the method "
                   "non-const or allowlist with the reason it is "
                   "safe")

    def _this_member(self, node):
        """Name of the this-member the expression resolves to."""
        if not isinstance(node, dict):
            return None
        if node.get("kind") == "MemberExpr":
            inner = node.get("inner", []) or []
            sub = inner[0] if inner else {}
            while isinstance(sub, dict) and sub.get("kind") in (
                    "ImplicitCastExpr", "ParenExpr"):
                sub_inner = sub.get("inner", []) or []
                sub = sub_inner[0] if sub_inner else {}
            if isinstance(sub, dict) and \
                    sub.get("kind") == "CXXThisExpr":
                return node.get("name")
            return None
        if node.get("kind") in ("ImplicitCastExpr", "ParenExpr",
                                "ArraySubscriptExpr"):
            inner = node.get("inner", []) or []
            return self._this_member(inner[0]) if inner else None
        return None

    def _lambda(self, node, ancestors, here, state):
        if "event-capture-escape" not in self.rules:
            return
        sink = False
        for anc in reversed(ancestors):
            kind = anc.get("kind", "")
            if kind in ("CXXMemberCallExpr", "CallExpr"):
                if "schedule" in self._callee_name(anc):
                    sink = True
                    break
            if kind in ("CXXConstructExpr", "CXXTemporaryObjectExpr"):
                if "EventFunction" in self._type_of(anc):
                    sink = True
                    break
            if kind in ("FunctionDecl", "CXXMethodDecl",
                        "CompoundStmt"):
                break
        if not sink:
            return
        closure = next((c for c in node.get("inner", []) or []
                        if c.get("kind") == "CXXRecordDecl"), None)
        by_ref = []
        for field in (closure or {}).get("inner", []) or []:
            if field.get("kind") != "FieldDecl":
                continue
            if self._type_of(field).rstrip().endswith("&"):
                by_ref.append(field.get("name") or "&")
        if by_ref:
            self._emit(state, "event-capture-escape", here,
                       ",".join(by_ref),
                       "lambda captures by reference but is handed "
                       "to the event queue — the frame is gone by "
                       "fire time; capture by value or bind `this`")

    def _callee_name(self, call):
        inner = call.get("inner", []) or []
        head = inner[0] if inner else {}
        while isinstance(head, dict):
            if head.get("kind") == "MemberExpr":
                return head.get("name", "")
            if head.get("kind") == "DeclRefExpr":
                ref = head.get("referencedDecl", {})
                return ref.get("name", "")
            sub = head.get("inner", []) or []
            head = sub[0] if sub else None
        return ""

    def _offer_call(self, node, ancestors, here, state):
        """offer() used as a bare expression statement: its parent in
        the AST is the enclosing CompoundStmt (possibly through an
        ExprWithCleanups wrapper), so the bool result is discarded."""
        if "offer-checked" not in self.rules:
            return
        if self._callee_name(node) != "offer":
            return
        parent = ancestors[-1] if ancestors else {}
        if parent.get("kind") == "ExprWithCleanups" and \
                len(ancestors) >= 2:
            parent = ancestors[-2]
        if parent.get("kind") != "CompoundStmt":
            return
        self._emit(state, "offer-checked", here, "offer",
                   "offer() result ignored — a rejected offer leaves "
                   "the packet with the caller "
                   "(docs/memory_protocol.md)")

    def _sched_construct(self, node, kind, here, state):
        if "sched-factory" not in self.rules:
            return
        qual = self._type_of(node)
        if kind == "CallExpr":
            # make_unique<Policy>(...) — the result type names it.
            if "make_unique" not in self._callee_name(node):
                return
        if not re.search(SCHED_CLASSES, qual):
            return
        self._emit(state, "sched-factory", here,
                   _base_type(qual) or "-", SCHED_MESSAGE)

    # -- post-pass -----------------------------------------------------

    def _resolve_fields(self):
        if "cross-component-reach-through" not in self.rules:
            return
        derived = simobject_closure(
            {k: list(v) for k, v in self._classes.items()})
        for owner, name, target, ptr, rel, line in self._fields:
            if owner not in derived:
                continue
            if target not in derived or target in INTERFACE_TYPES:
                continue
            finding = Finding(
                "cross-component-reach-through", rel, line, name,
                f"{owner} holds a raw {ptr} to component type "
                f"{target} — reach through a MemClient/port/registry "
                "interface instead so the shard partitioner can cut "
                "the seam")
            if self._in_src(rel) and finding.key() not in self._seen:
                self._seen.add(finding.key())
                self.findings.append(finding)


# driver --------------------------------------------------------------

def rel_path(path, root):
    try:
        return path.resolve().relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def bare_compdb(clang, files):
    """A compile database for files outside the build (fixtures, or
    paths given on the command line)."""
    tmp = Path(tempfile.mkdtemp(prefix="emerald-analyze-"))
    entries = [{"directory": str(tmp),
                "file": str(p.resolve()),
                "arguments": [clang, "-x", "c++", "-std=c++17",
                              str(p.resolve())]}
               for p in files]
    compdb = tmp / "compile_commands.json"
    compdb.write_text(json.dumps(entries))
    return compdb


def analyze(engine_name, root, rules, files, bare, clang, compdb,
            cache_dir):
    """Findings of `rules` over `files` under the named engine."""
    if engine_name == "textual":
        return run_textual(root, rules, files)
    ast_rules = {r for r in rules if RULES[r].ast}
    findings = run_textual(root, rules - ast_rules, files)
    if not ast_rules:
        return findings
    if bare:
        compdb = bare_compdb(clang, files)
    # The AST sees headers through their including TUs, so only
    # feed .cc files; header findings surface with header paths.
    tu_files = [f for f in files
                if f.suffix in (".cc", ".cpp")] or files
    extra_scope = [rel_path(p, root) for p in files] if bare else ()
    engine = AstEngine(root, ast_rules, clang, compdb, cache_dir,
                       extra_scope=extra_scope)
    findings += engine.run(tu_files)
    if not bare:
        # Headers nothing includes — and sources missing from the
        # compile db — are invisible to the AST pass; sweep whatever
        # it did not actually consume textually so nothing hides
        # there.
        rest = [f for f in files
                if str(f.resolve()) not in engine.analyzed]
        known = {f.key() for f in findings}
        findings += [f for f in run_textual(root, ast_rules, rest)
                     if f.key() not in known]
    return findings


def fixture_mismatches(root, rules, run):
    """Hold an engine to tests/analyze_fixtures/: every `// EXPECT:
    <rule>` annotation (one rule each; repeat the comment for several
    rules on one line) must be reported, and nothing else may be.
    Returns the number of mismatches."""
    files = sorted(p for p in (root / FIXTURES).glob("*")
                   if p.suffix in SRC_SUFFIXES)
    if not files:
        sys.exit(f"emerald_analyze: no fixtures in {root / FIXTURES}")
    expected = set()
    for path in files:
        rel = rel_path(path, root)
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            expected.update((rel, lineno, m.group(1))
                            for m in EXPECT_RE.finditer(line)
                            if m.group(1) in rules)
    actual = {(f.path, f.line, f.rule) for f in run(files)}
    for rel, line, rule in sorted(expected - actual):
        print(f"emerald_analyze: fixture MISSED {rel}:{line} "
              f"expected [{rule}]", file=sys.stderr)
    for rel, line, rule in sorted(actual - expected):
        print(f"emerald_analyze: fixture SPURIOUS {rel}:{line} "
              f"[{rule}] not annotated", file=sys.stderr)
    mismatches = len(expected ^ actual)
    if not mismatches:
        print(f"emerald_analyze: fixtures: {len(expected)} expected "
              f"finding(s) matched in {len(files)} file(s)",
              file=sys.stderr)
    return mismatches


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: inferred)")
    parser.add_argument("--compile-commands", type=Path,
                        help="compile_commands.json for the ast "
                             "engine (default: <root>/build/)")
    parser.add_argument("--cache-dir", type=Path,
                        help="cache directory for per-TU AST "
                             "extraction results")
    parser.add_argument("--allowlist", type=Path,
                        help="allowlist file (default: "
                             "tools/analyze_allowlist.txt)")
    parser.add_argument("--engine",
                        choices=("auto", "ast", "textual"),
                        default="auto")
    parser.add_argument("--rules",
                        help="comma-separated rule subset "
                             f"(default: all of {','.join(RULES)})")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON on stdout")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("paths", nargs="*",
                        help="files to analyze (default: all of "
                             "src/, after the fixture gate; bare "
                             "files always use the textual engine "
                             "unless --engine=ast)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name, rule in RULES.items():
            engines = "ast+textual" if rule.ast else "textual"
            print(f"{name:30} {engines:12} {rule.summary}")
        return 0

    root = args.root.resolve()
    rules = set(RULES)
    if args.rules:
        rules = set(args.rules.split(","))
        unknown = rules - set(RULES)
        if unknown:
            sys.exit(f"emerald_analyze: unknown rule(s): "
                     f"{','.join(sorted(unknown))}")

    if args.paths:
        files = [Path(p) for p in args.paths]
    else:
        files = sorted(p for p in (root / "src").rglob("*")
                       if p.suffix in SRC_SUFFIXES)

    compdb = args.compile_commands
    if compdb is None:
        candidate = root / "build" / "compile_commands.json"
        compdb = candidate if candidate.exists() else None
    clang = find_clang()

    engine_name = args.engine
    if engine_name == "auto":
        if clang and compdb and not args.paths:
            engine_name = "ast"
        else:
            reason = ("clang not found" if not clang else
                      "no compile_commands.json" if not compdb else
                      "explicit file list")
            print(f"emerald_analyze: note: {reason}; using the "
                  "textual engine (the AST engine is authoritative "
                  "in CI)", file=sys.stderr)
            engine_name = "textual"

    if engine_name == "ast":
        if not clang:
            sys.exit("emerald_analyze: --engine=ast but no clang "
                     "on PATH (set EMERALD_CLANG)")
        if not args.paths and not compdb:
            sys.exit("emerald_analyze: --engine=ast needs "
                     "compile_commands.json (configure with "
                     "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON)")

    def run(paths, bare):
        return analyze(engine_name, root, rules, paths, bare, clang,
                       compdb, args.cache_dir)

    mismatches = 0 if args.paths else fixture_mismatches(
        root, rules, lambda paths: run(paths, True))
    findings = run(files, bool(args.paths))

    allow_path = args.allowlist or (root / "tools" /
                                    "analyze_allowlist.txt")
    entries = load_allowlist(allow_path)
    reported = [f for f in findings
                if not allowed(f, entries)]
    reported.sort(key=lambda f: (f.path, f.line, f.rule))

    if args.json:
        print(json.dumps([vars(f) for f in reported], indent=1))
    else:
        for finding in reported:
            print(finding)
    # An entry can only be unused by a run that checked its rule (and,
    # given explicit paths, its file).
    scope = {rel_path(f, root) for f in files} if args.paths else None
    for entry in entries:
        if entry["used"] or entry["rule"] not in rules or \
                (scope is not None and entry["path"] not in scope):
            continue
        print(f"emerald_analyze: warning: unused allowlist "
              f"entry {entry['rule']} {entry['path']} "
              f"{entry['symbol']}", file=sys.stderr)
    if reported or mismatches:
        fixtures = (f", {mismatches} fixture mismatch(es)"
                    if mismatches else "")
        print(f"emerald_analyze: {len(reported)} unallowlisted "
              f"finding(s){fixtures} [{engine_name} engine]",
              file=sys.stderr)
    else:
        print(f"emerald_analyze: clean [{engine_name} engine, "
              f"{len(files)} file(s)]", file=sys.stderr)
    return min(len(reported) + mismatches, 99)


if __name__ == "__main__":
    sys.exit(main())
