#!/usr/bin/env python3
"""Tests of the fixture gate in tools/emerald_analyze.py.

The textual engine must report exactly the `// EXPECT: <rule>`
annotations in tests/analyze_fixtures/. Every rule must have at least
one annotation, and a rule whose check stops matching must fail the
gate, so no rule can go quiet and still print "clean". Run directly
or through ctest (emerald_analyze_fixtures).
"""

import contextlib
import io
import sys
import unittest
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import emerald_analyze as ea  # noqa: E402


def gate():
    """(mismatches, stderr) of the textual engine on the fixtures."""
    rules = set(ea.RULES)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        mismatches = ea.fixture_mismatches(
            ROOT, rules, lambda files: ea.run_textual(ROOT, rules, files))
    return mismatches, err.getvalue()


class FixtureGateTest(unittest.TestCase):
    def test_fixtures_match(self):
        mismatches, err = gate()
        self.assertEqual(mismatches, 0, err)

    def test_every_annotation_names_a_rule_and_every_rule_has_one(self):
        annotated = {m.group(1)
                     for path in (ROOT / ea.FIXTURES).glob("*")
                     if path.suffix in ea.SRC_SUFFIXES
                     for m in ea.EXPECT_RE.finditer(path.read_text())}
        # The gate skips annotations of rules it does not run, so a
        # misspelled rule name would otherwise pass unnoticed.
        self.assertEqual(annotated - set(ea.RULES), set())
        self.assertEqual(set(ea.RULES) - annotated, set())

    def test_each_rule_that_goes_quiet_fails_the_gate(self):
        for name, rule in ea.RULES.items():
            with self.subTest(rule=name):
                quiet = rule._replace(textual=lambda src, derived: ())
                with mock.patch.dict(ea.RULES, {name: quiet}):
                    mismatches, err = gate()
                self.assertGreater(mismatches, 0)
                self.assertIn(f"expected [{name}]", err)


if __name__ == "__main__":
    unittest.main()
