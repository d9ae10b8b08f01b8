#!/usr/bin/env python3
"""Exit-status tests for tools/check_restore.py, the comparator behind
CI's restore-determinism, supervised-recovery and trace-replay gates.

Each case writes two --stats-out style JSON files (and a supervisor
summary where needed) to a temporary directory and runs the tool as
CI does. Run directly or through ctest (check_restore_modes).
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_restore.py"

HASHES = {"BAS.event_hash": 1234567.0, "BAS.wall_ms": 900.0,
          "DCB.event_hash": 7654321.0, "DCB.wall_ms": 950.0}
NORMS = {"BAS.gpu_ms_norm": 1.0, "DCB.gpu_ms_norm": 1.16,
         "BAS.wall_ms": 3000.0, "DCB.wall_ms": 3100.0}


class CheckRestoreTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, name, doc):
        path = self.dir / name
        path.write_text(json.dumps(doc))
        return str(path)

    def run_tool(self, ref, run, *flags):
        """Exit status of check_restore.py on two results objects."""
        proc = subprocess.run(
            [sys.executable, str(TOOL),
             self.write("ref.json", {"bench": "t", "results": ref}),
             self.write("run.json", {"bench": "t", "results": run}),
             *flags],
            capture_output=True, text=True)
        return proc.returncode

    # -- hash modes ----------------------------------------------------

    def test_matching_hashes_pass(self):
        self.assertEqual(self.run_tool(HASHES, dict(HASHES)), 0)

    def test_one_differing_hash_fails(self):
        run = dict(HASHES, **{"DCB.event_hash": 7654320.0})
        self.assertEqual(self.run_tool(HASHES, run), 1)

    def test_zero_hash_fails(self):
        ref = dict(HASHES, **{"BAS.event_hash": 0.0})
        run = dict(HASHES, **{"BAS.event_hash": 0.0})
        self.assertEqual(self.run_tool(ref, run), 1)

    def test_missing_and_extra_cases_fail(self):
        run = dict(HASHES)
        del run["DCB.event_hash"]
        self.assertEqual(self.run_tool(HASHES, run), 1)
        self.assertEqual(self.run_tool(run, HASHES), 1)

    def test_bare_event_hash_from_soc_point(self):
        ref = {"event_hash": 42.0, "gpu_ms": 5.0}
        self.assertEqual(self.run_tool(ref, dict(ref)), 0)
        self.assertEqual(self.run_tool(ref, {"event_hash": 43.0}), 1)

    def supervised(self, attempts, ticks=None):
        """Exit status for a recovery over `attempts` attempts whose
        labels resumed from `ticks` (warm in BAS by default)."""
        if ticks is None:
            ticks = {"BAS-abc": 5000, "HMC-abc": 0}
        sup = self.write("supervisor.json", {
            "succeeded": True, "attempts": attempts,
            "failures": [{"attempt": 0, "class": "oom-killed",
                          "detail": "SIGKILL",
                          "recovered_from_ticks": ticks}]})
        return self.run_tool(HASHES, dict(HASHES), f"--supervisor={sup}")

    def test_supervisor_with_one_attempt_is_rejected(self):
        self.assertEqual(self.supervised(1), 1)

    def test_supervisor_with_warm_recovery_passes(self):
        self.assertEqual(self.supervised(2), 0)

    def test_supervisor_with_every_label_cold_is_rejected(self):
        self.assertEqual(self.supervised(2, {"BAS-abc": 0}), 1)
        self.assertEqual(self.supervised(2, {}), 1)

    # -- replay mode ---------------------------------------------------

    @staticmethod
    def replayed(delta, wall_ms):
        run = dict(NORMS, **{"DCB.gpu_ms_norm": 1.16 + delta})
        run.update({"BAS.wall_ms": wall_ms, "DCB.wall_ms": wall_ms})
        return run

    def test_replay_norm_inside_tolerance_passes(self):
        self.assertEqual(
            self.run_tool(NORMS, self.replayed(0.2, 100.0), "--replay"),
            0)

    def test_replay_norm_outside_tolerance_fails(self):
        self.assertEqual(
            self.run_tool(NORMS, self.replayed(0.3, 100.0), "--replay"),
            1)
        self.assertEqual(
            self.run_tool(NORMS, self.replayed(0.2, 100.0), "--replay",
                          "--tolerance", "0.1"),
            1)

    def test_replay_missing_norm_fails(self):
        run = self.replayed(0.0, 100.0)
        del run["DCB.gpu_ms_norm"]
        self.assertEqual(self.run_tool(NORMS, run, "--replay"), 1)

    def test_replay_below_speedup_floor_fails(self):
        # 6100 ms exec vs 2 x 2900 ms replay: 1.05x < 1.2x.
        self.assertEqual(
            self.run_tool(NORMS, self.replayed(0.0, 2900.0), "--replay"),
            1)
        self.assertEqual(
            self.run_tool(NORMS, self.replayed(0.0, 2900.0), "--replay",
                          "--min-speedup", "1.0"),
            0)

    def test_replay_options_need_replay_mode(self):
        self.assertEqual(
            self.run_tool(HASHES, dict(HASHES), "--tolerance", "0.1"),
            2)


if __name__ == "__main__":
    unittest.main()
