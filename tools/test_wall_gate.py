"""Unit tests for tools/wall_gate.py: the verdict and its exit codes.

    python3 -B -m unittest discover -s tools -p 'test_wall_gate.py'
"""

import os
import stat
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import wall_gate  # noqa: E402

GATE = os.path.join(HERE, "wall_gate.py")


def fake_episode(directory, name, setup_s):
    """An executable that prints one episode result with this setup_s."""
    path = os.path.join(directory, name)
    with open(path, "w") as f:
        f.write("#!/bin/sh\necho table line\n"
                f"echo '{{\"wall\": {{\"setup_s\": {setup_s}}}}}'\n")
    os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
    return path


def gate(*args):
    return subprocess.run([sys.executable, "-B", GATE, *args],
                          capture_output=True, text=True).returncode


class VerdictTest(unittest.TestCase):
    def test_compares_medians_against_the_ratio(self):
        self.assertEqual(wall_gate.verdict([1.0, 9.0, 2.0], [2.5, 0.1, 2.4]),
                         (2.0, 2.4, True))
        self.assertFalse(wall_gate.verdict([2.0], [2.6])[2])


class ExitCodeTest(unittest.TestCase):
    def test_passes_a_faster_candidate_and_fails_a_slower_one(self):
        with tempfile.TemporaryDirectory() as d:
            slow = fake_episode(d, "slow", 0.02)
            fast = fake_episode(d, "fast", 0.004)
            self.assertEqual(gate(slow, fast), 0)
            self.assertEqual(gate(fast, slow), 1)

    def test_a_failing_episode_is_an_error(self):
        with tempfile.TemporaryDirectory() as d:
            ok = fake_episode(d, "ok", 0.004)
            self.assertEqual(gate(ok, "false"), 2)
            self.assertEqual(gate(ok), 2)


if __name__ == "__main__":
    unittest.main()
