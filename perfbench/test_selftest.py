"""Runs the benchmark's self-test: every workload in both modes prints
exactly the metrics and units BENCHMARK.json names, and a corrupted read
is counted as a failed op.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import subprocess
import sys
import unittest
from pathlib import Path


class SelfTest(unittest.TestCase):
    def test_self_test_passes(self):
        run = Path(__file__).resolve().parent / "run.py"
        p = subprocess.run([sys.executable, str(run), "--self-test"],
                           capture_output=True, text=True, timeout=1200)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr[-4000:])
        self.assertIn("self-test ok", p.stdout)


if __name__ == "__main__":
    unittest.main()
