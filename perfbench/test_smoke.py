#!/usr/bin/env python3
"""The benchmark's own test: every workload, untraced and traced, on tiny
inputs. Checks that every metric BENCHMARK.json declares is printed exactly
once with its declared unit, that the workload's own metrics are printed,
and that no operation failed.

Run from the root of a checkout:  python3 perfbench/test_smoke.py
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.getcwd()
METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+)")

# The metrics each workload reports in its untraced run besides the
# declared ones.
WORKLOAD_METRICS = {
    "debug_intel": ["debug_ms.p50", "debug_ms.tail", "answer_f1"],
    "clean_fec": ["debug_ms.p50", "debug_ms.tail", "answer_f1",
                  "loop_ms.p50", "loop_ms.tail", "clean_ms.p50"],
    "ingest_fec": ["append_per_s", "append_ms.p50", "append_ms.tail",
                   "refresh_ms.p50", "refresh_ms.tail"],
}


def load_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return out


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        spec = load_declared()
        declared = spec["per_layer" if trace else "end_to_end"]
        out = run(workload, trace)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        lines = out.stdout.strip().splitlines()
        printed = {}
        for line in lines:
            m = METRIC_LINE.match(line)
            if m:
                printed.setdefault(m.group(1), []).append(
                    (float(m.group(2)), m.group(3)))
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed",
                                          "metrics"])
        self.assertTrue(result["correct"], out.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in declared))
        for m in declared:
            name = m["name"]
            self.assertEqual(len(printed.get(name, [])), 1,
                             "%s printed %d times" % (
                                 name, len(printed.get(name, []))))
            self.assertEqual(printed[name][0][1], m["unit"], name)
            self.assertEqual(result["metrics"][name]["unit"], m["unit"], name)
        self.assertEqual(printed["error_rate"], [(0.0, "ratio")])
        if not trace:
            for name in WORKLOAD_METRICS[workload] + ["op_ms.p50",
                                                      "op_ms.tail"]:
                self.assertEqual(len(printed.get(name, [])), 1, name)
        else:
            self.assertTrue(any(l.startswith("oracle: ") for l in lines))

    def test_debug_intel(self):
        self.check("debug_intel", 0)

    def test_debug_intel_traced(self):
        self.check("debug_intel", 1)

    def test_clean_fec(self):
        self.check("clean_fec", 0)

    def test_clean_fec_traced(self):
        self.check("clean_fec", 1)

    def test_ingest_fec(self):
        self.check("ingest_fec", 0)

    def test_ingest_fec_traced(self):
        self.check("ingest_fec", 1)


if __name__ == "__main__":
    unittest.main()
