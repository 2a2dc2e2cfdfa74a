"""Self-test of the benchmark: runs every workload once, briefly, in
both modes, and checks what the benchmark promises.

Run from the root of a checkout:
    python3 -m unittest discover -s perfbench/tests -v

Each workload runs with --quick (one set-up, two serve-mnist clients)
and --seconds 1; the whole test takes a few minutes, most of it in
ckks-bootstrap.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
RUN = os.path.join(ROOT, "perfbench", "run.py")

# The replayed self times must account for the serial executor's wall
# time within this share (runtime.unexplained_share); README.md states
# the same tolerance.
ADDUP_TOLERANCE = 0.15


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def spans_path(workload):
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, build, "spans_%s.json" % workload)


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_metrics(self, result, wanted):
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        got = result["metrics"]
        self.assertEqual(set(got), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float))

    def check_spans(self, workload):
        with open(spans_path(workload)) as f:
            spans = json.load(f)["spans"]
        self.assertTrue(spans)
        names = {s["name"] for s in spans}
        for required in ("setup", "setup.compile", "job", "fhe.encrypt",
                         "compiler.translate", "probes"):
            self.assertIn(required, names)
        for s in spans:
            self.assertLessEqual(s["start_ns"], s["end_ns"], s)
            self.assertGreaterEqual(s["self_ns"], 0, s)
            if s["parent"] >= 0:
                p = spans[s["parent"]]
                self.assertLessEqual(p["start_ns"], s["start_ns"], s)
                self.assertLessEqual(s["end_ns"], p["end_ns"], s)
                if s["job"] and p["job"]:
                    self.assertEqual(s["job"], p["job"], s)

    def check_workload(self, workload):
        code, result = run(workload, 0)
        self.assertEqual(code, 0)
        self.check_metrics(result, self.spec["end_to_end"])
        for m in result["metrics"].values():
            self.assertGreater(m["value"], 0)

        code, result = run(workload, 1)
        self.assertEqual(code, 0)
        self.check_metrics(result, self.spec["per_layer"])
        self.check_spans(workload)
        return result["metrics"]

    def test_serve_mnist(self):
        m = self.check_workload("serve-mnist")
        self.assertGreater(m["serving.service_ms_p50"]["value"], 0)

    def test_ckks_bootstrap(self):
        m = self.check_workload("ckks-bootstrap")
        self.assertGreater(m["fhe.basis_extend_calls"]["value"], 0)
        self.assertLessEqual(m["runtime.unexplained_share"]["value"],
                             ADDUP_TOLERANCE)

    def test_matvec(self):
        m = self.check_workload("matvec")
        self.assertEqual(m["fhe.basis_extend_calls"]["value"], 0)
        self.assertEqual(m["check.decrypt_ok_share"]["value"], 1)
        self.assertLessEqual(m["runtime.unexplained_share"]["value"],
                             ADDUP_TOLERANCE)

    def test_no_sources_fails(self):
        """Without the library sources the benchmark exits nonzero and
        prints no result."""
        import shutil
        import tempfile
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "matvec",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=300)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
