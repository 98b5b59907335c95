#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/test_perfbench.py

Builds hcg_perfbench through run.py (once) and runs short fuzz_codegen runs to
check the knob guard, failure accounting, determinism of the codegen counts,
the traced-run accounting, and that run.py refuses to run without the code
generator sources.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the module under test sits next to this file)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
DETERMINISM_SEED = "7"


def run_bench(seed="1", trace="0", extra_env=None, allow_knobs=False,
              cwd=ROOT):
    env = {k: v for k, v in os.environ.items() if not k.startswith("HCG_")}
    env.update(extra_env or {})
    cmd = [sys.executable, "perfbench/run.py", "--workload", "fuzz_codegen",
           "--seed", seed, "--seconds", "1", "--trace", trace]
    if allow_knobs:
        cmd.append("--allow-knobs")
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=600)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_refuses_ambient_knob(self):
        proc = run_bench(extra_env={"HCG_JOBS": "2"})
        self.assertEqual(proc.returncode, 3, proc.stderr)
        self.assertIn('env knob HCG_JOBS="2"', proc.stdout)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_injected_compile_fault_is_counted(self):
        proc = run_bench(extra_env={"HCG_FAULTS": "toolchain.compile=fail@1"},
                         allow_knobs=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn('env knob HCG_FAULTS="toolchain.compile=fail@1"',
                      proc.stdout)
        self.assertIn("FAIL ", proc.stderr)
        result = result_of(proc)
        self.assertGreater(result["failed"], 0)
        self.assertTrue(result["correct"])  # a failed compile is not wrong code
        self.assertEqual(sorted(result["metrics"]), sorted(END_TO_END))

    def test_counts_repeat_for_a_seed(self):
        plain = [values(result_of(run_bench(DETERMINISM_SEED)))
                 for _ in range(2)]
        for name in ("code_bytes", "static_buffer_bytes"):
            self.assertEqual(plain[0][name], plain[1][name], name)
        traced = [values(result_of(run_bench(DETERMINISM_SEED, trace="1")))
                  for _ in range(2)]
        counts = [n for n in PER_LAYER if n.startswith(("graph.", "cgir."))
                  and not n.endswith("_ms")]
        counts += ["synth.simd_instructions", "analysis.regions_narrowed"]
        for name in counts:
            self.assertEqual(traced[0][name], traced[1][name], name)

    def test_traced_run_accounts_for_the_whole(self):
        proc = run_bench(trace="1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = result_of(proc)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(sorted(result["metrics"]), sorted(PER_LAYER))
        v = values(result)
        phases = sum(v[n] for n in (
            "actors.resolve_ms", "graph.regions_ms",
            "synth.intensive_select_ms", "codegen.plan_ms",
            "synth.batch_synth_ms", "codegen.emit_ms", "cgir.opt_ms",
            "codegen.unattributed_ms"))
        self.assertAlmostEqual(phases, v["codegen.generate_ms"],
                               delta=1e-9 * v["codegen.generate_ms"])
        shares = sum(v[n] for n in (
            "runtime.vector_share", "runtime.scalar_share",
            "runtime.intensive_share", "runtime.unattributed_share"))
        self.assertAlmostEqual(shares, 1.0, places=9)
        self.assertGreater(v["runtime.instrumented_over_plain"], 0)

    def test_fails_without_sources(self):
        bare = run.build_dir() / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run_bench(cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result_of(proc))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
