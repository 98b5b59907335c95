#!/usr/bin/env python3
"""Figure 1 (E1) and its DCT / Conv / Mat siblings (E11) from Algorithm 1.

Writes one sweep model per kernel family, with one intensive actor per size,
so every size is its own selection key.  Each model goes through

    hcgc generate <model> -O2 --isa neon_sim --report R

--runs times, every run cold (no --history).  The times shown are the
report's intensive[].candidates[].ms: the measurements Algorithm 1 itself
took and chose from.  This script adds no timing loop of its own.

One markdown table per family: per size, each candidate's median time over
the runs with its interquartile range, and how many runs picked each winner.
Under each table, one line lists the candidates no run picked at any size.
A cell marked `*` was screened out on its warm-up in at least one run, so its
time there is one single call, not a timed sample.  Exits 1 when hcgc fails or
a row has no measured candidate.

    tools/kernel_sweep.py [--runs N] [build-dir]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from collections import Counter

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (family, actor type, element type, sizes, Conv signal length).  A size is
# the input shape, n x n for the Mat* and 2-D families; Conv sizes are tap
# counts, against a signal of the given length, or of the tap count itself
# when it is None (square convolutions).
FAMILIES = [
    ("FFT c64", "FFT", "c64",
     [4, 8, 16, 64, 256, 1024, 4096, 8192, 12, 60, 360, 1000, 1500, 997],
     None),
    ("DCT f32", "DCT", "f32", [8, 16, 24, 32, 64, 256, 1024], None),
    ("IDCT f32", "IDCT", "f32", [8, 16, 32, 64, 256, 1024], None),
    ("DCT2D f32, n x n", "DCT2D", "f32", [8, 16, 32, 64], None),
    ("FFT2D c64, n x n", "FFT2D", "c64", [4, 8, 16, 32, 64], None),
    ("Conv f32, n=1024", "Conv", "f32", [4, 16, 64, 256, 1024], 1024),
    ("Conv f32, n=k", "Conv", "f32", [13, 64], None),
    ("MatMul f32", "MatMul", "f32", [2, 3, 4, 32, 96, 97, 128], None),
    ("MatInv f32", "MatInv", "f32", [2, 3, 4], None),
    ("MatDet f32", "MatDet", "f32", [2, 3, 4], None),
]


def sweep_model(actor_type, dtype, sizes, signal):
    """The family's model as XML, in the format model_to_xml emits."""
    name = actor_type.lower()
    lines = ['<?xml version="1.0"?>', f'<model name="sweep_{name}">']
    connects = []
    for size in sizes:
        k = f"{name}_{size}"
        if actor_type == "Conv":
            lines.append(f'  <actor name="x_{k}" type="Inport" dtype="{dtype}" '
                         f'shape="{signal or size}"/>')
            lines.append(f'  <actor name="taps_{k}" type="Constant" '
                         f'dtype="{dtype}" shape="{size}" value="0.5"/>')
            connects += [(f"x_{k}", f"{k}:0"), (f"taps_{k}", f"{k}:1")]
        else:
            square = actor_type.startswith("Mat") or actor_type.endswith("2D")
            shape = f"{size}x{size}" if square else str(size)
            ports = 2 if actor_type == "MatMul" else 1
            for p in range(ports):
                lines.append(f'  <actor name="x{p}_{k}" type="Inport" '
                             f'dtype="{dtype}" shape="{shape}"/>')
                connects.append((f"x{p}_{k}", f"{k}:{p}"))
        lines.append(f'  <actor name="{k}" type="{actor_type}"/>')
        lines.append(f'  <actor name="y_{k}" type="Outport"/>')
        connects.append((k, f"y_{k}"))
    for src, dst in connects:
        lines.append(f'  <connect from="{src}" to="{dst}"/>')
    lines.append("</model>")
    return "\n".join(lines) + "\n"


def run_once(hcgc, model_path, work):
    """One cold generate; returns {actor: (chosen impl, {impl: (ms,
    screened)})}."""
    report = os.path.join(work, "report.json")
    cmd = [hcgc, "generate", model_path, "-O2", "--isa", "neon_sim",
           "--report", report, "--out", os.path.join(work, "out.c")]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"kernel_sweep: {' '.join(cmd)} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    with open(report) as f:
        data = json.load(f)
    return {e["actor"]: (e["impl"], {c["impl"]: (c["ms"], c["screened"])
                                     for c in e["candidates"]})
            for e in data["intensive"]}


def median_iqr(values):
    if len(values) < 2:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def fmt_us(ms):
    us = ms * 1e3
    return f"{us:.3g}" if us < 1000 else f"{us:.0f}"


def host_line():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{cpu}, {os.cpu_count()} CPUs, {platform.system()}"


def commit():
    proc = subprocess.run(["git", "-C", REPO, "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="cold hcgc runs per family (default 5)")
    parser.add_argument("build_dir", nargs="?",
                        default=os.path.join(REPO, "build"))
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    hcgc = os.path.join(args.build_dir, "bin", "hcgc")
    if not os.access(hcgc, os.X_OK):
        sys.exit(f"kernel_sweep: no hcgc at {hcgc}; build it first")

    print(f"Algorithm 1 candidate times: commit {commit()}, host "
          f"{host_line()}, N = {args.runs} cold `hcgc generate -O2 --isa "
          f"neon_sim` runs.")
    print("Cell: median µs [interquartile range µs] over the N runs; "
          "`*`: screened out on its warm-up in at least one run (one "
          "call, never timed); `-`: the implementation cannot handle the "
          "size.")
    empty_rows = 0
    with tempfile.TemporaryDirectory(prefix="kernel_sweep_") as work:
        for family, actor_type, dtype, sizes, signal in FAMILIES:
            model_path = os.path.join(work, f"{actor_type.lower()}.xml")
            with open(model_path, "w") as f:
                f.write(sweep_model(actor_type, dtype, sizes, signal))
            runs = [run_once(hcgc, model_path, work)
                    for _ in range(args.runs)]
            impls = []
            for run in runs:
                for _, costs in run.values():
                    impls += [i for i in costs if i not in impls]
            label = "k" if actor_type == "Conv" else "n"
            print(f"\n**{family}**\n")
            print(f"| {label} | " + " | ".join(impls) + " | picked |")
            print("|---:|" + "---:|" * len(impls) + "---|")
            ever_picked = set()
            for size in sizes:
                actor = f"{actor_type.lower()}_{size}"
                rows = [run.get(actor, ("(none)", {})) for run in runs]
                cells = []
                for impl in impls:
                    seen = [costs[impl] for _, costs in rows if impl in costs]
                    if seen:
                        med, iqr = median_iqr([ms for ms, _ in seen])
                        mark = "*" if any(s for _, s in seen) else ""
                        cells.append(f"{fmt_us(med)}{mark} [{fmt_us(iqr)}]")
                    else:
                        cells.append("-")
                if any(not costs for _, costs in rows):
                    empty_rows += 1
                picks = Counter(chosen for chosen, _ in rows)
                ever_picked.update(picks)
                picked = ", ".join(f"{impl} {count}/{args.runs}"
                                   for impl, count in picks.most_common())
                print(f"| {size} | " + " | ".join(cells) + f" | {picked} |")
            never = [impl for impl in impls if impl not in ever_picked]
            print(f"\nNever picked at any size: "
                  f"{', '.join(never) if never else '(none)'}.")
    if empty_rows:
        sys.exit(f"kernel_sweep: {empty_rows} row(s) had no measured "
                 "candidate")


if __name__ == "__main__":
    main()
