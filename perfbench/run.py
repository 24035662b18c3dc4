#!/usr/bin/env python3
"""The cryptarch benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a cryptarch source tree. Builds perfbench/ (the
cryptarch libraries from src/ plus the cryptbench harness) into
.bench_build/, measures the workload's set-up in several fresh
processes, then runs the workload for S seconds in one more process and
checks every simulated result against perfbench/reference.json.

Workloads: paper_grids, model_dse, long_sessions, ssl_server (see
README.md). With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced,
single-threaded re-run of the same cells.

    python3 perfbench/run.py --write-reference

regenerates reference.json from the current sources (only for an
intended change to the simulated results).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import analysis

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("paper_grids", "model_dse", "long_sessions", "ssl_server")
SEED_SPACE = 16  # cryptbench.cc's seed_space: inputs depend on seed % 16
SETUP_PROCESSES = 6  # fresh processes timing set-up, besides the run's own
DEADLINE_S = 170  # the whole run, after the build


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log("perfbench: " + msg)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no cryptarch sources (src/) beside perfbench/", 2)
    out = os.path.join(ROOT, ".bench_build", "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", out, "--target", "cryptbench",
                  "-j", str(min(os.cpu_count() or 1, 4))])
    for cmd in steps:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode:
            log(res.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "cryptbench")


def harness(binary, workload, seed, seconds, mode, threads, deadline):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--threads", str(threads),
           "--mode", mode]
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             timeout=max(deadline - time.monotonic(), 1),
                             text=True)
    except subprocess.TimeoutExpired:
        fail(f"{mode} run of {workload} overran the deadline")
    if res.returncode:
        fail(f"{mode} run of {workload} exited {res.returncode}")
    return json.loads(res.stdout)


def source_digest():
    """sha256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def commit():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        return res.stdout.strip() if res.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def reference_for(workload, seed_index):
    try:
        with open(REFERENCE) as fh:
            table = json.load(fh)["workloads"][workload]
    except (OSError, KeyError, ValueError):
        return None
    entry = table.get("any", table.get(str(seed_index)))
    return entry.split() if entry else None


def end_to_end(data, setups):
    samples = data["samples"]
    walls = [s["wall_s"] for s in samples]
    tail = analysis.tail(walls)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s_p50": (statistics.median(walls), "s"),
        "wall_s_tail": (tail[0], "s"),
        "cpu_s": (statistics.median([s["cpu_s"] for s in samples]), "s"),
        "sessions_per_s": (statistics.median(
            [s["sessions"] / s["wall_s"] for s in samples]), "1/s"),
        "peak_rss_mb": (data["peak_rss_mb"], "MB"),
    }
    notes = {
        "wall_s_tail_percentile": round(tail[1], 2),
        "samples": tail[2],
        "sim_mips": statistics.median(
            [s["instructions"] / s["wall_s"] / 1e6 for s in samples]),
        "driver_idle_frac": statistics.median(
            [s["idle_frac"] for s in samples]),
        "others_s": statistics.median([s["others_s"] for s in samples]),
        "gate_checks_min": min(s["gate_checks"] for s in samples),
    }
    return metrics, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()

    knobs = {k: v for k, v in os.environ.items()
             if k.startswith("CRYPTARCH_")}
    if knobs:
        fail(f"refusing to run with {', '.join(sorted(knobs))} set: each "
             "CRYPTARCH_* variable changes which program is measured", 2)
    if args.seed < 0:
        fail("--seed must be non-negative", 2)

    binary = build()
    threads = min(os.cpu_count() or 1, 4)
    deadline = time.monotonic() + DEADLINE_S

    if args.write_reference:
        write_reference(binary, threads)
        return

    if not args.workload:
        fail("--workload is required", 2)
    setups = [harness(binary, args.workload, args.seed, 0, "setup", threads,
                      deadline)["setup_s"]
              for _ in range(SETUP_PROCESSES)]
    mode = "traced" if args.trace else "timed"
    data = harness(binary, args.workload, args.seed, args.seconds, mode,
                   threads, deadline)
    setups.append(data["setup_s"])

    reference = reference_for(args.workload, data["seed_index"])
    if args.trace:
        rounds = data["rounds"]
        result_lists = [r[k]["results"] for r in rounds
                        for k in ("parallel", "serial", "traced")]
    else:
        result_lists = [s["results"] for s in data["samples"]]
    attempted = sum(len(r) for r in result_lists)
    failed = analysis.digest_failures(data["labels"], result_lists,
                                      reference)

    manifest = {
        "workload": args.workload,
        "commit": commit(),
        "source_sha256": source_digest(),
        "build_type": data["build_type"],
        "cxx_flags": data["cxx_flags"].strip(),
        "compiler": data["compiler"],
        "nproc": os.cpu_count(),
        "threads": threads,
        "seed": args.seed,
        "seed_index": data["seed_index"],
        "cryptarch_env": knobs,
        "setup_runs_s": setups,
        "reference": "perfbench/reference.json" if reference else None,
    }
    if args.trace:
        result = analysis.per_layer(rounds, data["spans"], data["pi_s"],
                                    data["handshake_s"])
        metrics = {k: (result[k], unit)
                   for k, unit in analysis.PER_LAYER_UNITS.items()}
        manifest["rounds"] = len(rounds)
        manifest["gate_checks_per_round"] = [
            r["parallel"]["gate_checks"] for r in rounds]
    else:
        metrics, notes = end_to_end(data, setups)
        manifest.update(notes)

    print("manifest " + json.dumps(manifest, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14s} {name:30s} {value:.6g} {unit}")
    print(f"{args.workload:14s} {'failed_frac':30s} "
          f"{analysis.ratio(failed, attempted):.6g} ratio "
          f"({failed}/{attempted})")
    if not args.trace and args.workload != "ssl_server":
        print(f"{args.workload:14s} {'sim_mips':30s} "
              f"{manifest['sim_mips']:.6g} Minst/s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


def write_reference(binary, threads):
    table = {}
    for workload in WORKLOADS:
        per_seed = {}
        for idx in range(SEED_SPACE):
            data = harness(binary, workload, idx, 0, "timed", threads,
                           time.monotonic() + DEADLINE_S)
            per_seed[str(idx)] = " ".join(
                analysis.cell_digest(label, result) for label, result in
                zip(data["labels"], data["samples"][0]["results"]))
            log(f"reference {workload} seed {idx}")
        if len(set(per_seed.values())) == 1:
            per_seed = {"any": per_seed["0"]}
        table[workload] = per_seed
    with open(REFERENCE, "w") as fh:
        json.dump({"digest_hex": analysis.DIGEST_HEX,
                   "seed_space": SEED_SPACE,
                   "workloads": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
