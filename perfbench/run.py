#!/usr/bin/env python3
"""End-to-end training benchmark: build, run one workload, print its result.

    python3 perfbench/run.py --workload paradnn --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The library and the benchmark are
built from source into $CARGO_TARGET_DIR (default .bench_build) on first use.
The last line of stdout is the result JSON: correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ["paradnn", "mnist", "mnist-dp"]
RUN_TIMEOUT_S = 170
# Two OpenMP threads pinned to cores: half of a 4-core host stays idle, which
# keeps the figures steady on a shared machine.
PINNING = {"OMP_PROC_BIND": "close", "OMP_PLACES": "cores", "OMP_NUM_THREADS": "2"}
# The data-parallel workers are plain threads running single-threaded gemm.
# OpenMP binding would pin the main thread, and every worker it spawns, to one
# core; instead the whole process is confined to two CPUs.
DATA_PARALLEL = {"OMP_PROC_BIND": "false", "OMP_NUM_THREADS": "1"}
DATA_PARALLEL_CPUS = 2


def thread_env(workload):
    return DATA_PARALLEL if workload == "mnist-dp" else PINNING


def cpu_set(workload):
    """CPUs the run is confined to; None = all (OpenMP binding pins it)."""
    if workload != "mnist-dp" or not hasattr(os, "sched_getaffinity"):
        return None
    return sorted(os.sched_getaffinity(0))[:DATA_PARALLEL_CPUS]


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(targets):
    """Configures and builds the benchmark; returns the build directory."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library source tree next to {BENCH_DIR.name}/ (need CMakeLists.txt and src/)")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", *targets])
    with open(log, "w") as sink:
        for cmd in steps:
            if subprocess.run(cmd, stdout=sink, stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail("build failed")
    return out


def cpu_times():
    """(steal, total) jiffies of the aggregate cpu line of /proc/stat."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(v) for v in stat.readline().split()[1:]]
    except OSError:
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_binary(binary, args, scratch, workload):
    env = dict(os.environ, **thread_env(workload))
    cpus = cpu_set(workload)
    confine = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
    cmd = [str(binary), *args, f"--scratch={scratch}"]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, preexec_fn=confine)
    except subprocess.TimeoutExpired:
        fail(f"{binary.name} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        fail(f"{binary.name} exited with code {proc.returncode}")
    return proc.stdout.rstrip("\n").split("\n")


def run_workload(opts):
    out = build(["perfbench_train"])
    scratch = out / f"run-{opts.workload}-{os.getpid()}"
    steal0, total0 = cpu_times()
    lines = run_binary(out / "perfbench_train",
                       [f"--workload={opts.workload}", f"--seed={opts.seed}",
                        f"--seconds={opts.seconds}", f"--trace={opts.trace}"], scratch,
                       opts.workload)
    steal1, total1 = cpu_times()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    build_info = next((json.loads(l.split(":", 1)[1]) for l in lines
                       if l.startswith("build:")), {})
    fingerprint = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "microkernel_isa": build_info.get("microkernel_isa", "unknown"),
        "threads_env": thread_env(opts.workload),
        "cpus": cpu_set(opts.workload) or "all",
        "steal_share": (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0,
    }
    for line in lines[:-1]:
        print(line)
    print("fingerprint: " + json.dumps(fingerprint))
    print(json.dumps(result))


def selftest():
    """Ledger self-check, then determinism of every workload and config."""
    out = build(["perfbench_train", "perfbench_selftest"])
    ok = subprocess.run([str(out / "perfbench_selftest")],
                        env=dict(os.environ, **PINNING)).returncode == 0
    for workload in WORKLOADS:
        runs = []
        for seed in (1, 1, 2):
            lines = run_binary(out / "perfbench_train",
                               [f"--workload={workload}", f"--seed={seed}",
                                "--seconds=0", "--trace=0", "--schedule-only"],
                               out / f"selftest-{workload}", workload)
            runs.append(json.loads(lines[-1]))
        same, other = runs[0], runs[2]
        checks = {
            "both configurations train the schedule of seeds 1 and 2":
                all(run["correct"] for run in runs),
            "same seed, bit-identical APA final_loss":
                runs[0]["apa_loss_bits"] == runs[1]["apa_loss_bits"],
            "same seed, bit-identical classical final_loss":
                runs[0]["classical_loss_bits"] == runs[1]["classical_loss_bits"],
            "other seed, other inputs": same["input_checksum"] != other["input_checksum"],
            "other seed, same input dimensions": same["shapes"] == other["shapes"],
        }
        for name, passed in checks.items():
            print(f"{'ok  ' if passed else 'FAIL'} {workload}: {name}")
            ok = ok and passed
    print("selftest " + ("passed" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()
    if opts.selftest:
        selftest()
    if opts.workload is None:
        parser.error("--workload is required")
    run_workload(opts)


if __name__ == "__main__":
    main()
