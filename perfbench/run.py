"""cascnet benchmark: one command, four workloads, each in a fresh process.

    python3 perfbench/run.py --workload mf-critical --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Run it from anywhere inside a source checkout; it imports cascnet from the
checkout's ``src`` and nothing else. Every line but the last starts with
``#`` and is for people; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``). See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("mf-critical", "mc-complete", "mc-local", "swo-decide")
CONFIRM_SEED = 1009  # kept out of tuning; confirms a claim on unseen inputs
CHILD_TIMEOUT_S = 160
IMPORT_PROBES = 2   # extra interpreter starts; setup_s takes their median


def machine_info() -> dict:
    nproc = len(os.sched_getaffinity(0))
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return {"nproc": nproc, "cpu": cpu, "caches": caches,
            "python": platform.python_version(), "blas_threads": nproc}


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(nproc)
    env["PYTHONHASHSEED"] = "0"
    # Every run compiles from source, so set-up time does not depend on
    # whether an earlier run left bytecode behind.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def bench_cmd(name: str, args, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "bench.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--root", str(ROOT),
            "--spawned-at", repr(time.monotonic()), *extra]


def import_probes(name: str, args, env) -> list[str]:
    """Start-up times (interpreter start and imports) of fresh processes."""
    times = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(bench_cmd(name, args, "--import-only"), env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(proc.stdout.split()[-1])
    return times


def run_workload(name: str, args, env) -> dict | None:
    try:
        probes = import_probes(name, args, env)
    except (subprocess.SubprocessError, IndexError) as exc:
        print(f"# {name}: start-up probe failed: {exc}", file=sys.stderr)
        return None
    cmd = bench_cmd(name, args, "--import-probes", ",".join(probes))
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"# {name}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        print(f"# {name}: exited with code {proc.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"# {name}: last line is not a result: {lines[-1]!r}", file=sys.stderr)
        return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1,
                    help=f"workload seed; {CONFIRM_SEED} is the confirmation seed")
    ap.add_argument("--seconds", type=int, default=5,
                    help="least timed-phase length per workload; whole rounds run")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1),
                    help="1: per-layer metrics from a traced re-run")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not (ROOT / "src" / "cascnet" / "__init__.py").is_file():
        print(f"error: no cascnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    info = machine_info()
    print("# machine " + json.dumps(info))
    print(f"# workload seed {args.seed}; confirmation seed {CONFIRM_SEED}")
    env = child_env(info["nproc"])

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args, env)
        if result is None:
            return 1
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
