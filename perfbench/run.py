"""bnndep benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run it from the root of a bnndep checkout; bnndep is imported from
``./src``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with tracing
off; with ``--trace 1`` they are the per-layer ones from a traced run.
The run record (versions, thread budget, seeds, sizes, bnndep's own
statistical verdicts) and the spans go to
``.perfbench_out/``, apart from the timing data.  See README.md here.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing

# Set-ups per --trace 0 run; setup_s is their median.
SETUPS = 3

# One compute thread per sampler worker: OpenBLAS (and any OpenMP runtime)
# is pinned to one thread before numpy is first imported.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

IMPORT_PROBE = ("import time; t = time.perf_counter(); import bnndep; "
                "print(time.perf_counter() - t)")

OUT_DIR = ".perfbench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("sweep", "estimate", "selftest"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="the timed phase repeats until this much of it has run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def status_field(name: str) -> int:
    """Integer value of one field of /proc/self/status (kB for memory fields)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(name + ":"):
                return int(line.split()[1])
    raise KeyError(name)


class ThreadPeak:
    """Highest ``Threads:`` count of this process while the block runs.

    The poller's own thread is not counted.
    """

    def __enter__(self):
        self.peak = status_field("Threads")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()
        return self

    def _poll(self) -> None:
        while not self._stop.wait(0.05):
            self.peak = max(self.peak, status_field("Threads") - 1)

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def probe_import_s() -> float:
    """``import bnndep`` time in a fresh interpreter with this process's environment."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def openblas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS library reports."""
    import ctypes

    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def git_commit(root: Path):
    """Commit of a git checkout at ``root``, or None outside one."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def timed_run(workload, master_seed, seconds, import_s, checks):
    """End-to-end metrics: set-up, the timed phase repeated, then more set-ups.

    peak_rss_mb is read after the first set-up and timed pass, which is what
    one invocation of bnndep sees; later passes and set-ups start from a heap
    that earlier ones shaped.
    """
    t0 = time.perf_counter()
    inputs = workload.setup(master_seed)
    setups = [import_s + time.perf_counter() - t0]
    walls, cpus = [], []
    labels = tracing.Tracer()  # never installed: operation labels only
    with ThreadPeak() as threads:
        while not walls or sum(walls) < seconds:
            c0 = os.times()
            t0 = time.perf_counter()
            outputs = workload.run(inputs, labels)
            walls.append(time.perf_counter() - t0)
            c1 = os.times()
            cpus.append((c1.user + c1.system) - (c0.user + c0.system))
            if len(walls) == 1:
                peak_kb = status_field("VmHWM")
            workload.check(inputs, outputs, checks)
            outputs = None
    inputs = None
    for _ in range(SETUPS - 1):
        imported = probe_import_s()
        t0 = time.perf_counter()
        workload.setup(master_seed)
        setups.append(imported + time.perf_counter() - t0)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return metrics, {"reps": len(walls), "setups": SETUPS, "peak_threads": threads.peak}


def traced_run(workload, master_seed, speedup_2w, checks, spans_path):
    """Per-layer metrics: one untraced and one traced pass over the timed phase."""
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.operation(tracing.SETUP_OP):
        inputs = workload.setup(master_seed)
    with ThreadPeak() as threads:
        t0 = time.perf_counter()
        outputs = workload.run(inputs, tracer)
        untraced = time.perf_counter() - t0
        workload.check(inputs, outputs, checks)
        outputs = None
        with tracer.installed():
            t0 = time.perf_counter()
            outputs = workload.run(inputs, tracer)
            traced = time.perf_counter() - t0
        workload.check(inputs, outputs, checks)
        outputs = None
    with open(spans_path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span.to_json()) + "\n")
    metrics = tracing.per_layer_metrics(tracer.spans, traced, untraced, speedup_2w)
    return metrics, {"reps": 1, "setups": 1, "peak_threads": threads.peak}


def main(argv=None, sizes=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "bnndep" / "__init__.py").is_file():
        print(f"run.py: no bnndep sources under {src}; run from the root of a bnndep checkout",
              file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import bnndep
    import_s = time.perf_counter() - t0
    if Path(bnndep.__file__).resolve().parent != (src / "bnndep").resolve():
        print(f"run.py: imported bnndep from {bnndep.__file__}, not from {src}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    import workloads

    sizes = sizes or workloads.Sizes()
    master_seed = random.Random(f"{args.workload}:{args.seed}").randrange(1, 2**31)
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](sizes, out_dir)
    checks = workloads.Checks()
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    if args.trace:
        speedup_2w = workloads.sampler_speedup(master_seed, sizes.speedup_n)
        metrics, shape = traced_run(workload, master_seed, speedup_2w, checks,
                                    out_dir / f"spans_{stem}.jsonl")
    else:
        metrics, shape = timed_run(workload, master_seed, args.seconds, import_s, checks)

    record = {
        "workload": args.workload, "seed": args.seed, "master_seed": master_seed,
        "trace": args.trace, "seconds": args.seconds, **shape,
        "sizes": dataclasses.asdict(sizes),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "workers": workloads.WORKERS, "pinned_env": PINNED_ENV,
        "openblas_threads": openblas_threads(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "bnndep": bnndep.__version__,
        "commit": git_commit(root),
        "failed_checks": checks.failed,
        "bnndep_findings": checks.findings,
    }
    record_path = out_dir / f"record_{stem}.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    fail_rate = len(checks.failed) / checks.attempted
    print(f"{args.workload} seed={args.seed} trace={args.trace} reps={shape['reps']} "
          f"record={record_path.relative_to(root)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(f"  {'fail_rate':34s} {fail_rate:14.6g} ({len(checks.failed)}/{checks.attempted})")
    for label in checks.failed:
        print(f"  FAILED: {label}")
    for label, value in checks.findings.items():
        print(f"  finding (not a check): {label} {json.dumps(value)}")
    print(json.dumps({
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
