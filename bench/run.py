"""Benchmark of gowers_forms lemma checks.

Run from the repository root:

    python3 bench/run.py --workload planted-dyadic --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

One process runs one workload on one thread (``--workload all`` starts one
process per workload, one after the other).  The seed makes the instances; the
run times whole cycles of four base-size and one large-size instance until
``--seconds`` have passed, checking every output as it goes.  The last line of
standard output is one JSON object: end-to-end metrics with ``--trace 0``,
per-layer metrics from the timing shims with ``--trace 1``.  The exit code is
non-zero when an instance raises or fails the exactness gate.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

DEFAULT_SEED = 0
SETUP_REPEATS = 3  # setup_s is the import time plus the median of these
POOL_CYCLES = 12  # distinct instance cycles per seed; longer runs repeat them
GATE_CYCLES = 2  # cycles every run executes, digested and held to the reference
WORKLOAD_NAMES = ("planted-dyadic", "sign-uniformity", "rank-certify")
THREAD_VARS = ("GOWERS_FORMS_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")

# Instance times are reported in units of the run's mean reference_seconds(),
# a yardstick timed before every instance ("ref").  The 2-core box this was
# written on switches speed by up to 2x within seconds and drifts by +-35% over
# minutes; raw seconds spread 15-29% (IQR/median) over ten runs, the same times
# in yardstick units 1-7%.  Means, not medians: with 6-8 large instances a run,
# a median jumps between the box's speed states.
END_TO_END = {
    "base_ref_mean": "ref",
    "large_ref_mean": "ref",
    "instances_per_ref": "1/ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def pin_environment() -> None:
    """One thread everywhere; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_library() -> None:
    """Import gowers_forms from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "gowers_forms" / "__init__.py").is_file():
        raise SystemExit(f"bench: no gowers_forms package under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads  # noqa: F401  (imports numpy and gowers_forms)


def setup(workload_name: str, seed: int):
    """Generate the seed's instances, check them against the library guards and
    run the warm-up instance; repeated, returning the pool and the median time."""
    import workloads

    w = workloads.WORKLOADS[workload_name]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        pool = workloads.make_pool(w, seed, POOL_CYCLES)
        problems = sorted({p for inst in pool for p in w.guard_problems(inst)})
        if problems:
            raise SystemExit(
                f"bench: seed {seed} makes {workload_name} instances outside the library guards: "
                + "; ".join(problems)
            )
        w.pipeline(pool[0])
        times.append(perf_counter() - t0)
    return w, pool, statistics.median(times)


def reference_seconds() -> float:
    """Wall time of a fixed mix of small-array numpy, Fraction and integer
    work, the kind of work the library does; independent of the library."""
    import numpy as np

    t0 = perf_counter()
    a = np.arange(64)
    acc = 0
    for i in range(3000):
        acc += int(((a[a ^ (i & 63)] * a) % 7).sum())
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    for i in range(60000):
        acc += i * i % 7
    return perf_counter() - t0


def execute(w, inst):
    """(raw outputs or None, seconds); a raising instance is a failed one.

    A collection before the clock starts keeps one instance's garbage out of
    the next one's time.
    """
    gc.collect()
    t0 = perf_counter()
    try:
        raw = w.pipeline(inst)
    except Exception:  # the run goes on; the gate counts the failure
        traceback.print_exc(file=sys.stderr)
        raw = None
    return raw, perf_counter() - t0


def run_workload(workload_name: str, seed: int, seconds: float, trace: bool, import_s: float = 0.0) -> dict:
    """Time whole cycles of the seed's pool, at least GATE_CYCLES, until
    ``seconds`` have passed, judging every execution.

    Traced, each instance runs once plain and once under the shims, in
    alternating order; the shims' cost is the traced over the plain time.
    """
    import gate
    from spans import Tracer
    from workloads import CYCLE

    w, pool, setup_median = setup(workload_name, seed)
    verdicts = gate.RunGate(w, pool, gate.load_reference(workload_name) if seed == DEFAULT_SEED else None)
    timed = []  # (size, seconds) of each untraced instance
    refs = []  # reference_seconds() before each untraced instance
    tracer = Tracer()
    walls = {"plain": 0.0, "traced": 0.0}
    start = perf_counter()
    i = 0
    while True:
        idx = i % len(pool)
        if not trace:
            refs.append(reference_seconds())
            raw, dt = execute(w, pool[idx])
            timed.append((pool[idx].size, dt))
            verdicts.add(idx, raw)
        else:
            for mode in ("plain", "traced") if i % 2 == 0 else ("traced", "plain"):
                if mode == "traced":
                    with tracer.installed(i):
                        raw, dt = execute(w, pool[idx])
                else:
                    raw, dt = execute(w, pool[idx])
                walls[mode] += dt
                verdicts.add(idx, raw)
        i += 1
        if i % len(CYCLE) == 0 and i >= GATE_CYCLES * len(CYCLE) and perf_counter() - start >= seconds:
            break
    raw_seconds = {}
    if trace:
        metrics = tracer.metrics(i, walls["traced"] / walls["plain"] - 1.0)
        tracer.write(OUT_DIR / f"spans-{workload_name}-seed{seed}.npz")
    else:
        ref = statistics.mean(refs)
        metrics = {
            "base_ref_mean": statistics.mean(dt for size, dt in timed if size == "base") / ref,
            "large_ref_mean": statistics.mean(dt for size, dt in timed if size == "large") / ref,
            "instances_per_ref": i * ref / sum(dt for _, dt in timed),
            "setup_s": import_s + setup_median,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        raw_seconds = {
            "base_s_p50": statistics.median(dt for size, dt in timed if size == "base"),
            "large_s_p50": statistics.median(dt for size, dt in timed if size == "large"),
            "instances_per_s": i / sum(dt for _, dt in timed),
        }
    return {
        "metrics": metrics,
        "raw_seconds": raw_seconds,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "problems": verdicts.problems,
        "digest": verdicts.digest(GATE_CYCLES * len(CYCLE)),
        "instances": i,
    }


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_all(args) -> int:
    codes = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes.append(subprocess.run(cmd, check=False).returncode)
    return max(codes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    pin_environment()
    t0 = perf_counter()
    import_library()
    import_s = perf_counter() - t0
    import workloads
    from spans import PER_LAYER

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    for problem in result["problems"]:
        print(f"bench: {problem}", file=sys.stderr)
    units = {name: unit for name, (unit, _) in PER_LAYER.items()} if args.trace else END_TO_END
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workloads.WORKLOADS[args.workload].sizes,
        "instances": result["instances"],
        "digest": result["digest"],
        "fail_ratio": result["failed"] / result["attempted"],
        **result["raw_seconds"],
        **environment(),
    }))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
