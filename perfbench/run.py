"""tornadotab benchmark: one workload, one process, one JSON result line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload hash-eval --seed 1 --seconds 25 --trace 0

The library is imported from ``src/`` of the checkout. A run sets up its
activities several times (the median is ``setup_s``), then runs a closed
loop of fixed-size blocks for ``--seconds``: one worker, the next block
starts when the previous one has finished and its output has been checked.
With ``--trace 0`` it prints every end-to-end metric; with ``--trace 1`` it
wraps the library's layers and prints the per-layer metrics instead. The
last line of standard output is the result object; the line before it is a
detailed report (tail percentiles, sample counts, digest, verdicts,
metadata). See README.md in this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
GUEST_SHARE = 0.5  # time spent on other workloads' activities, relative to the home ones
MIN_GUEST_BLOCKS = 3
POLY2_KEYS = 16384
WORKLOADS = ("hash-eval", "mc-sparse", "mc-dense")  # as in workloads.WORKLOADS
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="block sizes; tiny is for the smoke test only")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def keep_freed_memory() -> None:
    """Serve large allocations from a heap that is never trimmed.

    By default glibc hands NumPy's large temporaries to mmap or trims them
    back to the kernel, so a block faults its working set in again. In a VM
    those page faults cost half of some blocks, and the cost swings with
    the allocation history and the host's load. Keeping freed pages makes
    a block's time the library's own work. Not glibc: left as it is.
    """
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.mallopt(M_MMAP_THRESHOLD, 1 << 30)
        libc.mallopt(M_TRIM_THRESHOLD, 1 << 30)
    except (OSError, AttributeError):
        pass


def import_library() -> float:
    """Import tornadotab from the checkout's src/; returns the seconds taken."""
    src = ROOT / "src"
    if not (src / "tornadotab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tornadotab sources under {src}")
    sys.dont_write_bytecode = True  # leave the checkout as it was
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import tornadotab  # noqa: F401

    elapsed = time.perf_counter() - start
    if Path(tornadotab.__file__).resolve().parent != (src / "tornadotab").resolve():
        raise SystemExit(f"perfbench: imported tornadotab from {tornadotab.__file__}")
    return elapsed


# -- statistics -------------------------------------------------------------------


def tail(samples, lower_is_better: bool):
    """Highest percentile with at least ten samples beyond it, on the slow side."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples, reverse=not lower_is_better)  # slowest last
    return {"p": (100 * (n - 10)) // n, "value": ordered[n - 11]}


def summarize(samples, unit):
    lower = unit != "trials/s"
    return {"median": statistics.median(samples), "unit": unit, "samples": len(samples),
            "better": "lower" if lower else "higher", "tail": tail(samples, lower)}


# -- metadata ---------------------------------------------------------------------


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def git_commit() -> str:
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(git / ref)
    if direct:
        return direct
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine() -> dict:
    cpu = "unknown"
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {"cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "caches": caches}


def metadata(args, threads_env) -> dict:
    import numpy as np
    import tornadotab

    return {"tornadotab_version": tornadotab.__version__, "git_commit": git_commit(),
            "python": platform.python_version(), "numpy": np.__version__, **machine(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "scale": args.scale, "trace": args.trace, "workers": 1,
            "TORNADO_THREADS_ignored": threads_env}


# -- the run ----------------------------------------------------------------------


class Run:
    """Blocks attempted and failed, block times, verdict counts."""

    def __init__(self, controls):
        self.controls = controls
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.timed: dict[str, list[tuple[float, int]]] = {}  # (seconds, control mark)
        self.violations: dict[str, int] = {}
        self.blocks: dict[str, int] = {}

    def block(self, act, tracer=None, record=True):
        """Run the activity's next block; check it outside the timed region."""
        from workloads import CheckFailed

        b = self.blocks.get(act.metric, 0)
        self.blocks[act.metric] = b + 1
        self.attempted += 1
        mark = self.controls.measure(act.control) if record else 0
        try:
            if tracer is not None:
                tracer.enabled = True
            start = time.perf_counter()
            try:
                out = act.run(b)
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.enabled = False
        except Exception:  # a block that raises is counted and the loop goes on
            return self.fail(f"{act.metric} block {b}: {traceback.format_exc()}")
        if record:  # a block with a wrong output still did its work
            self.timed.setdefault(act.metric, []).append((elapsed, mark))
        try:
            act.check(b, out)
            if record:
                self.violations[act.metric] = \
                    self.violations.get(act.metric, 0) + act.violations(out)
        except CheckFailed as exc:
            return self.fail(f"{act.metric} block {b}: {exc}")
        except Exception:
            return self.fail(f"{act.metric} block {b}: {traceback.format_exc()}")
        return out

    def block_s(self, act) -> list[float]:
        return [elapsed for elapsed, _ in self.timed.get(act.metric, ())]

    def rates(self, act, scaled: bool) -> list[float]:
        """Block rates as timed, or with times scaled by the control."""
        return [act.rate(elapsed * (self.controls.time_scale(act.control, mark) if scaled else 1))
                for elapsed, mark in self.timed.get(act.metric, ())]

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)
        print(f"perfbench: FAILED {message}", file=sys.stderr)
        return None


def set_up(run, groups, seed, scale, tracer=None):
    """Build every activity of the groups and run one warm-up block of each.

    Returns (activities per group, seconds, digest of the home group's
    warm-up outputs). The warm-up is block 0, which every repetition
    computes from the same seeds, so the digests must agree.
    """
    import workloads

    start = time.perf_counter()
    if tracer is not None:
        tracer.enabled = True
    try:
        built = {name: workloads.WORKLOADS[name](seed, scale) for name in groups}
    finally:
        if tracer is not None:
            tracer.enabled = False
    digest = hashlib.sha256()
    for i, name in enumerate(groups):
        for act in built[name]:
            run.blocks[act.metric] = 0
            out = run.block(act, tracer, record=False)
            if i == 0 and out is not None:
                digest.update(act.metric.encode() + act.digest(out))
    return built, time.perf_counter() - start, digest.hexdigest()


def measure(run, home, guests, deadline):
    """Closed loop: a round of home blocks, then guest blocks up to their share.

    The next guest is the one with the least time so far, so a cheap block
    gets as much time, and more samples, than a dear one.
    """
    home_s = 0.0
    guest_s = {act.metric: 0.0 for act in guests}

    def guest_block(act):
        t = time.perf_counter()
        run.block(act)
        guest_s[act.metric] += time.perf_counter() - t

    while time.perf_counter() < deadline:
        t = time.perf_counter()
        for act in home:
            run.block(act)
        home_s += time.perf_counter() - t
        while guests and sum(guest_s.values()) < GUEST_SHARE * home_s and \
                time.perf_counter() < deadline:
            guest_block(min(guests, key=lambda a: guest_s[a.metric]))
    for act in guests:
        while len(run.timed.get(act.metric, ())) < MIN_GUEST_BLOCKS and \
                run.blocks[act.metric] <= MIN_GUEST_BLOCKS + 2:
            guest_block(act)


def untraced(args, run, report):
    import workloads

    names = [args.workload] + [w for w in workloads.WORKLOADS if w != args.workload]
    raw_setup_s, marks, digests = [], [], []
    for _ in range(SETUP_REPEATS):
        built, seconds, digest = set_up(run, names, args.seed, args.scale)
        raw_setup_s.append(seconds)
        marks.append({kind: run.controls.measure(kind) for kind in ("python", "numpy")})
        digests.append(digest)
    if len(set(digests)) != 1:
        run.attempted += 1
        run.fail(f"set-up repetitions gave different digests: {digests}")
    run.attempted += 1
    try:
        workloads.probe_table_reference(args.seed)
    except workloads.CheckFailed as exc:
        run.fail(str(exc))
    home = built[args.workload]
    guests = [act for name in names[1:] for act in built[name]]
    measure(run, home, guests, time.perf_counter() + args.seconds)

    # set-up mixes Python and NumPy work: scale it by both controls
    setup_s = [seconds * math.sqrt(run.controls.time_scale("python", mark["python"])
                                   * run.controls.time_scale("numpy", mark["numpy"]))
               for seconds, mark in zip(raw_setup_s, marks)]
    setup_value = report["import_s"] + statistics.median(setup_s)
    metrics = {"setup_s": {"value": setup_value, "unit": "s"}}
    rows = {"setup_s": {"median": setup_value, "unit": "s", "samples": len(setup_s),
                        "import_s": report["import_s"], "raw_set_up_s": raw_setup_s}}
    for act in home + guests:
        if not run.timed.get(act.metric):
            raise SystemExit(f"perfbench: every block of {act.metric} raised")
        rows[act.metric] = dict(summarize(run.rates(act, scaled=True), act.unit),
                                control=act.control,
                                raw_median=statistics.median(run.rates(act, scaled=False)),
                                role="home" if act in home else "guest")
        metrics[act.metric] = {"value": rows[act.metric]["median"], "unit": act.unit}
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MiB"}
    rows["peak_rss_mb"] = {"median": rss, "unit": "MiB", "samples": 1}
    report.update(digest=digests[0], rows=rows, control_s={
        kind: statistics.median(v) for kind, v in run.controls.samples.items()})
    return metrics


def traced(args, run, report):
    """Home activities only: traced and untraced blocks alternate."""
    import layers
    import spans
    from tornadotab import bench

    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        built, _, digest = set_up(run, [args.workload], args.seed, args.scale, tracer)
        setup_summary = layers.snapshot(tracer)
        home = built[args.workload]
        poly = bench.Poly2Mersenne(args.seed)
        poly_keys = list(range(1 << 20, (1 << 20) + POLY2_KEYS))
        poly_ns = []
        plain = Run(run.controls)
        rounds = 0
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            for act in home:
                pair = [(run, tracer), (plain, None)]
                for r, t in pair[::-1] if rounds % 2 else pair:
                    r.block(act, t)
            start = time.perf_counter_ns()
            for x in poly_keys:
                poly.hash(x)
            poly_ns.append((time.perf_counter_ns() - start) / len(poly_keys))
            rounds += 1
    finally:
        tracer.restore()
    run.attempted += plain.attempted
    run.failed += plain.failed
    run.problems += plain.problems
    for metric, count in plain.violations.items():
        run.violations[metric] = run.violations.get(metric, 0) + count
    loop_summary = layers.snapshot(tracer)
    overhead = {}
    for act in home:
        on = statistics.median(run.block_s(act))
        off = statistics.median(plain.block_s(act))
        overhead[act.metric] = {"traced": summarize(run.rates(act, scaled=False), act.unit),
                                "untraced": summarize(plain.rates(act, scaled=False), act.unit),
                                "overhead_pct": 100.0 * (on / off - 1.0)}
    total_on = sum(statistics.median(run.block_s(a)) for a in home)
    total_off = sum(statistics.median(plain.block_s(a)) for a in home)
    metrics, absent, table = layers.metrics(tracer, setup_summary, loop_summary, rounds)
    metrics["bench.poly2_ns_per_key"] = {"value": statistics.median(poly_ns), "unit": "ns/key"}
    metrics["trace.overhead_pct"] = {"value": 100.0 * (total_on / total_off - 1.0), "unit": "%"}
    report.update(digest=digest, traced_rounds=rounds, layers=table, absent=absent,
                  absent_attributes=tracer.absent, tracing_overhead=overhead)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    threads_env = os.environ.pop("TORNADO_THREADS", None)
    keep_freed_memory()
    report = {"import_s": import_library()}
    sys.path.insert(0, str(HERE))
    import controls

    run = Run(controls.Controls())
    start = time.perf_counter()
    metrics = (traced if args.trace else untraced)(args, run, report)
    report["wall_s"] = time.perf_counter() - start
    report["verdicts"] = {"Violation": run.violations}
    report["failed_ratio"] = {"value": run.failed / run.attempted, "unit": "failed/attempted"}
    report["problems"] = run.problems
    report["meta"] = metadata(args, threads_env)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
