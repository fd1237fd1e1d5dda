"""voxelreg benchmark: one workload per run, metrics as one JSON line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload search729 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced operations on the same inputs
and reports the per-layer metrics plus ``trace_overhead_s``; its spans are
written to ``.perfbench/traces/``. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it,
``details``, records the environment, sample counts and failures.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Seeds 1-15 were used while the benchmark was tuned. Confirm a claimed
# gain on this seed too, which no tuning has seen.
HELD_OUT_SEED = 8191
SETUP_REPEATS = 3
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "REG_MEMORY_BUDGET_MB",
)

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def stolen_s() -> float:
    """Steal time of this machine's CPUs, summed, from /proc/stat: time a
    CPU had work but the hypervisor ran another guest on it."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / CLOCK_TICKS
    except (OSError, IndexError, ValueError):
        return 0.0


class Stopwatch:
    """Wall time of a section, with the hypervisor's steal taken out.

    On a shared virtual machine the hypervisor runs other guests on this
    guest's CPUs at will. With both CPUs busy it took up to a third of the
    CPU time the process wanted, at random. Over the section the process wanted
    cpu + steal seconds of CPU and got cpu, so on CPUs of its own it would
    have taken wall * cpu / (cpu + steal). Waits that are not steal (I/O,
    the interpreter lock, idle workers) stay in. The raw wall, CPU and steal
    times of every operation go to ``details``.
    """

    def __enter__(self):
        self._start = (time.perf_counter(), time.process_time(), stolen_s())
        return self

    def __exit__(self, *exc):
        wall0, cpu0, steal0 = self._start
        self.wall = time.perf_counter() - wall0
        self.cpu = time.process_time() - cpu0
        self.steal = stolen_s() - steal0

    @property
    def seconds(self) -> float:
        if self.cpu <= 0 or self.steal <= 0:
            return self.wall
        return self.wall * self.cpu / (self.cpu + self.steal)

    def raw(self) -> dict:
        return {"wall": self.wall, "cpu": self.cpu, "steal": self.steal}


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_commit": git_commit(ROOT),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


class Run:
    """Times operations of one workload and tallies their checks."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.first: dict[int, object] = {}
        self.scores: dict[int, dict] = {}
        self.timings: list[dict] = []

    def op(self, case: int, tracing=None):
        """One timed operation, wrapped in ``tracing`` if given, then its
        checks; returns (wall_s, fingerprint), both None if it raised."""
        self.attempted += self.wl.units
        with tracing if tracing is not None else contextlib.nullcontext():
            try:
                with Stopwatch() as sw:
                    output = self.wl.run(case)
            except Exception as exc:  # a failed operation is counted, not fatal
                self.fail(self.wl.units, [f"case {case}: {type(exc).__name__}: {exc}"])
                return None, None
        wall = sw.seconds
        self.timings.append(sw.raw())
        try:
            outcome = self.wl.check(case, output, score=case not in self.first)
        except Exception as exc:
            self.fail(self.wl.units, [f"case {case}: check raised {type(exc).__name__}: {exc}"])
            return wall, None
        self.fail(outcome.failed_units, outcome.messages)
        fingerprint = self.wl.fingerprint(output)
        if case not in self.first:
            self.first[case] = fingerprint
            if outcome.scores:
                self.scores[case] = outcome.scores
        elif self.first[case] != fingerprint:
            self.fail(self.wl.units, [f"case {case}: rerun differs from the first run"])
        return wall, fingerprint

    def fail(self, units: int, messages: list[str]):
        """Count ``units`` of the attempted operations as failed."""
        self.failed = min(self.attempted, self.failed + units)
        self.messages.extend(messages)


def keep_going(i: int, min_ops: int, started: float, seconds: float, per_op: list[float]) -> bool:
    """``min_ops`` operations always run; then more while another one fits."""
    if i < min_ops:
        return True
    predicted = statistics.median(per_op) if per_op else 0.0
    return time.perf_counter() - started + predicted < seconds


def measure_untraced(run: Run, seconds: float) -> tuple[dict, dict]:
    walls: list[float] = []
    started = time.perf_counter()
    i = 0
    while keep_going(i, run.wl.cases, started, seconds, walls):
        wall, _ = run.op(i % run.wl.cases)
        if wall is not None:
            walls.append(wall)
        i += 1
    metrics, samples = {}, {}
    if walls:
        wall = statistics.median(walls)
        metrics["wall_s"] = wall
        metrics["mvl_per_s"] = run.wl.voxel_labels / 1e6 / wall
        samples["wall_s"] = samples["mvl_per_s"] = len(walls)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples["peak_rss_mb"] = 1
    if len(run.scores) == run.wl.cases:
        for name, value in run.wl.summarize(list(run.scores.values())).items():
            metrics[name] = value
            samples[name] = run.wl.cases
    return metrics, samples


def measure_traced(run: Run, seconds: float, modules: dict, trace_path: Path):
    import tracer

    untraced: list[float] = []
    traced: list[float] = []
    per_op: list[dict] = []
    spans: list = []
    missing: set[str] = set()
    started = time.perf_counter()
    # tracemalloc slows every allocation (about +40% on search729), so the
    # level peaks come from one operation of their own and the timed traced
    # operations run without it
    mem = tracer.Tracer(modules, memory=True)
    wall, _ = run.op(0, tracing=mem)
    missing |= mem.missing
    peaks = {
        k: v for k, v in tracer.layer_metrics(mem.spans, wall or 0.0, run.wl.jobs).items()
        if k.endswith("_traced_peak_mb")
    } if wall is not None else {}
    i = 0
    while keep_going(i, 1, started, seconds, [a + b for a, b in zip(untraced, traced)]):
        case = i % run.wl.cases
        prints = {}
        # alternate which side goes first, so neither always runs warm
        for side in (("plain", "traced") if i % 2 == 0 else ("traced", "plain")):
            if side == "plain":
                wall, prints[side] = run.op(case)
                if wall is not None:
                    untraced.append(wall)
                continue
            tr = tracer.Tracer(modules)
            wall, prints[side] = run.op(case, tracing=tr)
            missing |= tr.missing
            spans.extend(tr.spans)
            if wall is not None:
                traced.append(wall)
                per_op.append(tracer.layer_metrics(tr.spans, wall, run.wl.jobs))
                bad_levels = tracer.level_checks(tr.spans)
                if bad_levels:
                    run.fail(run.wl.units, bad_levels)
        if None not in prints.values() and prints["plain"] != prints["traced"]:
            run.fail(run.wl.units, [f"case {case}: traced output differs from untraced"])
        i += 1

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps([dataclasses.asdict(s) for s in spans]))

    metrics: dict[str, float] = {}
    samples: dict[str, int] = {}
    if per_op:
        for name in per_op[0]:
            metrics[name] = statistics.median(m[name] for m in per_op)
            samples[name] = len(per_op)
    for name in [k for k in metrics if k.endswith("_traced_peak_mb")]:
        if name in peaks:
            metrics[name] = peaks[name]
            samples[name] = 1
        else:
            del metrics[name]
    metrics, dropped = tracer.available(metrics, missing)
    if run.scores:
        metrics["pipeline.fold_frac"] = statistics.fmean(s["fold"] for s in run.scores.values())
        samples["pipeline.fold_frac"] = len(run.scores)
    if untraced and traced:
        metrics["trace_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        samples["trace_overhead_s"] = min(len(traced), len(untraced))
    return metrics, samples, dropped


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from voxelreg import cli, evaluation, pipeline, regcore

    wl = workloads.make(name)
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    try:
        setup_times = []
        for r in range(SETUP_REPEATS):
            with Stopwatch() as sw:
                wl.setup(seed, workdir / f"setup{r}")
            setup_times.append(sw.seconds)
        run = Run(wl)
        dropped: list[str] = []
        if trace:
            modules = {"pipeline": pipeline, "regcore": regcore, "cli": cli, "evaluation": evaluation}
            trace_path = WORK / "traces" / f"{name}-seed{seed}.json"
            metrics, samples, dropped = measure_traced(run, seconds, modules, trace_path)
        else:
            metrics, samples = measure_untraced(run, seconds)
            metrics["setup_s"] = statistics.median(setup_times)
            samples["setup_s"] = len(setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"run": run, "metrics": metrics, "samples": samples, "dropped": dropped}


def run_one(args) -> int:
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    run = result["run"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {
        k: {"value": v, "unit": units[k]} for k, v in sorted(result["metrics"].items()) if k in units
    }
    # measured and printed, but not gated: see README.md
    ungated = {k: v for k, v in result["metrics"].items() if k not in units}
    ungated["fail_frac"] = run.failed / run.attempted if run.attempted else 1.0

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for k, m in metrics.items():
        print(f"  {k:32s} {m['value']:14.6g} {m['unit']:16s} n={result['samples'].get(k)}")
    for k, v in sorted(ungated.items()):
        print(f"  {k:32s} {v:14.6g} {'fraction':16s} not gated")
    print(f"  operations failed / attempted: {run.failed}/{run.attempted}")
    for msg in run.messages[:20]:
        print(f"  FAILED: {msg}")
    details = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "samples": result["samples"],
        "op_times_s": run.timings,
        "ungated": ungated,
        "failures": run.messages[:100],
        "missing": sorted(set(result["dropped"]) | (set(units) - set(metrics))),
    }
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    import workloads

    rows = []
    status = 0
    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            status = proc.returncode or 1
            continue
        ungated = json.loads(lines[-2].removeprefix("details "))["ungated"]
        rows.append((name, json.loads(lines[-1]), ungated))
    print()
    for name, res, ungated in rows:
        cells = [f"{k}={m['value']:.4g} {m['unit']}" for k, m in res["metrics"].items()]
        cells += [f"{k}={v:.4g}" for k, v in sorted(ungated.items())]
        print(f"{name:16s} ({res['failed']}/{res['attempted']} failed)  " + "  ".join(cells))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "voxelreg" / "__init__.py").is_file():
        print(f"error: no voxelreg sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}, expected one of "
              f"{', '.join(workloads.NAMES)} or all", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
