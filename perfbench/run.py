"""mospa benchmark: run one workload through `mospa.cli.run` and report metrics.

Run from the repository root:

    python3 perfbench/run.py --workload identity --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Load model: closed loop, one client in one process.  The workload's fixed
list of CLI operations is called back to back, in process, through the public
entry point `mospa.cli.run(argv)`, and the list is repeated until the
repetitions and the reference loops between them have taken about
`--seconds` (at least once; the last repetition ends less than half a
repetition past it).  BLAS threads are pinned to one.  Inputs (scenario
files and estimates) are generated from `--seed`; the program sees only those
files and flags.

With `--trace 0` the run reports the end-to-end metrics: `wall_rel` (wall
time of one repetition of the operation list, in units of the wall time of a
fixed reference loop of Python and numpy work timed between the operations of
the same run, so that the machine's drifting speed cancels; see `SpeedProbe`),
`setup_s` (median seconds from the start of a fresh interpreter to `import
mospa` done and the workload's scenarios parsed, over several probes spread
between the repetitions, since the machine's speed for start-up work changes
within seconds) and `peak_rss_mb` (peak resident memory of this process
through the first repetition).  The plain wall seconds per repetition
(`wall_s`: their mean, median and quartiles) are printed and recorded too.
With `--trace 1` untraced and traced repetitions alternate, one repetition
under tracemalloc follows for the peak bytes, and the run reports the
per-layer metrics of spans.py.

Every operation's output is checked by an independent route (checks.py) and
its sha256 recorded.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; a fuller record, with the digests and
the machine description, goes to `--results` for compare.py.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
SETUP_PROBES_FIRST = 2  # before the first repetition, the rest spread over the run
SETUP_TIMEOUT_S = 60
PROBE_EVERY_S = 1.0  # program seconds per reference loop


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="a workload of workloads.py, or `all` for each in turn (untraced)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", type=Path, default=Path(".perfbench_results"),
                   help="directory for the full result record (default .perfbench_results)")
    return p.parse_args(argv)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class SpeedProbe:
    """Wall time of the program in units of the wall time of a reference loop.

    On a shared machine the speed of identical work drifts by 20-30% over
    tens of seconds, and whole runs can land in a slow period.  The reference
    loop is fixed work of the kinds the program does, in about equal shares
    (about 0.1 s in all on a 2-CPU Xeon VM): integer arithmetic in the
    interpreter, sorting and grouping Python objects, many numpy calls on tiny
    arrays, and numpy passes over an array that fits in L2 and over one that
    does not.  Whenever PROBE_EVERY_S seconds of program work have passed, the
    loop runs once per PROBE_EVERY_S between the operations, and since it
    slows down with the machine, each stretch of program time divided by the
    mean loop time of the two bursts that bracket it cancels most of the
    drift.  The loops' own time is not program time.
    """

    def __init__(self):
        import numpy as np  # only after bootstrap() pinned the BLAS threads

        rng = np.random.default_rng(0)
        self.tiny = rng.standard_normal((6, 6))
        self.small = rng.standard_normal(32_000)  # 256 KB
        self.large = rng.standard_normal(2_000_000)  # 16 MB
        self.items = [(i * 7919 % 1000, str(i)) for i in range(3000)]
        self.last = None  # mean loop seconds of the last burst
        self.pending = 0.0  # program seconds since the last burst
        self.relative = 0.0  # program time so far, in reference loops
        self.bursts = []  # mean loop seconds of each burst
        self.spent = 0.0  # seconds spent in reference loops

    def reference_loop(self) -> float:
        """Seconds taken by the fixed reference work."""
        import numpy as np

        started = time.perf_counter()
        acc, table = 0, {}
        for i in range(120_000):
            acc += (i * i) % 7
            table[i & 255] = acc
        for _ in range(12):
            groups = {}
            for key, value in sorted(self.items):
                groups.setdefault(key, []).append(value)
        for _ in range(2700):
            y = self.tiny @ self.tiny
            np.argmin(y[0])
            y.sum(axis=0)
        for x, passes in ((self.small, 400), (self.large, 1)):
            for _ in range(passes):
                y = x * x
                np.argmin(np.minimum(x, y))
                y.sum()
        return time.perf_counter() - started

    def add(self, seconds: float):
        self.pending += seconds
        if self.pending >= PROBE_EVERY_S:
            self.flush()

    def flush(self):
        if self.pending > 0.0:
            loops = max(1, round(self.pending / PROBE_EVERY_S))
            spent = sum(self.reference_loop() for _ in range(loops))
            self.spent += spent
            now = spent / loops
            before = now if self.last is None else self.last
            self.relative += self.pending / (0.5 * (before + now))
            self.last, self.pending = now, 0.0
            self.bursts.append(now)


def measure_setup(src: Path, scenarios: list[Path], probes: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its `ready` line, `probes` times."""
    times = []
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(src), *map(str, scenarios)]
    for _ in range(probes):
        started = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
        times.append(elapsed)
    return times


def run_list(cli, ops, outdir: Path, tracer=None, probe=None):
    """One repetition of the operation list; returns (wall seconds, per-op results).

    The wall seconds are the sum of the operations' own; `probe` sees each
    operation's seconds as it ends and may run its reference loop then.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    results = []
    for i, op in enumerate(ops):
        csv = outdir / f"{op.label}.csv"
        err = io.StringIO()
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.op = i
            span = tracer.open("cli.run")
        try:
            with contextlib.redirect_stderr(err):
                code = cli.run(op.argv(csv))
        except Exception:  # the program crashed: count the operation as failed
            code = -1
            err.write(traceback.format_exc(limit=3))
        finally:
            if tracer is not None:
                tracer.close(span)
        wall = time.perf_counter() - t0
        results.append({"op": op.label, "code": code, "csv": csv,
                        "wall_s": wall, "stderr": err.getvalue()})
        if probe is not None:
            probe.add(wall)
    return sum(r["wall_s"] for r in results), results


def environment(root: Path, src: Path, seed: int) -> dict:
    import numpy
    import scipy

    sha = "unknown"
    if (root / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
    digest = hashlib.sha256()
    for path in sorted((src / "mospa").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for name in ("SC_LEVEL1_DCACHE_SIZE", "SC_LEVEL2_CACHE_SIZE", "SC_LEVEL3_CACHE_SIZE"):
        with contextlib.suppress(ValueError, OSError):
            caches[name[3:].lower()] = os.sysconf(name)
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "cache_bytes": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "seed": seed,
    }


def bootstrap(root: Path) -> Path | None:
    """Pin BLAS threads and put ./src first on sys.path; None without a source tree."""
    src = root / "src"
    if not (src / "mospa" / "cli.py").is_file():
        return None
    for var in BLAS_VARS:  # before numpy loads its BLAS
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    return src


def output_bytes(ops, res) -> int:
    """Bytes written by one repetition of the operation list."""
    import checks  # imports numpy, so only after bootstrap()

    return sum(f.stat().st_size for op, r in zip(ops, res)
               for f in checks.output_files(op, r["csv"]) if f.exists())


def judge(checker, ops, reps) -> dict:
    """Check every operation of every repetition; outputs must also repeat byte for byte."""
    import checks  # imports numpy, so only after bootstrap()

    first: dict[str, tuple] = {}
    failures = []
    records = {op.label: {"wall_s": [], "digests": None} for op in ops}
    attempted = 0
    for res in reps:
        for op, r in zip(ops, res):
            files = checks.output_files(op, r["csv"])
            digests = tuple(checks.sha256(f) if f.exists() else "missing" for f in files)
            reason = checker.check(op, r["code"], r["csv"], digests)
            if reason is None and first.setdefault(op.label, digests) != digests:
                reason = "output differs from the first repetition"
            attempted += 1
            if reason is not None:
                failures.append({"op": op.label, "reason": reason,
                                 "stderr": r["stderr"].strip()[-400:]})
            rec = records[op.label]
            rec["wall_s"].append(r["wall_s"])
            rec["digests"] = rec["digests"] or {f.name: d for f, d in zip(files, digests)}
    return {"attempted": attempted, "failed": len(failures), "failures": failures,
            "ops": records}


def run_all(args) -> int:
    """Every workload, each in its own interpreter so that peak RSS stays per
    workload, then one table of their end-to-end metrics."""
    import workloads

    rows = []
    for wl in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0", "--results", str(args.results)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        # plain wall seconds are not a result-line metric; take them from the printout
        wall_s = re.search(r"^  wall_s +(\S+) s", proc.stdout, re.M).group(1)
        rows.append((wl, float(wall_s), json.loads(proc.stdout.splitlines()[-1])))
    print(f"\n{'workload':14s} {'wall_rel':>14s} {'wall_s':>12s} {'setup_s':>12s} "
          f"{'peak_rss_mb':>14s} {'fail_frac':>12s}")
    for wl, wall_s, res in rows:
        m = res["metrics"]
        print(f"{wl:14s} {m['wall_rel']['value']:8.4f} ratio {wall_s:10.4f} s "
              f"{m['setup_s']['value']:10.4f} s {m['peak_rss_mb']['value']:11.1f} MB "
              f"{res['failed'] / res['attempted']:6.4g} ratio")
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    src = bootstrap(root)
    if src is None:
        print("perfbench: no mospa sources at ./src/mospa; run from the repository root",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    import mospa
    from mospa import cli

    import checks
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        ops = workloads.build(args.workload, args.seed, work / "inputs")
        scenarios = sorted({op.scenario for op in ops})
        setup = measure_setup(src, scenarios, SETUP_PROBES_FIRST)
        run_list(cli, workloads.build(args.workload, args.seed, work / "warm", smoke=True),
                 work / "warm" / "out")

        untraced, traced_walls, layer_reps, reps = [], [], [], []
        timed = 0.0  # seconds of timed repetitions so far
        probe = None
        while True:
            gc.collect()
            wall, res = run_list(cli, ops, work / "out" / f"r{len(reps)}", probe=probe)
            untraced.append(wall)
            reps.append(res)
            timed += wall
            if probe is None:
                # later repetitions only add heap fragmentation, and their
                # number depends on the machine's speed
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                # made only now, so that its arrays stay out of the peak
                probe = SpeedProbe()
                probe.add(wall)
            if args.trace:
                gc.collect()
                tracer = spans.Tracer()
                tracer.install()
                try:
                    wall, res = run_list(cli, ops, work / "out" / f"r{len(reps)}", tracer)
                finally:
                    tracer.uninstall()
                traced_walls.append(wall)
                reps.append(res)
                timed += wall
                layer_reps.append(spans.layer_values(tracer.spans, output_bytes(ops, res)))
            round_s = statistics.median(untraced) + (statistics.median(traced_walls)
                                                     if args.trace else 0.0)
            # start another round only if it would end less than half a
            # round past the budget, which the reference loops share
            if timed + probe.spent + 0.5 * round_s > args.seconds:
                probe.flush()
                break
            due = round(SETUP_PROBES * timed / args.seconds)
            setup += measure_setup(src, scenarios, min(due, SETUP_PROBES) - len(setup))
        setup += measure_setup(src, scenarios, SETUP_PROBES - len(setup))
        if args.trace:
            gc.collect()
            tracer = spans.Tracer(memory=True)
            tracer.install()
            try:
                _, res = run_list(cli, ops, work / "out" / f"r{len(reps)}", tracer)
            finally:
                tracer.uninstall()
            reps.append(res)
            peaks = spans.peak_values(tracer.spans)

        verdict = judge(checks.Checker(mospa), ops, reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    wall_s = statistics.fmean(untraced)
    wall_rel = probe.relative / len(untraced)
    samples = sum(op.samples for op in ops)
    if args.trace:
        layer, counts_repeat = spans.combine(layer_reps)
        layer.update(peaks)
        layer["trace.overhead_frac"] = statistics.fmean(traced_walls) / wall_s - 1.0
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in spans.LAYER_METRICS.items()}
    else:
        counts_repeat = None
        metrics = {
            "wall_rel": {"value": wall_rel, "unit": "ratio"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    q1, q3 = _quartiles(untraced)
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced_walls)} traced repetitions of {len(ops)} operations "
          f"({', '.join(op.label for op in ops)})")
    print(f"  wall_rel     {wall_rel:.4f} ratio  (repetition over reference loop)")
    print(f"  wall_s       {wall_s:.4f} s  (mean of {len(untraced)}; median "
          f"{statistics.median(untraced):.4f}, quartiles {q1:.4f} .. {q3:.4f}; "
          f"{samples / wall_s:.4g} Monte Carlo samples/s at {samples} samples per repetition)")
    print(f"  setup_s      {statistics.median(setup):.4f} s  (median of {len(setup)} probes)")
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
    attempted, failed = verdict["attempted"], verdict["failed"]
    print(f"  fail_frac    {failed / attempted:.4g} ratio  ({failed} of {attempted} operations)")
    for f in verdict["failures"][:5]:
        print(f"  FAILED {f['op']}: {f['reason']}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
        if not counts_repeat:
            print("  WARNING: a deterministic count differed between traced repetitions")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": environment(root, src, args.seed),
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "failures": verdict["failures"], "repetitions_s": untraced, "wall_s": wall_s,
        "reference_loop_s": probe.bursts,
        "traced_repetitions_s": traced_walls,
        "setup_probes_s": setup, "metrics": metrics, "counts_repeat": counts_repeat,
        "ops": {label: {"wall_s": statistics.median(r["wall_s"]), "digests": r["digests"]}
                for label, r in verdict["ops"].items()},
    }
    args.results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (args.results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
