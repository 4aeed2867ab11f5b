"""Self-test of the benchmark: every workload at tiny sizes.

    python3 perfbench/smoke.py        (from the repository root; about 15 s)

For each workload it runs the operation list twice untraced, twice traced
and once under tracemalloc, and requires that
- every operation exits 0 and passes its independent check, with outputs
  byte-identical across repetitions;
- every per-layer count repeats exactly between the traced repetitions, and
  the layers that the workload exercises report work;
- the self times of each traced repetition sum to its root spans;
- each check rejects a tampered copy of a correct output.
Exit code 0 when all hold.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys
from pathlib import Path

import run

# Per-layer metrics that must be nonzero on each workload.
EXPECTED = {
    "mmospa-scalar": ("estimation.mmospa.passes", "estimation.mmospa.restarts",
                      "quadform.point_cost_matrix.calls", "measures.gm_sample.s"),
    "identity": ("transport.solve.s", "transport.sources", "transport.sinks",
                 "transport.computed_cost_bytes", "transport.peak_bytes",
                 "measures.region_masses.s", "assignment.map.samples",
                 "assignment.cost.samples", "metrics.region_ranks.self_s"),
    "assignment": ("geometry.cells_match.s", "geometry.power_costs.s", "geometry.self_s",
                   "metrics.region_ranks.self_s", "estimation.mospa_mc.s",
                   "transport.sources", "assignment.map.samples", "assignment.cost.samples",
                   "assignment.map.us_per_sample", "assignment.cost.us_per_sample",
                   "cli.output_bytes", "op.peak_traced_bytes"),
}


def _tamper(op, csv: Path) -> Path:
    """Rewrite one output so that it must fail its check; returns the path changed."""
    if op.check in ("verify", "prop1"):
        path = csv.with_suffix(".json")
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["passed"] = False
        doc["agreement"] = 0.5
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path
    lines = csv.read_text(encoding="utf-8").splitlines()
    cells = lines[2].split(",")
    col = 0 if op.check == "mospa" else 1  # the value, distance or coordinate
    cells[col] = repr(float(cells[col]) + 1e-6)
    lines[2] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return csv


def main() -> int:
    root = Path.cwd()
    src = run.bootstrap(root)
    if src is None:
        print("smoke: run from the repository root", file=sys.stderr)
        return 2
    import mospa
    from mospa import cli

    import checks
    import spans
    import workloads

    work = root / ".perfbench_work" / "smoke"
    problems = []
    try:
        for wl in workloads.WORKLOADS:
            ops = workloads.build(wl, 7, work / wl / "inputs", smoke=True)
            reps, layer = [], []
            for r in range(5):  # two untraced, two traced, one memory repetition
                tracer = spans.Tracer(memory=r == 4) if r >= 2 else None
                if tracer:
                    tracer.install()
                try:
                    _, res = run.run_list(cli, ops, work / wl / f"r{r}", tracer)
                finally:
                    if tracer:
                        tracer.uninstall()
                reps.append(res)
                if r == 4:
                    peaks = spans.peak_values(tracer.spans)
                elif tracer:
                    layer.append(spans.layer_values(tracer.spans, run.output_bytes(ops, res)))
                    roots = sum(s.duration for s in tracer.spans if s.parent is None)
                    total_self = sum(s.self_s for s in tracer.spans)
                    if abs(total_self - roots) > 1e-6 * roots:
                        problems.append(f"{wl}: self times sum to {total_self}, roots {roots}")
            checker = checks.Checker(mospa)
            verdict = run.judge(checker, ops, reps)
            problems += [f"{wl}: {f['op']}: {f['reason']} {f['stderr']}"
                         for f in verdict["failures"]]
            values, repeat = spans.combine(layer)
            values.update(peaks)
            if not repeat:
                problems.append(f"{wl}: a per-layer count differed between traced repetitions")
            for name in EXPECTED[wl]:
                if not values[name]:
                    problems.append(f"{wl}: {name} is 0")
            for op, res in zip(ops, reps[0]):
                _tamper(op, res["csv"])
                files = checks.output_files(op, res["csv"])
                digests = tuple(checks.sha256(f) for f in files)
                if checks.Checker(mospa).check(op, 0, res["csv"], digests) is None:
                    problems.append(f"{wl}: {op.label}: tampered output passed its check")
            print(f"smoke {wl}: {verdict['attempted']} operations, {verdict['failed']} failed, "
                  f"counts repeat {repeat}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
