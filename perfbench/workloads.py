"""Benchmark workloads and the seed-driven input generator.

A workload is a fixed list of CLI operations.  `build` turns a workload name
and a seed into scenario JSON files plus the argv of each operation; the
program under test receives nothing but those files and flags.  The same seed
always gives byte-identical inputs.

Why these three workloads (shares from a profile of the seed commit on a
2-CPU x86 box):

- mmospa-scalar: the README `mmospa` example (n=2, d=1, m=1e6).  All the
  work is the MMOSPA descent in `estimation` and the `quadform` kernel; the
  16 MB sample array exceeds L2.  No per-sample assignment, no transport.
- identity: `verify --mode same-sample` on six scenarios each at n=5 and
  n=6 (d=1, m=2000), the paper's central identity.  The transportation
  simplex dominates; the per-sample assignment is the rest.
- assignment: `prop1` at n=4, d=1 and `verify --mode independent` at n=3,
  d=2 (m=1e5 each), the shapes of the slowest acceptance criteria, where a
  dense argmin over n! atoms is cheap; then `ospa` (m=1e4, one CSV row per
  sample) and cost-only `mospa` (m=1e5) at n=7, d=2, where it is not, and
  where the CLI writes O(m) output.  Per-sample assignment dominates; power
  cells and a small transport problem ride along.

On a shared 2-CPU machine the wall time of identical work drifts by 20-30%
over tens of seconds, so each workload runs long and the benchmark keeps to
three workloads (the n=7 operations share a workload with the small-n ones).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("mmospa-scalar", "identity", "assignment")


@dataclass(frozen=True)
class Op:
    """One CLI call: `mospa <subcommand> --scenario <file> <extra> --output <csv>`."""

    label: str
    subcommand: str
    scenario: Path
    extra: tuple[str, ...]
    samples: int
    check: str
    # the estimate passed in `extra`, kept for the independent check
    x_hat: tuple[float, ...] | None = None

    def argv(self, output: Path) -> list[str]:
        return [self.subcommand, "--scenario", str(self.scenario), *self.extra,
                "--output", str(output)]


def _x_hat_flag(values) -> str:
    # the `=` form: a leading minus would otherwise read as a flag (exit 64)
    return "--x-hat=" + ",".join(repr(float(v)) for v in values)


def _write(path: Path, n, d, seed, m, components) -> Path:
    doc = {
        "n_targets": n, "state_dim": d, "seed": int(seed), "sample_count": int(m),
        "mixture": [{"weight": float(w), "mean": [float(v) for v in mean],
                     "cov": [[float(v) for v in row] for row in cov]}
                    for w, mean, cov in components],
    }
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


def _two_mode(rng, n, d, gap=1.0, sigma=1.0, jitter=0.1):
    """Two equal modes whose target blocks are the same points in reverse order.

    Blocks sit `gap` apart along the first axis (zig-zagging on the second
    when d > 1) and are jittered by the seed; the estimate is mode one plus
    its own jitter, so its blocks are distinct.  The shape is fixed, so the
    work per operation hardly depends on the seed; the seed moves the points
    and picks the Monte Carlo draw.
    """
    base = np.zeros((n, d))
    base[:, 0] = gap * (np.arange(n) - (n - 1) / 2.0)
    if d > 1:
        base[:, 1] = 0.5 * gap * (-1.0) ** np.arange(n)
    mode = base + rng.uniform(-jitter, jitter, size=(n, d))
    x_hat = mode + rng.uniform(-jitter, jitter, size=(n, d))
    cov = sigma ** 2 * np.eye(n * d)
    comps = [(0.5, mode.reshape(-1), cov), (0.5, mode[::-1].reshape(-1), cov)]
    return comps, x_hat.reshape(-1)


# Full sizes, and the smoke sizes used for warm-up and the self-test.
_SIZES = {
    False: {"mmospa": 1_000_000, "identity": 2000, "regions": 100_000,
            "ospa": 10_000, "mospa": 100_000},
    True: {"mmospa": 4000, "identity": 300, "regions": 2000,
           "ospa": 200, "mospa": 1000},
}


def build(workload: str, seed: int, workdir: Path, smoke: bool = False) -> list[Op]:
    """Write the scenario files of `workload` for `seed` under `workdir`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    sizes = _SIZES[smoke]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    workdir.mkdir(parents=True, exist_ok=True)

    def scenario(name, n, d, m):
        comps, x_hat = _two_mode(rng, n, d)
        path = _write(workdir / f"{name}.json", n, d, int(rng.integers(0, 2 ** 31)), m, comps)
        return path, x_hat

    if workload == "mmospa-scalar":
        # demos/scenarios/two_iid_normals.json with the seed taken from the
        # workload seed (seed 4 reproduces the demo file's draw)
        m = sizes["mmospa"]
        path = _write(workdir / "two_iid_normals.json", 2, 1, seed, m,
                      [(1.0, [0.0, 0.0], np.eye(2))])
        return [Op("mmospa-n2d1", "mmospa", path, ("--samples", str(m)), m, "mmospa")]

    if workload == "identity":
        # six scenarios per size: the time of one n=6 operation depends on
        # its draw (0.8-1.45 s between draws on a 2-CPU Xeon VM), and the
        # sum over six draws keeps most of that from moving the seed's total
        m = sizes["identity"]
        ops = []
        for n in (5, 6):
            for k in "abcdef":
                path, x_hat = scenario(f"identity_n{n}d1{k}", n, 1, m)
                ops.append(Op(f"verify-same-n{n}d1{k}", "verify", path,
                              (_x_hat_flag(x_hat), "--mode", "same-sample", "--samples",
                               str(m)), m, "verify", tuple(x_hat)))
        return ops

    m = sizes["regions"]
    p1, x1 = scenario("regions_n4d1", 4, 1, m)
    p2, x2 = scenario("regions_n3d2", 3, 2, m)
    # the n=7 operations share one scenario and estimate
    p3, x3 = scenario("tables_n7d2", 7, 2, sizes["mospa"])
    return [
        Op("prop1-n4d1", "prop1", p1, (_x_hat_flag(x1), "--samples", str(m)),
           m, "prop1", tuple(x1)),
        Op("verify-indep-n3d2", "verify", p2,
           (_x_hat_flag(x2), "--mode", "independent", "--samples", str(m)),
           m, "verify", tuple(x2)),
        Op("ospa-n7d2", "ospa", p3, (_x_hat_flag(x3), "--samples", str(sizes["ospa"])),
           sizes["ospa"], "ospa", tuple(x3)),
        Op("mospa-n7d2", "mospa", p3, (_x_hat_flag(x3), "--samples", str(sizes["mospa"])),
           sizes["mospa"], "mospa", tuple(x3)),
    ]
