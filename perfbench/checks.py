"""Independent checks of every operation's output.

Each check recomputes the answer by a route that does not go through the code
path it judges:

- verify: the JSON report says passed and the call exited 0;
- prop1: agreement is exactly 1.0 in the CSV and the JSON report;
- mmospa: the estimate is within 1e-9 of `scalar_sort_oracle` on the same
  samples (acceptance criterion 4);
- ospa: every row's distance equals the minimum over all n! permuted
  estimates by a dense enumeration, and a few rows match
  `brute_force_assignment`, region rank included;
- mospa: the value equals the mean of the same dense minima.

Results are cached per output digest, so repeated identical outputs are
judged once.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np

_DENSE_ROWS = 512
_BRUTE_ROWS = 16


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path: Path) -> tuple[str, list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) < 2 or not lines[0].startswith("# "):
        raise ValueError(f"{path.name}: missing comment or header line")
    return lines[0], lines[1].split(","), [ln.split(",") for ln in lines[2:]]


def output_files(op, csv: Path) -> list[Path]:
    files = [csv]
    if op.subcommand in ("verify", "prop1"):
        files.append(csv.with_suffix(".json"))
    return files


def dense_minima(points: np.ndarray, x_hat: np.ndarray, n: int) -> np.ndarray:
    """min over all n! block permutations p of |x - p(x_hat)|^2, per row.

    Enumerates permutations with itertools and evaluates the squared
    distances by a matrix product, independent of the assignment solver.
    """
    d = x_hat.size // n
    blocks = x_hat.reshape(n, d)
    atoms = np.array([blocks[list(p)].reshape(-1) for p in itertools.permutations(range(n))])
    atom_sq = np.einsum("kd,kd->k", atoms, atoms)
    out = np.empty(points.shape[0])
    for lo in range(0, points.shape[0], _DENSE_ROWS):
        x = points[lo:lo + _DENSE_ROWS]
        x_sq = np.einsum("md,md->m", x, x)
        dist = x_sq[:, None] - 2.0 * (x @ atoms.T) + atom_sq[None, :]
        out[lo:lo + len(x)] = dist.min(axis=1)
    return np.maximum(out, 0.0)


class Checker:
    """Judges outputs of one run; `mospa` is the imported package under test."""

    def __init__(self, mospa):
        self.mospa = mospa
        self._verdicts: dict[tuple, str | None] = {}
        self._samples: dict[tuple, object] = {}

    def _draw(self, op, m):
        key = (str(op.scenario), m)
        if key not in self._samples:
            scen = self.mospa.parse_scenario(op.scenario)
            self._samples[key] = (scen, self.mospa.gm_sample(scen.mixture, scen.seed, m))
        return self._samples[key]

    def check(self, op, code: int, csv: Path, digests: tuple[str, ...]) -> str | None:
        """None when the output is correct, else a one-line reason."""
        if code != 0:
            return f"exit code {code}"
        key = (op.label, digests)
        if key not in self._verdicts:
            try:
                self._verdicts[key] = getattr(self, "_" + op.check)(op, csv)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                self._verdicts[key] = f"unreadable output: {exc}"
        return self._verdicts[key]

    def _verify(self, op, csv):
        report = json.loads(csv.with_suffix(".json").read_text(encoding="utf-8"))
        _, header, rows = read_csv(csv)
        if report.get("passed") is not True or rows[0][header.index("passed")] != "true":
            return f"identity check did not pass (rel_diff {report.get('rel_diff')})"
        return None

    def _prop1(self, op, csv):
        report = json.loads(csv.with_suffix(".json").read_text(encoding="utf-8"))
        _, header, rows = read_csv(csv)
        if report.get("agreement") != 1.0 or float(rows[0][header.index("agreement")]) != 1.0:
            return f"power cells disagree with regions (agreement {report.get('agreement')})"
        if int(rows[0][header.index("sample_count")]) != op.samples:
            return "wrong sample_count"
        return None

    def _mmospa(self, op, csv):
        _, _, rows = read_csv(csv)
        got = np.array([float(r[1]) for r in rows])
        _, samples = self._draw(op, op.samples)
        oracle = np.sort(self.mospa.scalar_sort_oracle(samples).data)
        gap = float(np.abs(np.sort(got) - oracle).max())
        return None if gap <= 1e-9 else f"sort-oracle gap {gap:.3e} > 1e-9"

    def _ospa(self, op, csv):
        _, header, rows = read_csv(csv)
        if len(rows) != op.samples:
            return f"{len(rows)} rows, expected {op.samples}"
        dist = np.array([float(r[header.index("distance")]) for r in rows])
        ranks = [int(r[header.index("region_rank")]) for r in rows]
        scen, samples = self._draw(op, op.samples)
        x_hat = np.asarray(op.x_hat)
        n, d = scen.n_targets, scen.state_dim
        dense = dense_minima(samples.points, x_hat, n)
        scale = 1.0 + np.einsum("md,md->m", samples.points, samples.points) + float(x_hat @ x_hat)
        worst = int(np.argmax(np.abs(dist - dense) / scale))
        if abs(dist[worst] - dense[worst]) > 1e-9 * scale[worst]:
            return f"row {worst}: distance {dist[worst]!r} vs dense minimum {dense[worst]!r}"
        blocks = x_hat.reshape(n, d)
        for i in np.linspace(0, op.samples - 1, _BRUTE_ROWS).astype(int):
            xb = samples.points[i].reshape(n, d)
            cost = ((xb[:, None, :] - blocks[None, :, :]) ** 2).sum(axis=2)
            perm, total = self.mospa.brute_force_assignment(cost)
            if abs(total - dist[i]) > 1e-12 * max(1.0, total) or perm.rank() != ranks[i]:
                return (f"row {i}: ({dist[i]!r}, rank {ranks[i]}) vs brute force "
                        f"({total!r}, rank {perm.rank()})")
        return None

    def _mospa(self, op, csv):
        _, header, rows = read_csv(csv)
        value = float(rows[0][header.index("value")])
        if int(rows[0][header.index("sample_count")]) != op.samples:
            return "wrong sample_count"
        scen, samples = self._draw(op, op.samples)
        ref = float(np.mean(dense_minima(samples.points, np.asarray(op.x_hat), scen.n_targets)))
        if not math.isclose(value, ref, rel_tol=1e-9):
            return f"value {value!r} vs dense mean {ref!r}"
        return None
