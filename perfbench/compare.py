"""Compare two sets of benchmark results.

    python3 perfbench/compare.py <base results dir> <change results dir>

Each directory holds the records that run.py writes to `--results`.  For each
workload and end-to-end metric the report gives both sides' median and
quartiles and a verdict, using the bounds in BENCHMARK.json:

- better: at least ten runs paired by seed, the change wins at least nine
  tenths of the pairs (ties count for neither), and the medians differ by
  more than the base's quartile distance;
- unresolved: the base's own spread (quartile distance over median) is wider
  than the bound, unless every change run beats every base run;
- worse: the change's median is worse than the base's by more than the bound;
- unchanged: otherwise.

It also prints failed operations, per-layer medians from traced runs, and
flags every output digest or deterministic count that differs between runs
of the same workload and seed.  Exit code 1 when any metric is worse, any
output digest differs, or the change fails more operations.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import EXACT, LAYER_METRICS  # noqa: E402


def load(directory: Path) -> list[dict]:
    records = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(directory.glob("*.json"))]
    if not records:
        raise SystemExit(f"compare: no result records in {directory}")
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base: dict, change: dict, bound: float, lower_is_better: bool) -> str:
    """base and change map seed -> value."""
    sign = 1.0 if lower_is_better else -1.0
    b, c = list(base.values()), list(change.values())
    mb, mc = statistics.median(b), statistics.median(c)
    q1, q3 = quartiles(b)
    pairs = [(base[s], change[s]) for s in base if s in change]
    wins = sum(sign * (cv - bv) < 0 for bv, cv in pairs)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and sign * (mb - mc) > q3 - q1:
        return "better"
    all_better = max(sign * v for v in c) < min(sign * v for v in b)
    if (q3 - q1) / abs(mb) > bound and not all_better:
        return "unresolved"
    if sign * (mc - mb) / abs(mb) > bound:
        return "worse"
    return "unchanged"


def _by_key(records, trace):
    out = defaultdict(dict)
    for r in records:
        if r["trace"] == trace:
            out[r["workload"]][r["seed"]] = r
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 64
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    base_all, change_all = load(Path(argv[0])), load(Path(argv[1]))
    bad = False

    for side, records in (("base", base_all), ("change", change_all)):
        envs = {json.dumps({k: v for k, v in r["environment"].items() if k != "seed"},
                           sort_keys=True) for r in records}
        for env in envs:
            e = json.loads(env)
            print(f"{side}: sha {e['git_sha'][:12]} src {e['source_sha256'][:12]} "
                  f"{e['cpu_model']} x{e['nproc']} numpy {e['numpy']} scipy {e['scipy']} "
                  f"blas {e['blas_threads']}")

    base, change = _by_key(base_all, 0), _by_key(change_all, 0)
    print(f"\n{'workload':14s} {'metric':12s} {'base median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s}  verdict")
    for wl in sorted(set(base) & set(change)):
        for m in spec["end_to_end"]:
            name = m["name"]
            b = {s: r["metrics"][name]["value"] for s, r in base[wl].items()}
            c = {s: r["metrics"][name]["value"] for s, r in change[wl].items()}
            v = verdict(b, c, m["bound"], m["better"] == "lower")
            bad |= v == "worse"
            bq, cq = quartiles(list(b.values())), quartiles(list(c.values()))
            print(f"{wl:14s} {name:12s} "
                  f"{statistics.median(b.values()):12.5g} [{bq[0]:.5g}, {bq[1]:.5g}] "
                  f"{statistics.median(c.values()):12.5g} [{cq[0]:.5g}, {cq[1]:.5g}]  "
                  f"{v} ({len(b)} vs {len(c)} runs, bound {m['bound']}, {m['unit']})")
        fb = sum(r["failed"] for r in base[wl].values())
        fc = sum(r["failed"] for r in change[wl].values())
        ab = sum(r["attempted"] for r in base[wl].values())
        ac = sum(r["attempted"] for r in change[wl].values())
        print(f"{wl:14s} fail_frac    {fb}/{ab} vs {fc}/{ac}")
        bad |= fc / ac > fb / ab

    tb, tc = _by_key(base_all, 1), _by_key(change_all, 1)
    for wl in sorted(set(tb) & set(tc)):
        print(f"\nper-layer medians, {wl} (base -> change)")
        for name, unit in LAYER_METRICS.items():
            bv = statistics.median(r["metrics"][name]["value"] for r in tb[wl].values())
            cv = statistics.median(r["metrics"][name]["value"] for r in tc[wl].values())
            if bv or cv:
                ratio = f"x{cv / bv:.3f}" if bv else "new"
                print(f"  {name:44s} {bv:12.6g} -> {cv:12.6g} {unit:6s} {ratio}")

    print("\nflags")
    flags = 0
    for trace in (0, 1):
        b_runs, c_runs = _by_key(base_all, trace), _by_key(change_all, trace)
        for wl in sorted(set(b_runs) & set(c_runs)):
            for seed in sorted(set(b_runs[wl]) & set(c_runs[wl])):
                rb, rc = b_runs[wl][seed], c_runs[wl][seed]
                for op, info in rb["ops"].items():
                    other = rc["ops"].get(op, {}).get("digests")
                    if other != info["digests"]:
                        flags += 1
                        bad = True
                        print(f"  output digest differs: {wl} seed {seed} {op}")
                if trace:
                    for name in sorted(EXACT):
                        if rb["metrics"][name]["value"] != rc["metrics"][name]["value"]:
                            flags += 1
                            print(f"  count differs: {wl} seed {seed} {name} "
                                  f"{rb['metrics'][name]['value']} -> "
                                  f"{rc['metrics'][name]['value']}")
    if not flags:
        print("  none: outputs byte-identical and counts equal on every shared seed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
