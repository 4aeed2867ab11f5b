"""Command-line front end.

Each subcommand maps onto one library operation and writes machine-readable
CSV (verify and prop1 also write a JSON report next to the CSV).  Numbers are
emitted in full precision (round-trip exact), human summaries go to stderr
only, and every output file embeds the scenario digest and effective seed on
a leading comment line, so repeated runs with the same seed are byte
identical.

Exit codes: 0 success, 1 validation failure (including a request too large
to allocate), 2 verification or solver failure, 64 usage.

Layout (left out of --help): each subcommand's handler only computes.  It
returns its CSV header and rows, its stderr summary, and the verdict of a
one-row report (verify, prop1), or None for a plain table.  `run` alone
resolves --q and --x-hat, writes every CSV and JSON report, prints the
summary and picks the exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import rng
from .assignment import batch_optimal_permutations
from .estimation import MmospaConfig, mmospa_estimate, mospa_mc
from .geometry import WeightedSites, cells_match_regions, export_diagram_2d
from .measures import build_region_measure, estimate_region_masses, gm_sample
from .metrics import _warn_if_degenerate
from .scenarios import Scenario, ScenarioParseError, parse_scenario, scenario_digest
from .states import (
    StackedState,
    _check_rank_width,
    _check_target_count,
    batch_permutation_ranks,
    permutation_array,
    permuted_atoms,
)
from .transport import verify_mospa_wasserstein, w2_squared


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: Path, comment: str, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# {comment}", ",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_x_hat(args, scenario: Scenario) -> StackedState | None:
    if args.x_hat is None:
        if args.subcommand == "mmospa":
            return None  # the descent starts from the per-target mean
        raise ValueError(f"subcommand {args.subcommand} requires --x-hat")
    try:
        values = [float(tok) for tok in args.x_hat.split(",")]
    except ValueError:
        raise ValueError(f"--x-hat is not a comma-separated float list: {args.x_hat!r}") from None
    if len(values) != scenario.dim:
        raise ValueError(f"--x-hat needs {scenario.dim} values, got {len(values)}")
    return StackedState(scenario.n_targets, scenario.state_dim, np.asarray(values))


def _resolve_q(args, scenario: Scenario):
    if args.q == "identity":
        return None
    if scenario.q_matrix is None:
        raise ValueError("--q scenario requested but the scenario has no q_matrix")
    return scenario.q_matrix


def _sample(scenario: Scenario):
    return gm_sample(scenario.mixture, scenario.seed, scenario.sample_count)


def _cmd_distance_table(args, scenario, x_hat, q):
    if args.subcommand == "gospa" and q is None:
        raise ValueError("gospa requires --q scenario (use ospa for the identity weight)")
    _check_rank_width(scenario.n_targets)  # refuse before any sample is drawn
    samples = _sample(scenario)
    _warn_if_degenerate(x_hat)  # the region_rank column, as batch_region_ranks warns
    mappings, costs = batch_optimal_permutations(samples.points, x_hat, q)
    ranks = batch_permutation_ranks(mappings)
    rows = ((i, costs[i], int(ranks[i])) for i in range(len(samples)))
    return (["sample_index", "distance", "region_rank"], rows,
            {"mean_distance": float(np.mean(costs))}, None)


def _cmd_mospa(args, scenario, x_hat, q):
    est = mospa_mc(_sample(scenario), x_hat, q)
    return (["value", "std_error", "sample_count"],
            [(est.value, est.std_error, est.sample_count)],
            {"value": est.value, "std_error": est.std_error}, None)


def _cmd_mmospa(args, scenario, x_hat, q):
    samples = _sample(scenario)
    cfg = MmospaConfig(seed=rng.derive_seed(scenario.seed, 11))
    result = mmospa_estimate(samples, init=x_hat, config=cfg, q=q)
    blocks = result.estimate.blocks()
    header = ["target_index"] + [f"coord_{c}" for c in range(scenario.state_dim)]
    rows = [(i, *blocks[i]) for i in range(scenario.n_targets)]
    return header, rows, {
        "empirical_mospa": result.empirical_mospa,
        "iterations": result.iterations,
        "converged": result.converged,
    }, None


def _cmd_masses(args, scenario, x_hat, q):
    _check_target_count(scenario.n_targets)  # refuse before any sample is drawn
    masses = estimate_region_masses(_sample(scenario), x_hat, q)
    perms = permutation_array(scenario.n_targets).tolist()
    rows = [(k, "|".join(map(str, perms[k])), masses[k]) for k in range(len(masses))]
    return ["region_rank", "permutation", "mass"], rows, {"n_regions": len(masses)}, None


def _cmd_wasserstein(args, scenario, x_hat, q):
    _check_target_count(scenario.n_targets)  # refuse before any sample is drawn
    samples = _sample(scenario)
    masses = estimate_region_masses(samples, x_hat, q)
    nu = build_region_measure(x_hat, masses)
    value = w2_squared(samples, nu, q)
    return (["w2_squared", "n_sources", "n_atoms"], [(value, len(samples), len(nu))],
            {"w2_squared": value}, None)


def _cmd_verify(args, scenario, x_hat, q):
    report = verify_mospa_wasserstein(scenario, x_hat, mode=args.mode, q=q)
    header = ["mospa_value", "w2_squared", "abs_diff", "rel_diff", "mode", "tolerance",
              "passed"]
    return (header, [tuple(getattr(report, name) for name in header)],
            {"passed": report.passed}, report.passed)


def _cmd_prop1(args, scenario, x_hat, q):
    _check_target_count(scenario.n_targets)  # refuse before any sample is drawn
    samples = _sample(scenario)
    agreement = cells_match_regions(x_hat, samples, q)
    return (["agreement", "sample_count"], [(agreement, len(samples))],
            {"agreement": agreement}, agreement == 1.0)


def _cmd_voronoi(args, scenario, x_hat, q):
    atoms = permuted_atoms(x_hat)
    sites = WeightedSites(atoms, np.zeros(atoms.shape[0]))
    segments = export_diagram_2d(sites, q, bbox=args.bbox)
    rows = [(i, j, a[0], a[1], b[0], b[1]) for (i, j), (a, b) in segments]
    return ["site_i", "site_j", "x0", "y0", "x1", "y1"], rows, {"n_segments": len(rows)}, None


def _bbox(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("--bbox expects lo,hi")
    return float(parts[0]), float(parts[1])


def _build_parser() -> _Parser:
    parser = _Parser(prog="mospa", description=__doc__.partition("\n\nLayout")[0],
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    for name, text, handler in (
        ("ospa", "per-sample label-free squared distances to --x-hat", _cmd_distance_table),
        ("gospa", "per-sample Q-weighted label-free squared distances", _cmd_distance_table),
        ("mospa", "Monte Carlo mean label-free squared distance", _cmd_mospa),
        ("mmospa", "alternating-descent minimum-MOSPA estimate", _cmd_mmospa),
        ("masses", "sample mass captured by each permutation region", _cmd_masses),
        ("wasserstein", "optimal transport cost to the induced atom measure",
         _cmd_wasserstein),
        ("verify", "MOSPA versus squared Wasserstein identity check", _cmd_verify),
        ("prop1", "power-cell versus region classifier agreement", _cmd_prop1),
        ("voronoi", "2-D power diagram boundary segments", _cmd_voronoi),
    ):
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler)
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--x-hat", help="comma-separated stacked estimate")
        p.add_argument("--samples", type=int, help="override scenario sample_count")
        p.add_argument("--seed", type=int, help="override scenario seed")
        p.add_argument("--q", choices=("identity", "scenario"), default="identity",
                       help="distance weighting (default identity)")
        p.add_argument("--output", required=True, type=Path, help="output CSV path")
        if name == "verify":
            p.add_argument("--mode", choices=("same-sample", "independent"),
                           default="same-sample")
        if name == "voronoi":
            p.add_argument("--bbox", type=_bbox, default=(-10.0, 10.0),
                           help="square clip box lo,hi (default -10,10)")
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    started = time.perf_counter()
    out = args.output
    try:
        scenario = parse_scenario(args.scenario).with_overrides(
            seed=args.seed, sample_count=args.samples)
        q = _resolve_q(args, scenario)
        x_hat = _parse_x_hat(args, scenario)
        digest = scenario_digest(scenario)
        header, rows, summary, passed = args.handler(args, scenario, x_hat, q)
        _write_csv(out, f"scenario_digest={digest} seed={scenario.seed} "
                        f"subcommand={args.subcommand}", header, rows)
        if passed is not None:  # a one-row report: its JSON sibling too
            report = {"scenario_digest": digest, "seed": scenario.seed,
                      **dict(zip(header, rows[0])), "passed": passed}
            sibling = out.with_suffix(".json") if out.suffix == ".csv" else Path(f"{out}.json")
            sibling.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n",
                               encoding="utf-8")
    except (ScenarioParseError, ValueError, np.linalg.LinAlgError, OSError,
            MemoryError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.subcommand}: wrote {out} in "
          f"{(time.perf_counter() - started) * 1e3:.1f} ms "
          f"[digest {digest[:12]} seed {scenario.seed}] "
          + " ".join(f"{k}={v}" for k, v in summary.items()), file=sys.stderr)
    return 2 if passed is False else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
