"""Command-line front end.

Each subcommand maps onto one library operation and writes machine-readable
CSV (verify and prop1 also write a JSON report next to the CSV).  Numbers are
emitted in full precision (round-trip exact), human summaries go to stderr
only, and every output file embeds the scenario digest and effective seed on
a leading comment line, so repeated runs with the same seed are byte
identical.

Exit codes: 0 success, 1 validation failure (including a request too large
to allocate), 2 verification or solver failure, 64 usage.
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


def _write_json(path: Path, obj: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _json_sibling(path: Path) -> Path:
    return path.with_suffix(".json") if path.suffix == ".csv" else Path(str(path) + ".json")


def _write_report(out: Path, name: str, digest: str, scenario: Scenario, row: dict,
                  passed: bool) -> int:
    """One-row CSV of row plus its JSON sibling; returns the exit code."""
    _write_csv(out, _comment(name, digest, scenario), list(row), [tuple(row.values())])
    _write_json(_json_sibling(out), {"scenario_digest": digest, "seed": scenario.seed,
                                     **row, "passed": passed})
    return 0 if passed else 2


def _parse_x_hat(args, scenario: Scenario) -> StackedState:
    if args.x_hat is None:
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


def _comment(name: str, digest: str, scenario: Scenario) -> str:
    return f"scenario_digest={digest} seed={scenario.seed} subcommand={name}"


def _cmd_distance_table(args, scenario, q, digest, out: Path):
    x_hat = _parse_x_hat(args, scenario)
    if args.subcommand == "gospa" and q is None:
        raise ValueError("gospa requires --q scenario (use ospa for the identity weight)")
    samples = _sample(scenario)
    _warn_if_degenerate(x_hat)  # the region_rank column, as batch_region_ranks warns
    mappings, costs = batch_optimal_permutations(samples.points, x_hat, q)
    ranks = batch_permutation_ranks(mappings)
    rows = ((i, costs[i], int(ranks[i])) for i in range(len(samples)))
    _write_csv(out, _comment(args.subcommand, digest, scenario),
               ["sample_index", "distance", "region_rank"], rows)
    return 0, {"mean_distance": float(np.mean(costs))}


def _cmd_mospa(args, scenario, q, digest, out: Path):
    x_hat = _parse_x_hat(args, scenario)
    est = mospa_mc(_sample(scenario), x_hat, q)
    _write_csv(out, _comment("mospa", digest, scenario),
               ["value", "std_error", "sample_count"],
               [(est.value, est.std_error, est.sample_count)])
    return 0, {"value": est.value, "std_error": est.std_error}


def _cmd_mmospa(args, scenario, q, digest, out: Path):
    init = None
    if args.x_hat is not None:
        init = _parse_x_hat(args, scenario)
    samples = _sample(scenario)
    cfg = MmospaConfig(seed=rng.derive_seed(scenario.seed, 11))
    result = mmospa_estimate(samples, init=init, config=cfg, q=q)
    blocks = result.estimate.blocks()
    header = ["target_index"] + [f"coord_{c}" for c in range(scenario.state_dim)]
    rows = [(i, *blocks[i]) for i in range(scenario.n_targets)]
    _write_csv(out, _comment("mmospa", digest, scenario), header, rows)
    return 0, {
        "empirical_mospa": result.empirical_mospa,
        "iterations": result.iterations,
        "converged": result.converged,
    }


def _cmd_masses(args, scenario, q, digest, out: Path):
    x_hat = _parse_x_hat(args, scenario)
    masses = estimate_region_masses(_sample(scenario), x_hat, q)
    perms = permutation_array(scenario.n_targets).tolist()
    rows = [(k, "|".join(map(str, perms[k])), masses[k]) for k in range(len(masses))]
    _write_csv(out, _comment("masses", digest, scenario),
               ["region_rank", "permutation", "mass"], rows)
    return 0, {"n_regions": len(masses)}


def _cmd_wasserstein(args, scenario, q, digest, out: Path):
    x_hat = _parse_x_hat(args, scenario)
    samples = _sample(scenario)
    masses = estimate_region_masses(samples, x_hat, q)
    nu = build_region_measure(x_hat, masses)
    value = w2_squared(samples, nu, q)
    _write_csv(out, _comment("wasserstein", digest, scenario),
               ["w2_squared", "n_sources", "n_atoms"],
               [(value, len(samples), len(nu))])
    return 0, {"w2_squared": value}


def _cmd_verify(args, scenario, q, digest, out: Path):
    x_hat = _parse_x_hat(args, scenario)
    report = verify_mospa_wasserstein(scenario, x_hat, mode=args.mode, q=q)
    row = {name: getattr(report, name) for name in (
        "mospa_value", "w2_squared", "abs_diff", "rel_diff", "mode", "tolerance", "passed")}
    code = _write_report(out, "verify", digest, scenario, row, report.passed)
    return code, {"passed": report.passed}


def _cmd_prop1(args, scenario, q, digest, out: Path):
    x_hat = _parse_x_hat(args, scenario)
    samples = _sample(scenario)
    agreement = cells_match_regions(x_hat, samples, q)
    code = _write_report(out, "prop1", digest, scenario,
                         {"agreement": agreement, "sample_count": len(samples)},
                         agreement == 1.0)
    return code, {"agreement": agreement}


def _cmd_voronoi(args, scenario, q, digest, out: Path):
    x_hat = _parse_x_hat(args, scenario)
    atoms = permuted_atoms(x_hat)
    sites = WeightedSites(atoms, np.zeros(atoms.shape[0]))
    segments = export_diagram_2d(sites, q, bbox=args.bbox)
    rows = [(i, j, a[0], a[1], b[0], b[1]) for (i, j), (a, b) in segments]
    _write_csv(out, _comment("voronoi", digest, scenario),
               ["site_i", "site_j", "x0", "y0", "x1", "y1"], rows)
    return 0, {"n_segments": len(rows)}


_HANDLERS = {
    "ospa": _cmd_distance_table,
    "gospa": _cmd_distance_table,
    "mospa": _cmd_mospa,
    "mmospa": _cmd_mmospa,
    "masses": _cmd_masses,
    "wasserstein": _cmd_wasserstein,
    "verify": _cmd_verify,
    "prop1": _cmd_prop1,
    "voronoi": _cmd_voronoi,
}


def _bbox(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("--bbox expects lo,hi")
    return float(parts[0]), float(parts[1])


def _build_parser() -> _Parser:
    parser = _Parser(prog="mospa", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    for name, text in (
        ("ospa", "per-sample label-free squared distances to --x-hat"),
        ("gospa", "per-sample Q-weighted label-free squared distances"),
        ("mospa", "Monte Carlo mean label-free squared distance"),
        ("mmospa", "alternating-descent minimum-MOSPA estimate"),
        ("masses", "sample mass captured by each permutation region"),
        ("wasserstein", "optimal transport cost to the induced atom measure"),
        ("verify", "MOSPA versus squared Wasserstein identity check"),
        ("prop1", "power-cell versus region classifier agreement"),
        ("voronoi", "2-D power diagram boundary segments"),
    ):
        p = sub.add_parser(name, help=text)
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
    try:
        scenario = parse_scenario(args.scenario).with_overrides(
            seed=args.seed, sample_count=args.samples)
        q = _resolve_q(args, scenario)
        digest = scenario_digest(scenario)
        code, payload = _HANDLERS[args.subcommand](args, scenario, q, digest, args.output)
    except (ScenarioParseError, ValueError, np.linalg.LinAlgError, OSError,
            MemoryError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    summary = " ".join(f"{k}={v}" for k, v in payload.items())
    print(f"{args.subcommand}: wrote {args.output} in "
          f"{(time.perf_counter() - started) * 1e3:.1f} ms "
          f"[digest {digest[:12]} seed {scenario.seed}] {summary}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
