import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import cli_env, stop_at_the_start
from mospa import (
    DegenerateEstimateWarning,
    StackedState,
    estimate_region_masses,
    gm_sample,
    mospa_mc,
    parse_scenario,
)

FIG = str(Path(__file__).resolve().parent.parent / "demos" / "scenarios" / "fig1.json")
EIGHT = str(Path(FIG).parent / "eight_targets.json")
WEIGHTED = str(Path(FIG).parent / "weighted_pair.json")


def run_cli(args, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "mospa.cli", *args],
        capture_output=True, text=True, env=cli_env(**(env_extra or {})),
    )


def test_verify_subcommand_passes(tmp_path):
    out = tmp_path / "verify.csv"
    res = run_cli(["verify", "--scenario", FIG, "--x-hat=-4,3", "--mode", "same-sample",
                   "--samples", "1000", "--output", str(out)])
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# scenario_digest=")
    assert "seed=20" in lines[0]
    assert lines[1].split(",")[:3] == ["mospa_value", "w2_squared", "abs_diff"]
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["passed"] is True
    assert report["rel_diff"] <= 1e-8


def test_mmospa_subcommand_two_iid_normals(tmp_path):
    out = tmp_path / "est.csv"
    res = run_cli(["mmospa", "--scenario", str(Path(FIG).parent / "two_iid_normals.json"),
                   "--samples", "50000", "--output", str(out)])
    assert res.returncode == 0, res.stderr
    rows = out.read_text().splitlines()[2:]
    values = sorted(float(r.split(",")[1]) for r in rows)
    target = 1.0 / np.sqrt(np.pi)
    assert abs(values[0] + target) < 0.02
    assert abs(values[1] - target) < 0.02


def test_voronoi_subcommand_emits_diagonal(tmp_path):
    out = tmp_path / "vor.csv"
    res = run_cli(["voronoi", "--scenario", FIG, "--x-hat=-4,3", "--bbox=-10,10",
                   "--output", str(out)])
    assert res.returncode == 0, res.stderr
    rows = out.read_text().splitlines()[2:]
    assert len(rows) == 1
    vals = [float(v) for v in rows[0].split(",")[2:]]
    assert sorted([tuple(vals[:2]), tuple(vals[2:])]) == [(-10.0, -10.0), (10.0, 10.0)]


@pytest.mark.parametrize("bbox", ["-inf,inf", "-10,inf"])
def test_voronoi_non_finite_bbox_exits_1(bbox, tmp_path, capsys):
    import mospa.cli as cli

    out = tmp_path / "vor.csv"
    code = cli.run(["voronoi", "--scenario", FIG, "--x-hat=-4,3", f"--bbox={bbox}",
                    "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and "finite" in err
    assert not out.exists()


def test_masses_subcommand_sums_to_one(tmp_path):
    out = tmp_path / "masses.csv"
    res = run_cli(["masses", "--scenario", FIG, "--x-hat=-4,3", "--samples", "4000",
                   "--output", str(out)])
    assert res.returncode == 0, res.stderr
    rows = out.read_text().splitlines()[2:]
    masses = [float(r.split(",")[2]) for r in rows]
    assert len(masses) == 2
    assert sum(masses) == 1.0


def test_prop1_subcommand(tmp_path):
    out = tmp_path / "prop1.csv"
    res = run_cli(["prop1", "--scenario", FIG, "--x-hat=-4,3", "--samples", "5000",
                   "--output", str(out)])
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "prop1.json").read_text())
    assert report["agreement"] == 1.0


def test_ospa_and_mospa_tables(tmp_path):
    ospa_out = tmp_path / "ospa.csv"
    res = run_cli(["ospa", "--scenario", FIG, "--x-hat=-4,3", "--samples", "100",
                   "--output", str(ospa_out)])
    assert res.returncode == 0, res.stderr
    rows = ospa_out.read_text().splitlines()[2:]
    assert len(rows) == 100

    mospa_out = tmp_path / "mospa.csv"
    res = run_cli(["mospa", "--scenario", FIG, "--x-hat=-4,3", "--samples", "100",
                   "--output", str(mospa_out)])
    assert res.returncode == 0, res.stderr
    value = float(mospa_out.read_text().splitlines()[2].split(",")[0])
    per_sample = [float(r.split(",")[1]) for r in rows]
    assert value == pytest.approx(np.mean(per_sample), rel=1e-12)


@pytest.mark.parametrize("argv", [
    pytest.param(["ospa", "--scenario", FIG, "--x-hat=-4,-4"], id="ospa"),
    pytest.param(["gospa", "--scenario", WEIGHTED, "--q", "scenario", "--x-hat=1,1,1,1"],
                 id="gospa"),
])
def test_distance_tables_warn_on_a_degenerate_estimate(argv, tmp_path):
    import mospa.cli as cli

    # the region_rank column falls back to the tie-break, as in `masses`
    with pytest.warns(DegenerateEstimateWarning, match="duplicate target blocks"):
        code = cli.run([*argv, "--samples", "5", "--output", str(tmp_path / "out.csv")])
    assert code == 0


def test_wasserstein_matches_mospa(tmp_path):
    w_out = tmp_path / "w.csv"
    res = run_cli(["wasserstein", "--scenario", FIG, "--x-hat=-4,3", "--samples", "500",
                   "--output", str(w_out)])
    assert res.returncode == 0, res.stderr
    w2 = float(w_out.read_text().splitlines()[2].split(",")[0])
    m_out = tmp_path / "m.csv"
    run_cli(["mospa", "--scenario", FIG, "--x-hat=-4,3", "--samples", "500",
             "--output", str(m_out)])
    value = float(m_out.read_text().splitlines()[2].split(",")[0])
    assert w2 == pytest.approx(value, rel=1e-8)


# Each subcommand's scenario and flags, and the CSV header README documents.
_CONTRACT = {
    "ospa": ([FIG, "--x-hat=-4,3"], "sample_index,distance,region_rank"),
    "gospa": ([WEIGHTED, "--q", "scenario", "--x-hat=-2,1,2,-1"],
              "sample_index,distance,region_rank"),
    "mospa": ([FIG, "--x-hat=-4,3"], "value,std_error,sample_count"),
    "mmospa": ([WEIGHTED, "--q", "scenario"], "target_index,coord_0,coord_1"),
    "masses": ([FIG, "--x-hat=-4,3"], "region_rank,permutation,mass"),
    "wasserstein": ([FIG, "--x-hat=-4,3"], "w2_squared,n_sources,n_atoms"),
    "verify": ([FIG, "--x-hat=-4,3"],
               "mospa_value,w2_squared,abs_diff,rel_diff,mode,tolerance,passed"),
    "prop1": ([FIG, "--x-hat=-4,3"], "agreement,sample_count"),
    "voronoi": ([FIG, "--x-hat=-4,3"], "site_i,site_j,x0,y0,x1,y1"),
}


def _cell(text):
    try:
        return json.loads(text)
    except ValueError:
        return text  # a string column, such as verify's mode


@pytest.mark.parametrize("command", list(_CONTRACT))
def test_output_contract(command, tmp_path):
    import mospa.cli as cli
    from mospa import scenario_digest

    (path, *flags), header = _CONTRACT[command]
    out = tmp_path / "out.csv"
    assert cli.run([command, "--scenario", path, *flags, "--samples", "300", "--seed", "5",
                    "--output", str(out)]) == 0
    scenario = parse_scenario(path).with_overrides(seed=5, sample_count=300)
    lines = out.read_text().splitlines()
    assert lines[0] == (f"# scenario_digest={scenario_digest(scenario)} seed=5 "
                        f"subcommand={command}")
    assert lines[1] == header
    if command not in ("verify", "prop1"):
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]
        return
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.json"]
    (row,) = lines[2:]
    report = json.loads((tmp_path / "out.json").read_text())
    assert report == {**{k: _cell(v) for k, v in zip(header.split(","), row.split(","))},
                      "scenario_digest": scenario_digest(scenario), "seed": 5,
                      "passed": True}


def test_exit_codes(tmp_path):
    # usage: unknown flag
    res = run_cli(["verify", "--scenario", FIG, "--nope"])
    assert res.returncode == 64
    # validation: malformed scenario
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_targets": 1}))
    res = run_cli(["mospa", "--scenario", str(bad), "--x-hat=0",
                   "--output", str(tmp_path / "x.csv")])
    assert res.returncode == 1
    assert "validation error" in res.stderr
    # validation: x-hat has the wrong arity
    res = run_cli(["mospa", "--scenario", FIG, "--x-hat=1,2,3",
                   "--output", str(tmp_path / "y.csv")])
    assert res.returncode == 1
    # verification failure: prop1 with a weight-perturbed diagram cannot be
    # triggered from the CLI (weights are fixed to zero), so force exit 2 via
    # an independent verify with an absurdly small sample count? Instead use
    # gospa without a q_matrix in the scenario:
    res = run_cli(["gospa", "--scenario", FIG, "--x-hat=-4,3",
                   "--output", str(tmp_path / "z.csv")])
    assert res.returncode == 1


def test_q_scenario_flag(tmp_path):
    scen = json.loads(open(FIG).read())
    scen["q_matrix"] = [[4.0, 0.0], [0.0, 1.0]]
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps(scen))
    out = tmp_path / "gospa.csv"
    res = run_cli(["gospa", "--scenario", str(path), "--x-hat=-4,3", "--q", "scenario",
                   "--samples", "50", "--output", str(out)])
    assert res.returncode == 0, res.stderr
    res = run_cli(["verify", "--scenario", str(path), "--x-hat=-4,3", "--q", "scenario",
                   "--samples", "500", "--output", str(tmp_path / "v.csv")])
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "v.json").read_text())
    assert report["passed"] is True


def test_exit_2_on_verification_failure(monkeypatch, tmp_path):
    # the identity never fails honestly, so force a failing report in-process
    import mospa.cli as cli
    from mospa import IdentityReport

    failing = IdentityReport(1.0, 2.0, 1.0, 1.0, "same-sample", 1e-8, False)
    monkeypatch.setattr(cli, "verify_mospa_wasserstein",
                        lambda *a, **kw: failing)
    code = cli.run(["verify", "--scenario", FIG, "--x-hat=-4,3",
                    "--output", str(tmp_path / "fail.csv")])
    assert code == 2
    assert json.loads((tmp_path / "fail.json").read_text())["passed"] is False


def _simplex_pivot_limit(monkeypatch):
    import mospa.transport as transport

    def stuck(cost, a, b):
        raise RuntimeError("transportation simplex exceeded 1000 pivots")

    monkeypatch.setattr(transport, "_transportation_simplex", stuck)
    return ["wasserstein", "--x-hat=-4,3"], "exceeded"


def _shifted_duals(monkeypatch):
    import mospa.transport as transport

    solve = transport._transportation_simplex

    def shifted(cost, a, b):
        flows, u, v, pivots = solve(cost, a, b)
        return flows, u + 1.0, v, pivots

    monkeypatch.setattr(transport, "_transportation_simplex", shifted)
    return ["verify", "--x-hat=-4,3", "--mode", "independent"], "certificate"


def _nonfinite_mmospa(monkeypatch):
    import mospa.estimation as estimation

    step = estimation._step
    monkeypatch.setattr(estimation, "_step", lambda *args: (float("nan"), step(*args)[1]))
    return ["mmospa"], "non-finite"


def _simplex_stopped_at_its_start(monkeypatch):
    stop_at_the_start(monkeypatch)
    return ["wasserstein", "--x-hat=-4,3"], "reduced cost"


def _verify_stopped_at_its_start(monkeypatch):
    _simplex_stopped_at_its_start(monkeypatch)
    return ["verify", "--x-hat=-4,3"], "reduced cost"


@pytest.mark.parametrize("fault", [_simplex_pivot_limit, _shifted_duals, _nonfinite_mmospa,
                                   _simplex_stopped_at_its_start,
                                   _verify_stopped_at_its_start])
def test_exit_2_on_solver_error(fault, monkeypatch, tmp_path, capsys):
    import mospa.cli as cli

    argv, message = fault(monkeypatch)
    code = cli.run([argv[0], "--scenario", FIG, *argv[1:], "--samples", "200",
                    "--output", str(tmp_path / "out.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("solver error: ") and message in err


@pytest.mark.parametrize("command", ["ospa", "gospa", "mospa", "mmospa", "masses",
                                     "wasserstein", "verify", "prop1", "voronoi"])
def test_q_scenario_without_q_matrix_exits_1(command, tmp_path, capsys):
    import mospa.cli as cli

    out = tmp_path / "out.csv"
    code = cli.run([command, "--scenario", FIG, "--x-hat=-4,3", "--q", "scenario",
                    "--samples", "20", "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and "has no q_matrix" in err
    assert not out.exists()


def test_seed_override_changes_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(["mospa", "--scenario", FIG, "--x-hat=-4,3", "--samples", "200",
             "--output", str(a)])
    run_cli(["mospa", "--scenario", FIG, "--x-hat=-4,3", "--samples", "200",
             "--seed", "99", "--output", str(b)])
    assert a.read_text() != b.read_text()


@pytest.mark.parametrize("seed", ["--seed=-1", f"--seed={2**64}"])
def test_out_of_range_seed_override_exits_1(seed, tmp_path, capsys):
    import mospa.cli as cli

    code = cli.run(["mospa", "--scenario", FIG, "--x-hat=-4,3", "--samples", "20",
                    seed, "--output", str(tmp_path / "out.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and "seed" in err


def test_impossible_allocation_exits_1(tmp_path, capsys):
    import mospa.cli as cli

    # 2**50 samples need 8 PiB, beyond a 47-bit address space: fails at once
    code = cli.run(["mospa", "--scenario", FIG, "--x-hat=-4,3", "--samples", str(2**50),
                    "--output", str(tmp_path / "out.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("validation error: ")


@pytest.mark.parametrize("command", ["ospa", "mospa"])
def test_estimate_whose_cost_sums_overflow_exits_1(command, tmp_path, capsys):
    import mospa.cli as cli

    # each block cost is finite (~1.7e308) but a sum of 8 of them is not
    code = cli.run([command, "--scenario", EIGHT, "--x-hat=" + ",".join(["1.3e154"] * 8),
                    "--samples", "10", "--output", str(tmp_path / "out.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and "overflow" in err


def test_oversize_transport_exits_1(tmp_path, capsys):
    import mospa.cli as cli

    # n = 7: 50000 sources x the ~2300 of 5040 sinks that carry mass exceed
    # the dense transport cap, which counts only those sinks
    means = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    scen = {"n_targets": 7, "state_dim": 1, "seed": 3, "sample_count": 50000,
            "mixture": [{"weight": 1.0, "mean": means, "cov": np.eye(7).tolist()}]}
    path = tmp_path / "seven.json"
    path.write_text(json.dumps(scen))
    code = cli.run(["wasserstein", "--scenario", str(path), "--x-hat=0,0.5,1,1.5,2,2.5,3",
                    "--output", str(tmp_path / "w.csv")])
    assert code == 1
    err = capsys.readouterr().err
    emp = gm_sample(parse_scenario(path).mixture, 3, 50000)
    kept = np.count_nonzero(estimate_region_masses(emp, StackedState(7, 1, means)))
    assert 50000 * kept > 1 << 25 and kept < 5040
    assert err.startswith(f"validation error: 50000 sources x {kept} sinks ")
    assert "cap" in err


def test_eight_targets_verify_and_wasserstein_exit_0(tmp_path):
    import mospa.cli as cli

    # 8! = 40320 atoms, of which ~700 carry mass; the solves run on those
    x_hat = "--x-hat=0,0.5,1,1.5,2,2.5,3,3.5"
    assert cli.run(["verify", "--scenario", EIGHT, x_hat, "--mode", "same-sample",
                    "--output", str(tmp_path / "verify.csv")]) == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["passed"] is True and report["rel_diff"] <= 1e-8
    assert cli.run(["wasserstein", "--scenario", EIGHT, x_hat,
                    "--output", str(tmp_path / "w.csv")]) == 0
    header, row = (tmp_path / "w.csv").read_text().splitlines()[1:]
    assert header == "w2_squared,n_sources,n_atoms"
    assert row.split(",")[1:] == ["1000", "40320"]


def _nine_target_scenario(tmp_path):
    scen = {"n_targets": 9, "state_dim": 1, "seed": 3, "sample_count": 50,
            "mixture": [{"weight": 1.0, "mean": [float(i) for i in range(9)],
                         "cov": np.eye(9).tolist()}]}
    path = tmp_path / "nine.json"
    path.write_text(json.dumps(scen))
    return str(path)


@pytest.mark.parametrize("command", ["masses", "wasserstein", "verify"])
def test_nine_targets_exit_1_before_region_masses(command, monkeypatch, tmp_path, capsys):
    import mospa.cli as cli
    import mospa.measures as measures

    def unreachable(*args):
        raise AssertionError("samples were assigned to regions")

    monkeypatch.setattr(measures, "batch_region_ranks", unreachable)
    code = cli.run([command, "--scenario", _nine_target_scenario(tmp_path),
                    "--x-hat=0,1,2,3,4,5,6,7,8", "--output", str(tmp_path / "out.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and "target count 9" in err


@pytest.mark.parametrize("command", ["masses", "wasserstein", "prop1"])
def test_nine_targets_exit_1_before_sampling(command, monkeypatch, tmp_path, capsys):
    import mospa.cli as cli

    # a large --samples would allocate the whole draw before the refusal
    calls = []
    draw = cli.gm_sample

    def spy(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(cli, "gm_sample", spy)
    code = cli.run([command, "--scenario", _nine_target_scenario(tmp_path),
                    "--x-hat=0,1,2,3,4,5,6,7,8", "--samples", "2000000",
                    "--output", str(tmp_path / "out.csv")])
    assert code == 1
    assert calls == []
    err = capsys.readouterr().err
    assert err == ("validation error: target count 9 outside [1, 8]; enumeration is "
                   "factorial (8! = 40320 permutations)\n")


@pytest.mark.parametrize("name, samples", [("nine_targets.json", 200),
                                           ("thirteen_targets.json", 40)])
def test_mmospa_above_eight_targets_exits_0(name, samples, tmp_path, capsys):
    import mospa.cli as cli

    # no enumeration cap: the assignment kernel aligns nine targets, and the
    # per-sample route thirteen; the objective is MOSPA at the estimate
    path = str(Path(FIG).parent / name)
    out = tmp_path / "estimate.csv"
    assert cli.run(["mmospa", "--scenario", path, "--samples", str(samples),
                    "--output", str(out)]) == 0
    summary = dict(kv.split("=") for kv in capsys.readouterr().err.split("] ")[1].split())
    rows = np.loadtxt(out, delimiter=",", skiprows=2)
    sc = parse_scenario(path)
    x_hat = StackedState.from_blocks(rows[:, 1:])
    assert x_hat.n_targets == sc.n_targets
    emp = gm_sample(sc.mixture, sc.seed, samples)
    assert float(summary["empirical_mospa"]) == mospa_mc(emp, x_hat).value


@pytest.mark.parametrize("mode", ["same-sample", "independent"])
def test_nine_target_verify_exits_1_before_sampling(mode, monkeypatch, tmp_path, capsys):
    import mospa.cli as cli
    import mospa.transport as transport

    def unreachable(*args, **kwargs):
        raise AssertionError("verify drew samples or ran MOSPA")

    monkeypatch.setattr(transport, "gm_sample", unreachable)
    monkeypatch.setattr(transport, "mospa_mc", unreachable)
    code = cli.run(["verify", "--scenario", _nine_target_scenario(tmp_path),
                    "--x-hat=0,1,2,3,4,5,6,7,8", "--mode", mode,
                    "--output", str(tmp_path / "out.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and "target count 9" in err


def _twenty_one_target_scenario(tmp_path):
    scen = {"n_targets": 21, "state_dim": 1, "seed": 3, "sample_count": 30,
            "mixture": [{"weight": 1.0, "mean": [float(i) for i in range(21)],
                         "cov": np.eye(21).tolist()}],
            "q_matrix": np.eye(21).tolist()}
    path = tmp_path / "twenty_one.json"
    path.write_text(json.dumps(scen))
    return str(path)


@pytest.mark.parametrize("command", ["ospa", "gospa"])
def test_twenty_one_targets_exit_1_before_sampling(command, monkeypatch, tmp_path, capsys):
    import mospa.cli as cli

    def unreachable(*args, **kwargs):
        raise AssertionError("samples were drawn or assigned")

    # the region_rank column overflows int64 above 20 targets
    monkeypatch.setattr(cli, "gm_sample", unreachable)
    monkeypatch.setattr(cli, "batch_optimal_permutations", unreachable)
    argv = [command, "--scenario", _twenty_one_target_scenario(tmp_path),
            "--x-hat=" + ",".join(str(i) for i in range(21)),
            "--output", str(tmp_path / "out.csv")]
    if command == "gospa":
        argv += ["--q", "scenario"]
    code = cli.run(argv)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and "21 > 20 elements" in err


def test_twenty_one_target_mospa_exits_0(tmp_path):
    import mospa.cli as cli

    # mospa writes no rank column, so it runs above 20 targets
    assert cli.run(["mospa", "--scenario", _twenty_one_target_scenario(tmp_path),
                    "--x-hat=" + ",".join(str(i) for i in range(21)),
                    "--output", str(tmp_path / "out.csv")]) == 0


def test_import_loads_no_scipy():
    # scipy is imported only by the routes that call it (assignment at n > 12)
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, mospa.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True, env=cli_env(),
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_byte_identical_reruns_across_thread_counts(tmp_path):
    outputs = []
    for trial, threads in enumerate(("1", "4")):
        out = tmp_path / f"det{trial}.csv"
        res = run_cli(
            ["verify", "--scenario", FIG, "--x-hat=-4,3", "--samples", "1500",
             "--mode", "independent", "--output", str(out)],
            env_extra={"OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads},
        )
        assert res.returncode == 0, res.stderr
        outputs.append(out.read_bytes() + (tmp_path / f"det{trial}.json").read_bytes())
    assert outputs[0] == outputs[1]
