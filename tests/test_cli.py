import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import cli_env

FIG = str(Path(__file__).resolve().parent.parent / "demos" / "scenarios" / "fig1.json")


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

    sweep = estimation._alignment_pass
    monkeypatch.setattr(estimation, "_alignment_pass",
                        lambda *args: (float("nan"), sweep(*args)[1]))
    return ["mmospa"], "non-finite"


@pytest.mark.parametrize("fault", [_simplex_pivot_limit, _shifted_duals, _nonfinite_mmospa])
def test_exit_2_on_solver_error(fault, monkeypatch, tmp_path, capsys):
    import mospa.cli as cli

    argv, message = fault(monkeypatch)
    code = cli.run([argv[0], "--scenario", FIG, *argv[1:], "--samples", "200",
                    "--output", str(tmp_path / "out.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("solver error: ") and message in err


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


def test_oversize_transport_exits_1(tmp_path, capsys):
    import mospa.cli as cli

    # n = 6: 50000 sources x 720 sinks exceed the dense transport cap
    scen = {"n_targets": 6, "state_dim": 1, "seed": 3, "sample_count": 50000,
            "mixture": [{"weight": 1.0, "mean": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
                         "cov": np.eye(6).tolist()}]}
    path = tmp_path / "six.json"
    path.write_text(json.dumps(scen))
    code = cli.run(["wasserstein", "--scenario", str(path), "--x-hat=0,1,2,3,4,5",
                    "--output", str(tmp_path / "w.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and "cap" in err


@pytest.mark.parametrize("command", ["masses", "wasserstein", "verify"])
def test_nine_targets_exit_1_before_region_masses(command, monkeypatch, tmp_path, capsys):
    import mospa.cli as cli
    import mospa.measures as measures

    def unreachable(*args):
        raise AssertionError("samples were assigned to regions")

    monkeypatch.setattr(measures, "batch_region_ranks", unreachable)
    scen = {"n_targets": 9, "state_dim": 1, "seed": 3, "sample_count": 50,
            "mixture": [{"weight": 1.0, "mean": [float(i) for i in range(9)],
                         "cov": np.eye(9).tolist()}]}
    path = tmp_path / "nine.json"
    path.write_text(json.dumps(scen))
    code = cli.run([command, "--scenario", str(path), "--x-hat=0,1,2,3,4,5,6,7,8",
                    "--output", str(tmp_path / "out.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and "target count 9" in err


def test_import_loads_no_scipy():
    # scipy is imported only by the routes that call it (assignment at n > 8)
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
