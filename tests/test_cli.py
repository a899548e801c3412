import contextlib
import copy
import io
import json
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from limcon import (
    DirectedGraph,
    WeightedNeighborGraph,
    consensus_error,
    directed_cycle,
    ear_decomposition,
    is_well_configured,
    local_agreement_residual,
    symmetric_cycle,
    synthesize_symmetric_weights,
    synthesize_weights,
    weights_from_json,
    weights_to_json,
)
from limcon.cli import _resolve, _write_trajectory_csv, _write_weights_json, bundled_scenario_path, main
from limcon.wellconfig import _proves_by_ears

from oracles import trajectory_csv_per_row


def write_scenario(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


SQUARE_ARCS = [(1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3), (4, 1), (1, 4)]


def symmetric_square_scenario(**overrides):
    data = {
        "schema_version": 1,
        "graph": {"m": 4, "arcs": [list(arc) for arc in SQUARE_ARCS]},
        "n": 2,
        "weights": {"synthesize": {"mode": "nonzero-kernels", "symmetric": False, "decomposition": "auto"}},
        "algorithm": {"name": "fixed_step", "steps": 3000},
        "initial_state": {"random": {"seed": 5}},
    }
    data.update(overrides)
    return data


def test_bundled_broadcast_pair_verifies(capsys):
    assert main(["verify", "--scenario", str(bundled_scenario_path("broadcast_pair"))]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["well_configured"] is True
    assert out["kernel_dim"] == 3


def test_bundled_broadcast_pair_runs(tmp_path, capsys):
    scenario = str(bundled_scenario_path("broadcast_pair"))
    assert main(["run", "--scenario", scenario, "--out", str(tmp_path / "bp")]) == 0
    summary = json.loads((tmp_path / "bp" / "summary.json").read_text())
    assert summary["algorithm"] == "general_projection"
    assert (tmp_path / "bp" / "trajectory.csv").exists()


def test_bundled_lossy_path_rejected_with_witness(capsys):
    assert main(["verify", "--scenario", str(bundled_scenario_path("path_lossy"))]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["well_configured"] is False
    assert np.asarray(out["witness"]).shape == (3, 2)


def test_bundled_counterexample_runs_without_consensus(tmp_path, capsys):
    code = main(["counterexample", "--out", str(tmp_path / "ce")])
    assert code == 0
    summary = json.loads((tmp_path / "ce" / "summary.json").read_text())
    assert summary["converged"] is False
    assert summary["final_consensus_error"] >= 0.5
    assert summary["spectral"]["ones"] > 2
    # the bundled configuration itself passes verification
    capsys.readouterr()
    assert main(["verify", "--scenario", str(bundled_scenario_path("counterexample"))]) == 0


def test_bundled_symmetric_scenario_runs_and_synthesizes(tmp_path, capsys):
    scenario = str(bundled_scenario_path("symmetric_nonzero_kernels"))
    assert main(["run", "--scenario", scenario, "--out", str(tmp_path / "run")]) == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["spectral"]["ones"] == 2
    assert summary["spectral"]["outside"] == 0
    capsys.readouterr()
    assert main(["synth", "--scenario", scenario, "--out", str(tmp_path / "synth")]) == 0
    written = weights_from_json(json.loads((tmp_path / "synth" / "weights.json").read_text()))
    assert is_well_configured(written)


def test_synthesized_weights_file_roundtrips_through_verify(tmp_path, capsys):
    scenario = str(bundled_scenario_path("symmetric_nonzero_kernels"))
    assert main(["synth", "--scenario", scenario, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    weights = json.loads((tmp_path / "weights.json").read_text())
    explicit = {
        "schema_version": 1,
        "graph": {"m": weights["m"], "arcs": [[e["j"], e["i"]] for e in weights["arcs"]]},
        "n": weights["n"],
        "weights": {"explicit": weights["arcs"]},
    }
    assert main(["verify", "--scenario", write_scenario(tmp_path, "roundtrip.json", explicit)]) == 0


def test_run_is_deterministic_given_seed(tmp_path):
    scenario = write_scenario(tmp_path, "sq.json", symmetric_square_scenario())
    assert main(["run", "--scenario", scenario, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--scenario", scenario, "--out", str(tmp_path / "b")]) == 0
    csv_a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    csv_b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert csv_a == csv_b


def test_seed_override_changes_run(tmp_path):
    scenario = write_scenario(tmp_path, "sq.json", symmetric_square_scenario())
    assert main(["run", "--scenario", scenario, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--scenario", scenario, "--out", str(tmp_path / "c"), "--seed", "99"]) == 0
    assert (tmp_path / "a" / "trajectory.csv").read_bytes() != (tmp_path / "c" / "trajectory.csv").read_bytes()


def test_zero_steps_writes_only_initial_state(tmp_path):
    scenario = write_scenario(tmp_path, "sq.json", symmetric_square_scenario())
    assert main(["run", "--scenario", scenario, "--out", str(tmp_path / "z"), "--steps", "0"]) == 0
    lines = (tmp_path / "z" / "trajectory.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 4  # header + one row per agent at t=0


def test_malformed_json_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 1,\n  "graph": oops}')
    assert main(["verify", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_unknown_keys_rejected(tmp_path, capsys):
    data = symmetric_square_scenario()
    data["surprise"] = True
    assert main(["verify", "--scenario", write_scenario(tmp_path, "s.json", data)]) == 1
    assert "surprise" in capsys.readouterr().err


def test_wrong_schema_version_rejected(tmp_path, capsys):
    data = symmetric_square_scenario(schema_version=2)
    assert main(["verify", "--scenario", write_scenario(tmp_path, "s.json", data)]) == 1
    assert "schema_version" in capsys.readouterr().err


def test_random_init_without_seed_rejected(tmp_path, capsys):
    data = symmetric_square_scenario(initial_state={"random": {}})
    assert main(["run", "--scenario", write_scenario(tmp_path, "s.json", data), "--out", str(tmp_path / "o")]) == 1
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "seed, flag, message",
    [
        (5, "-1", "--seed must be a non-negative integer, got -1"),
        ("x", "4", "initial_state.random.seed must be an integer, got a string"),
        (-1, "4", "initial_state.random.seed must be a non-negative integer, got -1"),
    ],
)
def test_seed_flag_and_scenario_seed_are_both_checked(seed, flag, message, tmp_path, capsys):
    scenario = write_scenario(tmp_path, "s.json", symmetric_square_scenario(initial_state={"random": {"seed": seed}}))
    assert main(["run", "--scenario", scenario, "--out", str(tmp_path / "o"), "--seed", flag]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "o").exists()


def test_seed_flag_with_explicit_init_rejected(tmp_path, capsys):
    data = symmetric_square_scenario(initial_state={"explicit": [[0, 0]] * 4})
    code = main(["run", "--scenario", write_scenario(tmp_path, "s.json", data), "--out", str(tmp_path / "o"), "--seed", "1"])
    assert code == 1
    assert "explicit" in capsys.readouterr().err


def test_algorithm_graph_mismatch_reported_before_running(tmp_path, capsys):
    data = symmetric_square_scenario(algorithm={"name": "cycle_projection", "steps": 10})
    code = main(["run", "--scenario", write_scenario(tmp_path, "s.json", data), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "directed cycle" in capsys.readouterr().err
    assert not (tmp_path / "o" / "trajectory.csv").exists()


def test_infeasible_synthesis_reports_bound(tmp_path, capsys):
    data = {
        "schema_version": 1,
        "graph": {"m": 5, "arcs": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1]]},
        "n": 2,
        "weights": {"synthesize": {"mode": "nonzero-kernels"}},
    }
    assert main(["synth", "--scenario", write_scenario(tmp_path, "s.json", data), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "max ear length" in err
    assert not (tmp_path / "o" / "weights.json").exists()


def test_graph_from_text_file(tmp_path, capsys):
    (tmp_path / "g.txt").write_text("3 6\n1 2\n2 1\n2 3\n3 2\n3 1\n1 3\n")
    data = {
        "schema_version": 1,
        "graph": {"path": "g.txt"},
        "n": 2,
        "weights": {"synthesize": {"mode": "free"}},
    }
    assert main(["verify", "--scenario", write_scenario(tmp_path, "s.json", data)]) == 0


def test_graph_text_error_names_the_file_and_line(tmp_path, capsys):
    (tmp_path / "g.txt").write_text("3 2\n\n1 2\n2 x\n")
    data = {"schema_version": 1, "graph": {"path": "g.txt"}, "n": 2, "weights": {"synthesize": {"mode": "free"}}}
    assert main(["verify", "--scenario", write_scenario(tmp_path, "s.json", data)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {tmp_path / 'g.txt'}: line 4: expected two integers, got '2 x'"]


def test_decomposition_file_with_invalid_json_names_the_file(tmp_path, capsys):
    (tmp_path / "dec.json").write_text("{'ears': []}")
    data = symmetric_square_scenario(weights={"synthesize": {"decomposition": {"path": "dec.json"}}})
    assert main(["synth", "--scenario", write_scenario(tmp_path, "s.json", data), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {tmp_path / 'dec.json'}: invalid JSON at line 1 column 2: ")
    assert not (tmp_path / "o").exists()


def test_decomposition_from_file(tmp_path, capsys):
    g = symmetric_cycle(3)
    dec = ear_decomposition(g)
    (tmp_path / "dec.json").write_text(json.dumps(dec.to_json()))
    data = {
        "schema_version": 1,
        "graph": {"m": 3, "arcs": [list(a) for a in g.arcs]},
        "n": 2,
        "weights": {"synthesize": {"mode": "nonzero-kernels", "decomposition": {"path": "dec.json"}}},
    }
    assert main(["verify", "--scenario", write_scenario(tmp_path, "s.json", data)]) == 0


def test_analyze_fixed_step(tmp_path, capsys):
    scenario = write_scenario(tmp_path, "s.json", symmetric_square_scenario())
    assert main(["analyze", "--scenario", scenario]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["ones"] == 2
    assert payload["report"]["outside"] == 0


def analyze_calls(algorithm, tmp_path, capsys, monkeypatch):
    """The mixed-norm and rank calls that run and then analyze make on the
    square scenario with this algorithm, and the analyze report."""
    import limcon.simulate

    calls = []
    for name in ("mixed_norm_2_inf", "matrix_rank"):
        real = getattr(limcon.simulate, name)
        monkeypatch.setattr(limcon.simulate, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
    scenario = write_scenario(tmp_path, "s.json", symmetric_square_scenario(algorithm={"name": algorithm, "steps": 30}))
    assert main(["run", "--scenario", scenario, "--out", str(tmp_path / "o")]) == 0
    assert calls == []
    capsys.readouterr()
    assert main(["analyze", "--scenario", scenario]) == 0
    return sorted(calls), json.loads(capsys.readouterr().out)["report"]


def test_run_summary_computes_no_mixed_norm(tmp_path, capsys, monkeypatch):
    # a symmetric map reads its fixed space from its own eigenvalues
    calls, report = analyze_calls("fixed_step", tmp_path, capsys, monkeypatch)
    assert calls == ["mixed_norm_2_inf"]
    assert report["symmetric"] is True
    assert report["one_eigenspace_dim"] == 2 and report["mixed_norm"] >= 1.0


def test_analyze_ranks_a_non_symmetric_map(tmp_path, capsys, monkeypatch):
    calls, report = analyze_calls("general_projection", tmp_path, capsys, monkeypatch)
    assert calls == ["matrix_rank", "mixed_norm_2_inf"]
    assert report["symmetric"] is False
    assert report["one_eigenspace_dim"] == 3 and report["mixed_norm"] >= 1.0


def test_analyze_time_varying_reports_per_subgraph(tmp_path, capsys):
    data = symmetric_square_scenario(
        algorithm={
            "name": "metropolis_tv",
            "steps": 100,
            "schedule": {
                "mode": "periodic",
                "subgraphs": [
                    [[1, 2], [2, 1], [3, 4], [4, 3]],
                    [[2, 3], [3, 2], [4, 1], [1, 4]],
                ],
            },
        }
    )
    assert main(["analyze", "--scenario", write_scenario(tmp_path, "s.json", data)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["per_subgraph"]) == 2
    for report in payload["per_subgraph"]:
        assert report["paracontracting"] is True


def test_analyze_flags_degenerate_empty_graph(tmp_path, capsys):
    data = {
        "schema_version": 1,
        "graph": {"m": 1, "arcs": []},
        "n": 2,
        "weights": {"explicit": []},
        "algorithm": {"name": "general_projection", "steps": 1},
    }
    assert main(["analyze", "--scenario", write_scenario(tmp_path, "s.json", data)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["degenerate"] is True


def test_metropolis_run_via_cli(tmp_path, capsys):
    data = symmetric_square_scenario(
        algorithm={
            "name": "metropolis_tv",
            "steps": 4000,
            "schedule": {
                "mode": "periodic",
                "subgraphs": [
                    [[1, 2], [2, 1], [3, 4], [4, 3]],
                    [[2, 3], [3, 2], [4, 1], [1, 4]],
                ],
            },
        }
    )
    assert main(["run", "--scenario", write_scenario(tmp_path, "s.json", data), "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["converged"] is True


def test_missing_scenario_file(capsys):
    assert main(["verify", "--scenario", "/nonexistent/never.json"]) == 1


def test_gradient_run_via_cli(tmp_path, capsys):
    data = {
        "schema_version": 1,
        "graph": {"m": 3, "arcs": [[1, 2], [2, 1], [2, 3], [3, 2], [3, 1], [1, 3]]},
        "n": 2,
        "weights": {"synthesize": {"mode": "nonzero-kernels"}},
        "algorithm": {"name": "gradient", "steps": 2000, "stepsize": {"kind": "harmonic", "a": 1, "b": 2}},
        "initial_state": {"random": {"seed": 5}},
    }
    assert main(["run", "--scenario", write_scenario(tmp_path, "g.json", data), "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["algorithm"] == "gradient"
    # gradient summaries report on the descended quadratic's matrix
    assert summary["spectral"]["zeros"] == 2


def test_scripted_schedule_via_cli(tmp_path, capsys):
    data = symmetric_square_scenario(
        algorithm={
            "name": "metropolis_tv",
            "steps": 4,
            "schedule": {
                "mode": "scripted",
                "subgraphs": [
                    [[1, 2], [2, 1], [3, 4], [4, 3]],
                    [[2, 3], [3, 2], [4, 1], [1, 4]],
                ],
                "script": [0, 1, 1, 0],
            },
        }
    )
    assert main(["run", "--scenario", write_scenario(tmp_path, "s.json", data), "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["steps_run"] == 4


def test_scripted_schedule_shorter_than_steps_via_cli(tmp_path, capsys):
    # a consensus state converges after CONSENSUS_STREAK - 1 rounds, inside a script of that length
    converging = symmetric_square_scenario(
        initial_state={"consensus": {"value": [1.0, 2.0]}}, algorithm={**_metropolis(script=[0] * 9), "steps": 100}
    )
    assert main(["run", "--scenario", write_scenario(tmp_path, "c.json", converging), "--out", str(tmp_path / "c")]) == 0
    summary = json.loads((tmp_path / "c" / "summary.json").read_text())
    assert (summary["converged"], summary["steps_run"]) == (True, 9)
    # a random state does not, and the run fails where the script ends
    stalling = symmetric_square_scenario(algorithm={**METROPOLIS, "steps": 100})
    assert _one_error(tmp_path, capsys, stalling) == "schedule script of length 3 exhausted at round 3"


def _triangle_with_weight(c):
    """A directed 3-cycle, n = 3, with identity weights but c on arc (1, 2)."""
    arcs = ((1, 2), (2, 3), (3, 1))
    return symmetric_square_scenario(
        graph={"m": 3, "arcs": [list(arc) for arc in arcs]},
        n=3,
        weights={"explicit": [{"j": j, "i": i, "C": c if (j, i) == (1, 2) else np.eye(3).tolist()} for j, i in arcs]},
        algorithm={"name": "cycle_projection", "steps": 50},
    )


@pytest.mark.parametrize("c", [[[]], [[], []]], ids=["one-empty-row", "two-empty-rows"])
def test_empty_rows_are_refused_but_no_rows_verify(c, tmp_path, capsys):
    # [[], []] is two rows of 0 columns, not the weight file's [] for no rows
    for command in ("verify", "run"):
        message = _one_error(tmp_path, capsys, _triangle_with_weight(c), command)
        assert message == "weight for arc (1, 2) must have 3 columns, has 0"
    assert main(["verify", "--scenario", write_scenario(tmp_path, "s.json", _triangle_with_weight([]))]) == 0
    assert json.loads(capsys.readouterr().out)["kernel_dim"] == 3


def test_consensus_initial_state_via_cli(tmp_path, capsys):
    data = symmetric_square_scenario(
        initial_state={"consensus": {"value": [1.5, -2.0]}},
        algorithm={"name": "fixed_step", "steps": 12},
    )
    assert main(["run", "--scenario", write_scenario(tmp_path, "s.json", data), "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["final_consensus_error"] == 0.0


def test_project_init_via_cli(tmp_path, capsys):
    data = {
        "schema_version": 1,
        "graph": {"m": 4, "arcs": [[1, 2], [2, 3], [3, 4], [4, 1]]},
        "n": 2,
        "weights": {
            "explicit": [
                {"j": 1, "i": 2, "C": [[1, 0]]},
                {"j": 2, "i": 3, "C": [[0, 1]]},
                {"j": 3, "i": 4, "C": [[1, 0]]},
                {"j": 4, "i": 1, "C": [[0, 1]]},
            ]
        },
        "algorithm": {"name": "cycle_projection", "steps": 4000, "project_init": True},
        "initial_state": {"random": {"seed": 3}},
    }
    scenario = write_scenario(tmp_path, "s.json", data)
    # four nonzero kernels in the plane are dependent, so verification fails...
    assert main(["verify", "--scenario", scenario]) == 2
    capsys.readouterr()
    # ...yet the projected initialization still reaches consensus
    assert main(["run", "--scenario", scenario, "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["converged"] is True


def test_tol_flag_accepted(capsys):
    scenario = str(bundled_scenario_path("broadcast_pair"))
    assert main(["verify", "--scenario", scenario, "--tol", "1e-8"]) == 0


@pytest.mark.parametrize("command", ["synth", "run", "analyze", "counterexample"])
def test_tol_flag_rejected_where_unused(command, tmp_path, capsys):
    argv = [command, "--tol", "1e-8", "--out", str(tmp_path / "o")]
    if command != "counterexample":
        argv += ["--scenario", write_scenario(tmp_path, "sq.json", symmetric_square_scenario())]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--tol" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["verify", "synth"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "1"])
def test_tol_outside_the_open_unit_interval_is_a_usage_error(command, tol, tmp_path, capsys):
    argv = [command, "--scenario", str(bundled_scenario_path("symmetric_nonzero_kernels")), "--tol", tol]
    if command == "synth":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1 and "--tol" in captured.err
    assert not (tmp_path / "o").exists()


def test_commands_are_looked_up_at_call_time(monkeypatch, capsys):
    # the parser is built once; a replaced cmd_* function must still be called
    import limcon.cli

    scenario = str(bundled_scenario_path("broadcast_pair"))
    assert main(["verify", "--scenario", scenario]) == 0
    calls = []
    monkeypatch.setattr(limcon.cli, "cmd_verify", lambda args: calls.append(args.scenario) or 7)
    assert main(["verify", "--scenario", scenario]) == 7
    assert calls == [scenario]


def test_usage_errors_exit_one(capsys):
    assert main(["verify"]) == 1  # --scenario is required
    assert main(["frobnicate"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def _set(data, path, value):
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


METROPOLIS = {
    "name": "metropolis_tv",
    "steps": 3,
    "schedule": {"mode": "scripted", "subgraphs": [[[1, 2], [2, 1], [3, 4], [4, 3]]], "script": [0, 0, 0]},
}
GRADIENT = {"name": "gradient", "steps": 3, "stepsize": {"kind": "constant", "value": 0.1}}
CYCLE = {"name": "cycle_projection", "steps": 3, "project_init": True}


def _metropolis(**schedule):
    return {**METROPOLIS, "schedule": {**METROPOLIS["schedule"], **schedule}}


def _gradient(**stepsize):
    return {**GRADIENT, "stepsize": stepsize}


def _explicit(bad_arc, c):
    """Explicit weights on the square: [[1, 0]] on every arc but bad_arc, which gets c."""
    return {"explicit": [{"j": j, "i": i, "C": c if (j, i) == bad_arc else [[1, 0]]} for j, i in SQUARE_ARCS]}


# (path, corrupt value, what the error must name)
WRONG_TYPES = [
    (("graph", "arcs"), 5, "graph.arcs"),
    (("graph", "arcs"), [[1, 2, 3]], "graph.arcs"),
    (("graph", "arcs", 0), [1, "2"], "graph.arcs"),
    (("graph", "m"), "4", "graph.m"),
    (("graph", "m"), 4.0, "graph.m"),
    (("graph",), 7, "graph must be"),
    (("n",), [2], "n must be"),
    (("n",), True, "n must be"),
    (("weights", "synthesize", "symmetric"), "yes", "weights.synthesize.symmetric"),
    (("weights", "synthesize", "decomposition"), {"path": 3}, "weights.synthesize.decomposition.path"),
    (("weights",), {"explicit": 5}, "weights.explicit"),
    (("weights",), {"explicit": [{"j": 1, "i": 2, "C": "I"}]}, "weights.explicit[].C"),
    (("weights",), {"explicit": [{"j": 1, "i": 2, "C": [[1, "x"]]}]}, "weights.explicit[].C"),
    (("weights",), {"explicit": [{"j": [1], "i": 2, "C": [[1, 0]]}]}, "weights.explicit[].j"),
    (("algorithm", "steps"), "10", "algorithm.steps"),
    (("algorithm", "steps"), None, "algorithm.steps"),
    (("algorithm",), {**CYCLE, "project_init": "no"}, "algorithm.project_init"),
    (("algorithm",), _metropolis(subgraphs=5), "algorithm.schedule.subgraphs"),
    (("algorithm",), _metropolis(subgraphs=[[1, 2]]), "algorithm.schedule.subgraphs[]"),
    (("algorithm",), _metropolis(script=[0.5]), "algorithm.schedule.script[]"),
    (("algorithm",), _gradient(kind="harmonic", a="1"), "algorithm.stepsize.a"),
    (("algorithm",), _gradient(kind="constant", value=[1]), "algorithm.stepsize.value"),
    (("algorithm",), _gradient(kind="scripted", values=0.1), "algorithm.stepsize.values"),
    (("algorithm",), _gradient(kind="scripted", values=[{}]), "algorithm.stepsize.values[0]"),
    (("initial_state", "random", "seed"), 1.5, "initial_state.random.seed"),
    (("initial_state",), {"explicit": {"rows": 4}}, "initial_state.explicit"),
    (("initial_state",), {"consensus": {"value": "zero"}}, "initial_state.consensus.value"),
    (("output",), {"dir": 5}, "output.dir"),
    # every arc covered, and (1, 2) listed a second time
    (("weights",), {"explicit": [{"j": j, "i": i, "C": [[1, 0]]} for j, i in [*SQUARE_ARCS, (1, 2)]]}, "arc (1, 2)"),
    (("algorithm",), _gradient(kind="constant"), "algorithm.stepsize (constant): missing keys ['value']"),
    (("algorithm",), _gradient(kind="scripted"), "algorithm.stepsize (scripted): missing keys ['values']"),
    (("algorithm",), _gradient(kind="harmonic", value=0.1), "algorithm.stepsize (harmonic): unknown keys ['value']"),
    (("weights",), _explicit((2, 3), [[1, float("nan")]]), "arc (2, 3) has non-finite entries"),
    (("weights",), _explicit((3, 4), [[float("inf"), 0]]), "arc (3, 4) has non-finite entries"),
    (("weights",), _explicit((4, 1), [[[1, 0], [0, 1]]]), "arc (4, 1) must be a matrix"),
    (("weights",), _explicit((1, 4), [[1, 0, 0]]), "arc (1, 4) must have 2 columns, has 3"),
    # json.dumps writes NaN and Infinity, which json.loads reads back as 1e400 reads: nan and inf
    (("algorithm",), _gradient(kind="constant", value=float("nan")), "algorithm.stepsize.value must be positive and finite, got nan"),
    (("algorithm",), _gradient(kind="constant", value=json.loads("1e400")), "algorithm.stepsize.value must be positive and finite, got inf"),
    (("algorithm",), _gradient(kind="harmonic", a=float("nan")), "algorithm.stepsize.a must be positive and finite, got nan"),
    (("algorithm",), _gradient(kind="harmonic", b=json.loads("1e400")), "algorithm.stepsize.b must be >= 1 and finite, got inf"),
    (("algorithm",), _gradient(kind="scripted", values=[0.1, float("nan")]), "algorithm.stepsize.values[1] must be positive and finite, got nan"),
    (("algorithm",), _gradient(kind="scripted", values=[json.loads("1e400")]), "algorithm.stepsize.values[0] must be positive and finite, got inf"),
    (("algorithm",), _gradient(kind="constant", value=0), "algorithm.stepsize.value must be positive and finite, got 0.0"),
    (("algorithm",), _gradient(kind="harmonic", b=0.5), "algorithm.stepsize.b must be >= 1 and finite, got 0.5"),
    (("algorithm",), _gradient(kind="scripted", values=[]), "algorithm.stepsize.values must not be empty"),
    (("schema_version",), True, "schema_version must be an integer, got a boolean"),
    (("schema_version",), 1.0, "schema_version must be an integer, got a number"),
]


@pytest.mark.parametrize(
    "path, value, field", WRONG_TYPES, ids=[f"{'.'.join(map(str, p))}-{k}" for k, (p, _, _) in enumerate(WRONG_TYPES)]
)
def test_wrong_typed_fields_exit_one(path, value, field, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the default output directory is ./out
    data = _set(symmetric_square_scenario(), path, value)
    assert main(["run", "--scenario", write_scenario(tmp_path, "s.json", data)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and field in err[0]
    assert not (tmp_path / "out").exists()


BIG = 10**400  # json.loads reads it as an int, which no double holds


def _one_error(tmp_path, capsys, data, command="run"):
    """The one error line, less 'error: ', of command on the scenario data."""
    out = [] if command == "verify" else ["--out", str(tmp_path / "o")]
    assert main([command, "--scenario", write_scenario(tmp_path, "s.json", data), *out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "o").exists()
    return err[0].removeprefix("error: ")


@pytest.mark.parametrize("bad", ["1", True, BIG], ids=["string", "boolean", "400-digit"])
@pytest.mark.parametrize(
    "overrides, field",
    [
        (lambda x: {"algorithm": _gradient(kind="constant", value=x)}, "algorithm.stepsize.value"),
        (lambda x: {"algorithm": _gradient(kind="harmonic", a=x)}, "algorithm.stepsize.a"),
        (lambda x: {"algorithm": _gradient(kind="harmonic", b=x)}, "algorithm.stepsize.b"),
        (lambda x: {"algorithm": _gradient(kind="scripted", values=[0.1, x])}, "algorithm.stepsize.values[1]"),
        (lambda x: {"initial_state": {"consensus": {"value": [x, 0]}}}, "initial_state.consensus.value"),
        (lambda x: {"initial_state": {"explicit": [[0, 0], [0, x], [0, 0], [0, 0]]}}, "initial_state.explicit"),
        (lambda x: {"weights": _explicit((2, 3), [[x, 0]])}, "weights.explicit[].C"),
    ],
    ids=["value", "a", "b", "values", "consensus", "explicit-state", "C"],
)
def test_numeric_fields_take_json_numbers_only(overrides, field, bad, tmp_path, capsys):
    # numpy would read "1" and true as numbers, and float(10**400) overflows
    assert _one_error(tmp_path, capsys, symmetric_square_scenario(**overrides(bad))).startswith(f"{field} must be ")


def _weight_entries(bad_entry):
    return [{"j": j, "i": i, "C": [[1, 0]]} for j, i in SQUARE_ARCS[1:]] + [bad_entry]


WRONG = {"string": "2", "boolean": True, "null": None, "object": {"v": 2}, "1.5": 1.5, "400-digit": BIG}


@pytest.mark.parametrize(
    "key, bad",
    [(key, bad) for key in ("C", "j", "i") for name, bad in WRONG.items() if (key, name) != ("C", "1.5")],
    ids=[f"{key}-{name}" for key in ("C", "j", "i") for name in WRONG if (key, name) != ("C", "1.5")],
)
def test_explicit_weights_and_weight_files_share_one_reader(key, bad, tmp_path, capsys):
    # 1.5 is a valid entry of C
    entry = {"j": 1, "i": 2, "C": [[1, 0]], key: [[1, bad]] if key == "C" else bad}
    cli = _one_error(tmp_path, capsys, symmetric_square_scenario(weights={"explicit": _weight_entries(entry)}))
    with pytest.raises(ValueError) as lib:
        weights_from_json({"m": 4, "n": 2, "arcs": _weight_entries(entry)})
    assert cli.startswith("weights.explicit[]") and str(lib.value).startswith("weight-file arcs[]")
    assert cli.removeprefix("weights.explicit") == str(lib.value).removeprefix("weight-file arcs")


@pytest.mark.parametrize("bad", WRONG.values(), ids=WRONG.keys())
def test_arc_lists_share_one_reader(bad, tmp_path, capsys):
    arcs = [[bad, 2], [2, 1], [3, 4], [4, 3]]
    messages = [_one_error(tmp_path, capsys, symmetric_square_scenario(graph={"m": 4, "arcs": arcs}), "verify")]
    metropolis = {**METROPOLIS, "schedule": {**METROPOLIS["schedule"], "subgraphs": [arcs]}}
    messages.append(_one_error(tmp_path, capsys, symmetric_square_scenario(algorithm=metropolis), "verify"))
    (tmp_path / "dec.json").write_text(json.dumps([{"kind": "cycle", "arcs": arcs}]))
    ear_file = symmetric_square_scenario(weights={"synthesize": {"decomposition": {"path": "dec.json"}}})
    messages.append(_one_error(tmp_path, capsys, ear_file, "synth"))
    prefixes = ["graph.arcs", "algorithm.schedule.subgraphs[]", f"{tmp_path / 'dec.json'}: ear arcs"]
    assert all(message.startswith(prefix) for message, prefix in zip(messages, prefixes))
    assert len({message.removeprefix(prefix) for message, prefix in zip(messages, prefixes)}) == 1


# every algorithm section with its own settings, and a valid value of each setting
SECTIONS = [{"name": "fixed_step", "steps": 3}, {"name": "general_projection", "steps": 3}, METROPOLIS, GRADIENT, CYCLE]
SETTINGS = {"stepsize": GRADIENT["stepsize"], "schedule": METROPOLIS["schedule"], "project_init": True}


@pytest.mark.parametrize(
    "section, key",
    [(s, k) for s in SECTIONS for k in SETTINGS if k not in s],
    ids=lambda v: v["name"] if isinstance(v, dict) else v,
)
def test_unused_algorithm_settings_rejected(section, key, tmp_path, capsys):
    scenario = write_scenario(tmp_path, "s.json", symmetric_square_scenario(algorithm={**section, key: SETTINGS[key]}))
    for command in ("run", "analyze", "verify", "synth"):
        out = [] if command == "verify" else ["--out", str(tmp_path / "o")]
        assert main([command, "--scenario", scenario, *out]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: algorithm ({section['name']}): unknown keys ['{key}']"]
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"algorithm": {"name": "metropolis_tv", "steps": 3}}, "algorithm (metropolis_tv): missing keys ['schedule']"),
        ({"algorithm": {**METROPOLIS, "steps": "many"}}, "algorithm.steps must be an integer, got a string"),
        ({"algorithm": _metropolis(subgraphs=[[[1, 3], [3, 1]]])}, "scheduled graph 0 is not a spanning subgraph"),
        ({"algorithm": _metropolis(subgraphs=[[[1, 2], [3, 4], [4, 3]]])}, "scheduled graph 0 is not symmetric"),
        ({"algorithm": _metropolis(subgraphs=[[[1, 2], [2, 1], [1, 2]]])}, "duplicate arc (1, 2)"),
        ({"algorithm": _metropolis(subgraphs=[[[1, 5], [5, 1]]])}, "arc (1, 5) out of range for m=4"),
        ({"algorithm": _metropolis(script=[0, 1])}, "script indices out of range"),
        ({"algorithm": _metropolis(mode="periodic")}, "algorithm.schedule (periodic): unknown keys ['script']"),
        ({"algorithm": _metropolis(mode="fixed", script=[5, -1, "x"])}, "algorithm.schedule (fixed): unknown keys ['script']"),
        (
            {"algorithm": {**METROPOLIS, "schedule": {"mode": "scripted", "subgraphs": [[[1, 2], [2, 1]]]}}},
            "algorithm.schedule (scripted): missing keys ['script']",
        ),
        ({"initial_state": {"random": {"seed": "x"}}}, "initial_state.random.seed must be an integer, got a string"),
        ({"initial_state": {"random": {"seed": 1}, "junk": 1}}, "initial_state: unknown keys ['junk']"),
        ({"initial_state": {"random": {"seed": -1}}}, "initial_state.random.seed must be a non-negative integer, got -1"),
        ({"algorithm": {"name": "fixed_step", "steps": -1}}, "algorithm.steps must be >= 0, got -1"),
        ({"initial_state": {"explicit": [[0, 1], [2, 3], [4, float("nan")], [6, 7]]}}, "initial_state.explicit must be finite"),
        (
            {"initial_state": {"consensus": {"value": [json.loads("1e400"), 0]}}},
            "initial_state.consensus.value must be finite",
        ),
    ],
    ids=[
        "no-schedule", "steps", "schedule-arcs", "asymmetric-subgraph", "duplicate-arc", "out-of-range-arc",
        "script-index", "periodic-script", "fixed-script", "scripted-no-script", "seed", "initial-state-key",
        "negative-seed", "negative-steps", "nan-explicit-state", "inf-consensus-state",
    ],
)
def test_every_command_parses_algorithm_and_initial_state(overrides, message, tmp_path, capsys):
    scenario = write_scenario(tmp_path, "s.json", symmetric_square_scenario(**overrides))
    for command in ("run", "analyze", "verify", "synth"):
        out = [] if command == "verify" else ["--out", str(tmp_path / "o")]
        assert main([command, "--scenario", scenario, *out]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section", SECTIONS, ids=lambda s: s["name"])
def test_run_calls_the_engine_through_the_module(section, tmp_path, capsys, monkeypatch):
    # the engine is looked up in limcon.simulate at call time, so a replaced one is called
    import limcon.simulate

    engine = f"run_{section['name']}"
    real, calls = getattr(limcon.simulate, engine), []
    monkeypatch.setattr(limcon.simulate, engine, lambda *a, **k: calls.append(sorted(k)) or real(*a, **k))
    data = symmetric_square_scenario(algorithm=section)
    if section["name"] == "cycle_projection":
        data.update(graph={"m": 4, "arcs": [[1, 2], [2, 3], [3, 4], [4, 1]]}, weights={"synthesize": {"mode": "free"}})
    assert main(["run", "--scenario", write_scenario(tmp_path, "s.json", data), "--out", str(tmp_path / "o")]) == 0
    assert calls == [sorted(set(section) - {"name"})]  # steps and the engine's own settings, by keyword
    capsys.readouterr()


@pytest.mark.parametrize("command", ["run", "counterexample"])
def test_negative_steps_flag_is_named(command, tmp_path, capsys):
    scenario = ["--scenario", write_scenario(tmp_path, "s.json", symmetric_square_scenario())] if command == "run" else []
    assert main([command, *scenario, "--out", str(tmp_path / "o"), "--steps", "-1"]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: --steps must be >= 0, got -1"]
    assert not (tmp_path / "o").exists()


def test_random_state_without_seed_is_legal_until_run(tmp_path, capsys):
    scenario = write_scenario(tmp_path, "s.json", symmetric_square_scenario(initial_state={"random": {}}))
    for command in ("analyze", "verify", "synth"):
        out = [] if command == "verify" else ["--out", str(tmp_path / command)]
        assert main([command, "--scenario", scenario, *out]) == 0
    assert main(["run", "--scenario", scenario, "--out", str(tmp_path / "run"), "--seed", "3", "--steps", "2"]) == 0
    capsys.readouterr()


def test_wrong_typed_decomposition_file_exits_one(tmp_path, capsys):
    arcs = [list(arc) for arc in SQUARE_ARCS]
    for bad in ({"ears": []}, [5], [{"kind": "cycle", "arcs": 3}], [{"kind": "cycle"}], [{"kind": "loop", "arcs": arcs}]):
        (tmp_path / "dec.json").write_text(json.dumps(bad))
        data = symmetric_square_scenario(weights={"synthesize": {"decomposition": {"path": "dec.json"}}})
        assert main(["synth", "--scenario", write_scenario(tmp_path, "s.json", data), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {tmp_path / 'dec.json'}: "), bad


@pytest.mark.parametrize("command", ["verify", "run"])
def test_three_dimensional_weight_names_the_arc(command, tmp_path, capsys):
    data = {
        "schema_version": 1,
        "graph": {"m": 2, "arcs": [[1, 2], [2, 1]]},
        "n": 2,
        "weights": {
            "explicit": [
                {"j": 1, "i": 2, "C": [[[1, 0], [0, 1]]]},
                {"j": 2, "i": 1, "C": [[1, 0], [0, 1]]},
            ]
        },
        "algorithm": {"name": "fixed_step", "steps": 5},
        "initial_state": {"random": {"seed": 5}},
    }
    argv = [command, "--scenario", write_scenario(tmp_path, "s.json", data)]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "(1, 2)" in err[0] and "(1, 2, 2)" in err[0]
    assert not (tmp_path / "o").exists()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats(-3, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)
FUZZED_PATHS = [
    ("graph",), ("graph", "m"), ("graph", "arcs"), ("graph", "arcs", 0), ("n",),
    ("weights",), ("weights", "synthesize"), ("weights", "synthesize", "mode"),
    ("weights", "synthesize", "symmetric"), ("weights", "synthesize", "decomposition"),
    ("algorithm",), ("algorithm", "name"), ("algorithm", "steps"), ("algorithm", "stepsize"),
    ("algorithm", "schedule"), ("algorithm", "schedule", "subgraphs"), ("algorithm", "schedule", "script"),
    ("initial_state",), ("initial_state", "random", "seed"), ("output",),
]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    path=st.sampled_from(FUZZED_PATHS),
    value=JSON_VALUES,
    command=st.sampled_from(["verify", "synth", "run", "analyze"]),
    algorithm=st.sampled_from([METROPOLIS, GRADIENT]),
)
def test_fuzzed_scenarios_fail_cleanly(path, value, command, algorithm):
    # a deep copy, so that a fuzzed schedule field does not leak into METROPOLIS
    data = symmetric_square_scenario(algorithm=copy.deepcopy({**algorithm, "steps": 2}))
    assume(len(path) < 3 or path[1] in data[path[0]])  # the gradient section has no schedule to corrupt
    _set(data, path, value)
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        scenario = write_scenario(Path(tmp), "s.json", data)
        out = ["--out", str(Path(tmp) / "o")] if command in ("synth", "run") else []
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([command, "--scenario", scenario, *out])
    assert code in (0, 1, 2)
    if code == 1:
        assert stderr.getvalue().startswith("error:")


@pytest.mark.parametrize("command", ["synth", "run", "analyze"])
def test_malformed_output_section_rejected_with_out_flag(command, tmp_path, capsys):
    data = symmetric_square_scenario(output={"dir": 5, "bogus": 1})
    scenario = write_scenario(tmp_path, "s.json", data)
    assert main([command, "--scenario", scenario, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: output: unknown keys")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("rounds, m, n", [(3, 4, 2), (13, 1, 3), (12, 3, 1), (12, 1, 1)])
def test_trajectory_csv_matches_repr_formatting(rounds, m, n, tmp_path):
    from types import SimpleNamespace

    from limcon.cli import _write_trajectory_csv

    awkward = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1, -1 / 3, 1e22]
    states = np.resize(awkward, rounds * m * n).reshape(rounds, m, n)
    _write_trajectory_csv(tmp_path / "t.csv", SimpleNamespace(states=states))
    lines = ["t,agent," + ",".join(f"comp_{c + 1}" for c in range(n))]
    lines += [f"{t},{a + 1}," + ",".join(f"{v:.17g}" for v in states[t, a]) for t in range(rounds) for a in range(m)]
    text = (tmp_path / "t.csv").read_text()
    assert text == "\n".join(lines) + "\n" == trajectory_csv_per_row(states)


def write_trajectory(path, states) -> str:
    _write_trajectory_csv(path, SimpleNamespace(states=states))
    return path.read_text()


# the writer's fixed-notation range and its edges, and every other float
TRAJECTORY_FLOATS = st.one_of(st.floats(), st.floats(-1e18, 1e18), st.floats(1e-5, 1e-3), st.floats(1e16, 1e18))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), rounds=st.integers(1, 12), m=st.integers(1, 5), n=st.integers(1, 4))
def test_trajectory_csv_matches_the_per_row_oracle(data, rounds, m, n, tmp_path):
    values = data.draw(st.lists(TRAJECTORY_FLOATS, min_size=rounds * m * n, max_size=rounds * m * n))
    states = np.array(values).reshape(rounds, m, n)
    assert write_trajectory(tmp_path / "t.csv", states) == trajectory_csv_per_row(states)


def ulps_around(x: float, count: int) -> list[float]:
    """x and the `count` doubles on either side of it."""
    below, above = [np.float64(x)], [np.float64(x)]
    for _ in range(count):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return [float(v) for v in below[::-1] + above[1:]]


def exact_ties() -> list[float]:
    """Doubles N * 2^-j whose exact decimal expansion has 18 significant
    digits, the last a 5: '%.17g' rounds each from exactly halfway."""
    from decimal import Decimal

    rng = np.random.default_rng(18)
    ties = []
    for j in range(1, 25):  # N * 5^j, the digits of N * 2^-j, has 18 digits
        low, high = -(-(10**17) // 5**j), min(10**18 // 5**j, 2**53)
        for N in rng.integers(low, high, 40) | 1 if low < high else []:
            x = int(N) * 2.0**-j
            digits = Decimal(x).as_tuple().digits
            if len(digits) == 18 and 1e-4 <= x < 1e17:
                assert digits[-1] == 5
                ties.append(x)
    return ties


def carrying_value() -> float:
    """The double nearest 1e-14, which lies below it and whose 17-digit
    rounding carries to 1e-14."""
    from decimal import Decimal

    assert Decimal(1e-14) < Decimal("1e-14") and "%.17g" % 1e-14 == "1e-14"
    return 1e-14


@pytest.mark.parametrize(
    "corpus",
    [
        pytest.param(exact_ties, id="exact ties"),
        pytest.param(lambda: [v for k in range(-30, 31) for v in ulps_around(10.0**k, 50)], id="powers of ten"),
        pytest.param(lambda: ulps_around(1e-4, 200) + ulps_around(1e17, 200), id="fixed-notation edges"),
        pytest.param(lambda: [carrying_value()], id="carry"),
    ],
)
def test_trajectory_csv_matches_the_per_row_oracle_on_corpora(corpus, tmp_path):
    values = np.array(corpus())
    states = np.concatenate([values, -values]).reshape(-1, 2, 1)
    assert write_trajectory(tmp_path / "t.csv", states) == trajectory_csv_per_row(states)


# rounds past 9, 99 and 10^4; blocks of many rounds, of one round, and rounds
# of more values than a block holds
@pytest.mark.parametrize("shape", [(10001, 1, 1), (101, 7, 3), (1200, 4, 2), (3, 2049, 2), (2, 1, 4097)])
def test_trajectory_csv_matches_the_per_row_oracle_across_blocks(shape, tmp_path):
    rng = np.random.default_rng(sum(shape))
    states = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 19, shape)
    assert write_trajectory(tmp_path / "t.csv", states) == trajectory_csv_per_row(states)


def test_trajectory_csv_scratch_memory_is_bounded(tmp_path):
    traj = SimpleNamespace(states=np.random.default_rng(0).standard_normal((2000, 100, 3)))
    tracemalloc.start()
    try:
        _write_trajectory_csv(tmp_path / "t.csv", traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the writer works in blocks: formatting all 600,000 values at once
    # would take tens of MB
    assert peak < 4 * 2**20


def test_run_on_a_long_ring_counts_eigenvalues_in_linear_memory(tmp_path, capsys):
    # the dense 6000 x 6000 round map alone would take 288 MB; the bound is
    # the one test_fixed_step_memory_is_linear_in_arcs sets for the engine
    g = symmetric_cycle(2000)
    data = symmetric_square_scenario(
        graph={"m": g.m, "arcs": [list(arc) for arc in g.arcs]},
        n=3,
        weights={"synthesize": {"mode": "free", "symmetric": True}},
        algorithm={"name": "fixed_step", "steps": 200},
    )
    scenario = write_scenario(tmp_path, "ring.json", data)
    tracemalloc.start()
    try:
        code = main(["run", "--scenario", scenario, "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["steps_run"] == 200
    assert summary["spectral"]["ones"] == 3
    assert peak < 64 * 2**20


# the last state is finite but past 1e154, whose square overflows, after 64
# rounds, holds inf after 125 rounds and only nan after 126
@pytest.mark.parametrize("steps", [64, 125, 400])
def test_diverging_run_reports_null_for_non_finite_numbers(steps, tmp_path, capsys):
    triangle = [[j, i] for j in (1, 2, 3) for i in (1, 2, 3) if j != i]
    data = {
        "schema_version": 1,
        "graph": {"m": 3, "arcs": triangle},
        "n": 2,
        "weights": {"synthesize": {"symmetric": True}},
        "algorithm": {"name": "gradient", "steps": steps, "stepsize": {"kind": "constant", "value": 50}},
        "initial_state": {"random": {"seed": 1}},
    }
    scenario = write_scenario(tmp_path, "s.json", data)
    assert main(["run", "--scenario", scenario, "--out", str(tmp_path / "o")]) == 0
    out, err = capsys.readouterr()
    assert err == ""

    def refuse(constant):
        raise AssertionError(f"{constant} is not JSON")

    assert out == (tmp_path / "o" / "summary.json").read_text()
    summary = json.loads(out, parse_constant=refuse)
    if steps > 64:
        assert summary["final_consensus_error"] is None
        assert summary["final_residual"] is None
        return
    # finite states are measured at scale 2^-600, below the squares' overflow
    lines = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()
    x = np.array([[float(v) for v in line.split(",")[2:]] for line in lines[-3:]])
    assert lines[-1].startswith(f"{steps},") and np.abs(x).max() > 1e154
    w = _resolve(data, tmp_path)[0]
    assert summary["final_consensus_error"] == pytest.approx(consensus_error(x * 2.0**-600) * 2.0**600, rel=1e-12)
    assert summary["final_residual"] == pytest.approx(local_agreement_residual(w, x * 2.0**-600) * 2.0**600, rel=1e-12)


def indent_encoder_weights_json(w) -> str:
    """weights.json as json's own (pure-Python) indent encoder writes it."""
    return json.dumps(weights_to_json(w), indent=2) + "\n"


def assert_written_weights_match(w, path):
    text = path.read_text()
    assert text == indent_encoder_weights_json(w)
    again = weights_from_json(json.loads(text))
    assert again.graph == w.graph and again.n == w.n
    assert np.array_equal(again.row_counts, w.row_counts)
    assert again.rows.tobytes() == w.rows.tobytes()  # bit for bit, -0.0 and subnormals included


AWKWARD_FLOATS = [0.0, -0.0, 5e-324, 1e-7, 1e16, 0.1, 1 / 3, 2.0**53, 1e308]


@settings(max_examples=80, deadline=None)
@given(data=st.data(), m=st.integers(1, 4), n=st.integers(1, 4))
def test_weights_json_matches_the_indent_encoder(data, m, n):
    pairs = [(j, i) for j in range(1, m + 1) for i in range(1, m + 1) if j != i]
    arcs = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    entry = st.sampled_from([v for a in AWKWARD_FLOATS for v in (a, -a)]) | st.floats(allow_nan=False, allow_infinity=False)
    table = {}
    for arc in arcs:
        rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=n + 1))
        table[arc] = np.array(rows, dtype=float).reshape(len(rows), n)
    w = WeightedNeighborGraph(DirectedGraph(m, tuple(arcs)), n, table)
    with tempfile.TemporaryDirectory() as tmp:
        _write_weights_json(Path(tmp) / "weights.json", w)
        assert_written_weights_match(w, Path(tmp) / "weights.json")


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize(
    "synthesize, graph",
    [(synthesize_weights, directed_cycle(6)), (synthesize_symmetric_weights, symmetric_cycle(6))],
    ids=["directed", "symmetric"],
)
def test_synthesized_weights_json_matches_the_indent_encoder(synthesize, graph, n, tmp_path):
    # n = 1 leaves arcs without rows; each graph is one ear longer than n, so "free" pads with identities
    w = synthesize(graph, n, mode="free")
    assert (w.row_counts == 0).any() if n == 1 else (w.row_counts == n).any()
    _write_weights_json(tmp_path / "weights.json", w)
    assert_written_weights_match(w, tmp_path / "weights.json")


@pytest.mark.parametrize("name", ["broadcast_pair", "path_lossy", "counterexample", "symmetric_nonzero_kernels"])
def test_bundled_weights_json_matches_the_indent_encoder(name, tmp_path, capsys):
    scenario = bundled_scenario_path(name)
    data = json.loads(scenario.read_text())
    w = _resolve(data, scenario.parent)[0]
    _write_weights_json(tmp_path / "direct.json", w)
    assert_written_weights_match(w, tmp_path / "direct.json")
    if "synthesize" in data["weights"]:
        assert main(["synth", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 0
        assert_written_weights_match(w, tmp_path / "o" / "weights.json")
    capsys.readouterr()


def test_synth_does_not_use_the_pure_python_json_encoder(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder was called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError, match="pure-Python"):
        json.dumps({"C": [[1.0]]}, indent=2)
    scenario = str(bundled_scenario_path("symmetric_nonzero_kernels"))
    assert main(["synth", "--scenario", scenario, "--out", str(tmp_path)]) == 0
    monkeypatch.undo()
    assert json.loads(capsys.readouterr().out)["well_configured"] is True
    assert weights_from_json(json.loads((tmp_path / "weights.json").read_text())).n == 2


def test_run_computes_the_residual_of_the_final_state_only(tmp_path, capsys, monkeypatch):
    import limcon.simulate

    states = []
    real = limcon.simulate.local_agreement_residual
    monkeypatch.setattr(limcon.simulate, "local_agreement_residual", lambda w, x: states.append(x) or real(w, x))
    scenario = write_scenario(tmp_path, "s.json", symmetric_square_scenario(algorithm={"name": "fixed_step", "steps": 30}))
    assert main(["run", "--scenario", scenario, "--out", str(tmp_path / "o")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["steps_run"] == 30 and len(states) == 1
    rows = np.loadtxt(tmp_path / "o" / "trajectory.csv", delimiter=",", skiprows=1)
    assert np.array_equal(states[0], rows[-4:, 2:])


@pytest.mark.parametrize("name", ["broadcast_pair", "path_lossy", "counterexample", "symmetric_nonzero_kernels"])
def test_bundled_verdicts_have_a_wide_rank_gap(name, capsys):
    main(["verify", "--scenario", str(bundled_scenario_path(name))])
    captured = capsys.readouterr()
    assert set(json.loads(captured.out)["rank_gap"]) == {"last_kept", "first_dropped", "cutoff"}
    assert "warning:" not in captured.err


@pytest.mark.parametrize("small, code", [(1e-9, 0), (1e-11, 2)], ids=["kept", "dropped"])
def test_verify_warns_near_the_rank_cutoff(small, code, tmp_path, capsys):
    scenario = {
        "schema_version": 1,
        "graph": {"m": 2, "arcs": [[1, 2]]},
        "n": 2,
        "weights": {"explicit": [{"j": 1, "i": 2, "C": [[1.0, 0.0], [0.0, small]]}]},
    }
    assert main(["verify", "--scenario", write_scenario(tmp_path, "near.json", scenario)]) == code
    captured = capsys.readouterr()
    assert captured.err.count("warning:") == 1
    gap = json.loads(captured.out)["rank_gap"]
    assert gap["cutoff"] == pytest.approx(np.sqrt(2.0) * 1e-10)


def test_synth_symmetric_writes_the_symmetric_synthesis(tmp_path, capsys):
    data = symmetric_square_scenario(weights={"synthesize": {"mode": "free", "symmetric": True}})
    assert main(["synth", "--scenario", write_scenario(tmp_path, "s.json", data), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    w = synthesize_symmetric_weights(DirectedGraph(4, tuple(SQUARE_ARCS)), 2)
    assert (tmp_path / "o" / "weights.json").read_text() == json.dumps(weights_to_json(w), indent=2) + "\n"


def test_fixed_schedule_runs_as_its_one_subgraph_periodic(tmp_path, capsys):
    outputs = []
    for mode in ("fixed", "periodic"):
        data = symmetric_square_scenario(algorithm={**_metropolis(mode=mode), "steps": 50})
        del data["algorithm"]["schedule"]["script"]
        out = tmp_path / mode
        assert main(["run", "--scenario", write_scenario(tmp_path, f"{mode}.json", data), "--out", str(out)]) == 0
        files = [(out / name).read_bytes() for name in ("trajectory.csv", "summary.json")]
        outputs.append((capsys.readouterr().out, *files))
    assert outputs[0] == outputs[1]


_DROP = object()  # removes the section


# (command, scenario overrides, extra arguments, the one error line)
CLI_ERRORS = [
    ("run", {"initial_state": {"explicit": [[0, 1]]}}, [], "initial_state.explicit must be 4 rows of 2 values"),
    ("run", {"initial_state": {"consensus": {}}}, ["--seed", "3"], "--seed given but the initial state is a consensus state"),
    ("run", {"initial_state": {"consensus": {"value": [1, 2, 3]}}}, [], "initial_state.consensus.value must have 2 entries"),
    ("run", {"algorithm": _gradient(kind="cosine")}, [], "algorithm.stepsize.kind must be harmonic|constant|scripted, got 'cosine'"),
    ("run", {"algorithm": _metropolis(mode="random")}, [], "algorithm.schedule.mode must be fixed|periodic|scripted, got 'random'"),
    (
        "run",
        {"algorithm": {**METROPOLIS, "schedule": {"mode": "fixed", "subgraphs": [SQUARE_ARCS, SQUARE_ARCS]}}},
        [],
        "fixed schedule needs exactly one subgraph",
    ),
    ("run", {"algorithm": _DROP}, [], "scenario has no 'algorithm' section"),
    ("run", {"initial_state": _DROP}, [], "scenario has no 'initial_state' section"),
    ("analyze", {"algorithm": _DROP}, [], "scenario has no 'algorithm' section"),
    ("synth", {"weights": _explicit(None, None)}, [], "synth needs a weights.synthesize section"),
    ("synth", {"weights": 5}, [], "weights must be an object, got an integer"),
    ("synth", {"weights": 1.5}, [], "weights must be an object, got a number"),
    ("synth", {"weights": None}, [], "weights must be an object, got null"),
    ("synth", {"weights": True}, [], "weights must be an object, got a boolean"),
    *(
        (command, {"graph": {"m": 10**30, "arcs": SQUARE_ARCS}}, [], f"vertex count must be in 1..3037000499, got {10**30}")
        for command in ("verify", "synth", "run", "analyze")
    ),
]


@pytest.mark.parametrize(
    "command, overrides, extra, message", CLI_ERRORS, ids=[f"{c[0]}-{k}" for k, c in enumerate(CLI_ERRORS)]
)
def test_cli_error_branches_print_one_line(command, overrides, extra, message, tmp_path, capsys):
    data = symmetric_square_scenario(**overrides)
    data = {key: value for key, value in data.items() if value is not _DROP}
    out = [] if command == "verify" else ["--out", str(tmp_path / "o")]
    assert main([command, "--scenario", write_scenario(tmp_path, "s.json", data), *out, *extra]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "o").exists()


def synth_cases(tmp_path):
    """Scenarios for synth: the bundled one, and the square with directed
    and symmetric synthesis in both modes."""
    cases = [str(bundled_scenario_path("symmetric_nonzero_kernels"))]
    for symmetric in (False, True):
        for mode in ("free", "nonzero-kernels"):
            n = 4 if symmetric else 2  # the square's symmetric ear has 4 pairs
            data = symmetric_square_scenario(n=n, weights={"synthesize": {"mode": mode, "symmetric": symmetric}})
            cases.append(write_scenario(tmp_path, f"s-{symmetric}-{mode}.json", data))
    return cases


def synth_output(scenario, out, capsys):
    assert main(["synth", "--scenario", scenario, "--out", str(out)]) == 0
    return capsys.readouterr().out, (out / "weights.json").read_text()


def test_synth_proves_its_weights_by_ears_without_the_verdict(tmp_path, capsys, monkeypatch):
    import limcon.cli

    monkeypatch.setattr(limcon.cli, "is_well_configured", lambda *a, **k: pytest.fail("synth fell back"))
    for scenario in synth_cases(tmp_path):
        w, dec, _, _ = _resolve(json.loads(Path(scenario).read_text()), Path(scenario).parent)
        assert _proves_by_ears(w, dec)
        stdout, _ = synth_output(scenario, tmp_path / "o", capsys)
        assert json.loads(stdout)["kernel_dim"] == w.n


def test_synth_refuses_weights_the_ear_rule_does_not_prove(tmp_path, capsys, monkeypatch):
    import limcon.cli

    monkeypatch.setattr(limcon.cli, "_proves_by_ears", lambda *a: False)
    assert main(["synth", "--scenario", synth_cases(tmp_path)[0], "--out", str(tmp_path / "refused")]) == 1
    assert capsys.readouterr().err == "error: refusing to emit weights that fail verification\n"
    assert not (tmp_path / "refused").exists()


def test_synth_refuses_a_decomposition_file_that_misses_a_vertex(tmp_path, capsys):
    # the triangle ear alone leaves vertex 4 and the pair 3 <-> 4 uncovered;
    # the ear rule trusts its decomposition, so the file is checked first
    arcs = [[1, 2], [2, 3], [3, 1], [3, 4], [4, 3]]
    (tmp_path / "dec.json").write_text(json.dumps([{"kind": "cycle", "arcs": arcs[:3]}]))
    data = {
        "schema_version": 1,
        "n": 2,
        "graph": {"m": 4, "arcs": arcs},
        "weights": {"synthesize": {"decomposition": {"path": "dec.json"}}},
    }
    scenario = write_scenario(tmp_path, "s.json", data)
    assert main(["synth", "--scenario", scenario, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: ears do not partition the arc set\n"
    assert not (tmp_path / "o").exists()


def test_verify_tol_can_refuse_weights_synth_proves(tmp_path, capsys, monkeypatch):
    # With directed synthesis on the benchmark's digraph at seed 201 the
    # quotient map's smallest kept singular value is 0.125; verify --tol 0.1
    # cuts at 0.2 and says no with a narrow gap.  The weights are exactly
    # well-configured, as synth's ear rule proves.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import families

    scenario = str(families.digraph(201, tmp_path).synth)
    assert main(["verify", "--scenario", scenario, "--tol", "0.1"]) == 2
    gap = json.loads(capsys.readouterr().out)["rank_gap"]
    assert gap["cutoff"] == pytest.approx(0.2) and gap["first_dropped"] == pytest.approx(0.1823, abs=1e-4)
    assert main(["verify", "--scenario", scenario]) == 0
    assert json.loads(capsys.readouterr().out)["rank_gap"]["last_kept"] == pytest.approx(0.1254, abs=1e-4)
    stdout, _ = synth_output(scenario, tmp_path / "o", capsys)
    assert json.loads(stdout)["kernel_dim"] == 4


@pytest.mark.parametrize(
    "weights, message",
    [
        ({"synthesize": {"symmetric": False}}, "ear decomposition exists iff the graph is strongly connected"),
        ({"synthesize": {"symmetric": True}}, "symmetric ear decomposition exists iff the graph is 2-connected"),
        (
            _explicit(None, None),
            "well-configuration requires a weakly connected graph; disconnected agents can never be forced to agree",
        ),
    ],
    ids=["directed", "symmetric", "explicit"],
)
def test_verify_refuses_a_huge_vertex_count_without_paying_for_it(weights, message, tmp_path, capsys):
    # the square's arcs among a million agents: the graph is refused before
    # anything costs memory per agent
    graph = {"m": 1_000_000, "arcs": [list(arc) for arc in SQUARE_ARCS]}
    data = symmetric_square_scenario(graph=graph, weights=weights)
    scenario = write_scenario(tmp_path, "s.json", data)
    tracemalloc.start()
    try:
        assert main(["verify", "--scenario", scenario]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == f"error: {message}\n"
    assert peak < 16 * 2**20
