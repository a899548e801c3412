import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from limcon import ear_decomposition, symmetric_cycle, weights_from_json, is_well_configured
from limcon.cli import bundled_scenario_path, main


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


@pytest.mark.parametrize("command", ["run", "analyze", "counterexample"])
def test_tol_flag_rejected_where_unused(command, tmp_path, capsys):
    argv = [command, "--tol", "1e-8", "--out", str(tmp_path / "o")]
    if command != "counterexample":
        argv += ["--scenario", write_scenario(tmp_path, "sq.json", symmetric_square_scenario())]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--tol" in err
    assert not (tmp_path / "o").exists()


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


SCHEDULED = {
    "name": "metropolis_tv",
    "steps": 3,
    "schedule": {"mode": "scripted", "subgraphs": [[[1, 2], [2, 1], [3, 4], [4, 3]]], "script": [0, 0, 0]},
    "stepsize": {"kind": "constant", "value": 0.1},
}
WRONG_TYPES = [
    (("graph", "arcs"), 5),
    (("graph", "arcs"), [[1, 2, 3]]),
    (("graph", "arcs", 0), [1, "2"]),
    (("graph", "m"), "4"),
    (("graph", "m"), 4.0),
    (("graph",), 7),
    (("n",), [2]),
    (("n",), True),
    (("weights", "synthesize", "symmetric"), "yes"),
    (("weights", "synthesize", "decomposition"), {"path": 3}),
    (("weights",), {"explicit": 5}),
    (("weights",), {"explicit": [{"j": 1, "i": 2, "C": "I"}]}),
    (("weights",), {"explicit": [{"j": 1, "i": 2, "C": [[1, "x"]]}]}),
    (("weights",), {"explicit": [{"j": [1], "i": 2, "C": [[1, 0]]}]}),
    (("algorithm", "steps"), "10"),
    (("algorithm", "steps"), None),
    (("algorithm",), {**SCHEDULED, "project_init": "no"}),
    (("algorithm",), {**SCHEDULED, "schedule": {**SCHEDULED["schedule"], "subgraphs": 5}}),
    (("algorithm",), {**SCHEDULED, "schedule": {**SCHEDULED["schedule"], "subgraphs": [[1, 2]]}}),
    (("algorithm",), {**SCHEDULED, "schedule": {**SCHEDULED["schedule"], "script": [0.5]}}),
    (("algorithm",), {**SCHEDULED, "name": "gradient", "stepsize": {"kind": "harmonic", "a": "1"}}),
    (("algorithm",), {**SCHEDULED, "name": "gradient", "stepsize": {"kind": "constant", "value": [1]}}),
    (("algorithm",), {**SCHEDULED, "name": "gradient", "stepsize": {"kind": "scripted", "values": 0.1}}),
    (("algorithm",), {**SCHEDULED, "name": "gradient", "stepsize": {"kind": "scripted", "values": [{}]}}),
    (("initial_state", "random", "seed"), 1.5),
    (("initial_state",), {"explicit": {"rows": 4}}),
    (("initial_state",), {"consensus": {"value": "zero"}}),
    (("output",), {"dir": 5}),
    # every arc covered, and (1, 2) listed a second time
    (("weights",), {"explicit": [{"j": j, "i": i, "C": [[1, 0]]} for j, i in [*SQUARE_ARCS, (1, 2)]]}),
]


@pytest.mark.parametrize("path, value", WRONG_TYPES, ids=[f"{'.'.join(map(str, p))}-{k}" for k, (p, _) in enumerate(WRONG_TYPES)])
def test_wrong_typed_fields_exit_one(path, value, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the default output directory is ./out
    data = _set(symmetric_square_scenario(), path, value)
    assert main(["run", "--scenario", write_scenario(tmp_path, "s.json", data)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


def test_wrong_typed_decomposition_file_exits_one(tmp_path, capsys):
    for bad in ({"ears": []}, [5], [{"kind": "cycle", "arcs": 3}], [{"kind": "cycle"}]):
        (tmp_path / "dec.json").write_text(json.dumps(bad))
        data = symmetric_square_scenario(weights={"synthesize": {"decomposition": {"path": "dec.json"}}})
        assert main(["synth", "--scenario", write_scenario(tmp_path, "s.json", data), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error:")


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
@given(path=st.sampled_from(FUZZED_PATHS), value=JSON_VALUES, command=st.sampled_from(["verify", "run", "analyze"]))
def test_fuzzed_scenarios_fail_cleanly(path, value, command):
    data = symmetric_square_scenario(algorithm={**SCHEDULED, "steps": 2})
    _set(data, path, value)
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        scenario = write_scenario(Path(tmp), "s.json", data)
        out = ["--out", str(Path(tmp) / "o")] if command == "run" else []
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


def test_trajectory_csv_matches_repr_formatting(tmp_path):
    from types import SimpleNamespace

    from limcon.cli import _write_trajectory_csv

    awkward = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1, -1 / 3, 1e22]
    states = np.array(awkward * 3).reshape(3, 4, 2)
    _write_trajectory_csv(tmp_path / "t.csv", SimpleNamespace(states=states))
    lines = ["t,agent,comp_1,comp_2"]
    lines += [f"{t},{a + 1}," + ",".join(f"{v:.17g}" for v in states[t, a]) for t in range(3) for a in range(4)]
    assert (tmp_path / "t.csv").read_text() == "\n".join(lines) + "\n"


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
