import re
import runpy
import sys
import types

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from robust_thresholds import cli
from robust_thresholds.config import (ConfigError, build_problem, parse_config,
                                      serialize)
from robust_thresholds.mesh import INTERP_MODES, ThresholdRayMesh
from robust_thresholds.model import TabularParams

FISHERY_SMALL = """
model:
  kind: fishery-beverton-holt
horizon: 4
initial_state: 60.0
state_grid:
  nodes: [61]
control_mesh:
  count: 9
ray_mesh:
  spacing: 5.0
  count: 20
  anchors: [130.0, 60.0]
output_dir: "{out}"
"""

TABULAR_SMALL = """
model:
  kind: tabular
  transitions: [[[0, 1], [1, 1]], [[1, 0], [0, 1]]]
  stage_values: [[[1.0, 2.0], [0.5, 3.0]], [[2.0, 1.0], [1.5, 0.0]]]
  terminal_values: [[5.0, 5.0], [5.0, 5.0]]
horizon: 2
initial_state: 0
ray_mesh:
  spacing: 0.5
  count: 10
options:
  interpolation: nearest
output_dir: "{out}"
"""


def write_config(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text.format(out=tmp_path / "out"))
    return path


class TestParsing:
    def test_minimal_fishery_gets_documented_defaults(self):
        cfg = parse_config("model: {kind: fishery-beverton-holt}\n"
                           "horizon: 50\ninitial_state: 60.0\n")
        assert cfg["state_grid"] == {"lower": [0.0], "upper": [120.0], "nodes": [600]}
        assert cfg["control_mesh"] == {"count": 200}
        assert cfg["ray_mesh"] == {"spacing": 0.5, "count": 200,
                                   "anchors": [130.0, 60.0]}
        assert cfg["options"] == {"interpolation": "multilinear", "oracle": False,
                                  "jobs": 1, "oracle_budget": 10_000_000}
        assert cfg["tolerances"]["membership"] == 0.0

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match="unknown key: options.fast"):
            parse_config("model: {kind: fishery-beverton-holt}\nhorizon: 1\n"
                         "initial_state: 1.0\noptions: {fast: true}\n")

    def test_bad_ray_spacing_names_the_key(self):
        with pytest.raises(ConfigError, match="ray_mesh.spacing"):
            parse_config("model: {kind: fishery-beverton-holt}\nhorizon: 1\n"
                         "initial_state: 1.0\nray_mesh: {spacing: -0.5}\n")

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="model.kind"):
            parse_config("horizon: 1\ninitial_state: 0.0\n")
        with pytest.raises(ConfigError, match="horizon"):
            parse_config("model: {kind: fishery-beverton-holt}\ninitial_state: 0\n")

    def test_round_trip_is_equivalent(self):
        text = FISHERY_SMALL.format(out="somewhere")
        cfg = parse_config(text)
        assert parse_config(serialize(cfg)) == cfg

    def test_tabular_round_trip_and_build(self, tmp_path):
        cfg = parse_config(TABULAR_SMALL.format(out=tmp_path))
        assert parse_config(serialize(cfg)) == cfg
        problem = build_problem(cfg)
        assert isinstance(problem.params, TabularParams)
        assert len(problem.controls) == 2

    def test_default_anchors_of_negative_tables_are_positive(self):
        # one above every constraint value would be 0.0 here
        cfg = parse_config("model: {kind: tabular, transitions: [[[0]]],\n"
                           "  stage_values: [[[-1, -2]]], terminal_values: [[-3, -1]]}\n"
                           "horizon: 0\ninitial_state: 0\n")
        assert cfg["ray_mesh"]["anchors"] == [1.0, 1.0]
        assert build_problem(cfg).ray_mesh.points.min() == 0.0

    def test_mixed_model_keys_rejected(self):
        with pytest.raises(ConfigError, match="model.r_a"):
            parse_config("model: {kind: tabular, r_a: 1.0,\n"
                         "  transitions: [[[0]]], stage_values: [[[0.0]]],\n"
                         "  terminal_values: [[0.0]]}\nhorizon: 0\ninitial_state: 0\n")

    def test_initial_state_must_be_inside_grid(self):
        with pytest.raises(ConfigError, match="initial_state: outside"):
            parse_config("model: {kind: fishery-beverton-holt}\nhorizon: 1\n"
                         "initial_state: 500.0\n")

    def test_duplicate_scenario_rejected(self):
        with pytest.raises(ConfigError,
                           match="^model.scenarios: duplicate scenario 'a'$"):
            parse_config("model: {kind: fishery-beverton-holt, scenarios: [a, a]}\n"
                         "horizon: 1\ninitial_state: 60.0\n")


def _number(lo, hi):
    """An int or a float in [lo, hi]; the resolved document holds floats."""
    return st.one_of(st.integers(int(np.ceil(lo)), int(np.floor(hi))),
                     st.floats(lo, hi, allow_nan=False))


def _some(draw, strategies: dict) -> dict:
    """A random subset of the keys of ``strategies``, each with a drawn value."""
    return {key: draw(strategy) for key, strategy in strategies.items()
            if draw(st.booleans())}


def _stages(draw, horizon: int) -> tuple:
    return (horizon + 1,) if draw(st.booleans()) else ()


def _table(draw, elements, shape: tuple) -> list:
    size = int(np.prod(shape))
    flat = draw(st.lists(elements, min_size=size, max_size=size))
    return np.asarray(flat, dtype=object).reshape(shape).tolist()


@st.composite
def documents(draw):
    """Valid raw documents of both model kinds, each key present or not."""
    if draw(st.booleans()):
        model = {"kind": "fishery-beverton-holt", **_some(draw, {
            "r_a": _number(0.01, 5), "r_b": _number(0.01, 5),
            "K_a": _number(1, 200), "K_b": _number(1, 200),
            "u_max": _number(1, 50), "m_big": _number(-1e6, 1e6),
            "scenarios": st.sampled_from([["a"], ["b"], ["a", "b"], ["b", "a"]])})}
        m = 2
        control = st.lists(_number(0, 1), min_size=1, max_size=4)
        horizon = draw(st.integers(0, 4))
    else:
        n, u, w, m = (draw(st.integers(1, 3)) for _ in range(4))
        horizon = draw(st.integers(0, 3))
        # each table time-invariant (3 axes) or per stage (4 axes)
        model = {"kind": "tabular",
                 "transitions": _table(draw, st.integers(0, n - 1),
                                       _stages(draw, horizon) + (n, u, w)),
                 "stage_values": _table(draw, _number(-3, 3),
                                        _stages(draw, horizon) + (n, u, m)),
                 "terminal_values": _table(draw, _number(-3, 3), (n, m))}
        control = st.lists(st.integers(0, u - 1).flatmap(
            lambda i: st.sampled_from([i, float(i)])), min_size=1, max_size=3)
    doc = {"model": model, "horizon": horizon,
           "initial_state": draw(st.one_of(_number(0, 1), st.lists(
               _number(0, 1), min_size=1, max_size=1)))}
    # every default box holds [0, 1]
    grid = _some(draw, {"lower": _number(-5, 0).map(lambda v: [v]),
                        "upper": _number(1, 50).map(lambda v: [v]),
                        "nodes": st.integers(2, 30)})
    if grid:
        doc["state_grid"] = grid
    which = draw(st.sampled_from(["none", "count", "values"]))
    if which == "count":
        doc["control_mesh"] = {"count": draw(st.integers(1, 30))}
    elif which == "values":
        doc["control_mesh"] = {"values": draw(control)}
    for key, strategies in (
            ("ray_mesh", {"spacing": _number(0.01, 5), "count": st.integers(0, 20),
                          "anchors": st.lists(_number(0.5, 200), min_size=m,
                                              max_size=m)}),
            ("tolerances", {"membership": _number(0, 1),
                            "front": st.one_of(st.none(), _number(0, 1))}),
            ("options", {"interpolation": st.sampled_from(INTERP_MODES),
                         "oracle": st.booleans(),
                         "jobs": st.integers(1, 4),
                         "oracle_budget": st.integers(1, 10**8)})):
        section = _some(draw, strategies)
        if section or draw(st.booleans()):
            doc[key] = section
    if draw(st.booleans()):
        doc["output_dir"] = draw(st.text("abc/_-. ", min_size=1, max_size=8))
    return doc


# (flag arguments, the key the flag sets, the value it sets); argparse reads
# "--out=--" as an empty list, not as "--"
FLAGS = st.one_of(
    st.text("abc/_-.", max_size=6).filter(lambda v: v != "--").map(
        lambda v: ([f"--out={v}"], "output_dir", v)),
    st.integers(-3, 4).map(lambda v: ([f"--jobs={v}"], "options.jobs", v)),
    st.sampled_from(INTERP_MODES).map(
        lambda v: (["--interp", v], "options.interpolation", v)),
    st.just((["--oracle"], "options.oracle", True)))


def _resolve(text, overrides=None):
    """The resolved document, or the message of the ConfigError raised."""
    try:
        return parse_config(text, overrides)
    except ConfigError as exc:
        return f"ConfigError: {exc}"


class TestOneDocument:
    @settings(max_examples=150, deadline=None)
    @given(doc=documents())
    def test_the_dump_parses_back_to_the_document(self, doc):
        cfg = parse_config(yaml.safe_dump(doc))
        assert parse_config(serialize(cfg)) == cfg
        assert serialize(parse_config(serialize(cfg))) == serialize(cfg)
        problem = build_problem(cfg)
        assert problem.sys.threshold_dim == len(cfg["ray_mesh"]["anchors"])

    @settings(max_examples=150, deadline=None)
    @given(doc=documents(), flag=FLAGS)
    def test_a_flag_resolves_as_the_key_it_sets(self, doc, flag):
        argv, path, value = flag
        args = cli.build_parser().parse_args(
            ["membership", "--config", "run.yaml", "--threshold", "0", *argv])
        by_flag = _resolve(yaml.safe_dump(doc), cli._flag_overrides(args))
        *parents, key = path.split(".")
        section = doc
        for name in parents:
            section = section.setdefault(name, {})
        section[key] = value
        assert by_flag == _resolve(yaml.safe_dump(doc))
        invalid = value == "" or (key == "jobs" and value < 1)
        assert isinstance(by_flag, str) == invalid


class TestCommands:
    def test_weak_front_writes_artifacts_deterministically(self, tmp_path):
        cfgp = write_config(tmp_path, FISHERY_SMALL)
        assert cli.main(["weak-front", "--config", str(cfgp)]) == 0
        out = tmp_path / "out"
        front = (out / "front.csv").read_text()
        assert front.startswith("# robust-thresholds weak-front")
        assert "c_1,c_2,W,p_1,p_2" in front
        assert (out / "set_membership.csv").exists()
        assert (out / "analytic_fishery.csv").exists()
        assert (out / "plot_front.py").exists()
        assert cli.main(["weak-front", "--config", str(cfgp)]) == 0
        assert (out / "front.csv").read_text() == front  # byte-identical rerun

    def test_weak_front_two_point_mesh(self, tmp_path):
        text = FISHERY_SMALL.replace("count: 20", "count: 0")
        cfgp = write_config(tmp_path, text)
        assert cli.main(["weak-front", "--config", str(cfgp)]) == 0
        rows = [l for l in (tmp_path / "out" / "front.csv").read_text().splitlines()
                if l and not l.startswith("#")]
        assert len(rows) == 1 + 2  # header plus the two origin-axis points

    def test_strong_front_all_permutations(self, tmp_path):
        cfgp = write_config(tmp_path, TABULAR_SMALL)
        assert cli.main(["strong-front", "--config", str(cfgp),
                         "--start", "0,0"]) == 0
        out = tmp_path / "out"
        for label in ("1-2", "2-1"):
            body = (out / f"strong_chain_{label}.csv").read_text()
            rows = [l.split(",") for l in body.splitlines()
                    if l and not l.startswith("#")][1:]
            chain = np.asarray([[float(r[2]), float(r[3])] for r in rows])
            assert np.all(np.diff(chain, axis=0) >= -1e-9)

    def test_strong_front_single_permutation(self, tmp_path):
        cfgp = write_config(tmp_path, TABULAR_SMALL)
        assert cli.main(["strong-front", "--config", str(cfgp),
                         "--start", "0,0", "--perm", "2,1"]) == 0
        assert (tmp_path / "out" / "strong_chain_2-1.csv").exists()

    def test_strong_front_refuses_infeasible_start(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, FISHERY_SMALL)
        assert cli.main(["strong-front", "--config", str(cfgp),
                         "--start", "100,50"]) == 2
        assert "not sustainable" in capsys.readouterr().err

    def test_membership_report(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, FISHERY_SMALL)
        assert cli.main(["membership", "--config", str(cfgp),
                         "--threshold", "10,2"]) == 0
        text = capsys.readouterr().out
        assert "W(xi, c)" in text and "membership" in text
        assert (tmp_path / "out" / "membership_report.txt").exists()

    def test_membership_with_oracles_on_tabular(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, TABULAR_SMALL)
        assert cli.main(["membership", "--config", str(cfgp),
                         "--threshold", "0.5,0.5", "--oracle"]) == 0
        text = capsys.readouterr().out
        assert "closed-loop" in text and "open-loop" in text

    def test_value_prints_number(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, TABULAR_SMALL)
        assert cli.main(["value", "--config", str(cfgp),
                         "--threshold", "0.5,0.5"]) == 0
        float(capsys.readouterr().out.strip())  # parseable

    def test_oracle_check_gap_report(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, TABULAR_SMALL)
        assert cli.main(["oracle-check", "--config", str(cfgp),
                         "--threshold", "1.0,1.0"]) == 0
        text = capsys.readouterr().out
        assert "information gap" in text

    @pytest.mark.parametrize("command", ["membership", "oracle-check"])
    def test_oracle_disagreement_is_exit_code_1(self, tmp_path, capsys, monkeypatch,
                                                command):
        cfgp = write_config(tmp_path, TABULAR_SMALL)
        argv = [command, "--config", str(cfgp), "--threshold", "0.5,0.5"]
        if command == "membership":
            argv.append("--oracle")
        assert cli.main(argv) == 0
        read = cli.dp.robust_value
        monkeypatch.setattr(cli.dp, "robust_value",
                            lambda *a, **k: read(*a, **k) + 1e-9)
        assert cli.main(argv) == 1
        assert "differs from the closed-loop oracle" in capsys.readouterr().out
        # only nearest-node solves are held to the oracle
        assert cli.main(argv + ["--interp", "multilinear"]) == 0

    def test_analytic_fishery_command(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, FISHERY_SMALL)
        assert cli.main(["analytic-fishery", "--config", str(cfgp)]) == 0
        assert "msy stock" in capsys.readouterr().out
        lines = [l for l in (tmp_path / "out" / "analytic_fishery.csv")
                 .read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "x,sigma_a,sigma_b,robust_boundary"
        x, h = np.asarray([[float(l.split(",")[0]), float(l.split(",")[-1])]
                           for l in lines[1:]]).T
        # defined up to min(xi, K_a, K_b) = 50; the boundary of a lower set
        # never rises, flat at the crossing height up to the stock ~37.79
        # where the growth maps agree
        np.testing.assert_array_equal(np.isnan(h), x > 50.0)
        assert np.all(np.diff(h[x <= 50.0]) <= 0.0)
        assert h[0] == pytest.approx(7.3468, abs=1e-4)

    def test_flag_overrides_config(self, tmp_path):
        cfgp = write_config(tmp_path, FISHERY_SMALL)
        other = tmp_path / "elsewhere"
        assert cli.main(["weak-front", "--config", str(cfgp),
                         "--out", str(other), "--jobs", "2",
                         "--interp", "nearest"]) == 0
        header = (other / "front.csv").read_text().splitlines()
        assert any("interpolation: nearest" in l for l in header)
        assert any("jobs: 2" in l for l in header)

    def test_full_grid_option_is_exit_code_2(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, TABULAR_SMALL.replace(
            "interpolation: nearest", "interpolation: nearest\n  full_grid: true"))
        assert cli.main(["value", "--config", str(cfgp), "--threshold=0,0"]) == 2
        assert "unknown key: options.full_grid" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            cli.main(["value", "--config", str(write_config(tmp_path, TABULAR_SMALL)),
                      "--threshold=0,0", "--full-grid"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_exit_code_2(self, tmp_path, capsys, jobs):
        cfgp = write_config(tmp_path, TABULAR_SMALL)
        assert cli.main(["value", "--config", str(cfgp), "--threshold", "0.5,0.5",
                         f"--jobs={jobs}"]) == 2
        assert "options.jobs: must be >= 1" in capsys.readouterr().err

    def test_empty_out_flag_is_rejected(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, TABULAR_SMALL)
        assert cli.main(["value", "--config", str(cfgp), "--threshold", "0.5,0.5",
                         "--out", ""]) == 2
        assert "error: output_dir: expected a nonempty string" in capsys.readouterr().err

    def test_initial_state_needs_one_coordinate_per_grid_dimension(self, tmp_path,
                                                                   capsys):
        text = TABULAR_SMALL.replace("initial_state: 0", "initial_state: [0, 1]")
        cfgp = write_config(tmp_path, text)
        assert cli.main(["value", "--config", str(cfgp), "--threshold=0,0"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: initial_state: expected 1 coordinate(s)")

    @pytest.mark.parametrize("values, index", [
        ("[0.9]", 0), ("[1.7]", 0), ("[0, 2]", 1), ("[1, -1.0]", 1)])
    def test_tabular_control_values_are_control_indices(self, tmp_path, capsys,
                                                        values, index):
        text = TABULAR_SMALL.replace("ray_mesh:", f"control_mesh:\n  values: {values}\n"
                                                  "ray_mesh:")
        cfgp = write_config(tmp_path, text)
        assert cli.main(["value", "--config", str(cfgp), "--threshold=0,0"]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: control_mesh.values[{index}]: expected a control index from 0 to 1")

    def test_tabular_control_value_solves_its_index(self, tmp_path, capsys):
        results = []
        for values in ("[1.0]", "[1]", "[0]"):
            text = TABULAR_SMALL.replace(
                "ray_mesh:", f"control_mesh:\n  values: {values}\nray_mesh:")
            cfgp = write_config(tmp_path, text)
            assert cli.main(["value", "--config", str(cfgp), "--threshold=0,0"]) == 0
            results.append(capsys.readouterr().out)
        assert results[0] == results[1] != results[2]

    def test_weak_front_with_every_mesh_point_sustainable(self, tmp_path, capsys):
        # anchors this small put the whole ray mesh inside the set
        text = TABULAR_SMALL.replace("count: 10", "count: 2\n  anchors: [0.05, 0.05]")
        cfgp = write_config(tmp_path, text)
        assert cli.main(["weak-front", "--config", str(cfgp)]) == 1
        text = capsys.readouterr().out
        assert text.count("enlarge the anchors") == 6
        assert "the front is empty" in text
        out = tmp_path / "out"
        assert (out / "front.csv").exists()
        assert not (out / "set_membership.csv").exists()

    def test_weak_front_with_skipped_mesh_points_is_exit_code_1(self, tmp_path, capsys):
        # the six points with a coordinate at most 0.05 are sustainable, so
        # the front misses their rays
        text = TABULAR_SMALL.replace("count: 10", "count: 10\n  anchors: [0.05, 0.05]")
        cfgp = write_config(tmp_path, text)
        assert cli.main(["weak-front", "--config", str(cfgp)]) == 1
        text = capsys.readouterr().out
        assert text.count("enlarge the anchors") == 6
        assert "front: 16 points (6 mesh points skipped)" in text
        assert (tmp_path / "out" / "set_membership.csv").exists()

    def test_front_revalidation_residual_is_exit_code_1(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, FISHERY_SMALL + "tolerances:\n  front: 0.0\n")
        assert cli.main(["weak-front", "--config", str(cfgp)]) == 1
        assert "front revalidation residual" in capsys.readouterr().out

    def test_decreasing_sweep_coordinate_is_exit_code_1(self, tmp_path, capsys,
                                                        monkeypatch):
        # the same mesh with every sweep listed in decreasing swept coordinate
        weak_front = cli.pareto.weak_front

        def reversed_sweeps(xi, mesh, *args, **kwargs):
            flipped = ThresholdRayMesh(points=mesh.points, sweeps=tuple(
                (axis, members[::-1]) for axis, members in mesh.sweeps))
            return weak_front(xi, flipped, *args, **kwargs)

        cfgp = write_config(tmp_path, FISHERY_SMALL)
        monkeypatch.setattr(cli.pareto, "weak_front", reversed_sweeps)
        assert cli.main(["weak-front", "--config", str(cfgp)]) == 1
        assert "decreases along its sweep" in capsys.readouterr().out

    def test_weak_front_removes_the_outputs_it_does_not_write(self, tmp_path):
        out = tmp_path / "out"
        fishery = write_config(tmp_path, FISHERY_SMALL, name="fishery.yaml")
        assert cli.main(["weak-front", "--config", str(fishery), "--debug-export"]) == 0
        names = ("set_membership.csv", "analytic_fishery.csv", "reachable_sets.csv")
        assert all((out / name).exists() for name in names)
        # a tabular model, no --debug-export and an empty front: none of the three
        text = TABULAR_SMALL.replace("count: 10", "count: 0\n  anchors: [0.05, 0.05]")
        tabular = write_config(tmp_path, text, name="tabular.yaml")
        assert cli.main(["weak-front", "--config", str(tabular)]) == 1
        assert not any((out / name).exists() for name in names)
        assert (out / "front.csv").read_text().startswith("# robust-thresholds weak-front")

    def test_membership_removes_value_tables_without_debug_export(self, tmp_path):
        cfgp = write_config(tmp_path, TABULAR_SMALL)
        argv = ["membership", "--config", str(cfgp), "--threshold", "0.5,0.75"]
        assert cli.main(argv + ["--debug-export"]) == 0
        assert (tmp_path / "out" / "value_tables.csv").exists()
        assert cli.main(argv) == 0
        assert not (tmp_path / "out" / "value_tables.csv").exists()

    def test_strong_front_removes_the_chains_it_does_not_write(self, tmp_path):
        cfgp = write_config(tmp_path, TABULAR_SMALL)
        out = tmp_path / "out"
        argv = ["strong-front", "--config", str(cfgp)]
        assert cli.main(argv + ["--start", "0,0"]) == 0
        assert (out / "strong_chain_1-2.csv").exists()
        assert cli.main(argv + ["--start", "0.5,0.5", "--perm", "2,1"]) == 0
        assert [p.name for p in out.glob("strong_chain_*.csv")] == ["strong_chain_2-1.csv"]
        # the chain of the second run starts at its own start
        assert "\n0.0,,0.5,0.5,nan\n" in (out / "strong_chain_2-1.csv").read_text()

    def test_failed_strong_front_keeps_the_earlier_chains(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, TABULAR_SMALL)
        out = tmp_path / "out"
        argv = ["strong-front", "--config", str(cfgp)]
        assert cli.main(argv + ["--start", "0,0"]) == 0
        chains = {p.name: p.read_bytes() for p in out.glob("strong_chain_*.csv")}
        assert sorted(chains) == ["strong_chain_1-2.csv", "strong_chain_2-1.csv"]
        capsys.readouterr()
        for perm in ("1,1", "0,1", "1,2,3", "a,b"):
            assert cli.main(argv + ["--start", "0,0", "--perm", perm]) == 2
            assert capsys.readouterr().err == (
                f"error: --perm {perm!r} is neither 'all' nor a permutation of 1..2\n")
        # a start no chain can leave from fails in its first chain
        assert cli.main(argv + ["--start", "1000,1000", "--perm", "2,1"]) == 2
        assert "not sustainable" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.glob("strong_chain_*.csv")} == chains

    @pytest.mark.parametrize("model, names", [
        # three states and three controls of stage values for two of each
        ("stage_values: [[[1, 1], [1, 1], [1, 1]], [[1, 1], [1, 1], [1, 1]],"
         " [[1, 1], [1, 1], [1, 1]]]", "transitions .* and stage_values"),
        # three constraint components against two terminal ones
        ("stage_values: [[[1, 1, 1], [1, 1, 1]], [[1, 1, 1], [1, 1, 1]]]",
         "stage_values .* and terminal_values"),
    ])
    def test_mismatched_tabular_tables_are_exit_code_2(self, tmp_path, capsys, model,
                                                       names):
        text = TABULAR_SMALL.replace(
            "stage_values: [[[1.0, 2.0], [0.5, 3.0]], [[2.0, 1.0], [1.5, 0.0]]]", model)
        cfgp = write_config(tmp_path, text)
        assert cli.main(["value", "--config", str(cfgp), "--threshold=0,0"]) == 2
        assert capsys.readouterr().err.startswith("error: model: ")
        with pytest.raises(ConfigError, match=f"model: {names}"):
            parse_config(text.format(out=tmp_path))

    @pytest.mark.parametrize("old, new", [
        # no scenario element
        ("transitions: [[[0, 1], [1, 1]], [[1, 0], [0, 1]]]",
         "transitions: [[[], []], [[], []]]"),
        # no constraint component
        ("stage_values: [[[1.0, 2.0], [0.5, 3.0]], [[2.0, 1.0], [1.5, 0.0]]]\n"
         "  terminal_values: [[5.0, 5.0], [5.0, 5.0]]",
         "stage_values: [[[], []], [[], []]]\n  terminal_values: [[], []]"),
    ], ids=["no-scenario", "no-component"])
    def test_empty_tabular_axes_are_exit_code_2(self, tmp_path, capsys, old, new):
        assert old in TABULAR_SMALL
        text = TABULAR_SMALL.replace(old, new)
        cfgp = write_config(tmp_path, text)
        assert cli.main(["value", "--config", str(cfgp), "--threshold=0,0"]) == 2
        assert capsys.readouterr().err.startswith("error: model: transitions ")
        with pytest.raises(ConfigError, match="need at least one control, scenario "
                                              "and constraint component"):
            parse_config(text.format(out=tmp_path))

    def test_plot_script_draws_every_scenario_present(self, tmp_path, monkeypatch):
        # matplotlib is optional: a stub pyplot records what the script plots
        labels = []

        class Canvas:
            def plot(self, *args, label=None, **kwargs):
                labels.append(label)

            def __getattr__(self, name):
                return lambda *args, **kwargs: None

        pyplot = types.ModuleType("matplotlib.pyplot")
        pyplot.subplots = lambda *args, **kwargs: (Canvas(), Canvas())
        matplotlib = types.ModuleType("matplotlib")
        matplotlib.pyplot = pyplot
        monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
        monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
        for scenarios in (["b"], ["a", "b"]):
            text = FISHERY_SMALL.replace("kind: fishery-beverton-holt",
                                         f"kind: fishery-beverton-holt\n"
                                         f"  scenarios: {scenarios}")
            cfgp = write_config(tmp_path, text)
            assert cli.main(["weak-front", "--config", str(cfgp)]) == 0
            labels.clear()
            monkeypatch.chdir(tmp_path / "out")
            runpy.run_path("plot_front.py", run_name="__main__")
            assert labels == ["computed weak front",
                              *(f"surplus, scenario {w}" for w in scenarios),
                              "robust boundary H"]

    @pytest.mark.parametrize("key", ["transitions", "stage_values"])
    def test_per_stage_tables_need_one_stage_per_stage(self, tmp_path, capsys, key):
        # the table as the one stage of a per-stage table, against horizon 2
        cfgp = write_config(tmp_path, re.sub(f"({key}: )(.*)", r"\1[\2]", TABULAR_SMALL))
        assert cli.main(["value", "--config", str(cfgp), "--threshold=0,0"]) == 2
        assert capsys.readouterr().err == (
            f"error: model.{key}: a per-stage table needs horizon + 1 = 3 stages, "
            f"got 1\n")

    @pytest.mark.parametrize("entry", ["0.9", "-0.5", ".nan", ".inf"])
    def test_tabular_transitions_are_integers(self, tmp_path, capsys, entry):
        text = TABULAR_SMALL.replace("transitions: [[[0, 1]", f"transitions: [[[{entry}, 1]")
        cfgp = write_config(tmp_path, text)
        assert cli.main(["value", "--config", str(cfgp), "--threshold=0,0"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: model.transitions: expected integer node indices, got ")
        with pytest.raises(ConfigError, match="model.transitions"):
            parse_config(text.format(out=tmp_path))

    def test_debug_export_value_tables(self, tmp_path, capsys, monkeypatch):
        cfgp = write_config(tmp_path, TABULAR_SMALL)
        solves = []
        solve = cli.dp.backward_recursion
        monkeypatch.setattr(cli.dp, "backward_recursion",
                            lambda *a, **k: solves.append(1) or solve(*a, **k))
        assert cli.main(["membership", "--config", str(cfgp), "--threshold", "0.5,0.75",
                         "--debug-export"]) == 0
        # one sweep gives both the reported W and the exported tables
        assert len(solves) == 1
        report = capsys.readouterr().out
        w = float(report.split("W(xi, c) = ")[1].split()[0])
        body = (tmp_path / "out" / "value_tables.csv").read_text()
        lines = [l for l in body.splitlines() if not l.startswith("#")]
        assert lines[0] == "stage,x_1,value"
        rows = [tuple(map(float, l.split(","))) for l in lines[1:]]
        # stages 3 (terminal) .. 0; xi = 0 is the only stage-0 node
        assert sorted({r[0] for r in rows}) == [0.0, 1.0, 2.0, 3.0]
        assert [r for r in rows if r[0] == 0.0] == [(0.0, 0.0, w)]

    def test_debug_export_reachable_sets(self, tmp_path):
        cfgp = write_config(tmp_path, TABULAR_SMALL)
        assert cli.main(["weak-front", "--config", str(cfgp),
                         "--debug-export"]) == 0
        assert (tmp_path / "out" / "reachable_sets.csv").exists()

    def test_config_error_is_exit_code_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("model: {kind: nonsense}\nhorizon: 1\ninitial_state: 0\n")
        assert cli.main(["weak-front", "--config", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err
