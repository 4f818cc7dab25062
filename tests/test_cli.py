import json
import math

import numpy as np
import pytest

from sidewalksim import distill as distill_mod
from sidewalksim import suites
from sidewalksim.cli import build_parser, main
from sidewalksim.nets import StudentNet, save_model
from sidewalksim.walkmap import load_map

OSM_SAMPLE = """<?xml version="1.0"?>
<osm>
  <node id="1" lat="60.1700" lon="24.9400"/>
  <node id="2" lat="60.1700" lon="24.9415"/>
  <node id="3" lat="60.1708" lon="24.9415"/>
  <way id="10"><nd ref="1"/><nd ref="2"/><tag k="highway" v="footway"/></way>
  <way id="11"><nd ref="2"/><nd ref="3"/><tag k="highway" v="path"/></way>
  <way id="12"><nd ref="1"/><nd ref="3"/><tag k="highway" v="residential"/></way>
</osm>
"""


def run(argv):
    return main([str(a) for a in argv])


def test_gen_map_and_determinism(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["gen-map", "--kind", "corridor", "--length", 20, "--width", 3,
                "--out", a]) == 0
    assert run(["gen-map", "--kind", "corridor", "--length", 20, "--width", 3,
                "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()
    wmap = load_map(a)
    assert wmap.bounds == (0.0, 0.0, 20.0, 3.0)


def test_ingest(tmp_path):
    osm = tmp_path / "area.osm"
    osm.write_text(OSM_SAMPLE)
    out = tmp_path / "map.json"
    assert run(["ingest", "--osm", osm, "--origin", "60.1700,24.9400",
                "--seed", 3, "--out", out]) == 0
    wmap = load_map(out)
    assert len(wmap.polygons) >= 2
    assert wmap.origin == (60.17, 24.94)


def test_ingest_bad_xml_exits_config_error(tmp_path, capsys):
    osm = tmp_path / "broken.osm"
    osm.write_text(OSM_SAMPLE[:80])
    assert run(["ingest", "--osm", osm, "--origin", "60.17,24.94",
                "--out", tmp_path / "x.json"]) == 2


def test_rollout_and_replay(tmp_path):
    map_path = tmp_path / "map.json"
    run(["gen-map", "--kind", "corridor", "--length", 32, "--width", 3.5,
         "--out", map_path])
    log_dir = tmp_path / "logs"
    assert run(["rollout", "--policy", "oracle", "--map", map_path,
                "--episodes", 2, "--density", 4, "--seed", 5,
                "--log", log_dir]) == 0
    logs = sorted(log_dir.glob("episode_*.jsonl"))
    assert len(logs) == 2
    assert run(["replay", "--log", logs[0]]) == 0


def test_replay_tampered_log_exits_three(tmp_path):
    map_path = tmp_path / "map.json"
    run(["gen-map", "--kind", "corridor", "--length", 32, "--width", 3.5,
         "--out", map_path])
    log_dir = tmp_path / "logs"
    run(["rollout", "--policy", "oracle", "--map", map_path, "--episodes", 1,
         "--density", 4, "--seed", 5, "--log", log_dir])
    log = sorted(log_dir.glob("*.jsonl"))[0]
    lines = log.read_text().splitlines()
    row = json.loads(lines[2])
    row["action"][1] = 0.31 if abs(row["action"][1] - 0.31) > 1e-6 else 0.44
    lines[2] = json.dumps(row, separators=(",", ":"))
    log.write_text("\n".join(lines) + "\n")
    assert run(["replay", "--log", log]) == 3


@pytest.mark.parametrize("line, key", [(0, "config"), (1, "pose")])
def test_replay_log_missing_a_key_exits_three(tmp_path, capsys, line, key):
    map_path = tmp_path / "map.json"
    run(["gen-map", "--kind", "corridor", "--length", 32, "--width", 3.5,
         "--out", map_path])
    log_dir = tmp_path / "logs"
    run(["rollout", "--policy", "constant:0.2,0.0", "--map", map_path,
         "--episodes", 1, "--seed", 8, "--log", log_dir])
    log = sorted(log_dir.glob("*.jsonl"))[0]
    lines = log.read_text().splitlines()
    record = json.loads(lines[line])
    del record[key]
    lines[line] = json.dumps(record, separators=(",", ":"))
    log.write_text("\n".join(lines) + "\n")
    assert run(["replay", "--log", log]) == 3
    assert f"log line {line + 1} has no {key!r}" in capsys.readouterr().err


def test_replay_dump_outputs(tmp_path):
    map_path = tmp_path / "map.json"
    run(["gen-map", "--kind", "corridor", "--length", 32, "--width", 3.5,
         "--out", map_path])
    log_dir = tmp_path / "logs"
    run(["rollout", "--policy", "constant:0.2,0.0", "--map", map_path,
         "--episodes", 1, "--seed", 8, "--log", log_dir])
    log = sorted(log_dir.glob("*.jsonl"))[0]
    bev_dir = tmp_path / "bev"
    svg = tmp_path / "run.svg"
    assert run(["replay", "--log", log, "--dump-bev", bev_dir, "--svg", svg]) == 0
    n_rows = len(log.read_text().splitlines()) - 1
    assert len(list(bev_dir.glob("*.pgm"))) == n_rows
    assert svg.exists()


def test_eval_writes_report(tmp_path):
    map_path = tmp_path / "map.json"
    run(["gen-map", "--kind", "corridor", "--length", 32, "--width", 3.5,
         "--out", map_path])
    report_path = tmp_path / "report.json"
    assert run(["eval", "--policy", "constant:0.0,0.0", "--map", map_path,
                "--episodes", 3, "--density", 0, "--seed", 2,
                "--report", report_path]) == 0
    doc = json.loads(report_path.read_text())
    assert doc["n_episodes"] == 3
    assert doc["timeout_rate"] == 1.0
    total = (doc["success_rate"] + doc["collision_rate"]
             + doc["sidewalk_violation_rate"] + doc["timeout_rate"])
    assert total == pytest.approx(1.0)


def test_eval_reports_byte_identical(tmp_path):
    map_path = tmp_path / "map.json"
    run(["gen-map", "--kind", "corridor", "--length", 32, "--width", 3.5,
         "--out", map_path])
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    for rp in (r1, r2):
        run(["eval", "--policy", "oracle", "--map", map_path, "--episodes", 3,
             "--density", 4, "--seed", 6, "--report", rp])
    assert r1.read_bytes() == r2.read_bytes()


@pytest.mark.parametrize("edit", [
    lambda doc: {k: v for k, v in doc.items() if k != "weights"},
    lambda doc: {k: v for k, v in doc.items() if k != "norm"},
    lambda doc: [doc],
], ids=["no_weights", "no_norm", "list"])
def test_eval_malformed_model_exits_config_error(tmp_path, capsys, edit):
    map_path = tmp_path / "map.json"
    run(["gen-map", "--kind", "corridor", "--length", 32, "--width", 3.5,
         "--out", map_path])
    model = tmp_path / "model.json"
    save_model(StudentNet(seed=0), distill_mod.normalization(), model)
    model.write_text(json.dumps(edit(json.loads(model.read_text()))))
    assert run(["eval", "--policy", model, "--map", map_path, "--episodes", 1]) == 2
    assert "model file" in capsys.readouterr().err


def test_collect_writes_transitions(tmp_path):
    map_path = tmp_path / "map.json"
    run(["gen-map", "--kind", "corridor", "--length", 32, "--width", 3.5,
         "--out", map_path])
    out = tmp_path / "transitions.npy"
    assert run(["collect", "--policy", "constant:0.1,0.0", "--map", map_path,
                "--episodes", 2, "--density", 3, "--seed", 4, "--out", out]) == 0
    ds = distill_mod.AggregatedDataset()
    ds.extend(np.load(out))
    assert len(ds) > 0


def test_collect_with_a_negative_episode_count_exits_config_error(tmp_path, capsys):
    map_path = tmp_path / "map.json"
    run(["gen-map", "--kind", "corridor", "--length", 32, "--width", 3.5,
         "--out", map_path])
    out = tmp_path / "transitions.npy"
    assert run(["collect", "--policy", "constant:0.1,0.0", "--map", map_path,
                "--episodes", -1, "--out", out]) == 2
    assert "n_episodes must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("density", ["inf", "nan", "1e300"])
def test_eval_with_a_non_finite_density_exits_config_error_before_any_episode(
        tmp_path, capsys, density):
    map_path = tmp_path / "map.json"
    run(["gen-map", "--kind", "corridor", "--length", 30, "--width", 3.5,
         "--out", map_path])
    capsys.readouterr()
    assert run(["eval", "--policy", "oracle", "--map", map_path, "--episodes", 2,
                "--density", density]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "obstacle_density" in err
    assert out == ""


def test_eval_model_of_another_normalization_exits_config_error(tmp_path, capsys):
    map_path = tmp_path / "map.json"
    run(["gen-map", "--kind", "corridor", "--length", 32, "--width", 3.5,
         "--out", map_path])
    model = tmp_path / "model.json"
    # as a model trained under a 9 m lidar cap would be saved
    save_model(StudentNet(seed=0), {**distill_mod.normalization(), "lidar_max_range": 9.0},
               model)
    report = tmp_path / "eval.json"
    assert run(["eval", "--policy", model, "--map", map_path, "--episodes", 1,
                "--report", report]) == 2
    assert "normalization" in capsys.readouterr().err
    assert not report.exists()


def test_missing_map_argument_is_config_error(tmp_path):
    assert run(["rollout", "--policy", "oracle", "--episodes", 1]) == 2


def test_eval_on_a_map_file_that_is_not_an_object_exits_config_error(tmp_path, capsys):
    map_path = tmp_path / "map.json"
    run(["gen-map", "--kind", "corridor", "--length", 32, "--width", 3.5, "--out", map_path])
    map_path.write_text(json.dumps([json.loads(map_path.read_text())]))
    assert run(["eval", "--policy", "oracle", "--map", map_path, "--episodes", 1]) == 2
    assert "not an object" in capsys.readouterr().err


def _edit_json_line(path, line, edit):
    lines = path.read_text().splitlines()
    record = json.loads(lines[line])
    edit(record)
    lines[line] = json.dumps(record, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")


# kind of input file -> the case's edit: a JSON record edit, or an OSM (old, new) replacement
MALFORMED_INPUTS = {
    "map_origin_int": ("map", lambda d: d.update(origin=5)),
    "map_origin_short": ("map", lambda d: d.update(origin=[1])),
    "map_polygons_ints": ("map", lambda d: d.update(polygons=[5, 5, 5])),
    "model_arch_int": ("model", lambda d: d.update(arch=5)),
    "model_weights_object": ("model", lambda d: d.update(weights={"a": 1})),
    "model_weight_nan": ("model", lambda d: d.update(weights=[float("nan")] + d["weights"][1:])),
    "model_weight_overflow": ("model", lambda d: d.update(weights=[1e300] + d["weights"][1:])),
    "model_weight_huge_int": ("model", lambda d: d.update(weights=[10**400] + d["weights"][1:])),
    "model_weights_bools": ("model", lambda d: d.update(weights=[True] * len(d["weights"]))),
    "osm_node_without_id": ("osm", ('<node id="1" ', "<node ")),
    "osm_nd_without_ref": ("osm", ('<nd ref="1"/>', "<nd/>")),
    "osm_tag_without_v": ("osm", ('<tag k="highway" v="footway"/>', '<tag k="highway"/>')),
    "log_waypoints_int": ("log_header", lambda d: d["config"].update(waypoints=5)),
    "log_max_steps_null": ("log_header", lambda d: d["config"].update(max_steps=None)),
    "log_start_short": ("log_header",
                        lambda d: d["config"].update(start=[1], waypoints=[[5.0, 1.75]])),
    "log_waypoint_short": ("log_header",
                           lambda d: d["config"].update(start=[1.0, 1.75, 0.0], waypoints=[[5]])),
    "log_map_origin_int": ("log_header", lambda d: d["config"]["map"].update(origin=5)),
    # JSON reads a literal such as 1e999 as inf, and json writes inf as Infinity
    "log_max_steps_inf": ("log_header", lambda d: d["config"].update(max_steps=float("inf"))),
    "log_seed_inf": ("log_header", lambda d: d["config"].update(seed=float("inf"))),
    "log_density_inf": ("log_header",
                        lambda d: d["config"].update(obstacle_density=float("inf"))),
    "log_density_nan": ("log_header",
                        lambda d: d["config"].update(obstacle_density=float("nan"))),
    "log_density_huge": ("log_header", lambda d: d["config"].update(obstacle_density=1e300)),
    "log_pedestrian_fraction_nan": ("log_header",
                                    lambda d: d["config"].update(pedestrian_fraction=float("nan"))),
    "log_action_short": ("log_row", lambda d: d.update(action=[1])),
    "log_action_int": ("log_row", lambda d: d.update(action=5)),
}


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_malformed_input_file_exits_with_an_error_not_a_traceback(tmp_path, capsys, case):
    kind, edit = MALFORMED_INPUTS[case]
    map_path = tmp_path / "map.json"
    run(["gen-map", "--kind", "corridor", "--length", 32, "--width", 3.5, "--out", map_path])
    if kind == "osm":
        osm = tmp_path / "area.osm"
        osm.write_text(OSM_SAMPLE.replace(*edit, 1))
        argv = ["ingest", "--osm", osm, "--origin", "60.17,24.94", "--out", tmp_path / "x.json"]
        expected = 2
    elif kind in ("map", "model"):
        model = tmp_path / "model.json"
        save_model(StudentNet(seed=0), distill_mod.normalization(), model)
        _edit_json_line(map_path if kind == "map" else model, 0, edit)
        argv = ["eval", "--policy", model, "--map", map_path, "--episodes", 1]
        expected = 2
    else:
        log_dir = tmp_path / "logs"
        run(["rollout", "--policy", "constant:0.2,0.0", "--map", map_path,
             "--episodes", 1, "--seed", 8, "--log", log_dir])
        log = log_dir / "episode_00000.jsonl"
        _edit_json_line(log, 0 if kind == "log_header" else 1, edit)
        argv = ["replay", "--log", log]
        expected = 3
    assert run(argv) == expected
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["distill", "--out", "model.json", "--workers", "2"],
    ["gen-map", "--kind", "corridor", "--length", "20", "--out", "map.json", "--log-dir", "D"],
    ["replay", "--log", "episode.jsonl", "--seed", "1"],
    ["collect", "--policy", "oracle", "--out", "t.npy", "--capacity", "10"],
], ids=["distill_workers", "gen_map_log_dir", "replay_seed", "collect_capacity"])
def test_a_flag_the_command_does_not_read_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2


def test_rollout_is_eval_under_another_name():
    flags = ["--policy", "oracle", "--map", "map.json", "--episodes", "3", "--density", "4",
             "--seed", "5", "--workers", "2", "--report", "eval.json"]
    rollout = vars(build_parser().parse_args(["rollout", *flags, "--log", "logs"]))
    evaluation = vars(build_parser().parse_args(["eval", *flags, "--log-dir", "logs"]))
    assert (rollout.pop("command"), evaluation.pop("command")) == ("rollout", "eval")
    assert rollout == evaluation


def test_a_bare_rollout_runs_with_evals_defaults():
    args = build_parser().parse_args(["rollout", "--policy", "oracle"])
    assert (args.density, args.episodes) == (5.0, 100)


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2


def test_bench_cli_smoke(tmp_path):
    map_path = tmp_path / "map.json"
    run(["gen-map", "--kind", "corridor", "--length", 30, "--width", 3.5,
         "--out", map_path])
    report_path = tmp_path / "bench.json"
    assert run(["bench", "--map", map_path, "--modes", "none", "lidar_only",
                "--steps", 1000, "--report", report_path]) == 0
    doc = json.loads(report_path.read_text())
    assert set(doc["steps_per_second"]) == {"none", "lidar_only"}


def test_bench_cli_default_density_is_the_bench_config_density():
    args = build_parser().parse_args(["bench"])
    assert args.density == suites.bench_config().obstacle_density


def test_distill_cli_micro(tmp_path):
    map_dir = tmp_path / "maps"
    map_dir.mkdir()
    run(["gen-map", "--kind", "corridor", "--length", 30, "--width", 3.5,
         "--out", map_dir / "m1.json"])
    run(["gen-map", "--kind", "corridor", "--length", 34, "--width", 4.0,
         "--out", map_dir / "m2.json"])
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({
        "prefill_count": 150, "rounds": 1, "bc_epochs": 1, "epochs_per_round": 1,
        "batch_size": 64, "collect_episodes_per_round": 1,
        "round_eval_episodes": 2, "final_eval_episodes": 2, "seed": 3,
    }))
    model = tmp_path / "model.json"
    report = tmp_path / "dagger.json"
    assert run(["distill", "--map-dir", map_dir, "--config", cfg,
                "--density", 3, "--out", model, "--report", report]) == 0
    doc = json.loads(model.read_text())
    assert doc["version"] == 1
    assert doc["arch"] == [275, 256, 128, 2]
    assert "norm" in doc
    rep = json.loads(report.read_text())
    assert len(rep["rounds"]) == 2  # behavior cloning round plus one DAGGER round
    # the trained model drives the eval and rollout surfaces
    assert run(["eval", "--policy", model, "--map-dir", map_dir,
                "--episodes", 2, "--density", 3]) == 0


@pytest.mark.parametrize("empty_flag", ["--map-dir", "--val-map-dir"])
def test_distill_empty_map_dir_exits_config_error_before_any_episode(
        tmp_path, capsys, monkeypatch, empty_flag):
    def no_run(*args, **kwargs):
        raise AssertionError("distillation started despite an empty map directory")

    monkeypatch.setattr(distill_mod, "dagger_run", no_run)
    map_dir = tmp_path / "maps"
    map_dir.mkdir()
    run(["gen-map", "--kind", "corridor", "--length", 30, "--width", 3.5,
         "--out", map_dir / "m1.json"])
    empty = tmp_path / "empty"
    empty.mkdir()
    dirs = {"--map-dir": map_dir, "--val-map-dir": map_dir, empty_flag: empty}
    model = tmp_path / "model.json"
    argv = ["distill", "--out", model]
    for flag, path in dirs.items():
        argv += [flag, path]
    assert run(argv) == 2
    assert f"no map files in {empty}" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("config", [{"learning_rat": 0.01}, [1], {"learning_rate": "1e-3"},
                                    {"learning_rate": math.nan}, {"learning_rate": math.inf}],
                         ids=["unknown_key", "list", "learning_rate_str", "learning_rate_nan",
                              "learning_rate_inf"])
def test_distill_bad_config_exits_config_error_before_any_episode(
        tmp_path, capsys, monkeypatch, config):
    def no_run(*args, **kwargs):
        raise AssertionError("distillation started despite a bad --config")

    monkeypatch.setattr(distill_mod, "dagger_run", no_run)
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps(config))
    model = tmp_path / "model.json"
    assert run(["distill", "--config", cfg, "--out", model]) == 2
    assert str(cfg) in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("config", [{"round_eval_episodes": 0}, {"final_eval_episodes": 0},
                                    {"collect_episodes_per_round": -3}],
                         ids=["round_eval_0", "final_eval_0", "collect_negative"])
def test_distill_config_that_would_fail_late_exits_config_error_before_any_episode(
        tmp_path, capsys, monkeypatch, config):
    def no_run(*args, **kwargs):
        raise AssertionError("distillation started despite a bad --config")

    monkeypatch.setattr(distill_mod, "dagger_run", no_run)
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps(config))
    model = tmp_path / "model.json"
    assert run(["distill", "--config", cfg, "--out", model]) == 2
    assert f"{next(iter(config))} must be" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("config", [{"batch_size": "64"}, {"rounds": 1.5}, {"bc_epochs": True}],
                         ids=["str_int", "float_int", "bool_int"])
def test_distill_config_of_the_wrong_type_exits_config_error_before_any_episode(
        tmp_path, capsys, monkeypatch, config):
    def no_run(*args, **kwargs):
        raise AssertionError("distillation started despite a bad --config")

    monkeypatch.setattr(distill_mod, "dagger_run", no_run)
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps(config))
    assert run(["distill", "--config", cfg, "--out", tmp_path / "model.json"]) == 2
    assert f"{next(iter(config))} must be" in capsys.readouterr().err
