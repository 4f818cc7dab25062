import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sidewalksim import _ckernel, sensors, suites
from sidewalksim.distill import (
    AggregatedDataset,
    DaggerReport,
    RoundRecord,
    StudentPolicy,
    TrainConfig,
    _TRANSITION_DTYPE,
    _run_labeled_episode,
    collect_round,
    dagger_run,
    denormalize_action,
    flatten_realistic,
    normalization,
    normalize_action,
    prefill,
    save_transitions,
    train_epochs,
)
from sidewalksim.episode import Episode, run_episode
from sidewalksim.errors import PrefillStallError
from sidewalksim.nets import Adam, StudentNet
from sidewalksim.planner import ConstantPolicy, OracleTeacher
from sidewalksim.sensors import GoalPolar, RealisticObs
from sidewalksim.walkmap import generate_synthetic_map
from sidewalksim.world import SPEED_MAX, SPEED_MIN, YAW_LIMIT, Action

from tests.conftest import make_config, needs_c_compiler


def small_suite():
    maps = [generate_synthetic_map("corridor", 30.0, 3.5, seed=1),
            generate_synthetic_map("corridor", 34.0, 4.0, seed=2)]
    return [make_config(m, obstacle_density=3.0, obs_mode="both") for m in maps]


def fake_row(i, episode_id=0):
    return np.array([(np.full(275, 0.1, dtype=np.float32), [0.0, 0.1 * (i % 5)],
                      episode_id, i)], dtype=_TRANSITION_DTYPE)


# -- normalization ----------------------------------------------------------------


@given(st.floats(SPEED_MIN, SPEED_MAX), st.floats(-YAW_LIMIT, YAW_LIMIT))
def test_action_normalization_invertible(v, w):
    a = Action(v, w)
    vec = normalize_action(a)
    assert np.all(np.abs(vec) <= 1.0 + 1e-12)
    back = denormalize_action(vec)
    assert back.speed == pytest.approx(a.speed, abs=1e-9)
    assert back.yaw_delta == pytest.approx(a.yaw_delta, abs=1e-9)


def test_flatten_realistic_structure():
    obs = RealisticObs(lidar=np.linspace(0.0, 6.0, 272),
                       goal=GoalPolar(20.0, -1.0))
    f = flatten_realistic(obs)
    assert f.shape == (275,) and f.dtype == np.float32
    assert np.all(f[:272] == (np.linspace(0.0, 6.0, 272) / 6.0).astype(np.float32))
    assert f[272] == 1.0  # distance clipped at the cap
    assert f[273] == pytest.approx(math.sin(-1.0))
    assert f[274] == pytest.approx(math.cos(-1.0))
    assert np.all(np.abs(f) <= 1.0)


def test_a_patched_lidar_cap_scales_the_features_and_the_saved_normalization(monkeypatch):
    monkeypatch.setattr(sensors, "REALISTIC_LIDAR_MAX_RANGE", 9.0)
    obs = Episode(suites.validation_suite(obs_mode="realistic")[0]).reset()
    assert obs.realistic.lidar.max() > 6.0  # the rays reach past the default cap
    assert np.abs(flatten_realistic(obs.realistic)).max() <= 1.0
    assert normalization()["lidar_max_range"] == 9.0


# -- dataset ----------------------------------------------------------------------


def test_dataset_fifo_eviction():
    ds = AggregatedDataset(capacity=10)
    for i in range(15):
        ds.extend(fake_row(i))
    assert len(ds) == 10
    indices = list(ds.rows["step_index"])
    assert indices == list(range(5, 15))  # oldest five evicted first


def test_dataset_matrices_order():
    ds = AggregatedDataset(capacity=100)
    for i in range(7):
        ds.extend(fake_row(i))
    x, y = ds.rows["features"], ds.rows["action"]
    assert x.shape == (7, 275) and y.shape == (7, 2)
    assert np.all(y[:, 1] == [0.1 * (i % 5) for i in range(7)])


def test_dataset_extend_keeps_the_newest_rows_in_order():
    ds = AggregatedDataset(capacity=10)

    def rows(lo, hi):
        out = np.zeros(hi - lo, dtype=ds.rows.dtype)
        out["step_index"] = np.arange(lo, hi)
        return out

    ds.extend(rows(0, 6))
    ds.extend(rows(6, 13))     # crosses the capacity: rows 0-2 leave
    assert list(ds.rows["step_index"]) == list(range(3, 13))
    ds.extend(rows(13, 30))    # a batch larger than the capacity on its own
    assert list(ds.rows["step_index"]) == list(range(20, 30))
    assert ds.rows.base is None  # the kept rows are a copy; the evicted ones are freed
    ds.extend(rows(30, 30))
    assert len(ds) == 10
    assert ds.round_counts == [6, 7, 17, 0]   # each extend is one round


def test_save_load_transitions_round_trip(tmp_path):
    ds = AggregatedDataset(capacity=50)
    for i in range(9):
        ds.extend(fake_row(i, episode_id=i // 3))
    path = tmp_path / "transitions.npy"
    save_transitions(path, ds)
    back = AggregatedDataset()
    back.extend(np.load(path))
    assert len(back) == 9
    for a, b in zip(ds.rows, back.rows):
        assert np.array_equal(a["features"], b["features"])
        assert np.array_equal(a["action"], b["action"])
        assert (a["episode_id"], a["step_index"]) == (b["episode_id"], b["step_index"])


# the file `save_transitions` writes after a 300-row teacher prefill, pinned so
# that the on-disk format and the labelled rows cannot change unnoticed
PREFILL_300_SHA256 = "3a41a4d1d697eed5407f1f444279151b245390277875b716c7b8a99900012efb"


@pytest.mark.parametrize("kernels", ["loaded", "off"])
def test_saved_prefill_bytes_are_pinned(tmp_path, monkeypatch, kernels):
    if kernels == "off":
        monkeypatch.setattr(_ckernel, "_loaded", None)
    ds = prefill(AggregatedDataset(), OracleTeacher(),
                 suites.training_suite(obs_mode="both", render_bev=False)[:2], 300, seed=5)
    save_transitions(tmp_path / "transitions.npy", ds)
    digest = hashlib.sha256((tmp_path / "transitions.npy").read_bytes()).hexdigest()
    assert digest == PREFILL_300_SHA256


# -- prefill ----------------------------------------------------------------------


def test_prefill_zero_count():
    ds = AggregatedDataset()
    prefill(ds, OracleTeacher(), small_suite(), 0)
    assert len(ds) == 0
    assert ds.round_counts == [0]


def test_prefill_exact_count_success_only():
    configs = small_suite()
    ds = AggregatedDataset()
    prefill(ds, OracleTeacher(), configs, 400, seed=5)
    assert len(ds) == 400
    assert ds.round_counts == [400]
    for t in ds.rows:
        assert np.isfinite(t["features"]).all()
        assert np.all(np.abs(t["features"]) <= 1.0 + 1e-9)
        assert np.all(np.abs(t["action"]) <= 1.0 + 1e-9)

    # independent re-simulation: every contributing episode must be a success
    stored_ids = sorted({int(eid) for eid in ds.rows["episode_id"]})
    counts = {eid: int(np.sum(ds.rows["episode_id"] == eid)) for eid in stored_ids}

    total = 0
    for eid in stored_ids:
        child = np.random.SeedSequence(entropy=5, spawn_key=(eid,))
        cfg = replace(configs[eid % len(configs)],
                      seed=int(child.generate_state(1)[0]),
                      obs_mode="both", render_bev=False)
        result = run_episode(Episode(cfg), OracleTeacher())
        assert result.outcome == "success"
        assert counts[eid] <= result.steps
        total += counts[eid]
    assert total == 400


def test_prefill_stalls_on_hopeless_teacher():
    configs = [make_config(generate_synthetic_map("corridor", 30.0, 3.5, seed=1),
                           obs_mode="both", max_steps=25)]
    ds = AggregatedDataset()
    with pytest.raises(PrefillStallError):
        prefill(ds, ConstantPolicy(0.0, 0.0), configs, 100, seed=0)


# -- collection -------------------------------------------------------------------


def test_collect_round_rejects_a_negative_episode_count():
    ds = AggregatedDataset()
    with pytest.raises(ValueError, match="n_episodes"):
        collect_round(ds, ConstantPolicy(0.05, 0.0), OracleTeacher(), small_suite(), -1)
    assert len(ds) == 0


def test_train_config_allows_rounds_without_collection():
    assert TrainConfig(collect_episodes_per_round=0).collect_episodes_per_round == 0


def test_collect_round_grows_by_episode_lengths():
    configs = small_suite()
    ds = AggregatedDataset()
    collect_round(ds, ConstantPolicy(0.05, 0.0), OracleTeacher(), configs, 4, seed=3)
    assert ds.round_counts == [len(ds)]
    assert len(ds) > 0
    by_episode = {}
    for eid, step in zip(ds.rows["episode_id"], ds.rows["step_index"]):
        by_episode.setdefault(int(eid), []).append(int(step))
    for eid, steps in by_episode.items():
        assert steps == list(range(len(steps)))  # in order, no gaps


def test_teacher_labels_deterministic():
    cfg = small_suite()[0]
    episode = Episode(replace(cfg, seed=123))
    obs = episode.reset()
    ctx = episode.context()
    t1 = OracleTeacher()
    t1.reset(ctx)
    a1 = t1.act(obs)
    t2 = OracleTeacher()
    t2.reset(ctx)
    a2 = t2.act(obs)
    assert (a1.speed, a1.yaw_delta) == (a2.speed, a2.yaw_delta)


# -- training ---------------------------------------------------------------------


def synthetic_dataset(n=600, seed=0):
    rng = np.random.default_rng(seed)
    ds = AggregatedDataset()
    w = rng.normal(size=(275, 2)) / 20.0
    for i in range(n):
        f = rng.uniform(-1, 1, 275).astype(np.float32)
        label = np.tanh(f @ w)
        ds.extend(np.array([(f, label, 0, i)], dtype=_TRANSITION_DTYPE))
    return ds


def test_train_loss_non_increasing_within_tolerance():
    ds = synthetic_dataset()
    net = StudentNet(seed=1)
    cfg = TrainConfig(batch_size=64)
    adam = Adam(net)
    history = train_epochs(net, ds, cfg, adam, np.random.default_rng(0), epochs=8)
    assert len(history) == 8
    for prev, cur in zip(history, history[1:]):
        assert cur <= prev * 1.05
    assert history[-1] < history[0]


def test_train_requires_data():
    net = StudentNet(seed=0)
    cfg = TrainConfig()
    with pytest.raises(ValueError):
        train_epochs(net, AggregatedDataset(), cfg, Adam(net),
                     np.random.default_rng(0))


def test_student_policy_outputs_valid_actions():
    net = StudentNet(seed=2)
    policy = StudentPolicy(net)
    obs_r = RealisticObs(lidar=np.full(272, 3.0), goal=GoalPolar(8.0, 0.5))
    from sidewalksim.sensors import Observation

    a = policy.act(Observation(realistic=obs_r))
    assert SPEED_MIN <= a.speed <= SPEED_MAX
    assert -YAW_LIMIT <= a.yaw_delta <= YAW_LIMIT


def test_the_student_acts_on_the_features_it_trains_on():
    class RecordingStudent(StudentPolicy):
        def act(self, obs):
            seen.append(flatten_realistic(obs.realistic))
            return super().act(obs)

    seen = []
    net = StudentNet(seed=2)
    episode = Episode(replace(small_suite()[0], seed=123))
    _, rows = _run_labeled_episode(episode, RecordingStudent(net), OracleTeacher(), 0)
    assert len(seen) == len(rows) > 0
    assert rows["features"].tobytes() == np.stack(seen).tobytes()
    for features in seen:
        assert np.array_equal(net.forward(features.astype(np.float64)), net.forward(features))


# -- full loop --------------------------------------------------------------------


def tiny_config(rounds):
    return TrainConfig(batch_size=64, epochs_per_round=1,
                       rounds=rounds, prefill_count=250, seed=9, bc_epochs=2,
                       collect_episodes_per_round=2, round_eval_episodes=4,
                       final_eval_episodes=6)


DAGGER_REPORT_JSON = (
    '{"rounds": [{"round": 0, "dataset_size": 250, "train_loss": [0.5, 0.25], '
    '"val_success_rate": 0.5}, {"round": 1, "dataset_size": 310, "train_loss": [0.125], '
    '"val_success_rate": 0.75}], "best_round": 1, "baseline_final": {"success_rate": 0.5}, '
    '"best_final": {"success_rate": 0.75}, "teacher_final": {"success_rate": 1.0}}')


def test_dagger_report_json_bytes():
    report = DaggerReport(
        rounds=[RoundRecord(0, 250, [0.5, 0.25], 0.5), RoundRecord(1, 310, [0.125], 0.75)],
        best_round=1, baseline_final={"success_rate": 0.5},
        best_final={"success_rate": 0.75}, teacher_final={"success_rate": 1.0})
    assert json.dumps(report.to_dict()) == DAGGER_REPORT_JSON


def test_dagger_round_zero_is_pure_behavior_cloning():
    train = small_suite()
    val = [make_config(c.map, obstacle_density=3.0, obs_mode="realistic")
           for c in train]
    result = dagger_run(train, val, tiny_config(rounds=0))
    assert result.report.best_round == 0
    assert len(result.report.rounds) == 1
    assert result.dataset.round_counts[0] == 250


@needs_c_compiler
def test_dagger_run_is_the_same_with_every_kernel_off(tmp_path, monkeypatch):
    # criterion 7's micro run: prefill, training and evaluation run both
    # 272-ray raycast paths, both membership paths, Dijkstra, the lookahead
    # and both disc-test paths
    assert _ckernel.load() is not None, "the C kernels failed to build or load"
    cfg = TrainConfig(prefill_count=120, rounds=1, bc_epochs=1, epochs_per_round=1,
                      batch_size=64, collect_episodes_per_round=1, round_eval_episodes=2,
                      final_eval_episodes=2, seed=5)
    train = [make_config(generate_synthetic_map("grid", 26.0, seed=9), obstacle_density=3.0,
                         obs_mode="both")]
    val = suites.validation_suite(3.0, obs_mode="realistic")

    def run(tag):
        result = dagger_run(train, val, cfg)
        save_transitions(tmp_path / f"{tag}.npy", result.dataset)
        return (result.report.to_dict(), result.net.get_flat().tobytes(),
                (tmp_path / f"{tag}.npy").read_bytes())

    as_loaded = run("as_loaded")
    monkeypatch.setattr(_ckernel, "_loaded", None)
    assert run("off") == as_loaded


# perfbench distill's micro run, printing the SHA-256 of the report JSON, the
# weights and the transition rows
MICRO_DAGGER_RUN = """
import hashlib, json
from sidewalksim import suites
from sidewalksim.distill import TrainConfig, dagger_run
result = dagger_run(suites.training_suite(obs_mode="both", render_bev=False),
                    suites.validation_suite(obs_mode="realistic"),
                    TrainConfig(prefill_count=2400, rounds=2, collect_episodes_per_round=8,
                                round_eval_episodes=6, final_eval_episodes=6, seed=913))
outputs = (json.dumps(result.report.to_dict()).encode(), result.net.get_flat().tobytes(),
           result.dataset.rows.tobytes())
print(json.dumps([hashlib.sha256(data).hexdigest() for data in outputs]))
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two BLAS threads need two cores")
def test_micro_dagger_run_is_byte_identical_on_one_and_two_blas_threads():
    src = Path(__file__).resolve().parent.parent / "src"

    def digests(threads):
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", MICRO_DAGGER_RUN], env=env,
                              capture_output=True, text=True, timeout=600, check=True)
        return json.loads(proc.stdout.splitlines()[-1])

    assert digests("1") == digests("2")


def test_dagger_run_is_deterministic():
    train = small_suite()
    val = [make_config(c.map, obstacle_density=3.0, obs_mode="realistic")
           for c in train]
    r1 = dagger_run(train, val, tiny_config(rounds=1))
    r2 = dagger_run(train, val, tiny_config(rounds=1))
    assert np.array_equal(r1.net.get_flat(), r2.net.get_flat())
    assert r1.report.to_dict() == r2.report.to_dict()
