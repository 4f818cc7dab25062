"""Behavior cloning with dataset aggregation from a privileged teacher.

The student consumes the realistic observation only (272 capped lidar rays
plus the noisy goal polar), flattened to 275 features. Teacher actions are
the regression targets after normalization to [-1, 1]^2; training minimizes
the mean L1 error with exact hand-written gradients.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional

import numpy as np

from . import sensors
from .episode import GOAL_DISTANCE_RANGE, Episode, EpisodeConfig, episode_seed, run_episode
from .errors import PrefillStallError, TrainingDivergedError
from .evaluate import evaluate
from .nets import Adam, StudentNet
from .planner import OracleTeacher, Policy
from .sensors import Observation, RealisticObs, REALISTIC_LIDAR_RAYS
from .world import Action, SPEED_MAX, SPEED_MIN, YAW_LIMIT

GOAL_DISTANCE_CAP = GOAL_DISTANCE_RANGE[1]  # meters

FEATURE_DIM = REALISTIC_LIDAR_RAYS + 3

DATASET_CAPACITY = 200_000  # rows; past it the oldest leave first

_SPEED_CENTER = (SPEED_MAX + SPEED_MIN) / 2.0
_SPEED_HALF = (SPEED_MAX - SPEED_MIN) / 2.0

def normalization() -> dict:
    """The scales `flatten_realistic` and `normalize_action` apply, as a model
    file's `norm` records them; read when called, like the lidar cap the
    episodes cast with."""
    return {
        "lidar_max_range": sensors.REALISTIC_LIDAR_MAX_RANGE,
        "goal_distance_cap": GOAL_DISTANCE_CAP,
        "speed_center": _SPEED_CENTER,
        "speed_half": _SPEED_HALF,
        "yaw_half": YAW_LIMIT,
    }


def flatten_realistic(obs: RealisticObs) -> np.ndarray:
    """275 float32 features in [-1, 1]: normalized ranges, capped distance,
    bearing. The dtype is the one `_TRANSITION_DTYPE` stores, so the student
    acts on exactly the features it trains on."""
    out = np.empty(FEATURE_DIM, dtype=np.float32)
    n = REALISTIC_LIDAR_RAYS
    out[:n] = obs.lidar / sensors.REALISTIC_LIDAR_MAX_RANGE
    out[n] = min(obs.goal.distance, GOAL_DISTANCE_CAP) / GOAL_DISTANCE_CAP
    out[n + 1] = math.sin(obs.goal.bearing)
    out[n + 2] = math.cos(obs.goal.bearing)
    return out


def normalize_action(action: Action) -> np.ndarray:
    return np.array([(action.speed - _SPEED_CENTER) / _SPEED_HALF,
                     action.yaw_delta / YAW_LIMIT])


def denormalize_action(vec) -> Action:
    return Action(vec[0] * _SPEED_HALF + _SPEED_CENTER, vec[1] * YAW_LIMIT)


_TRANSITION_DTYPE = np.dtype([
    ("features", np.float32, (FEATURE_DIM,)),
    ("action", np.float64, (2,)),      # normalized teacher action
    ("episode_id", np.int32),
    ("step_index", np.int32),
])


class AggregatedDataset:
    """FIFO-bounded store of `_TRANSITION_DTYPE` rows, oldest first, with
    the count of rows each `extend` brought in."""

    def __init__(self, capacity: int = DATASET_CAPACITY):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.rows = np.zeros(0, dtype=_TRANSITION_DTYPE)
        self.round_counts: list[int] = []

    def __len__(self) -> int:
        return len(self.rows)

    def extend(self, rows: np.ndarray) -> None:
        """Append one round's rows; past `capacity` the oldest leave first."""
        self.round_counts.append(len(rows))
        rows = np.concatenate((self.rows, rows))
        # a copy, so that the evicted rows are freed rather than kept as its base
        self.rows = rows[-self.capacity:].copy() if len(rows) > self.capacity else rows


def save_transitions(path, dataset: AggregatedDataset) -> None:
    """Persist transitions as a single structured .npy (deterministic bytes)."""
    np.save(path, dataset.rows)


class StudentPolicy(Policy):
    """Wraps the network behind the common policy interface."""

    def __init__(self, net: StudentNet):
        self.net = net

    def act(self, obs: Observation) -> Action:
        if obs.realistic is None:
            raise ValueError("student policy needs the realistic observation")
        out = self.net.forward(flatten_realistic(obs.realistic))
        return denormalize_action(out)


@dataclass
class TrainConfig:
    batch_size: int = 256
    epochs_per_round: int = 8
    rounds: int = 10
    prefill_count: int = 20_000
    seed: int = 0
    bc_epochs: int = 40                 # round-0 training on the prefill data
    collect_episodes_per_round: int = 60
    round_eval_episodes: int = 100
    final_eval_episodes: int = 100

    def __post_init__(self):
        # every field takes an int; a bool is none, although Python counts it as one
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{f.name} must be an integer, not {value!r}")
        # checked here, so that a run fails before its first episode, not
        # after prefill and training; 0 collection episodes stays legal
        for name in ("batch_size", "epochs_per_round", "bc_epochs",
                     "round_eval_episodes", "final_eval_episodes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("rounds", "prefill_count", "collect_episodes_per_round"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


def _episode_stream(configs: list[EpisodeConfig], seed: int):
    """Endless deterministic stream of episodes cycling over the config list."""
    i = 0
    while True:
        cfg = replace(configs[i % len(configs)], seed=episode_seed(seed, i),
                      obs_mode="both", render_bev=False)
        yield Episode(cfg)
        i += 1


class _LabelingPolicy(Policy):
    """`driver` acts while `teacher` labels every state it is shown."""

    def __init__(self, driver: Policy, teacher: OracleTeacher, episode_id: int):
        self.driver = driver
        self.teacher = teacher
        self.episode_id = episode_id
        self.rows: list[tuple] = []    # in the field order of _TRANSITION_DTYPE

    def reset(self, context) -> None:
        self.teacher.reset(context)
        if self.driver is not self.teacher:
            self.driver.reset(context)

    def act(self, obs: Observation) -> Action:
        label = self.teacher.act(obs)
        action = label if self.driver is self.teacher else self.driver.act(obs)
        self.rows.append((flatten_realistic(obs.realistic), normalize_action(label),
                          self.episode_id, len(self.rows)))
        return action


def _run_labeled_episode(episode: Episode, driver: Policy, teacher: OracleTeacher,
                         episode_id: int):
    """Roll one episode with `driver` acting, teacher labeling every state.

    Returns the outcome and the episode's rows of `_TRANSITION_DTYPE`.
    """
    policy = _LabelingPolicy(driver, teacher, episode_id)
    outcome = run_episode(episode, policy).outcome
    return outcome, np.array(policy.rows, dtype=_TRANSITION_DTYPE)


def prefill(dataset: AggregatedDataset, teacher: OracleTeacher,
            configs: list[EpisodeConfig], count: int, seed: int = 0) -> AggregatedDataset:
    """Fill the dataset with transitions from successful teacher episodes only."""
    if count < 0:
        raise ValueError("count must be >= 0")
    budget = max(100, count)
    stream = _episode_stream(configs, seed)
    kept = [dataset.rows[:0]]   # keeps the dtype when no episode is kept
    stored = 0
    episodes_run = 0
    successes = 0
    while stored < count:
        if episodes_run >= budget or (episodes_run >= 50 and successes == 0):
            raise PrefillStallError(
                f"teacher yielded {successes} successes in {episodes_run} episodes; "
                f"stored {stored} of {count}"
            )
        outcome, rows = _run_labeled_episode(next(stream), teacher, teacher, episodes_run)
        episodes_run += 1
        if outcome != "success":
            continue
        successes += 1
        kept.append(rows[:count - stored])
        stored += len(kept[-1])
    dataset.extend(np.concatenate(kept))
    return dataset


def collect_round(dataset: AggregatedDataset, student: Policy, teacher: OracleTeacher,
                  configs: list[EpisodeConfig], n_episodes: int,
                  seed: int = 0) -> AggregatedDataset:
    """Student-driven rollouts labeled by the teacher at every visited state."""
    if n_episodes < 0:
        raise ValueError("n_episodes must be >= 0")
    stream = _episode_stream(configs, seed)
    # the empty leading array keeps the dtype when no episode runs
    rows = np.concatenate([dataset.rows[:0]] + [
        _run_labeled_episode(episode, student, teacher, episode_id)[1]
        for episode_id, episode in zip(range(n_episodes), stream)])
    dataset.extend(rows)
    return dataset


def train_epochs(net: StudentNet, dataset: AggregatedDataset, config: TrainConfig,
                 optimizer: Adam, rng: np.random.Generator,
                 epochs: Optional[int] = None) -> list[float]:
    """Mini-batch L1 regression; returns the mean loss per epoch."""
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    features, actions = dataset.rows["features"], dataset.rows["action"]
    n = len(dataset)
    n_epochs = epochs if epochs is not None else config.epochs_per_round
    history = []
    for _ in range(n_epochs):
        order = rng.permutation(n)
        losses = []
        for lo in range(0, n, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            loss, grads = net.loss_and_grads(features[idx], actions[idx])
            if not math.isfinite(loss):
                raise TrainingDivergedError(f"non-finite loss on batch at offset {lo}")
            optimizer.step(net, grads)
            losses.append(loss)
        history.append(float(np.mean(losses)))
    return history


@dataclass
class RoundRecord:
    round: int
    dataset_size: int
    train_loss: list[float]
    val_success_rate: float


@dataclass
class DaggerReport:
    rounds: list[RoundRecord]
    best_round: int
    baseline_final: dict
    best_final: dict
    teacher_final: dict

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class DaggerResult:
    net: StudentNet
    report: DaggerReport
    dataset: AggregatedDataset = field(repr=False)


def dagger_run(train_configs: list[EpisodeConfig], val_configs: list[EpisodeConfig],
               config: TrainConfig, log=None) -> DaggerResult:
    """Full distillation loop: prefill, then train/collect/evaluate rounds.

    Returns the best-by-validation student; the report carries the per-round
    curve plus final evaluations of both the chosen student and the round-0
    (prefill-only behavior cloning) baseline on the larger validation suite.
    """
    def say(msg):
        if log is not None:
            log(msg)

    ss = np.random.SeedSequence(config.seed)
    s_prefill, s_net, s_train, s_collect, s_eval = (
        int(c.generate_state(1)[0]) for c in ss.spawn(5)
    )

    teacher = OracleTeacher()
    dataset = AggregatedDataset()
    say(f"prefilling {config.prefill_count} transitions from successful teacher episodes")
    prefill(dataset, teacher, train_configs, config.prefill_count, seed=s_prefill)

    net = StudentNet(seed=s_net)
    optimizer = Adam(net)
    train_rng = np.random.default_rng(s_train)

    rounds: list[RoundRecord] = []
    bc_loss = train_epochs(net, dataset, config, optimizer, train_rng,
                           epochs=config.bc_epochs)
    ev = evaluate(StudentPolicy(net), val_configs, config.round_eval_episodes,
                  seed=s_eval)
    rounds.append(RoundRecord(0, len(dataset), bc_loss, ev.success_rate))
    say(f"round 0 (behavior cloning): loss {bc_loss[-1]:.4f}, "
        f"val success {ev.success_rate:.2f}")

    baseline_flat = net.get_flat().copy()
    best_flat = baseline_flat
    best_rate = ev.success_rate
    best_round = 0

    for r in range(1, config.rounds + 1):
        collect_round(dataset, StudentPolicy(net), teacher, train_configs,
                      config.collect_episodes_per_round, seed=s_collect + r)
        losses = train_epochs(net, dataset, config, optimizer, train_rng)
        ev = evaluate(StudentPolicy(net), val_configs, config.round_eval_episodes,
                      seed=s_eval)
        rounds.append(RoundRecord(r, len(dataset), losses, ev.success_rate))
        say(f"round {r}: dataset {len(dataset)}, loss {losses[-1]:.4f}, "
            f"val success {ev.success_rate:.2f}")
        if ev.success_rate > best_rate:
            best_rate = ev.success_rate
            best_flat = net.get_flat().copy()
            best_round = r

    baseline_net = StudentNet(seed=s_net)
    baseline_net.set_flat(baseline_flat)
    best_net = StudentNet(seed=s_net)
    best_net.set_flat(best_flat)

    baseline_final = evaluate(StudentPolicy(baseline_net), val_configs,
                              config.final_eval_episodes, seed=s_eval + 1)
    best_final = evaluate(StudentPolicy(best_net), val_configs,
                          config.final_eval_episodes, seed=s_eval + 1)
    # teacher on the same suite and episode seeds, through its own modality
    teacher_configs = [replace(c, obs_mode="privileged", render_bev=False)
                       for c in val_configs]
    teacher_final = evaluate(OracleTeacher(), teacher_configs,
                             config.final_eval_episodes, seed=s_eval + 1)
    say(f"final: teacher {teacher_final.success_rate:.2f}, "
        f"baseline {baseline_final.success_rate:.2f}, "
        f"best (round {best_round}) {best_final.success_rate:.2f}")
    report = DaggerReport(rounds=rounds, best_round=best_round,
                          baseline_final=baseline_final.to_dict(),
                          best_final=best_final.to_dict(),
                          teacher_final=teacher_final.to_dict())
    return DaggerResult(net=best_net, report=report, dataset=dataset)
