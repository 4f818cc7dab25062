import shutil

import numpy as np
import pytest

from sidewalksim import _ckernel, planner
from sidewalksim.episode import EpisodeConfig
from sidewalksim.walkmap import WalkableMap, generate_synthetic_map
from sidewalksim.world import Action


needs_c_compiler = pytest.mark.skipif(
    not any(map(shutil.which, _ckernel.COMPILERS)),
    reason="no C compiler on PATH to build the C kernels")


@pytest.fixture
def corridor():
    return generate_synthetic_map("corridor", 20.0, 3.0)


@pytest.fixture
def corridor_long():
    return generate_synthetic_map("corridor", 32.0, 3.5)


@pytest.fixture
def big_plane():
    # stand-in for an unbounded walkable world
    half = 100.0
    poly = [[-half, -half], [half, -half], [half, half], [-half, half]]
    return WalkableMap([poly])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_config(wmap, **kw):
    kw.setdefault("obs_mode", "privileged")
    kw.setdefault("render_bev", False)
    return EpisodeConfig(map=wmap, **kw)


class ScriptedPolicy(planner.Policy):
    """Cycles through a fixed list of actions, ignoring observations."""

    def __init__(self, actions):
        if not actions:
            raise ValueError("need at least one action")
        self.actions = [Action(a[0], a[1]) if not isinstance(a, Action) else a
                        for a in actions]
        self._i = 0

    def reset(self, context) -> None:
        self._i = 0

    def act(self, obs):
        a = self.actions[self._i % len(self.actions)]
        self._i += 1
        return a
