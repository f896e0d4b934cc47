from __future__ import annotations

import json

import numpy as np
import pytest

from cgflow.compstate import default_library_bytes, library_from_dict
from cgflow.domain import RewardParams, RuleSet
from cgflow.schedule import Schedule

GLOBAL_SEED = 20240810


@pytest.fixture(scope="session")
def library():
    return library_from_dict(json.loads(default_library_bytes()))


@pytest.fixture(scope="session")
def sched():
    # acceptance schedule: every window closes by t=1
    return Schedule(lam=0.3, t_window=0.4, n_steps=20, max_components=3)


@pytest.fixture(scope="session")
def fig2_sched():
    return Schedule(lam=0.2, t_window=0.4, n_steps=20, max_components=4)


@pytest.fixture(scope="session")
def rules():
    return RuleSet()


@pytest.fixture(scope="session")
def reward_params():
    return RewardParams(
        anchors=((-3.5, 0.0), (-1.5, 0.0), (0.5, 0.0), (2.5, 0.0), (4.5, 0.0)),
        r_min=0.6,
        temperature=0.55,
        beta=1.0,
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
