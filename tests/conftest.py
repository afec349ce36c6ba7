import math

import numpy as np
import pytest

from egonav.ingest import Episode
from egonav.simulator import SynthSegment, SynthSpec, synthesize


def frame_row(t, position, quaternion, left=None, right=None):
    """One frame in the recording row layout; a hand is (position, confidence)."""
    def hand(h):
        return (math.nan,) * 4 if h is None else (*h[0], h[1])
    return (t, *position, *quaternion, *hand(left), *hand(right))


def episode_of(rows, fps=30.0):
    """An Episode of ``frame_row`` rows; no rows give an empty episode."""
    return Episode(np.array(rows, dtype=float).reshape(-1, 16), fps)


def two_zone_spec(seed, fps=30.0, noise_std=0.002):
    """Walk with two pause-and-manipulate zones, >= 60 s total."""
    return SynthSpec(segments=(
        SynthSegment("pause-and-manipulate", 14.0),
        SynthSegment("straight", 6.0, speed=1.0),
        SynthSegment("arc", 3.0, speed=1.0, turn_rate=0.7),
        SynthSegment("straight", 6.0, speed=1.0),
        SynthSegment("pause-and-manipulate", 14.0),
        SynthSegment("straight", 6.0, speed=1.0),
        SynthSegment("arc", 3.0, speed=1.0, turn_rate=-0.7),
        SynthSegment("straight", 9.0, speed=1.0),
    ), fps=fps, noise_std=noise_std, seed=seed)


@pytest.fixture
def two_zone_episode():
    return synthesize(two_zone_spec(seed=42))
