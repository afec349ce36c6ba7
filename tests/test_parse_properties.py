"""Property tests for the recording parser (skipped without hypothesis)."""

import io
import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from egonav.errors import InvalidArgumentError
from egonav.ingest import (Episode, _check_frame, _frame_row, filter_confidence,
                           parse_recording, serialize_recording)

from conftest import episode_of, frame_row

# deterministic across runs, no example database, no timing flakes
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=200)

finite = st.floats(allow_nan=False, allow_infinity=False)


def lines_of(ep):
    buf = io.StringIO()
    serialize_recording(ep, buf)
    return buf.getvalue().splitlines(keepends=True)


@st.composite
def unit_quaternions(draw):
    q = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
        lambda q: math.hypot(*q) > 0.1))
    n = math.sqrt(sum(c * c for c in q))
    return tuple(c / n for c in q)


hands = st.none() | st.tuples(st.tuples(finite, finite, finite), finite)


@st.composite
def episodes(draw):
    times = sorted(draw(st.lists(finite, min_size=1, max_size=8, unique=True)))
    rows = [frame_row(t, draw(st.tuples(finite, finite, finite)),
                      draw(unit_quaternions()), draw(hands), draw(hands))
            for t in times]
    return episode_of(rows, fps=draw(st.floats(1.0, 240.0)))


# int-valued fields and -0.0 next to arbitrary finite floats
values = finite | st.integers(-10**6, 10**6) | st.just(-0.0)
axis_quaternions = st.sampled_from([(1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 0, 1),
                                    (-0.0, 0.0, 1.0, -0.0)])
any_hands = st.none() | st.tuples(st.tuples(values, values, values),
                                  values | st.floats(-1.0, 1.0))


@st.composite
def row_lists(draw):
    times = sorted(draw(st.lists(values, max_size=8, unique_by=float)))
    return [frame_row(t, draw(st.tuples(values, values, values)),
                      draw(unit_quaternions() | axis_quaternions),
                      draw(any_hands), draw(any_hands))
            for t in times]


def column_bits(ep):
    cols = (ep.t, ep.head_pos, ep.head_quat, ep.hand_pos, ep.hand_conf)
    return [[float.hex(v) for v in np.ravel(c).tolist()] for c in cols]


def reference_filter(rows):
    """The frame-wise confidence filter that the column mask replaces.

    A hand is present where its confidence (row columns 11 and 15) is not NaN.
    """
    return [r for r in rows
            if all(math.isnan(c) or c >= 0.0 for c in (r[11], r[15]))]


@PROPERTY
@given(row_lists().filter(len))
def test_parsed_columns_equal_constructed_columns_bit_for_bit(rows):
    ep = episode_of(rows)
    assert column_bits(parse_recording(lines_of(ep))) == column_bits(ep)


@PROPERTY
@given(row_lists())
def test_filter_confidence_matches_frame_wise_filter(rows):
    assert filter_confidence(episode_of(rows)) == episode_of(reference_filter(rows))


@PROPERTY
@given(episodes())
def test_episode_round_trips_bit_exactly(ep):
    lines = lines_of(ep)
    back = parse_recording(lines, fps=ep.fps)
    assert back == ep
    assert lines_of(back) == lines  # repr-equal floats are bit-equal, -0.0 too


# Values bounded by 1e300 keep the sum of a frame's at most 11 numbers
# finite, so the aggregate check and the field walk must agree exactly.
numbers = st.floats(-1e300, 1e300) | st.integers(-10**6, 10**6)
junk = st.one_of(st.just(math.nan), st.just(math.inf), st.just(-math.inf),
                 st.just(10**400), st.booleans(), st.none(), st.text(max_size=3),
                 st.lists(numbers, max_size=2),
                 st.dictionaries(st.sampled_from(["p", "c", "t"]), numbers, max_size=1))


def vectors(n):
    return st.lists(numbers, min_size=n, max_size=n)


good_hands = st.fixed_dictionaries({"p": vectors(3), "c": numbers})
good_frames = st.fixed_dictionaries(
    {"t": numbers, "head": st.fixed_dictionaries(
        {"p": vectors(3), "q": unit_quaternions().map(list) | vectors(4)})},
    optional={"lh": good_hands | st.none(), "rh": good_hands})
FIELDS = (("t",), ("head",), ("head", "p"), ("head", "q"), ("head", "p", 1),
          ("head", "q", 3), ("lh",), ("lh", "p"), ("lh", "c"), ("lh", "p", 2),
          ("rh", "p", 0), ("rh", "c"))


@st.composite
def well_formed_or_broken_frames(draw):
    """A well-formed frame, or one with a field deleted or set to junk."""
    obj = draw(good_frames)
    if draw(st.booleans()):
        *path, last = draw(st.sampled_from(FIELDS))
        try:
            target = obj
            for key in path:
                target = target[key]
            if draw(st.booleans()):
                del target[last]
            else:
                target[last] = draw(junk)
        except (KeyError, TypeError):  # an optional hand is absent or null
            pass
    return obj


frame_objects = well_formed_or_broken_frames() | junk


@PROPERTY
@given(frame_objects)
def test_fast_path_accepts_iff_field_walk_does(obj):
    line = json.dumps(obj)
    row = _frame_row(json.loads(line))
    fast = "true" not in line and "false" not in line and row is not None
    try:
        walked_row = _check_frame(obj, 1)
        walked = True
    except InvalidArgumentError:
        walked = False
    assert fast == walked
    if fast:  # both read the same row, absent hands as NaN
        assert np.array_equal(row, walked_row, equal_nan=True)


FIRST = '{"t": -1e300, "head": {"p": [0.0, 0.0, 1.6], "q": [1.0, 0.0, 0.0, 0.0]}}'


def json_shaped():
    return st.recursive(
        st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(["t", "head", "p", "q", "lh", "rh", "c", "x"]),
                          inner, max_size=4),
        max_leaves=12).map(json.dumps)


@PROPERTY
@given(frame_objects.map(json.dumps) | json_shaped() | st.text(max_size=40))
def test_any_line_yields_episode_or_input_error(line):
    try:
        ep = parse_recording([FIRST + "\n", line + "\n"])
    except InvalidArgumentError as exc:
        assert str(exc).startswith("line 2: ")
    else:
        assert isinstance(ep, Episode) and 1 <= len(ep.frames) <= 2
