import io
import math
import warnings

import numpy as np
import pytest

from egonav.errors import InvalidArgumentError
from egonav.geometry import yaw_quaternion
from egonav.ingest import (Episode, extract_waypoints, filter_confidence,
                           parse_recording, serialize_recording)

from conftest import episode_of as episode, frame_row


def frame(t, x=0.0, y=0.0, theta=0.0, lh=None, rh=None):
    return frame_row(t, (x, y, 1.6), yaw_quaternion(theta), lh, rh)


def test_episode_takes_n_by_16_rows():
    for frames, fps in ((np.zeros((3, 15)), 30.0), ([0.0] * 16, 30.0),
                        (np.zeros((3, 16)), 0.0)):
        with pytest.raises(InvalidArgumentError):
            Episode(frames, fps)
    # filter_confidence builds an empty episode when it drops every frame
    empty = Episode(np.empty((0, 16)), 30.0)
    assert len(empty.frames) == 0 and empty.hand_conf.shape == (0, 2)
    rows = np.array([frame(0.0), frame(0.1)])
    ep = Episode(rows, 30.0)
    assert ep.frames is rows and not ep.frames.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ep.frames[0, 0] = 1.0


class TestParse:
    VALID = (
        '{"t": 0.0, "head": {"p": [0.0, 0.0, 1.6], "q": [1.0, 0.0, 0.0, 0.0]}}\n'
        '{"t": 0.1, "head": {"p": [0.1, 0.0, 1.6], "q": [1.0, 0.0, 0.0, 0.0]},'
        ' "lh": {"p": [0.2, 0.1, 1.2], "c": 0.9}}\n'
        '{"t": 0.2, "head": {"p": [0.2, 0.0, 1.6], "q": [1.0, 0.0, 0.0, 0.0]}}\n'
    )

    def test_three_valid_lines(self):
        ep = parse_recording(io.StringIO(self.VALID))
        assert len(ep.frames) == 3
        assert ep.hand_conf[1, 0] == 0.9

    def test_missing_head_named(self):
        bad = '{"t": 0.0, "hand": {}}\n'
        with pytest.raises(InvalidArgumentError, match="head"):
            parse_recording(io.StringIO(bad))

    def test_malformed_json_line_number(self):
        text = self.VALID + "{not json\n"
        with pytest.raises(InvalidArgumentError, match="line 4"):
            parse_recording(io.StringIO(text))

    def test_non_monotone_time(self):
        text = (
            '{"t": 0.0, "head": {"p": [0, 0, 0], "q": [1, 0, 0, 0]}}\n'
            '{"t": 0.0, "head": {"p": [0, 0, 0], "q": [1, 0, 0, 0]}}\n'
        )
        with pytest.raises(InvalidArgumentError,
                           match="^line 2: timestamp 0.0 not strictly increasing"):
            parse_recording(io.StringIO(text))

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError, match="^recording contains no frames$"):
            parse_recording(io.StringIO(""))

    HEAD = '"head": {"p": [0.0, 0.0, 1.6], "q": [1.0, 0.0, 0.0, 0.0]}'

    @pytest.mark.parametrize("line", [
        '{"t": NaN, %s}' % HEAD,
        '{"t": Infinity, %s}' % HEAD,
        '{"t": 0.5, "head": {"p": [0.0, -Infinity, 1.6], "q": [1, 0, 0, 0]}}',
        '{"t": 0.5, "head": {"p": [0.0, 1e999, 1.6], "q": [1, 0, 0, 0]}}',
        '{"t": 0.5, "head": {"p": [0.0, 0.0, 1.6], "q": [NaN, 0, 0, 0]}}',
        '{"t": 0.5, %s, "lh": {"p": [0.2, 0.1, 1.2], "c": NaN}}' % HEAD,
        '{"t": 0.5, %s, "rh": {"p": [0.2, NaN, 1.2], "c": 1.0}}' % HEAD,
        '{"t": "0.5", %s}' % HEAD,
        '{"t": 0.5, "head": {"p": [0.0, "0", 1.6], "q": [1, 0, 0, 0]}}',
        '{"t": 0.5, "head": {"p": [0.0, [0], 1.6], "q": [1, 0, 0, 0]}}',
        '{"t": 0.5, "head": [[0.0, 0.0, 1.6], [1, 0, 0, 0]]}',
        '{"t": 0.5, "head": 3}',
        '{"t": 0.5, %s, "lh": [0.2, 0.1, 1.2]}' % HEAD,
        '[0.5]',
        '{"t": true, %s}' % HEAD,
        '{"t": 0.5, %s, "lh": {"p": [0.2, 0.1, 1.2], "c": false}}' % HEAD,
    ], ids=["nan-t", "inf-t", "inf-p", "overflow-p", "nan-q", "nan-c",
            "nan-hand-p", "str-t", "str-p", "list-in-p", "head-list",
            "head-number", "hand-list", "frame-list", "bool-t", "bool-c"])
    def test_rejects_malformed_values_with_line_number(self, line):
        text = '{"t": 0.0, %s}\n%s\n' % (self.HEAD, line)
        with pytest.raises(InvalidArgumentError, match="line 2"):
            parse_recording(io.StringIO(text))

    def test_accepts_finite_values_whose_sum_overflows(self):
        line = '{"t": 0.5, "head": {"p": [1e308, 1e308, 1.6], "q": [1, 0, 0, 0]}}'
        ep = parse_recording(io.StringIO(line))
        assert ep.head_pos[0].tolist() == [1e308, 1e308, 1.6]

    def test_trailing_data_is_extra_data(self):
        text = '{"t": 0.0, %s}\n{"t": 0.5, %s} x\n' % (self.HEAD, self.HEAD)
        with pytest.raises(InvalidArgumentError,
                           match=r"^line 2: invalid JSON: Extra data$"):
            parse_recording(io.StringIO(text))

    def test_bom_prefixed_line_names_the_bom(self):
        text = '\ufeff{"t": 0.0, %s}\n' % self.HEAD
        with pytest.raises(InvalidArgumentError) as exc:
            parse_recording(io.StringIO(text))
        assert str(exc.value) == ("line 1: invalid JSON: Unexpected UTF-8 BOM "
                                  "(decode using utf-8-sig)")

    def test_whitespace_only_lines_skipped(self):
        text = ' \n{"t": 0.0, %s}\n\t  \n\n{"t": 0.5, %s}\n  ' % (self.HEAD, self.HEAD)
        ep = parse_recording(io.StringIO(text))
        assert ep.t.tolist() == [0.0, 0.5]

    @pytest.mark.parametrize("line", [
        "[" * 100_000,
        '{"t": 1%s, %s}' % ("0" * 5000, HEAD),
    ], ids=["nested-too-deep", "integer-too-long"])
    def test_undecodable_json_is_parse_error(self, line):
        with pytest.raises(InvalidArgumentError, match=r"^line 1: invalid JSON: "):
            parse_recording(io.StringIO(line + "\n"))

    def test_non_monotone_message(self):
        text = '{"t": 0.5, %s}\n{"t": 0.25, %s}\n' % (self.HEAD, self.HEAD)
        with pytest.raises(InvalidArgumentError) as exc:
            parse_recording(io.StringIO(text))
        assert str(exc.value) == ("line 2: timestamp 0.25 not strictly "
                                  "increasing (previous 0.5)")

    def test_non_unit_quaternion_message(self):
        text = '{"t": 0.0, %s}\n{"t": 0.5, "head": {"p": [0, 0, 0], "q": [1, 1, 0, 0]}}\n' \
            % self.HEAD
        with pytest.raises(InvalidArgumentError) as exc:
            parse_recording(io.StringIO(text))
        assert str(exc.value) == "line 2: quaternion norm 1.4142135623730951 != 1"

    def test_overflowing_quaternion_is_parse_error_without_warning(self):
        line = '{"t": 0.0, "head": {"p": [0, 0, 0], "q": [1e200, 0, 0, 0]}}\n'
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError) as exc:
                parse_recording(io.StringIO(line))
        assert str(exc.value) == "line 1: quaternion norm inf != 1"

    def test_bad_quaternion_wins_over_later_invalid_json(self):
        text = ('{"t": 0.0, %s}\n'
                '{"t": 0.5, "head": {"p": [0, 0, 0], "q": [0.5, 0, 0, 0]}}\n'
                '{"t": 1.0, %s}\n'
                '{not json\n') % (self.HEAD, self.HEAD)
        with pytest.raises(InvalidArgumentError) as exc:
            parse_recording(io.StringIO(text))
        assert str(exc.value) == "line 2: quaternion norm 0.5 != 1"

    def test_bad_quaternion_wins_over_later_non_monotone_time(self):
        text = ('{"t": 0.5, "head": {"p": [0, 0, 0], "q": [0.5, 0, 0, 0]}}\n'
                '{"t": 0.5, %s}\n') % self.HEAD
        with pytest.raises(InvalidArgumentError, match="line 1"):
            parse_recording(io.StringIO(text))

    def test_bad_quaternion_wins_over_repeated_time_on_its_line(self):
        text = ('{"t": 0.5, %s}\n'
                '{"t": 0.5, "head": {"p": [0, 0, 0], "q": [0.5, 0, 0, 0]}}\n'
                ) % self.HEAD
        with pytest.raises(InvalidArgumentError, match="line 2"):
            parse_recording(io.StringIO(text))

    def test_repeated_time_wins_over_later_string_field(self):
        text = ('{"t": 0.5, %s}\n{"t": 0.5, %s}\n{"t": "x", %s}\n'
                % (self.HEAD, self.HEAD, self.HEAD))
        with pytest.raises(InvalidArgumentError) as exc:
            parse_recording(io.StringIO(text))
        assert str(exc.value) == ("line 2: timestamp 0.5 not strictly "
                                  "increasing (previous 0.5)")

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(2)
        frames = []
        t = 0.0
        for _ in range(20):
            t += rng.uniform(0.01, 0.1)
            lh = (rng.uniform(-1, 1, 3), rng.uniform(0, 1)) \
                if rng.random() < 0.5 else None
            frames.append(frame(t, *rng.uniform(-5, 5, 2),
                                rng.uniform(-math.pi, math.pi), lh=lh))
        ep = episode(frames)
        buf = io.StringIO()
        serialize_recording(ep, buf)
        back = parse_recording(io.StringIO(buf.getvalue()))
        assert back == ep


class TestFilterConfidence:
    def test_negative_excluded(self):
        frames = [
            frame(0.0, rh=((0, 0, 0), 0.9)),
            frame(0.1, rh=((0, 0, 0), -1.0)),
            frame(0.2, rh=((0, 0, 0), 0.5)),
        ]
        out = filter_confidence(episode(frames))
        assert out.t.tolist() == [0.0, 0.2]

    def test_all_nonnegative_noop(self):
        ep = episode([frame(0.0, rh=((0, 0, 0), 0.0)), frame(0.1)])
        assert filter_confidence(ep) == ep

    def test_total_exclusion(self):
        ep = episode([frame(0.0, lh=((0, 0, 0), -0.5))])
        assert len(filter_confidence(ep).frames) == 0

    def test_idempotent(self):
        frames = [frame(0.1 * i, rh=((0, 0, 0), c))
                  for i, c in enumerate([0.5, -2.0, 1.0, -0.1, 0.0])]
        once = filter_confidence(episode(frames))
        assert filter_confidence(once) == once


class TestWaypoints:
    def test_straight_walk(self):
        frames = [frame(0.1 * i, x=0.1 * i) for i in range(11)]
        track = extract_waypoints(episode(frames), d_thresh=0.25)
        xs = [p.x for _, p in track.waypoints]
        assert xs == pytest.approx([0.0, 0.3, 0.6, 0.9])

    def test_stationary_single(self):
        track = extract_waypoints(episode([frame(0.1 * i) for i in range(10)]),
                                  d_thresh=0.25)
        assert len(track.waypoints) == 1

    def test_zero_threshold_every_frame(self):
        frames = [frame(0.1 * i, x=0.01 * i) for i in range(10)]
        track = extract_waypoints(episode(frames), d_thresh=0.0)
        assert len(track.waypoints) == 10

    def test_consecutive_displacement_invariant(self):
        rng = np.random.default_rng(4)
        pos = np.cumsum(rng.uniform(-0.1, 0.12, (200, 2)), axis=0)
        frames = [frame(0.05 * i, x=p[0], y=p[1]) for i, p in enumerate(pos)]
        track = extract_waypoints(episode(frames), d_thresh=0.25)
        pts = [(p.x, p.y) for _, p in track.waypoints]
        for a, b in zip(pts, pts[1:]):
            assert math.hypot(b[0] - a[0], b[1] - a[1]) >= 0.25

