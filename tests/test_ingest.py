import io
import math
import warnings

import numpy as np
import pytest

from egonav.errors import InvalidArgumentError, ParseError, SchemaError
from egonav.geometry import Pose2, Pose3, yaw_quaternion
from egonav.ingest import (Episode, FrameRecord, HandSample, denormalize,
                           egocentric_history, extract_waypoints,
                           filter_confidence, fit_norm, normalize,
                           parse_recording, serialize_recording)


def frame(t, x=0.0, y=0.0, theta=0.0, lh=None, rh=None):
    return FrameRecord(t, Pose3((x, y, 1.6), yaw_quaternion(theta)),
                       left_hand=lh, right_hand=rh)


def episode(frames, fps=30.0):
    return Episode(tuple(frames), fps=fps)


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
        assert ep.frames[1].left_hand.confidence == 0.9

    def test_missing_head_named(self):
        bad = '{"t": 0.0, "hand": {}}\n'
        with pytest.raises(ParseError, match="head"):
            parse_recording(io.StringIO(bad))

    def test_malformed_json_line_number(self):
        text = self.VALID + "{not json\n"
        with pytest.raises(ParseError, match="line 4"):
            parse_recording(io.StringIO(text))

    def test_non_monotone_time(self):
        text = (
            '{"t": 0.0, "head": {"p": [0, 0, 0], "q": [1, 0, 0, 0]}}\n'
            '{"t": 0.0, "head": {"p": [0, 0, 0], "q": [1, 0, 0, 0]}}\n'
        )
        with pytest.raises(SchemaError):
            parse_recording(io.StringIO(text))

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
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
        with pytest.raises(ParseError, match="line 2"):
            parse_recording(io.StringIO(text))

    def test_accepts_finite_values_whose_sum_overflows(self):
        line = '{"t": 0.5, "head": {"p": [1e308, 1e308, 1.6], "q": [1, 0, 0, 0]}}'
        ep = parse_recording(io.StringIO(line))
        assert ep.frames[0].head.position == (1e308, 1e308, 1.6)

    def test_trailing_data_is_extra_data(self):
        text = '{"t": 0.0, %s}\n{"t": 0.5, %s} x\n' % (self.HEAD, self.HEAD)
        with pytest.raises(ParseError, match=r"^line 2: invalid JSON: Extra data$"):
            parse_recording(io.StringIO(text))

    def test_bom_prefixed_line_names_the_bom(self):
        text = '\ufeff{"t": 0.0, %s}\n' % self.HEAD
        with pytest.raises(ParseError) as exc:
            parse_recording(io.StringIO(text))
        assert str(exc.value) == ("line 1: invalid JSON: Unexpected UTF-8 BOM "
                                  "(decode using utf-8-sig)")

    def test_whitespace_only_lines_skipped(self):
        text = ' \n{"t": 0.0, %s}\n\t  \n\n{"t": 0.5, %s}\n  ' % (self.HEAD, self.HEAD)
        ep = parse_recording(io.StringIO(text))
        assert [f.t for f in ep.frames] == [0.0, 0.5]

    @pytest.mark.parametrize("line", [
        "[" * 100_000,
        '{"t": 1%s, %s}' % ("0" * 5000, HEAD),
    ], ids=["nested-too-deep", "integer-too-long"])
    def test_undecodable_json_is_parse_error(self, line):
        with pytest.raises(ParseError, match=r"^line 1: invalid JSON: "):
            parse_recording(io.StringIO(line + "\n"))

    def test_non_monotone_message(self):
        text = '{"t": 0.5, %s}\n{"t": 0.25, %s}\n' % (self.HEAD, self.HEAD)
        with pytest.raises(SchemaError) as exc:
            parse_recording(io.StringIO(text))
        assert str(exc.value) == ("line 2: timestamp 0.25 not strictly "
                                  "increasing (previous 0.5)")

    def test_non_unit_quaternion_message(self):
        text = '{"t": 0.0, %s}\n{"t": 0.5, "head": {"p": [0, 0, 0], "q": [1, 1, 0, 0]}}\n' \
            % self.HEAD
        with pytest.raises(ParseError) as exc:
            parse_recording(io.StringIO(text))
        assert str(exc.value) == "line 2: quaternion norm 1.4142135623730951 != 1"

    def test_overflowing_quaternion_is_parse_error_without_warning(self):
        line = '{"t": 0.0, "head": {"p": [0, 0, 0], "q": [1e200, 0, 0, 0]}}\n'
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError) as exc:
                parse_recording(io.StringIO(line))
        assert str(exc.value) == "line 1: quaternion norm inf != 1"

    def test_bad_quaternion_wins_over_later_invalid_json(self):
        text = ('{"t": 0.0, %s}\n'
                '{"t": 0.5, "head": {"p": [0, 0, 0], "q": [0.5, 0, 0, 0]}}\n'
                '{"t": 1.0, %s}\n'
                '{not json\n') % (self.HEAD, self.HEAD)
        with pytest.raises(ParseError) as exc:
            parse_recording(io.StringIO(text))
        assert str(exc.value) == "line 2: quaternion norm 0.5 != 1"

    def test_bad_quaternion_wins_over_later_non_monotone_time(self):
        text = ('{"t": 0.5, "head": {"p": [0, 0, 0], "q": [0.5, 0, 0, 0]}}\n'
                '{"t": 0.5, %s}\n') % self.HEAD
        with pytest.raises(ParseError, match="line 1"):
            parse_recording(io.StringIO(text))

    def test_bad_quaternion_wins_over_repeated_time_on_its_line(self):
        text = ('{"t": 0.5, %s}\n'
                '{"t": 0.5, "head": {"p": [0, 0, 0], "q": [0.5, 0, 0, 0]}}\n'
                ) % self.HEAD
        with pytest.raises(ParseError, match="line 2"):
            parse_recording(io.StringIO(text))

    def test_repeated_time_wins_over_later_string_field(self):
        text = ('{"t": 0.5, %s}\n{"t": 0.5, %s}\n{"t": "x", %s}\n'
                % (self.HEAD, self.HEAD, self.HEAD))
        with pytest.raises(SchemaError) as exc:
            parse_recording(io.StringIO(text))
        assert str(exc.value) == ("line 2: timestamp 0.5 not strictly "
                                  "increasing (previous 0.5)")

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(2)
        frames = []
        t = 0.0
        for _ in range(20):
            t += rng.uniform(0.01, 0.1)
            lh = HandSample(tuple(rng.uniform(-1, 1, 3)), rng.uniform(0, 1)) \
                if rng.random() < 0.5 else None
            frames.append(frame(t, *rng.uniform(-5, 5, 2),
                                rng.uniform(-math.pi, math.pi), lh=lh))
        ep = episode(frames)
        buf = io.StringIO()
        serialize_recording(ep, buf)
        back = parse_recording(io.StringIO(buf.getvalue()))
        assert back.frames == ep.frames


class TestFilterConfidence:
    def test_negative_excluded(self):
        frames = [
            frame(0.0, rh=HandSample((0, 0, 0), 0.9)),
            frame(0.1, rh=HandSample((0, 0, 0), -1.0)),
            frame(0.2, rh=HandSample((0, 0, 0), 0.5)),
        ]
        out = filter_confidence(episode(frames))
        assert [f.t for f in out.frames] == [0.0, 0.2]

    def test_all_nonnegative_noop(self):
        ep = episode([frame(0.0, rh=HandSample((0, 0, 0), 0.0)), frame(0.1)])
        assert filter_confidence(ep).frames == ep.frames

    def test_total_exclusion(self):
        ep = episode([frame(0.0, lh=HandSample((0, 0, 0), -0.5))])
        assert len(filter_confidence(ep).frames) == 0

    def test_idempotent(self):
        frames = [frame(0.1 * i, rh=HandSample((0, 0, 0), c))
                  for i, c in enumerate([0.5, -2.0, 1.0, -0.1, 0.0])]
        once = filter_confidence(episode(frames))
        assert filter_confidence(once).frames == once.frames


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


class TestEgocentricHistory:
    def track(self):
        frames = [frame(0.1 * i, x=0.3 * i) for i in range(6)]
        return extract_waypoints(episode(frames), d_thresh=0.25)

    def test_self_frame_last(self):
        track = self.track()
        _, last = track.waypoints[-1]
        hist = egocentric_history(track, last)
        assert (hist[-1].x, hist[-1].y, hist[-1].theta) == (0.0, 0.0, 0.0)

    def test_truncation(self):
        hist = egocentric_history(self.track(), Pose2(0, 0, 0), k_h=2)
        assert len(hist) == 2

    def test_matches_to_frame(self):
        frames = [frame(0.0, x=1.0, y=1.0, theta=math.pi / 2)]
        track = extract_waypoints(episode(frames), d_thresh=0.25)
        hist = egocentric_history(track, Pose2(1, 0, math.pi / 2))
        assert hist[0].x == pytest.approx(1.0)
        assert hist[0].y == pytest.approx(0.0, abs=1e-15)

    def test_bad_k(self):
        with pytest.raises(InvalidArgumentError):
            egocentric_history(self.track(), Pose2(0, 0, 0), k_h=0)


class TestNormalization:
    def test_hand_statistics(self):
        stats = fit_norm([[1.0], [3.0]])
        assert stats.mean[0] == 2.0
        assert stats.std[0] == 1.0
        assert normalize([3.0], stats)[0] == 1.0

    def test_mean_centers(self):
        stats = fit_norm([[1.0, 5.0], [2.0, 9.0], [3.0, 1.0]])
        assert normalize(stats.mean, stats) == pytest.approx([0.0, 0.0])

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        vals = rng.normal(3.0, 2.0, (40, 4))
        stats = fit_norm(vals)
        x = rng.normal(0, 5, 4)
        assert denormalize(normalize(x, stats), stats) == pytest.approx(
            x, abs=1e-12)

    def test_zero_variance_clamped(self):
        stats = fit_norm([[1.0, 2.0], [1.0, 4.0]])
        assert stats.std[0] == 1.0
        assert stats.clamped == (True, False)
        x = [1.0, 3.0]
        assert denormalize(normalize(x, stats), stats) == pytest.approx(x)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            fit_norm([])
