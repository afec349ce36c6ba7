import json
import math
import re

import numpy as np
import pytest

from egonav import segmentation
from egonav.errors import InvalidArgumentError, NoManipulationZonesError
from egonav.geometry import yaw_quaternion
from egonav.segmentation import (MANIPULATION, NAVIGATION, GmmModel,
                                 PhaseConfig, PhaseTrack, candidate_mask,
                                 classify, gmm_fit, gmm_pdf, read_phase_file,
                                 segment, velocities, write_phase_file)
from egonav.simulator import score_segmentation, synthesize

from conftest import episode_of, frame_row, two_zone_spec
from oracles import responsibilities

try:
    from hypothesis import example, given, settings, strategies as st
except ImportError:  # the property test below is skipped without it
    st = None


def reference_log_gauss(points, mean, cov):
    """The einsum E-step density that ``_log_gauss`` must equal bit for bit."""
    diff = points - mean
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    inv = np.array([[cov[1, 1], -cov[0, 1]], [-cov[1, 0], cov[0, 0]]]) / det
    maha = np.einsum("ni,ij,nj->n", diff, inv, diff)
    return -0.5 * (maha + np.log(det)) - np.log(2.0 * np.pi)


def reference_gmm_fit(points, cfg, seed=0):
    """EM with point-major (n, K) rows and axis=1 reductions, which the
    component-row ``gmm_fit`` must equal bit for bit."""
    def log_joint(model):
        return np.stack([
            np.log(model.weights[j]) + segmentation._log_gauss(
                points, model.means[j], model.covariances[j])
            for j in range(len(model.weights))], axis=1)

    def logsumexp(log_p):
        m = log_p.max(axis=1)
        return m + np.log(np.exp(log_p - m[:, None]).sum(axis=1))

    points = np.atleast_2d(np.asarray(points, dtype=float))
    k, n = cfg.k_components, len(points)
    rng = np.random.default_rng(seed)
    means = segmentation._kmeanspp_init(points, k, rng)
    var = points.var(axis=0).sum() / 2.0
    if var <= 0.0:
        var = segmentation.COV_FLOOR
    covs = np.tile(np.eye(2) * var + np.eye(2) * segmentation.COV_FLOOR, (k, 1, 1))
    model = GmmModel(np.full(k, 1.0 / k), means, covs)
    history = []
    for _ in range(segmentation.EM_MAX_ITERS):
        log_p = log_joint(model)
        log_norm = logsumexp(log_p)
        ll = float(log_norm.mean())
        resp = np.exp(log_p - log_norm[:, None])
        nk = np.maximum(resp.sum(axis=0), 1e-12)
        means = (resp.T @ points) / nk[:, None]
        covs = np.empty((k, 2, 2))
        for j in range(k):
            diff = points - means[j]
            covs[j] = (resp[:, j, None] * diff).T @ diff / nk[j]
            covs[j] += np.eye(2) * segmentation.COV_FLOOR
        model = GmmModel(nk / n, means, covs)
        if history and ll - history[-1] < segmentation.EM_TOL:
            history.append(ll)
            break
        history.append(ll)
    return GmmModel(model.weights, model.means, model.covariances, tuple(history))


def make_episode(head_xy, hand_pos=None, fps=30.0):
    rows = []
    for i, (x, y) in enumerate(head_xy):
        hand = None
        if hand_pos is not None and hand_pos[i] is not None:
            hand = (hand_pos[i], 1.0)
        rows.append(frame_row(i / fps, (x, y, 1.6), yaw_quaternion(0.0),
                              right=hand))
    return episode_of(rows, fps)


class TestVelocities:
    def test_moving_head(self):
        ep = make_episode([(0.02 * i, 0.0) for i in range(10)])
        v_head, _ = velocities(ep)
        assert v_head == pytest.approx([0.6] * 10)

    def test_stationary_head(self):
        ep = make_episode([(0.0, 0.0)] * 2 + [(0.0, 0.0)] * 3)
        v_head, _ = velocities(ep)
        assert v_head == pytest.approx([0.0] * 5)

    def test_missing_hands_zero(self):
        ep = make_episode([(0.02 * i, 0.0) for i in range(5)])
        _, v_hand = velocities(ep)
        assert v_hand == pytest.approx([0.0] * 5)

    def test_hand_speed_3d(self):
        n = 5
        hand = [(0.0, 0.0, 0.03 * i) for i in range(n)]
        ep = make_episode([(0.0, 0.0)] * n, hand_pos=hand)
        _, v_hand = velocities(ep)
        assert v_hand[1:] == pytest.approx([0.9] * (n - 1))

    def test_single_frame_rejected(self):
        with pytest.raises(InvalidArgumentError):
            velocities(make_episode([(0.0, 0.0)]))


class TestCandidateMask:
    def test_sustained_candidates(self):
        cfg = PhaseConfig()
        v_head = np.full(40, 0.1)
        v_hand = np.full(40, 1.0)
        mask = candidate_mask(v_head, v_hand, cfg)
        assert mask.all()

    def test_short_burst_cleared(self):
        cfg = PhaseConfig()
        v_head = np.full(60, 0.1)
        v_hand = np.zeros(60)
        v_hand[20:30] = 1.0  # 10-frame burst < tau_duration
        mask = candidate_mask(v_head, v_hand, cfg)
        assert not mask.any()

    def test_head_speed_gate(self):
        cfg = PhaseConfig()
        v_head = np.full(60, 0.5)
        v_hand = np.full(60, 50.0)
        assert not candidate_mask(v_head, v_hand, cfg).any()

    def test_all_runs_long_enough(self):
        cfg = PhaseConfig()
        rng = np.random.default_rng(11)
        v_head = rng.uniform(0.0, 0.8, 500)
        v_hand = rng.uniform(0.0, 3.0, 500)
        mask = candidate_mask(v_head, v_hand, cfg)
        runs = np.diff(np.flatnonzero(np.diff(np.r_[0, mask, 0])))[::2] \
            if mask.any() else []
        assert all(r >= cfg.tau_duration for r in runs)

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            candidate_mask(np.zeros(3), np.zeros(4), PhaseConfig())


class TestGmm:
    def cluster_points(self, seed=0, n=200, centers=((0, 0), (5, 5)), std=0.1):
        rng = np.random.default_rng(seed)
        pts = np.concatenate([rng.normal(c, std, (n, 2)) for c in centers])
        return pts

    def test_two_clusters_recovered(self):
        pts = self.cluster_points()
        model = gmm_fit(pts, PhaseConfig(k_components=2), seed=1)
        means = sorted(map(tuple, model.means))
        assert means[0] == pytest.approx((0, 0), abs=0.1)
        assert means[1] == pytest.approx((5, 5), abs=0.1)

    def test_degenerate_single_cluster(self):
        pts = np.tile([[2.0, 3.0]], (50, 1))
        model = gmm_fit(pts, PhaseConfig(k_components=1), seed=0)
        assert model.means[0] == pytest.approx([2.0, 3.0])
        assert model.covariances[0] == pytest.approx(np.eye(2) * 1e-6, abs=1e-9)

    def test_seeded_determinism_bit_exact(self):
        pts = self.cluster_points(seed=3)
        a = gmm_fit(pts, PhaseConfig(), seed=7)
        b = gmm_fit(pts, PhaseConfig(), seed=7)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.covariances, b.covariances)

    def test_too_few_points(self):
        with pytest.raises(InvalidArgumentError):
            gmm_fit([[0.0, 0.0]], PhaseConfig(k_components=2), seed=0)

    def test_log_likelihood_monotone(self):
        pts = self.cluster_points(seed=5, std=0.5)
        model = gmm_fit(pts, PhaseConfig(), seed=2)
        ll = np.asarray(model.log_likelihoods)
        assert len(ll) >= 2
        assert (np.diff(ll) >= -1e-9).all()

    def test_responsibilities_rows_sum_to_one(self):
        pts = self.cluster_points(seed=6)
        model = gmm_fit(pts, PhaseConfig(), seed=4)
        resp = responsibilities(model, pts)
        assert resp.sum(axis=1) == pytest.approx(np.ones(len(pts)), abs=1e-9)
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_covariances_spd(self):
        pts = self.cluster_points(seed=8, std=0.3)
        model = gmm_fit(pts, PhaseConfig(), seed=8)
        for cov in model.covariances:
            assert np.allclose(cov, cov.T)
            assert np.linalg.eigvalsh(cov).min() > 0


class TestGmmPdf:
    def unit_model(self):
        return GmmModel(np.array([1.0]), np.array([[0.0, 0.0]]),
                        np.array([[[1.0, 0.0], [0.0, 1.0]]]))

    def test_unit_gaussian_at_mean(self):
        assert gmm_pdf(self.unit_model(), [0.0, 0.0]) == pytest.approx(
            1.0 / (2 * math.pi))

    def test_far_tail(self):
        assert gmm_pdf(self.unit_model(), [12.0, 0.0]) < 1e-20

    def test_mixture_symmetry(self):
        double = GmmModel(np.array([0.5, 0.5]),
                          np.array([[1.0, 2.0], [1.0, 2.0]]),
                          np.tile(np.eye(2), (2, 1, 1)))
        single = GmmModel(np.array([1.0]), np.array([[1.0, 2.0]]),
                          np.eye(2)[None])
        pt = [1.3, 1.5]
        assert gmm_pdf(double, pt) == pytest.approx(gmm_pdf(single, pt))

    def test_integrates_to_one_monte_carlo(self):
        rng = np.random.default_rng(12)
        pts = np.concatenate([rng.normal((0, 0), 0.4, (300, 2)),
                              rng.normal((3, 0.5), 0.3, (300, 2))])
        model = gmm_fit(pts, PhaseConfig(), seed=1)
        sigma = math.sqrt(max(np.linalg.eigvalsh(c).max()
                              for c in model.covariances))
        lo = model.means.min(axis=0) - 8 * sigma
        hi = model.means.max(axis=0) + 8 * sigma
        samples = rng.uniform(lo, hi, (1_000_000, 2))
        area = float(np.prod(hi - lo))
        est = float(np.mean(gmm_pdf(model, samples))) * area
        assert est == pytest.approx(1.0, rel=0.02)


class TestClassify:
    def fitted(self):
        rng = np.random.default_rng(2)
        head = list(map(tuple, rng.normal((0, 0), 0.05, (100, 2)))) + \
            [(0.1 * i, 5.0) for i in range(100)]
        ep = make_episode(head)
        pts = np.asarray(head[:100])
        model = gmm_fit(pts, PhaseConfig(), seed=0)
        return ep, model

    def test_zone_mean_is_manipulation(self):
        ep, model = self.fitted()
        track = classify(ep, model, PhaseConfig())
        assert track.labels[0] == MANIPULATION

    def test_far_away_is_navigation(self):
        ep, model = self.fitted()
        track = classify(ep, model, PhaseConfig())
        assert (track.labels[120:] == NAVIGATION).all()

    def test_component_permutation_invariant(self):
        ep, model = self.fitted()
        perm = GmmModel(model.weights[::-1].copy(), model.means[::-1].copy(),
                        model.covariances[::-1].copy())
        a = classify(ep, model, PhaseConfig())
        b = classify(ep, perm, PhaseConfig())
        assert np.array_equal(a.labels, b.labels)

    def test_generator_ground_truth(self):
        ep, truth = synthesize(two_zone_spec(seed=9))
        track, _ = segment(ep, PhaseConfig(), seed=9)
        assert score_segmentation(track, truth) >= 0.95


class TestSegment:
    def test_hands_absent_raises(self):
        ep = make_episode([(0.03 * i, 0.0) for i in range(100)])
        with pytest.raises(NoManipulationZonesError):
            segment(ep, PhaseConfig(), seed=0)

    def test_two_zone_means(self):
        ep, _ = synthesize(two_zone_spec(seed=21))
        track, model = segment(ep, PhaseConfig(), seed=21)
        # zone centers: origin and the end of the first walking stretch
        d = np.linalg.norm(model.means[0] - model.means[1])
        assert d > 2.0
        assert min(np.linalg.norm(model.means, axis=1)) < 0.05

    def test_deterministic_labels(self):
        ep, _ = synthesize(two_zone_spec(seed=33))
        a, _ = segment(ep, PhaseConfig(), seed=5)
        b, _ = segment(ep, PhaseConfig(), seed=5)
        assert np.array_equal(a.labels, b.labels)

    def test_transition_sparsity(self):
        ep, truth = synthesize(two_zone_spec(seed=13))
        track, _ = segment(ep, PhaseConfig(), seed=13)
        assert abs(track.transitions() - truth.transitions()) <= 2


def test_phase_file_round_trip(tmp_path):
    ep, _ = synthesize(two_zone_spec(seed=1))
    cfg = PhaseConfig()
    track, model = segment(ep, cfg, seed=1)
    path = tmp_path / "phases.json"
    write_phase_file(path, track, model, cfg, seed=1)
    track2, cfg2, seed = read_phase_file(path)
    assert np.array_equal(track.labels, track2.labels)
    assert np.allclose(model.means, json.loads(path.read_text())["gmm"]["means"])
    assert cfg2 == cfg
    assert seed == 1


def test_phase_file_text(tmp_path):
    # the writer's bytes: one JSON object at indent 1, then a newline
    model = GmmModel(np.array([1.0]), np.array([[0.5, -2.0]]),
                     np.array([[[0.25, 0.0], [0.0, 1e-3]]]))
    path = tmp_path / "phases.json"
    write_phase_file(path, PhaseTrack(np.array([0, 1])), model, PhaseConfig(), 7)
    assert path.read_text() == """{
 "labels": [
  0,
  1
 ],
 "gmm": {
  "weights": [
   1.0
  ],
  "means": [
   [
    0.5,
    -2.0
   ]
  ],
  "covariances": [
   [
    [
     0.25,
     0.0
    ],
    [
     0.0,
     0.001
    ]
   ]
  ]
 },
 "config": {
  "tau_ratio": 2.0,
  "tau_head": 0.4,
  "tau_duration": 30,
  "k_components": 2,
  "tau_pdf": 0.001,
  "epsilon": 1e-06
 },
 "seed": 7
}
"""


if st is not None:
    @st.composite
    def gauss_cases(draw):
        """Points around an SPD covariance of the given scale and condition."""
        n = draw(st.integers(1, 3000))
        scale = draw(st.floats(1e-3, 1e3))
        cond = draw(st.floats(1.0, 1e8))
        angle = draw(st.floats(-math.pi, math.pi))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        rot = np.array([[math.cos(angle), -math.sin(angle)],
                        [math.sin(angle), math.cos(angle)]])
        cov = rot @ np.diag([scale ** 2, scale ** 2 / cond]) @ rot.T
        cov = (cov + cov.T) / 2.0
        mean = rng.normal(0.0, 10.0 * scale, 2)
        spread = scale * draw(st.floats(0.1, 10.0))
        return mean + rng.normal(0.0, spread, (n, 2)), mean, cov

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(gauss_cases())
    @example((np.array([[1e3, -1e3]]), np.zeros(2),
              np.array([[1e6, 0.0], [0.0, 1e-2]])))
    @example((np.array([[1.89772486, -1.21614852], [0.3, 0.7]]),
              np.array([1.25730221, -1.32104863]),
              np.array([[0.77205073, 0.41725834], [0.41725834, 0.23621373]])))
    def test_log_gauss_bit_identical_to_einsum(case):
        points, mean, cov = case
        assert np.linalg.eigvalsh(cov).min() > 0
        fast = segmentation._log_gauss(points, mean, cov)
        assert fast.tobytes() == reference_log_gauss(points, mean, cov).tobytes()
else:
    def test_log_gauss_property_needs_hypothesis():
        pytest.skip("hypothesis is not installed")


@pytest.mark.parametrize("k", [1, 2, 6, 8, 9])
@pytest.mark.parametrize("n", [1, 2, 3, 1000])
def test_stacked_log_gauss_equals_one_component_rows(k, n):
    rng = np.random.default_rng(100 * k + n)
    points = rng.normal(0.0, 3.0, (n, 2))
    means = rng.normal(0.0, 3.0, (k, 2))
    half = rng.normal(0.0, 1.0, (k, 2, 2))
    covs = half @ half.transpose(0, 2, 1) + 0.1 * np.eye(2)
    rows = segmentation._log_gauss(points, means, covs)
    assert rows.shape == (k, n)
    assert rows.tobytes() == np.stack([
        segmentation._log_gauss(points, mean, cov)
        for mean, cov in zip(means, covs)]).tobytes()


def test_segment_unchanged_with_einsum_log_gauss(monkeypatch):
    ep, _ = synthesize(two_zone_spec(seed=5))
    cfg = PhaseConfig(k_components=3)
    track, model = segment(ep, cfg, seed=3)
    monkeypatch.setattr(segmentation, "_log_gauss", lambda points, means, covs: np.stack([
        reference_log_gauss(points, mean, cov) for mean, cov in zip(means, covs)]))
    ref_track, ref_model = segment(ep, cfg, seed=3)
    assert model.log_likelihoods == ref_model.log_likelihoods
    assert len(model.log_likelihoods) > 2
    for name in ("weights", "means", "covariances"):
        assert getattr(model, name).tobytes() == getattr(ref_model, name).tobytes()
    assert np.array_equal(track.labels, ref_track.labels)


def test_component_sum_equals_numpy_row_sum():
    rng = np.random.default_rng(21)
    for k in [*range(1, 41), 127, 128, 129, 136, 300]:
        for n in (1, 7, 1000):
            cols = np.exp(rng.normal(0.0, 30.0, (n, k)))
            cols[rng.random((n, k)) < 0.1] = 0.0  # exp underflow
            rows = np.ascontiguousarray(cols.T)
            assert segmentation._component_sum(rows).tobytes() == \
                cols.sum(axis=1).tobytes(), (k, n)


@pytest.mark.parametrize("k", range(1, 13))
def test_gmm_fit_equals_point_major_reference(k):
    ep, _ = synthesize(two_zone_spec(seed=k))
    v_head, v_hand = velocities(ep)
    points = ep.head_pos[candidate_mask(v_head, v_hand, PhaseConfig()), :2]
    cfg = PhaseConfig(k_components=k)
    fast = gmm_fit(points, cfg, seed=k)
    ref = reference_gmm_fit(points, cfg, seed=k)
    assert len(fast.log_likelihoods) > 1
    assert fast.log_likelihoods == ref.log_likelihoods
    for name in ("weights", "means", "covariances"):
        assert getattr(fast, name).tobytes() == getattr(ref, name).tobytes()
    assert responsibilities(fast, points).flags.c_contiguous


def test_responsibilities_and_pdf_equal_point_major_forms():
    rng = np.random.default_rng(4)
    points = rng.normal(0.0, 2.0, (500, 2))
    model = gmm_fit(points, PhaseConfig(k_components=9), seed=2)
    log_p = np.stack([np.log(model.weights[j]) + segmentation._log_gauss(
        points, model.means[j], model.covariances[j])
        for j in range(len(model.weights))], axis=1)
    m = log_p.max(axis=1)
    log_norm = m + np.log(np.exp(log_p - m[:, None]).sum(axis=1))
    assert responsibilities(model, points).tobytes() == \
        np.exp(log_p - log_norm[:, None]).tobytes()
    assert gmm_pdf(model, points).tobytes() == np.exp(log_norm).tobytes()


EYE = [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("gmm, field", [
    ({"weights": [1.0], "means": [1.0], "covariances": [EYE]}, "gmm.means"),
    ({"weights": [], "means": [], "covariances": []}, "gmm.weights"),
    ({"weights": [[1.0]], "means": [[0.0, 0.0]], "covariances": [EYE]}, "gmm.weights"),
    ({"weights": [0.5, 0.5], "means": [[0.0, 0.0]], "covariances": [EYE]}, "gmm.means"),
    ({"weights": [1.0], "means": [[0.0, 0.0]], "covariances": EYE}, "gmm.covariances"),
    ({"weights": [1.0], "means": [[0.0, "x"]], "covariances": [EYE]}, "gmm.means"),
    ({"weights": [True], "means": [[0.0, 0.0]], "covariances": [EYE]}, "gmm.weights"),
    ({"weights": [1.0], "means": [[0.0, 0.0]],
      "covariances": [[[1.0, 0.0], [0.0, float("inf")]]]}, "gmm.covariances"),
    ({"weights": [1.0], "means": [[0.0, 0.0], [1.0]], "covariances": [EYE]}, "gmm.means"),
    ({"weights": [1.0], "means": [[0.0, 0.0]]}, "gmm.covariances"),
    ([1.0], "'gmm'"),
])
def test_read_phase_file_checks_the_model(tmp_path, gmm, field):
    ep, _ = synthesize(two_zone_spec(seed=1))
    cfg = PhaseConfig()
    track, model = segment(ep, cfg, seed=1)
    path = tmp_path / "phases.json"
    write_phase_file(path, track, model, cfg, seed=1)
    obj = json.loads(path.read_text())
    obj["gmm"] = gmm
    path.write_text(json.dumps(obj))
    with pytest.raises(InvalidArgumentError, match=re.escape(field)) as exc:
        read_phase_file(path)
    assert str(path) in str(exc.value)
