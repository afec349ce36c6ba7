"""Unsupervised manipulation/navigation phase segmentation.

Pipeline: finite-difference head/hand speeds -> velocity-ratio candidate
mask with a minimum-duration filter -> 2D Gaussian mixture fit over head
positions in candidate frames -> per-frame density-threshold labels
(0 = manipulation, 1 = navigation).

The EM fit is written here rather than delegated to sklearn because the
tests need bit-exact seeded determinism, an inspectable log-likelihood
history, and a fixed covariance floor.

The E-step evaluates the K components in one broadcast call, as (K, n)
rows, and its log-sum-exp leaves the sum over components to numpy (row by
row below 8 components, the point-major sum itself from 8 on), so the fit
equals the point-major form kept in the tests bit for bit. The M-step gets
the responsibilities as a C-order (n, K) array.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, asdict
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError, NoManipulationZonesError
from .ingest import Episode, finite_number, unique_keys

MANIPULATION = 0
NAVIGATION = 1

COV_FLOOR = 1e-6  # added as lambda*I to every covariance each M-step
EM_TOL = 1e-6
EM_MAX_ITERS = 200


@dataclass(frozen=True)
class PhaseConfig:
    """Thresholds for the phase identification pipeline."""

    tau_ratio: float = 2.0       # hand/head speed ratio gate
    tau_head: float = 0.4        # m/s, max head speed during manipulation
    tau_duration: int = 30       # frames, minimum candidate run length
    k_components: int = 2        # manipulation zones
    tau_pdf: float = 1e-3        # density threshold for classification
    epsilon: float = 1e-6        # m/s, ratio denominator guard

    def __post_init__(self):
        for name in ("tau_ratio", "tau_head", "tau_duration", "tau_pdf", "epsilon"):
            if not getattr(self, name) > 0:
                raise InvalidArgumentError(f"{name} must be positive")
        if self.k_components < 1:
            raise InvalidArgumentError("k_components must be >= 1")


@dataclass(frozen=True)
class GmmModel:
    """K-component bivariate Gaussian mixture over head positions."""

    weights: np.ndarray        # (K,)
    means: np.ndarray          # (K, 2)
    covariances: np.ndarray    # (K, 2, 2)
    log_likelihoods: tuple[float, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class PhaseTrack:
    """Per-frame binary phase labels aligned to an episode."""

    labels: np.ndarray  # int array, 0=manipulation, 1=navigation

    def __len__(self):
        return len(self.labels)

    def transitions(self) -> int:
        return int(np.count_nonzero(np.diff(self.labels)))


def velocities(ep: Episode) -> tuple[np.ndarray, np.ndarray]:
    """Backward-difference head (planar) and hand (3D) speeds per frame.

    Reads the episode's ``t``, ``head_pos`` and ``hand_pos`` columns. The
    first frame copies the second. A hand absent at either end of a
    difference (a NaN row of ``hand_pos``) contributes 0 for that hand;
    when both hands are trackable the faster one is used.
    """
    n = len(ep.t)
    if n < 2:
        raise InvalidArgumentError("need at least 2 frames for velocities")
    dt = np.diff(ep.t)
    v_head = np.empty(n)
    v_head[1:] = np.linalg.norm(np.diff(ep.head_pos[:, :2], axis=0), axis=1) / dt
    v_head[0] = v_head[1]

    v_hand = np.zeros(n)
    for side in range(2):
        speed = np.linalg.norm(np.diff(ep.hand_pos[:, side], axis=0), axis=1) / dt
        np.fmax(v_hand[1:], speed, out=v_hand[1:])  # NaN, an absent pair, loses
    v_hand[0] = v_hand[1]
    return v_head, v_hand


def runs(values) -> np.ndarray:
    """Maximal runs of equal values, in order: one [start, end) row per run."""
    values = np.asarray(values)
    n = len(values)
    cuts = np.flatnonzero(values[1:] != values[:-1]) + 1
    bounds = np.concatenate([[0], cuts, [n]]) if n else np.zeros(1, np.int64)
    return np.column_stack([bounds[:-1], bounds[1:]])


def candidate_mask(v_head: np.ndarray, v_hand: np.ndarray,
                   cfg: PhaseConfig) -> np.ndarray:
    """Manipulation candidate frames, with short runs removed.

    A frame is a candidate when the hand/head speed ratio exceeds
    tau_ratio and the head speed is below tau_head; maximal true runs
    shorter than tau_duration frames are then cleared.
    """
    if len(v_head) != len(v_hand):
        raise InvalidArgumentError("v_head and v_hand lengths differ")
    ratio = v_hand / (v_head + cfg.epsilon)
    mask = (ratio > cfg.tau_ratio) & (v_head < cfg.tau_head)
    start, end = runs(mask).T
    return np.repeat(mask[start] & (end - start >= cfg.tau_duration), end - start)


def _kmeanspp_init(points: np.ndarray, k: int,
                   rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding of the component means."""
    n = len(points)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[i] = points[rng.integers(n)]
        else:
            centers[i] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - centers[i]) ** 2, axis=1))
    return centers


def _log_gauss(points: np.ndarray, means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """Bivariate normal log densities at each point: (n,) values for a (2,)
    mean and (2, 2) covariance, (K, n) rows for K of them stacked."""
    mx, my = np.moveaxis(means, -1, 0)[..., None]
    (a, b), (c, d) = np.moveaxis(covs, (-2, -1), (0, 1))[..., None]
    dx = points[:, 0] - mx
    dy = points[:, 1] - my
    det = a * d - b * c
    i00, i01, i10, i11 = d / det, -b / det, -c / det, a / det
    # diff @ inv @ diff per point, rounded as einsum("ni,ij,nj->n") rounds
    # it: four products (d_i * inv_ij) * d_j, added in (i, j) order, except
    # that for up to two points einsum sums each i's pair and then the sums
    maha = dx * i00
    maha *= dx
    if len(points) <= 2:
        maha += dx * i01 * dy
        maha += dy * i10 * dx + dy * i11 * dy
    else:
        term = np.empty_like(maha)
        for di, inv_ij, dj in ((dx, i01, dy), (dy, i10, dx), (dy, i11, dy)):
            np.multiply(di, inv_ij, out=term)
            term *= dj
            maha += term
    maha += np.log(det)
    maha *= -0.5
    maha -= np.log(2.0 * np.pi)
    return maha


def _log_joint(model: GmmModel, points: np.ndarray) -> np.ndarray:
    """log w_j + log N(x | mean_j, cov_j) as (K, n) rows, one per component."""
    return np.log(model.weights)[:, None] + _log_gauss(points, model.means,
                                                       model.covariances)


def _component_sum(rows: np.ndarray) -> np.ndarray:
    """Sum of the (K, n) component rows per point, bit-identical to the
    point-major (n, K) sum along axis 1: numpy adds fewer than 8 values in
    sequence, as the row-by-row sum does; from 8 on it is that sum."""
    return rows.sum(axis=0) if len(rows) < 8 else np.ascontiguousarray(rows.T).sum(axis=1)


def _logsumexp(log_p: np.ndarray) -> np.ndarray:
    """log of the summed exp over the components of (K, n) rows, per point."""
    m = log_p.max(axis=0)
    return m + np.log(_component_sum(np.exp(log_p - m)))


def _posterior(log_p: np.ndarray, log_norm: np.ndarray) -> np.ndarray:
    """Component probabilities from (K, n) rows, as a C-order (n, K) array."""
    return np.ascontiguousarray(np.exp(log_p - log_norm).T)


def gmm_fit(points, cfg: PhaseConfig, seed: int = 0) -> GmmModel:
    """Fit a K-component mixture by EM with k-means++ initialization.

    Deterministic for a given seed; stops when the mean log-likelihood
    improves by less than 1e-6 or after 200 iterations. A 1e-6 * I floor
    is added to every covariance each M-step.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    k = cfg.k_components
    n = len(points)
    if n < k:
        raise InvalidArgumentError(f"need at least {k} points, got {n}")
    rng = np.random.default_rng(seed)

    means = _kmeanspp_init(points, k, rng)
    var = points.var(axis=0).sum() / 2.0
    if var <= 0.0:
        var = COV_FLOOR
    covs = np.tile(np.eye(2) * var + np.eye(2) * COV_FLOOR, (k, 1, 1))
    weights = np.full(k, 1.0 / k)
    model = GmmModel(weights, means, covs)

    history: list[float] = []
    for _ in range(EM_MAX_ITERS):
        log_p = _log_joint(model, points)
        log_norm = _logsumexp(log_p)
        ll = float(log_norm.mean())
        resp = _posterior(log_p, log_norm)

        nk = resp.sum(axis=0)
        nk = np.maximum(nk, 1e-12)
        weights = nk / n
        means = (resp.T @ points) / nk[:, None]
        covs = np.empty((k, 2, 2))
        for j in range(k):
            diff = points - means[j]
            covs[j] = (resp[:, j, None] * diff).T @ diff / nk[j]
            covs[j] += np.eye(2) * COV_FLOOR
        model = GmmModel(weights, means, covs)

        if history and ll - history[-1] < EM_TOL:
            history.append(ll)
            break
        history.append(ll)

    return GmmModel(model.weights, model.means, model.covariances,
                    tuple(history))


def gmm_pdf(model: GmmModel, point) -> float | np.ndarray:
    """Mixture density at a point (or an (N, 2) batch of points)."""
    pts = np.asarray(point, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    dens = np.exp(_logsumexp(_log_joint(model, pts)))
    return float(dens[0]) if single else dens


def classify(ep: Episode, model: GmmModel, cfg: PhaseConfig) -> PhaseTrack:
    """Label each frame by mixture density at its planar head position.

    Density >= tau_pdf means the frame sits inside a manipulation zone
    (label 0); below threshold it is navigation (label 1). Classification
    is purely spatial, exactly as the candidate-driven fit defines it: a
    pause near a zone without manipulation will still be labeled 0.
    """
    dens = gmm_pdf(model, ep.head_pos[:, :2])
    labels = np.where(dens >= cfg.tau_pdf, MANIPULATION, NAVIGATION)
    return PhaseTrack(labels.astype(np.int64))


def segment(ep: Episode, cfg: Optional[PhaseConfig] = None,
            seed: int = 0) -> tuple[PhaseTrack, GmmModel]:
    """Run the full phase-identification pipeline on one episode.

    Every step runs with NumPy's overflow and invalid-value warnings off.
    A speed that overflows (a step near the float range, or a sub-normal
    time step) is inf, and a ratio of two such speeds NaN, which makes no
    frame a candidate; a mixture fit that overflows raises
    :class:`InvalidArgumentError`. No candidate frames raise
    :class:`NoManipulationZonesError`.
    """
    cfg = cfg or PhaseConfig()
    with np.errstate(over="ignore", invalid="ignore"):
        v_head, v_hand = velocities(ep)
        mask = candidate_mask(v_head, v_hand, cfg)
        if not mask.any():
            raise NoManipulationZonesError(
                "no manipulation candidate frames after duration filtering")
        model = gmm_fit(ep.head_pos[mask, :2], cfg, seed=seed)
        if not all(np.isfinite(a).all() for a in (model.weights, model.means,
                                                  model.covariances)):
            raise InvalidArgumentError("the mixture fit of the candidate head "
                                       "positions overflowed: its parameters "
                                       "are not finite")
        return classify(ep, model, cfg), model


def write_phase_file(path, track: PhaseTrack, model: Optional[GmmModel],
                     cfg: PhaseConfig, seed: int) -> None:
    """One JSON record per episode: labels, GMM parameters, config echo, seed."""
    obj = {
        "labels": track.labels.tolist(),
        "gmm": None if model is None else {
            "weights": model.weights.tolist(),
            "means": model.means.tolist(),
            "covariances": model.covariances.tolist(),
        },
        "config": asdict(cfg),
        "seed": seed,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=1) + "\n")


def _gmm_field(g: dict, name: str, shape: Optional[tuple]) -> int:
    """Check that ``g[name]`` is an array of finite numbers of ``shape``; its length.

    A ``shape`` of None asks for (K,) with K >= 1.
    """
    try:
        arr = np.asarray(g.get(name), dtype=object)
    except ValueError:  # nested lists of unequal lengths
        arr = None
    if shape is None and arr is not None and arr.ndim == 1 and len(arr):
        shape = arr.shape
    if arr is None or arr.shape != shape or not all(map(finite_number, arr.flat)):
        want = "(K,), K >= 1" if shape is None else str(shape)
        raise ValueError(f"'gmm.{name}' must be a {want} array of finite numbers")
    return len(arr)


def _phase_config(raw) -> PhaseConfig:
    """``raw`` as a PhaseConfig.

    ``raw`` must hold exactly PhaseConfig's fields, each a finite number
    of its field's type: a file records every field, so a missing one is
    not taken to be its default.
    """
    if not isinstance(raw, dict):
        raise ValueError("'config' must be a JSON object")
    types = {f.name: f.type for f in fields(PhaseConfig)}
    wrong = [f"{'missing' if name in types else 'unknown'} key 'config.{name}'"
             for name in sorted(raw.keys() ^ types.keys())]
    if wrong:
        raise ValueError(", ".join(wrong))
    for name, value in raw.items():
        if not (finite_number(value) and (types[name] == "float" or type(value) is int)):
            raise ValueError(f"'config.{name}' must be a finite {types[name]}, got {value!r}")
    return PhaseConfig(**raw)


def read_phase_file(path) -> tuple[PhaseTrack, PhaseConfig, int]:
    """The labels, config echo and seed of a phase file.

    Its ``gmm`` is checked but not read. A missing or malformed field, or
    bytes that are not UTF-8, raise :class:`InvalidArgumentError`.
    """
    with open(path) as fh:
        try:
            obj = json.load(fh, object_pairs_hook=unique_keys)
        # a decode error, a repeated key, bytes that are not UTF-8, nesting too deep
        except (ValueError, RecursionError) as exc:
            raise InvalidArgumentError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise InvalidArgumentError(f"{path}: a phase file must hold a JSON object")
    try:
        labels = obj["labels"]
        if not (isinstance(labels, list) and labels and set(map(type, labels)) <= {int}
                and set(labels) <= {MANIPULATION, NAVIGATION}):
            raise ValueError("'labels' must be a non-empty list of 0 (manipulation) "
                             "and 1 (navigation)")
        track = PhaseTrack(np.asarray(labels, dtype=np.int64))
        if obj.get("gmm") is not None:
            g = obj["gmm"]
            if not isinstance(g, dict):
                raise ValueError("'gmm' must be a JSON object or null")
            k = _gmm_field(g, "weights", None)
            _gmm_field(g, "means", (k, 2))
            _gmm_field(g, "covariances", (k, 2, 2))
        seed = obj["seed"]
        if type(seed) is not int or seed < 0:  # not a bool either
            raise ValueError(f"'seed' must be an integer >= 0, got {seed!r}")
        return track, _phase_config(obj["config"]), seed
    except KeyError as exc:
        raise InvalidArgumentError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"{path}: {exc}") from None
