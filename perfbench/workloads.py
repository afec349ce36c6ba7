"""Workload definitions and the seeded input generator.

Each workload is a set of synthetic recordings plus the config text that
egonav is run with. The generator writes the recordings (and the ground
truth phase labels used to score segmentation) as files; egonav itself
only ever sees those files.

Layout of a workload directory, for recordings ``rec0 .. recN-1``::

    in/rec<i>.jsonl          the recording (distinct stems, so a
                             multi-recording CLI call writes distinct outputs)
    rec<i>/recording.jsonl   symlink to in/rec<i>.jsonl
    rec<i>/truth.json        ground-truth phase labels
    rec<i>/phases.json       } symlinks into out/ when the workload batches
    rec<i>/commands.txt      } several recordings in one CLI call
    cfg.txt                  the workload's config file
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from egonav import ingest, segmentation
from egonav.config import parse_config
from egonav.simulator import SynthSegment, SynthSpec, synthesize


@dataclass(frozen=True)
class Workload:
    name: str
    specs: tuple[SynthSpec, ...]
    config_text: str
    kind: str  # "walk": CLI pipeline; "chunks": in-process dataset build


def _two_zone(seed: int, scale: float) -> SynthSpec:
    """The two-zone walk of the acceptance tests: 1 m/s, 30 fps, 1830 frames."""
    s = scale
    return SynthSpec(segments=(
        SynthSegment("pause-and-manipulate", 14.0 * s),
        SynthSegment("straight", 6.0 * s, speed=1.0),
        SynthSegment("arc", 3.0 * s, speed=1.0, turn_rate=0.7),
        SynthSegment("straight", 6.0 * s, speed=1.0),
        SynthSegment("pause-and-manipulate", 14.0 * s),
        SynthSegment("straight", 6.0 * s, speed=1.0),
        SynthSegment("arc", 3.0 * s, speed=1.0, turn_rate=-0.7),
        SynthSegment("straight", 9.0 * s, speed=1.0),
    ), fps=30.0, noise_std=0.002, seed=seed)


def _feasible(seed: int, scale: float) -> SynthSpec:
    """The CLI end-to-end walk: 50 fps, 900 frames."""
    s = scale
    return SynthSpec(segments=(
        SynthSegment("pause-and-manipulate", 4.0 * s),
        SynthSegment("straight", 2.5 * s, speed=1.0),
        SynthSegment("arc", 2.0 * s, speed=1.0, turn_rate=0.8),
        SynthSegment("straight", 2.5 * s, speed=1.0),
        SynthSegment("pause-and-manipulate", 4.0 * s),
        SynthSegment("straight", 3.0 * s, speed=1.0),
    ), fps=50.0, noise_std=0.002, seed=seed)


def _six_stops(seed: int, scale: float) -> SynthSpec:
    """Six 40 s stops, each followed by a 2 s straight and a 2 s arc; 60 fps."""
    segs = []
    for _ in range(6):
        segs += [SynthSegment("pause-and-manipulate", 40.0 * scale),
                 SynthSegment("straight", 2.0, speed=1.0),
                 SynthSegment("arc", 2.0, speed=1.0, turn_rate=1.2)]
    return SynthSpec(tuple(segs), fps=60.0, noise_std=0.002, seed=seed)


# waypoint spacing 0.13 m at dt = 0.16 s asks for ~0.8 m/s, inside v_max
FEASIBLE_CFG = "ingest.d_thresh = 0.13\ningest.fps = 50.0\n"
CHUNK_CFG = "ingest.fps = 60.0\nphase.k_components = 6\n"
BATCH = 4

NAMES = ("walk_saturated", "walk_feasible_batch", "chunk_dataset")


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """The workload ``name`` for ``seed``; ``scale`` shrinks durations for tests."""
    if name == "walk_saturated":
        return Workload(name, (_two_zone(seed, scale),), "", "walk")
    if name == "walk_feasible_batch":
        specs = tuple(_feasible(seed * BATCH + i, scale) for i in range(BATCH))
        return Workload(name, specs, FEASIBLE_CFG, "walk")
    if name == "chunk_dataset":
        return Workload(name, (_six_stops(seed, scale),), CHUNK_CFG, "chunks")
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


@dataclass(frozen=True)
class Inputs:
    root: Path
    recordings: tuple[Path, ...]   # in/rec<i>.jsonl
    art_dirs: tuple[Path, ...]     # rec<i>/
    truths: tuple[object, ...]     # PhaseTrack per recording
    frames: tuple[int, ...]
    config_path: Path
    synthesize_s: float


def generate(wl: Workload, root: Path) -> Inputs:
    """Write the workload's recordings under ``root`` (emptied first)."""
    if root.exists():
        shutil.rmtree(root)
    (root / "in").mkdir(parents=True)
    cfg_path = root / "cfg.txt"
    cfg_path.write_text(wl.config_text)
    phase_cfg = parse_config(wl.config_text).phase
    batched = len(wl.specs) > 1
    recs, arts, truths, frames = [], [], [], []
    synth_s = 0.0
    for i, spec in enumerate(wl.specs):
        t0 = time.perf_counter()
        ep, truth = synthesize(spec)
        synth_s += time.perf_counter() - t0
        rec = root / "in" / f"rec{i}.jsonl"
        with open(rec, "w") as fh:
            ingest.serialize_recording(ep, fh)
        art = root / f"rec{i}"
        art.mkdir()
        os.symlink(Path("..") / "in" / rec.name, art / "recording.jsonl")
        segmentation.write_phase_file(art / "truth.json", truth, None,
                                      phase_cfg, spec.seed)
        if batched:
            os.symlink(Path("..") / "out" / f"rec{i}.phases.json",
                       art / "phases.json")
            os.symlink(Path("..") / "out" / f"rec{i}.commands.txt",
                       art / "commands.txt")
        recs.append(rec)
        arts.append(art)
        truths.append(truth)
        frames.append(len(ep.frames))
    return Inputs(root, tuple(recs), tuple(arts), tuple(truths),
                  tuple(frames), cfg_path, synth_s)
