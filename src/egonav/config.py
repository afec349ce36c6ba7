"""Pipeline configuration: defaults and the dotted key-value file format.

A config file is plain text, one ``section.key = value`` pair per line
('#' comments allowed). An empty file, or none, reproduces the published
defaults for every stage. Unknown keys, and a key given twice, are rejected.

    ingest.d_thresh = 0.25
    retarget.lambda_pos = 32.0
    phase.tau_ratio = 2.0
    seed = 7
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields

from .errors import InvalidArgumentError
from .geometry import FORWARD_AXES
from .ingest import DEFAULT_D_THRESH
from .retarget import RetargetConfig
from .segmentation import PhaseConfig


@dataclass(frozen=True)
class IngestConfig:
    d_thresh: float = DEFAULT_D_THRESH  # m, waypoint displacement trigger
    k_h: int = 10            # max waypoint history
    forward_axis: str = "+x"
    fps: float = 30.0

    def __post_init__(self):
        if not self.d_thresh > 0:
            raise InvalidArgumentError("d_thresh must be > 0")
        if self.k_h < 1:
            raise InvalidArgumentError("k_h must be >= 1")
        if self.forward_axis not in FORWARD_AXES:
            raise InvalidArgumentError(
                f"forward_axis must be one of {', '.join(FORWARD_AXES)}")
        if not self.fps > 0:
            raise InvalidArgumentError("fps must be > 0")


@dataclass(frozen=True)
class ChunkConfig:
    horizon: int = 10
    nav_step: int = 8        # frames between navigation samples
    manip_step: int = 4      # frames between manipulation samples
    target_len: int = 100    # unified interpolated chunk length

    def __post_init__(self):
        for name, low in (("horizon", 2), ("nav_step", 1), ("manip_step", 1),
                          ("target_len", self.horizon)):
            if getattr(self, name) < low:
                raise InvalidArgumentError(f"{name} must be >= {low}")


@dataclass(frozen=True)
class PipelineConfig:
    ingest: IngestConfig = field(default_factory=IngestConfig)
    phase: PhaseConfig = field(default_factory=PhaseConfig)
    retarget: RetargetConfig = field(default_factory=RetargetConfig)
    chunk: ChunkConfig = field(default_factory=ChunkConfig)
    seed: int = 0  # the one seed: it seeds segmentation's EM initialization

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidArgumentError("seed must be >= 0")


# every section's class, in field order, and every "section.name" key of them
_SECTIONS = {f.name: f.default_factory for f in fields(PipelineConfig)
             if f.default_factory is not MISSING}
_KEYS = {f"{section}.{f.name}": (section, f.name,
                                 {"float": float, "int": int, "str": str}[f.type])
         for section, cls in _SECTIONS.items() for f in fields(cls)}


def _coerce(raw: str, typ, key: str):
    """``raw`` as a float, int or str; a float must be finite."""
    try:
        value = typ(raw)
        if typ is not float or math.isfinite(value):
            return value
    except ValueError:
        pass
    raise InvalidArgumentError(f"invalid value {raw!r} for key {key!r}")


def parse_config(text: str) -> PipelineConfig:
    """Parse config text; an unknown, repeated or malformed line, or a value
    a section rejects, raises :class:`InvalidArgumentError`."""
    values: dict[str, dict[str, object]] = {name: {} for name in _SECTIONS}
    seed = 0
    seen: dict[str, int] = {}  # key -> the line that gave it
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidArgumentError(f"line {line_no}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise InvalidArgumentError(f"line {line_no}: key {key!r} given twice, "
                                       f"on lines {seen[key]} and {line_no}")
        seen[key] = line_no
        if key == "seed":
            seed = _coerce(raw, int, key)
            continue
        if key not in _KEYS:
            raise InvalidArgumentError(f"line {line_no}: unknown key {key!r}")
        section, name, typ = _KEYS[key]
        values[section][name] = _coerce(raw, typ, key)

    sections = {}
    for section, cls in _SECTIONS.items():
        try:
            sections[section] = cls(**values[section])
        except ValueError as exc:
            # every section check names its key first: "window must be >= 1"
            raise InvalidArgumentError(f"{section}.{exc}") from None
    return PipelineConfig(**sections, seed=seed)


def load_config(path=None) -> PipelineConfig:
    """Load a config file; None or an empty file yields pure defaults.

    Bytes that are not UTF-8, or text :func:`parse_config` rejects, raise
    :class:`InvalidArgumentError` naming the file; a file that cannot be
    opened raises ``open``'s ``OSError``, which names it too (both exit 2).
    """
    if path is None:
        return PipelineConfig()
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except ValueError as exc:  # InvalidArgumentError or UnicodeDecodeError
        raise InvalidArgumentError(f"{path}: {exc}") from None


def effective_parameters(cfg: PipelineConfig) -> dict[str, object]:
    """Flat dotted-key view of every effective parameter, for report echo."""
    out = {key: getattr(getattr(cfg, section), name)
           for key, (section, name, _) in _KEYS.items()}
    out["seed"] = cfg.seed
    return out
