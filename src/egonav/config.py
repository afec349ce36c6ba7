"""Pipeline configuration: defaults and the dotted key-value file format.

A config file is plain text, one ``section.key = value`` pair per line
('#' comments allowed). An empty file, or none, reproduces the published
defaults for every stage. Unknown keys are rejected.

    ingest.d_thresh = 0.25
    retarget.lambda_pos = 32.0
    phase.tau_ratio = 2.0
    seed = 7
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .chunks import TARGET_LEN
from .errors import ConfigError, InvalidArgumentError
from .retarget import RetargetConfig
from .segmentation import PhaseConfig


@dataclass(frozen=True)
class IngestConfig:
    d_thresh: float = 0.25   # m, waypoint displacement trigger
    k_h: int = 10            # max waypoint history
    forward_axis: str = "+x"
    fps: float = 30.0

    def __post_init__(self):
        if not self.d_thresh > 0:
            raise InvalidArgumentError("d_thresh must be > 0")
        if self.k_h < 1:
            raise InvalidArgumentError("k_h must be >= 1")


@dataclass(frozen=True)
class ChunkConfig:
    horizon: int = 10
    nav_step: int = 8        # frames between navigation samples
    manip_step: int = 4      # frames between manipulation samples
    target_len: int = TARGET_LEN  # unified interpolated chunk length

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
    seed: int = 0

    def with_seed(self, seed: int) -> "PipelineConfig":
        return replace(self, seed=seed,
                       retarget=replace(self.retarget, seed=seed))


_SECTIONS = {
    "ingest": IngestConfig,
    "phase": PhaseConfig,
    "retarget": RetargetConfig,
    "chunk": ChunkConfig,
}


def _coerce(raw: str, typ, key: str):
    try:
        if typ is float:
            return float(raw)
        if typ is int:
            return int(raw)
        if typ is str:
            return raw
    except ValueError:
        raise ConfigError(f"invalid value {raw!r} for key {key!r}") from None
    raise ConfigError(f"unsupported type for key {key!r}")


def parse_config(text: str) -> PipelineConfig:
    """Parse config text; unknown keys or malformed lines raise ConfigError."""
    values: dict[str, dict[str, object]] = {name: {} for name in _SECTIONS}
    seed = 0
    seed_set = False
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key == "seed":
            seed = _coerce(raw, int, key)
            seed_set = True
            continue
        if "." not in key:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        section, name = key.split(".", 1)
        cls = _SECTIONS.get(section)
        if cls is None:
            raise ConfigError(f"line {line_no}: unknown section {section!r}")
        typ = {f.name: f.type for f in fields(cls)}.get(name)
        if typ is None:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        typ = {"float": float, "int": int, "str": str}.get(typ, typ)
        values[section][name] = _coerce(raw, typ, key)

    sections = {}
    for section, cls in _SECTIONS.items():
        try:
            sections[section] = cls(**values[section])
        except ValueError as exc:
            # every section check names its key first: "window must be >= 1"
            raise ConfigError(f"{section}.{exc}") from None
    cfg = PipelineConfig(**sections, seed=seed)
    return cfg.with_seed(seed) if seed_set else cfg


def load_config(path=None) -> PipelineConfig:
    """Load a config file; None or an empty file yields pure defaults.

    A path that does not exist raises :class:`ConfigError` (exit 2).
    """
    if path is None:
        return PipelineConfig()
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None


def effective_parameters(cfg: PipelineConfig) -> dict[str, object]:
    """Flat dotted-key view of every effective parameter, for report echo."""
    out: dict[str, object] = {}
    for section, sub in (("ingest", cfg.ingest), ("phase", cfg.phase),
                         ("retarget", cfg.retarget), ("chunk", cfg.chunk)):
        for f in fields(sub):
            out[f"{section}.{f.name}"] = getattr(sub, f.name)
    out["seed"] = cfg.seed
    return out
