"""egonav: retarget egocentric walking trajectories to differential-drive commands."""

from .geometry import Pose2, VelocityCommand, wrap
from .ingest import (Episode, WaypointTrack, parse_recording,
                     serialize_recording, filter_confidence, extract_waypoints)
from .segmentation import (PhaseConfig, GmmModel, PhaseTrack, velocities,
                           candidate_mask, gmm_fit, gmm_pdf, classify, segment,
                           MANIPULATION, NAVIGATION)
from .retarget import (RetargetConfig, RetargetProblem, RetargetSolution,
                       cost, solve, retarget_track)
from .chunks import ActionChunk, subsample, upsample, modulate, blend_yaw
from .simulator import (SimResult, SynthSpec, SynthSegment, simulate,
                        synthesize, score_segmentation)
from .config import PipelineConfig, load_config, parse_config

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
