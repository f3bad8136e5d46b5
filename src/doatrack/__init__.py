"""Identity-assignment evaluation toolkit for sound-source tracking.

Simulates acoustic scenes with intermittent, position-jumping speakers
at the track level, runs baseline trackers over noisy
direction-of-arrival observations, and computes frame-level (TSR, TFR,
IDSW, MOTA, OSPA, localization error) and global association metrics
(AssA, AssPr, AssRe) under angular-distance matching.
"""

from .assoc_metrics import (
    AssociationCounts,
    AssociationScores,
    ass_a,
    ass_pr,
    ass_re,
    association_scores,
    count_associations,
)
from .errors import (
    DoatrackError,
    DuplicateEntry,
    FeasibilityExhausted,
    GridMismatch,
    InsufficientData,
    InvalidConfig,
    InvalidK,
    MissingTags,
    ParseError,
    UndefinedOnEmptyGroundTruth,
    UndefinedOnEmptyTP,
)
from .frame_metrics import (
    FrameMetricsReport,
    count_broken,
    count_swaps,
    frame_metrics_report,
    mean_localization_error,
    mota,
    ospa_frame,
    ospa_sequence,
    tfr,
    tsr,
)
from .geometry import (
    Direction,
    angular_distance,
    move_along_great_circle,
    perturb_direction,
    sample_direction,
    sample_separated_set,
)
from .matching import FrameAssignment, MatchSequence, match_frame, match_sequence
from .reporting import (
    MetricsReport,
    aggregate_reports,
    bootstrap_aggregate,
    evaluate_scene,
)
from .scenesim import (
    ObservationModel,
    ScenarioConfig,
    generate_scene,
    simulate_observations,
)
from .trackers import (
    TrackerConfig,
    merger_tracker,
    oracle_tracker,
    pf_tracker,
    splitter_tracker,
    swapper_tracker,
)
from .trackmodel import (
    FrameGrid,
    ObservationSet,
    TrackSet,
    read_manifest,
    read_observations,
    read_trackset,
    write_manifest,
    write_observations,
    write_trackset,
)

__version__ = "0.1.0"
