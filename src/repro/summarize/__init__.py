"""The VS application: pipeline, approximations and golden-run management."""

from repro.summarize.approximations import (
    ALGORITHM_FACTORIES,
    baseline_config,
    config_for,
    kds_config,
    rfd_config,
    sm_config,
)
from repro.summarize.config import VSConfig
from repro.summarize.golden import (
    GoldenCacheStats,
    GoldenRun,
    clear_golden_cache,
    golden_cache_stats,
    golden_run,
    golden_with_tape,
)
from repro.summarize.pipeline import FrameOutcome, VSResult, run_vs
from repro.summarize.stitcher import (
    MiniPanorama,
    PairwiseTransform,
    estimate_pairwise,
    match_features,
    matching_subset,
)

__all__ = [
    "VSConfig",
    "baseline_config",
    "rfd_config",
    "kds_config",
    "sm_config",
    "config_for",
    "ALGORITHM_FACTORIES",
    "FrameOutcome",
    "VSResult",
    "run_vs",
    "MiniPanorama",
    "PairwiseTransform",
    "estimate_pairwise",
    "match_features",
    "matching_subset",
    "GoldenRun",
    "golden_run",
    "golden_with_tape",
    "clear_golden_cache",
    "golden_cache_stats",
    "GoldenCacheStats",
]
