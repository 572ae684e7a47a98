"""The hot-function case study (paper Sections V-C and VI-C).

The paper asks: can the resiliency of the full VS application be
estimated from a standalone benchmark of its hottest function?  It
builds **WP**, a toy application that feeds an image and a transform
matrix into ``WarpPerspective`` and returns the transformed image, then
compares:

* error injections into the warp functions *inside* the running VS
  application, observed at the VS output, against
* error injections into standalone WP, observed at WP's output.

The answer is no: the compositional effect of the downstream pipeline
masks many corruptions that are SDCs for standalone WP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.faultinject.campaign import CampaignConfig, CampaignResult, run_campaign
from repro.faultinject.outcomes import OutcomeCounts
from repro.faultinject.parallel import VSWorkloadSpec, WorkerState
from repro.faultinject.registers import RegKind
from repro.imaging.geometry import rotation, translation
from repro.imaging.warp import warp_perspective
from repro.runtime.context import ExecutionContext
from repro.summarize.config import VSConfig
from repro.summarize.golden import golden_with_tape
from repro.summarize.pipeline import run_vs
from repro.video.frames import FrameStream

#: Site prefix identifying the hot warp functions for injection filtering.
WARP_SITE_PREFIX = "imaging.warp"


def wp_transform(frame_shape: tuple[int, int]) -> np.ndarray:
    """A representative perspective transform for the WP toy benchmark."""
    frame_h, frame_w = frame_shape
    mat = translation(frame_w * 0.3, frame_h * 0.2) @ rotation(
        0.12, center=(frame_w / 2.0, frame_h / 2.0)
    )
    # A mild projective component, as chained UAV homographies have.
    mat[2, 0] = 4e-4
    mat[2, 1] = -3e-4
    return mat


def make_wp_workload(image: np.ndarray, transform: np.ndarray, out_shape: tuple[int, int]):
    """Build the WP workload: image + matrix in, warped image out."""

    def workload(ctx: ExecutionContext) -> np.ndarray:
        return warp_perspective(image, transform, out_shape, ctx)

    return workload


@dataclass(frozen=True)
class WPWorkloadSpec:
    """Picklable spec rebuilding the standalone WP toy benchmark.

    Mirrors :class:`repro.faultinject.parallel.VSWorkloadSpec` for the
    hot-function study's second half: workers regenerate the input
    stream, take its first frame and the representative transform, and
    recompute the (cheap) WP golden run locally instead of having it
    shipped with every task.
    """

    input_name: str
    n_frames: int
    frame_size: tuple[int, int]  # (w, h), as make_input expects

    @staticmethod
    def for_stream(stream) -> "WPWorkloadSpec | None":
        """Build a spec for ``stream`` if it is a reconstructible input."""
        if stream.name not in ("input1", "input2") or len(stream) == 0:
            return None
        frame_h, frame_w = stream.frame_shape
        return WPWorkloadSpec(stream.name, len(stream), (frame_w, frame_h))

    def build(self) -> WorkerState:
        """Rebuild the WP workload and its golden run (no tape)."""
        from repro.video.synthetic import cached_input

        stream = cached_input(self.input_name, n_frames=self.n_frames, frame_size=self.frame_size)
        frame = stream[0].copy()
        transform = wp_transform(stream.frame_shape)
        frame_h, frame_w = stream.frame_shape
        workload = make_wp_workload(frame, transform, (frame_h * 2, frame_w * 2))
        ctx = ExecutionContext()
        golden = workload(ctx)
        return WorkerState(workload, golden, ctx.cycles)


@dataclass
class HotFunctionStudy:
    """Fig. 11b: outcome rates for warp-targeted injections, VS vs WP."""

    vs_counts: OutcomeCounts  # VS application, injections filtered to warp sites
    wp_counts: OutcomeCounts  # standalone WP application
    vs_campaign: CampaignResult
    wp_campaign: CampaignResult

    def masking_gain(self) -> float:
        """How much more the full workflow masks than standalone WP."""
        from repro.faultinject.outcomes import Outcome

        return self.vs_counts.rate(Outcome.MASKED) - self.wp_counts.rate(Outcome.MASKED)


def run_hot_function_study(
    stream: FrameStream,
    config: VSConfig,
    n_injections: int,
    seed: int = 100,
    workers: int | None = None,
) -> HotFunctionStudy:
    """Run both halves of the Fig. 11b comparison (GPR injections)."""
    golden = golden_with_tape(stream, config)

    def vs_workload(ctx: ExecutionContext) -> np.ndarray:
        return run_vs(stream, config, ctx).panorama

    vs_campaign = run_campaign(
        vs_workload,
        golden.output,
        golden.total_cycles,
        CampaignConfig(
            n_injections=n_injections,
            kind=RegKind.GPR,
            seed=seed,
            site_filter=WARP_SITE_PREFIX,
            keep_sdc_outputs=False,
            workers=workers,
        ),
        spec=VSWorkloadSpec.for_stream(stream, config),
    )

    frame = stream[0].copy()
    transform = wp_transform(stream.frame_shape)
    frame_h, frame_w = stream.frame_shape
    out_shape = (frame_h * 2, frame_w * 2)
    wp_workload = make_wp_workload(frame, transform, out_shape)

    wp_ctx = ExecutionContext()
    wp_golden = wp_workload(wp_ctx)
    wp_campaign = run_campaign(
        wp_workload,
        wp_golden,
        wp_ctx.cycles,
        CampaignConfig(
            n_injections=n_injections,
            kind=RegKind.GPR,
            seed=seed + 1,
            site_filter=WARP_SITE_PREFIX,
            keep_sdc_outputs=False,
            workers=workers,
        ),
        spec=WPWorkloadSpec.for_stream(stream),
    )

    return HotFunctionStudy(
        vs_counts=vs_campaign.fired_counts(),
        wp_counts=wp_campaign.fired_counts(),
        vs_campaign=vs_campaign,
        wp_campaign=wp_campaign,
    )
