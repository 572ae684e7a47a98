"""The end-to-end VS application (coverage summarization).

Consumes a frame stream and produces the summarized output: every frame
is aligned to the anchor frame of its segment and composited into a
mini-panorama; the run's output image stacks the mini-panoramas (paper
Section III: segments are summarized by mini-panoramas that a later
stage combines into the global panorama).

This is the application under test in every experiment: the performance
model, the execution profile and the fault-injection campaigns all run
through :func:`run_vs`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.forensics import probes
from repro.perfmodel.cost import kernel_cost
from repro.runtime.context import Cell, ExecutionContext
from repro.runtime.errors import InsufficientMatchesError, SegmentationFault
from repro.summarize.config import VSConfig
from repro.summarize.stitcher import MiniPanorama, PairwiseTransform, estimate_pairwise
from repro.video.frames import FrameStream, drop_frames_randomly
from repro.vision.orb import FeatureSet, orb_features


@dataclass
class FrameOutcome:
    """What happened to one input frame."""

    index: int  # index within the (post-RFD) processed stream
    status: str  # "anchor" | "stitched" | "discarded" | "dropped"
    model_type: str | None = None  # "homography" | "affine" for stitched frames
    num_matches: int = 0
    num_inliers: int = 0
    #: For anchor/stitched frames: the transform mapping this frame's
    #: pixel coordinates into its mini-panorama canvas, and which
    #: mini-panorama it belongs to.  Consumed by the event-summarization
    #: stage to project detections into panorama space.
    chain: np.ndarray | None = None
    mini_index: int = -1


@dataclass
class VSResult:
    """Everything a VS run produces."""

    config: VSConfig
    panorama: np.ndarray  # stacked mini-panorama canvases (the output image)
    minis: list[MiniPanorama] = field(default_factory=list)
    outcomes: list[FrameOutcome] = field(default_factory=list)
    cycles: int = 0
    #: ``ctx.cycles`` when the frame loop's bound test failed: where a
    #: run whose loop bound was raised past the frame table overruns it.
    loop_exit_cycles: int = 0

    @property
    def frames_stitched(self) -> int:
        """Frames composited into a panorama (anchors included)."""
        return sum(1 for o in self.outcomes if o.status in ("anchor", "stitched"))

    @property
    def frames_discarded(self) -> int:
        """Frames discarded for lack of matching key points."""
        return sum(1 for o in self.outcomes if o.status == "discarded")

    @property
    def num_minis(self) -> int:
        """Number of mini-panoramas generated."""
        return len(self.minis)


#: The loop's restore points, named by the step the loop runs next:
#: the top of an iteration (acquire the frame, extract its features),
#: matching against the previous frame (or anchoring a segment), and
#: compositing a frame whose chained transform is validated.
FRAME, MATCH, WARP = "frame", "match", "warp"


@dataclass
class PipelineState:
    """The complete mutable state of the VS frame loop at a restore point.

    This is the unit of restoration for golden-prefix fast-forward
    (:mod:`repro.faultinject.fastforward`).  Every iteration passes up
    to three restore points, named by ``phase``: its top (``FRAME``),
    after the frame's features are extracted (``MATCH``), and, for a
    frame that stitches, after its chain is validated (``WARP``).  Each
    lies between two top-level kernel calls, so every kernel-local
    object is dead there, and what the loop body still holds lives
    here: the in-flight fields below, which are None at ``FRAME``.  A
    run can be re-entered at any restore point from a snapshot of this
    state and the RANSAC RNG.  The invariant ``current is minis[-1]``
    (or ``None`` while ``minis`` is empty) holds at every point, so
    ``current`` is not stored separately by snapshots.
    """

    minis: list[MiniPanorama] = field(default_factory=list)
    outcomes: list[FrameOutcome] = field(default_factory=list)
    current: MiniPanorama | None = None
    prev_features: FeatureSet | None = None
    prev_chain: np.ndarray | None = None
    failures: Cell = field(default_factory=lambda: Cell(0))
    index: Cell = field(default_factory=lambda: Cell(0))
    total: Cell = field(default_factory=lambda: Cell(0))
    phase: str = FRAME
    #: The in-flight frame's table position and working copy.
    position: int = 0
    frame: np.ndarray | None = None
    #: The in-flight frame's features.
    features: FeatureSet | None = None
    #: ``WARP`` only: the validated chain and the pairwise estimate.
    chained: np.ndarray | None = None
    pairwise: PairwiseTransform | None = None

    def next_frame(self) -> None:
        """Close the in-flight iteration: the loop is back at ``FRAME``."""
        self.phase = FRAME
        self.frame = self.features = self.chained = self.pairwise = None


def _ransac_seed(config: VSConfig, stream_name: str) -> int:
    """Deterministic RANSAC seed per (algorithm, input)."""
    return zlib.crc32(f"{config.name}:{stream_name}:{config.approx_seed}".encode())


def materialize_frames(
    stream: FrameStream, config: VSConfig
) -> tuple[list[np.ndarray], tuple[int, int] | None]:
    """The frame table the loop runs over (random frame drop applied).

    Deterministic per ``(stream, config)``; the returned frames are
    treated as read-only by the pipeline (each iteration works on a
    copy), which is what lets fast-forward share one materialized table
    across many resumed runs.
    """
    if config.drop_fraction > 0.0:
        drop_rng = np.random.default_rng(config.approx_seed)
        stream = drop_frames_randomly(stream, config.drop_fraction, drop_rng)
    frames = list(stream)
    if not frames:
        return [], None
    return frames, frames[0].shape


def run_vs(stream: FrameStream, config: VSConfig, ctx: ExecutionContext) -> VSResult:
    """Run the VS application over ``stream`` under ``config``.

    Deterministic: the same stream and config always produce the same
    output on a clean context.
    """
    with telemetry.span("summarize.run_vs", ctx=ctx):
        return _run_vs(stream, config, ctx)


def run_vs_resumed(
    config: VSConfig,
    ctx: ExecutionContext,
    state: PipelineState,
    rng: np.random.Generator,
    frames: list[np.ndarray],
    frame_shape: tuple[int, int],
) -> VSResult:
    """Re-enter the VS frame loop from a restored mid-run state.

    Fast-forward entry point: ``ctx`` must already be pre-charged with
    the skipped prefix's cycles (see ``ExecutionContext.preload``) and
    ``rng``/``state`` must come from a restore-point snapshot; the loop
    re-enters its iteration at ``state.phase``.  The suffix then
    executes exactly as it would have in a full run.
    """
    with telemetry.span("summarize.run_vs", ctx=ctx):
        return _run_loop(frames, frame_shape, config, ctx, rng, state)


def _run_vs(stream: FrameStream, config: VSConfig, ctx: ExecutionContext) -> VSResult:
    rng = np.random.default_rng(_ransac_seed(config, stream.name))
    frames, frame_shape = materialize_frames(stream, config)
    if not frames:
        return VSResult(config=config, panorama=np.zeros((1, 1), dtype=np.uint8))
    state = PipelineState(total=Cell(len(frames)))
    return _run_loop(frames, frame_shape, config, ctx, rng, state)


def _run_loop(
    frames: list[np.ndarray],
    frame_shape: tuple[int, int],
    config: VSConfig,
    ctx: ExecutionContext,
    rng: np.random.Generator,
    state: PipelineState,
) -> VSResult:
    frame_px = frame_shape[0] * frame_shape[1]
    failures, index, total = state.failures, state.index, state.total
    # Snapshot hook: the fast-forward recorder (a pseudo-injector, like
    # the census probe) exposes ``restore_point``; real injectors do
    # not, so injected runs take the fast path through ``getattr``.
    # A restored state re-enters its iteration at ``state.phase``.  The
    # loop test runs first even then: the golden run passed it at the
    # top of that iteration, and the restored golden state passes it
    # again.
    hook = getattr(ctx.injector, "restore_point", None)

    while index.value < total.value:
        if state.phase == FRAME:
            if hook is not None:
                hook(ctx, rng, state)
            i = int(index.value)
            if i >= len(frames) or i < -len(frames):
                # A corrupted frame index walks off the frame table.
                raise SegmentationFault(i, "frame table overrun")
            # Negative in-range indices alias earlier frames (wrong data,
            # no trap).  The working copy is the in-memory frame buffer;
            # pointer corruption mutates it and the corruption flows
            # downstream.
            frame = frames[i].copy()

            with ctx.scope("summarize.pipeline.frame"):
                ctx.tick(kernel_cost("frame.acquire_px") * frame_px)
                ctx.tick(kernel_cost("pipeline.frame_overhead"))

            window = ctx.window("summarize.pipeline.frame")
            if window is not None:
                from repro.faultinject.registers import Role

                window.gpr_address("frame_ptr", frame)
                window.gpr_cell("frame_idx", index, role=Role.CONTROL)
                window.gpr_cell("frame_total", total, role=Role.CONTROL)
                window.gpr_cell("fail_count", failures, role=Role.DATA)
                if state.current is not None:
                    window.gpr_address("canvas_ptr", state.current.canvas, writes=True)
                    window.gpr_address("coverage_ptr", state.current.coverage, writes=True)
                if state.prev_features is not None and len(state.prev_features):
                    window.gpr_address("prev_desc_ptr", state.prev_features.descriptors)
                    window.gpr_address("prev_coords_ptr", state.prev_features.coords)
                ctx.checkpoint(window)

            state.position, state.frame = i, frame
            state.features = orb_features(
                frame,
                ctx,
                n_keypoints=config.n_keypoints,
                fast_threshold=config.fast_threshold,
            )
            state.phase = MATCH

        i, frame, features = state.position, state.frame, state.features
        if state.phase == MATCH:
            if hook is not None:
                hook(ctx, rng, state)
            if state.current is None or state.prev_features is None or state.prev_chain is None:
                state.current, state.prev_chain = _start_segment(
                    frame, frame_shape, config, ctx, state.minis
                )
                state.prev_features = features
                state.outcomes.append(
                    FrameOutcome(
                        index=i,
                        status="anchor",
                        chain=state.prev_chain.copy(),
                        mini_index=len(state.minis) - 1,
                    )
                )
                failures.value = 0
                index.value = int(index.value) + 1
                state.next_frame()
                continue

            try:
                pairwise = estimate_pairwise(
                    features, state.prev_features, config, ctx, rng, frame_shape
                )
                chained = state.prev_chain @ pairwise.transform
                chained = state.current.validate_chain(chained, frame_shape)
            except InsufficientMatchesError:
                failures.value = int(failures.value) + 1
                # Library-internal invariant (the abort crash category):
                # the failure counter must stay within the frame budget.
                if not 0 < failures.value <= len(frames):
                    from repro.runtime.errors import InternalAbortError

                    raise InternalAbortError(
                        f"failure counter corrupted: {failures.value}"
                    )
                state.outcomes.append(FrameOutcome(index=i, status="discarded"))
                if failures.value > config.max_consecutive_failures:
                    # Scene change: anchor a fresh mini-panorama at this frame.
                    state.current, state.prev_chain = _start_segment(
                        frame, frame_shape, config, ctx, state.minis
                    )
                    state.prev_features = features
                    state.outcomes[-1] = FrameOutcome(
                        index=i,
                        status="anchor",
                        chain=state.prev_chain.copy(),
                        mini_index=len(state.minis) - 1,
                    )
                    failures.value = 0
                index.value = int(index.value) + 1
                state.next_frame()
                continue
            state.chained, state.pairwise = chained, pairwise
            state.phase = WARP

        if hook is not None:
            hook(ctx, rng, state)
        chained, pairwise = state.chained, state.pairwise
        with ctx.scope("summarize.pipeline.chain"):
            ctx.tick(kernel_cost("pipeline.anchor_update"))
        state.current.add(frame, chained, ctx)
        state.prev_chain = chained
        state.prev_features = features
        failures.value = 0
        state.outcomes.append(
            FrameOutcome(
                index=i,
                status="stitched",
                model_type=pairwise.model_type,
                num_matches=pairwise.num_matches,
                num_inliers=pairwise.num_inliers,
                chain=chained.copy(),
                mini_index=len(state.minis) - 1,
            )
        )
        index.value = int(index.value) + 1
        state.next_frame()

    loop_exit_cycles = ctx.cycles
    minis, outcomes = state.minis, state.outcomes
    panorama = _stack_minis(minis)
    # Divergence probe: the stitch stage's output is the full stacked
    # panorama — the same image the monitor classifies SDC against.
    probes.record("stitch", panorama)
    return VSResult(
        config=config,
        panorama=panorama,
        minis=minis,
        outcomes=outcomes,
        cycles=ctx.cycles,
        loop_exit_cycles=loop_exit_cycles,
    )


def _start_segment(
    frame: np.ndarray,
    frame_shape: tuple[int, int],
    config: VSConfig,
    ctx: ExecutionContext,
    minis: list[MiniPanorama],
) -> tuple[MiniPanorama, np.ndarray]:
    """Open a new mini-panorama anchored at ``frame``."""
    mini = MiniPanorama(frame_shape, config)
    chain = mini.place_anchor(frame, ctx)
    minis.append(mini)
    return mini, chain


def _stack_minis(minis: list[MiniPanorama]) -> np.ndarray:
    """The run's output image: mini-panorama canvases stacked vertically."""
    if not minis:
        return np.zeros((1, 1), dtype=np.uint8)
    return np.vstack([mini.canvas for mini in minis])
