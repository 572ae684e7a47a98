"""One entry point per figure of the paper's evaluation.

Every experiment is a function of a :class:`Scale` and a seed, returning
a structured result that the benchmark harness formats into the same
rows/series the paper reports.  The paper ran 1000-frame inputs and
1000-5000 injections per cell on a POWER8 server; this reproduction runs
on one core, so the default scale is reduced.  Set the environment
variable ``REPRO_SCALE`` to ``quick`` (default), ``medium`` or ``paper``
to choose; the scale actually used is recorded in every result.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.analysis.convergence import coverage_uniformity, knee_point
from repro.analysis.hot import HotFunctionStudy, run_hot_function_study
from repro.faultinject.campaign import CampaignConfig, CampaignResult, run_campaign
from repro.faultinject.outcomes import OutcomeCounts
from repro.faultinject.parallel import VSWorkloadSpec
from repro.faultinject.registers import RegKind
from repro.perfmodel.energy import PerfEstimate, estimate_from_profile
from repro.perfmodel.profile import ProfileLine, execution_profile, hot_function_fraction
from repro.quality import EDCurve, SDCQuality, build_curve, compare_outputs
from repro.runtime.context import ExecutionContext
from repro.summarize.approximations import ALGORITHM_FACTORIES, config_for
from repro.summarize.config import VSConfig
from repro.summarize.golden import GoldenRun, golden_run, golden_with_tape
from repro.summarize.pipeline import run_vs
from repro.video.frames import FrameStream
from repro.video.synthetic import cached_input

#: The paper's algorithm order.
ALGORITHMS = list(ALGORITHM_FACTORIES)

#: The paper's two inputs.
INPUTS = ["input1", "input2"]


@dataclass(frozen=True)
class Scale:
    """Experiment sizing (frames per input, injections per campaign)."""

    name: str
    n_frames: int
    frame_size: tuple[int, int]
    injections: int  # per resiliency campaign cell (Figs. 10, 11a)
    sdc_injections: int  # per SDC-quality campaign cell (Fig. 12)
    convergence_injections: int  # for the Fig. 9 trend study
    hot_injections: int  # per half of the Fig. 11b study


TINY = Scale("tiny", 24, (96, 72), 12, 16, 24, 16)
QUICK = Scale("quick", 48, (96, 72), 100, 150, 300, 150)
MEDIUM = Scale("medium", 48, (96, 72), 400, 700, 1200, 500)
PAPER = Scale("paper", 1000, (96, 72), 1000, 5000, 2500, 1000)

#: Every experiment scale by name.
SCALES = {scale.name: scale for scale in (TINY, QUICK, MEDIUM, PAPER)}


def scale_from_env(default: str = "quick") -> Scale:
    """Pick the experiment scale from ``REPRO_SCALE``."""
    name = os.environ.get("REPRO_SCALE", default).lower()
    if name not in SCALES:
        raise ValueError(f"unknown REPRO_SCALE {name!r}; expected one of {sorted(SCALES)}")
    return SCALES[name]


def input_stream(which: str, scale: Scale) -> FrameStream:
    """The (cached) synthetic stand-in for one of the paper's inputs."""
    return cached_input(which, n_frames=scale.n_frames, frame_size=scale.frame_size)


def vs_workload(stream: FrameStream, config: VSConfig):
    """The campaign workload: run VS, return the output image."""

    def workload(ctx: ExecutionContext) -> np.ndarray:
        return run_vs(stream, config, ctx).panorama

    return workload


# ---------------------------------------------------------------------------
# Fig. 5 — IPC / execution time / energy, normalized to baseline VS
# ---------------------------------------------------------------------------


@dataclass
class PerfRow:
    """One bar triple of Fig. 5."""

    input_name: str
    algorithm: str
    estimate: PerfEstimate
    normalized_ipc: float
    normalized_time: float
    normalized_energy: float


@telemetry.traced("experiment.fig05")
def fig05_perf_energy(scale: Scale) -> list[PerfRow]:
    """Reproduce Fig. 5: normalized IPC, time and energy per algorithm."""
    rows: list[PerfRow] = []
    for input_name in INPUTS:
        stream = input_stream(input_name, scale)
        baseline_estimate: PerfEstimate | None = None
        for algorithm in ALGORITHMS:
            config = config_for(algorithm)
            golden = golden_run(stream, config)
            estimate = estimate_from_profile(golden.profile)
            if algorithm == "VS":
                baseline_estimate = estimate
            assert baseline_estimate is not None
            normalized = estimate.normalized_to(baseline_estimate)
            rows.append(
                PerfRow(
                    input_name=input_name,
                    algorithm=algorithm,
                    estimate=estimate,
                    normalized_ipc=normalized["ipc"],
                    normalized_time=normalized["time"],
                    normalized_energy=normalized["energy"],
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Fig. 6 — output panoramas of the baseline and approximations
# ---------------------------------------------------------------------------


@dataclass
class OutputQualityRow:
    """Quality of one approximate algorithm's golden output vs. VS_golden."""

    input_name: str
    algorithm: str
    relative_l2_norm: float
    egregious_degree: int | None
    frames_stitched: int
    frames_discarded: int
    num_minis: int
    golden: GoldenRun


@telemetry.traced("experiment.fig06")
def fig06_output_quality(scale: Scale) -> list[OutputQualityRow]:
    """Reproduce Fig. 6: approximate outputs compared against VS_golden."""
    rows: list[OutputQualityRow] = []
    for input_name in INPUTS:
        stream = input_stream(input_name, scale)
        vs_golden = golden_run(stream, config_for("VS"))
        for algorithm in ALGORITHMS:
            golden = golden_run(stream, config_for(algorithm))
            quality: SDCQuality = compare_outputs(vs_golden.output, golden.output)
            rows.append(
                OutputQualityRow(
                    input_name=input_name,
                    algorithm=algorithm,
                    relative_l2_norm=quality.relative_l2_norm,
                    egregious_degree=quality.egregious_degree,
                    frames_stitched=golden.result.frames_stitched,
                    frames_discarded=golden.result.frames_discarded,
                    num_minis=golden.result.num_minis,
                    golden=golden,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Fig. 8 — execution profile of the VS application
# ---------------------------------------------------------------------------


@dataclass
class ProfileReport:
    """The Fig. 8 execution profile for one input."""

    input_name: str
    lines: list[ProfileLine]
    hot_fraction: float  # warp share of total (54.4% in the paper)
    library_fraction: float  # all library buckets (~68% in the paper)


@telemetry.traced("experiment.fig08")
def fig08_profile(scale: Scale) -> list[ProfileReport]:
    """Reproduce Fig. 8: per-function execution-time distribution."""
    from repro.perfmodel.profile import library_fraction

    reports = []
    for input_name in INPUTS:
        stream = input_stream(input_name, scale)
        golden = golden_run(stream, config_for("VS"))
        reports.append(
            ProfileReport(
                input_name=input_name,
                lines=execution_profile(golden.profile),
                hot_fraction=hot_function_fraction(golden.profile),
                library_fraction=library_fraction(golden.profile),
            )
        )
    return reports


# ---------------------------------------------------------------------------
# Fig. 9 — error-site coverage (convergence + register histogram)
# ---------------------------------------------------------------------------


@dataclass
class CoverageStudy:
    """Fig. 9: rate convergence and register/bit coverage."""

    campaign: CampaignResult
    knee: int | None
    register_cv: float  # coefficient of variation across registers
    bit_cv: float


@telemetry.traced("experiment.fig09")
def fig09_coverage(scale: Scale, seed: int = 9, workers: int | None = None) -> CoverageStudy:
    """Reproduce Fig. 9 on the baseline VS algorithm, Input 1, GPRs."""
    stream = input_stream("input1", scale)
    config = config_for("VS")
    golden = golden_with_tape(stream, config)
    campaign = run_campaign(
        vs_workload(stream, config),
        golden.output,
        golden.total_cycles,
        CampaignConfig(
            n_injections=scale.convergence_injections,
            kind=RegKind.GPR,
            seed=seed,
            keep_sdc_outputs=False,
            workers=workers,
        ),
        spec=VSWorkloadSpec.for_stream(stream, config),
    )
    return CoverageStudy(
        campaign=campaign,
        knee=knee_point(campaign.running),
        register_cv=coverage_uniformity(campaign.register_histogram),
        bit_cv=coverage_uniformity(campaign.bit_histogram),
    )


# ---------------------------------------------------------------------------
# Fig. 10 — resiliency profile of baseline VS (GPR vs FPR, both inputs)
# ---------------------------------------------------------------------------


@dataclass
class ResiliencyCell:
    """One bar group of Fig. 10 / Fig. 11a."""

    input_name: str
    algorithm: str
    kind: RegKind
    counts: OutcomeCounts
    campaign: CampaignResult = field(repr=False)

    def rates(self) -> dict[str, float]:
        """Outcome rates for this cell."""
        return self.counts.rates()


@telemetry.traced("experiment.fig10")
def fig10_resiliency(
    scale: Scale, seed: int = 10, workers: int | None = None
) -> list[ResiliencyCell]:
    """Reproduce Fig. 10: VS outcome rates for GPR and FPR injections."""
    cells = []
    config = config_for("VS")
    for input_name in INPUTS:
        stream = input_stream(input_name, scale)
        golden = golden_with_tape(stream, config)
        for kind in (RegKind.GPR, RegKind.FPR):
            campaign = run_campaign(
                vs_workload(stream, config),
                golden.output,
                golden.total_cycles,
                CampaignConfig(
                    n_injections=scale.injections,
                    kind=kind,
                    seed=seed + (0 if kind is RegKind.GPR else 1),
                    keep_sdc_outputs=False,
                    workers=workers,
                ),
                spec=VSWorkloadSpec.for_stream(stream, config),
            )
            cells.append(
                ResiliencyCell(
                    input_name=input_name,
                    algorithm="VS",
                    kind=kind,
                    counts=campaign.counts,
                    campaign=campaign,
                )
            )
    return cells


# ---------------------------------------------------------------------------
# Fig. 11a — resiliency of the approximate algorithms (GPR)
# ---------------------------------------------------------------------------


@telemetry.traced("experiment.fig11a")
def fig11a_approx_resiliency(
    scale: Scale, seed: int = 11, workers: int | None = None
) -> list[ResiliencyCell]:
    """Reproduce Fig. 11a: GPR outcome rates for all four algorithms."""
    cells = []
    for input_name in INPUTS:
        stream = input_stream(input_name, scale)
        for offset, algorithm in enumerate(ALGORITHMS):
            config = config_for(algorithm)
            golden = golden_with_tape(stream, config)
            campaign = run_campaign(
                vs_workload(stream, config),
                golden.output,
                golden.total_cycles,
                CampaignConfig(
                    n_injections=scale.injections,
                    kind=RegKind.GPR,
                    seed=seed + offset,
                    keep_sdc_outputs=False,
                    workers=workers,
                ),
                spec=VSWorkloadSpec.for_stream(stream, config),
            )
            cells.append(
                ResiliencyCell(
                    input_name=input_name,
                    algorithm=algorithm,
                    kind=RegKind.GPR,
                    counts=campaign.counts,
                    campaign=campaign,
                )
            )
    return cells


# ---------------------------------------------------------------------------
# Fig. 11b — hot function vs end-to-end workflow
# ---------------------------------------------------------------------------


@telemetry.traced("experiment.fig11b")
def fig11b_hot_function(
    scale: Scale, seed: int = 100, workers: int | None = None
) -> HotFunctionStudy:
    """Reproduce Fig. 11b with the baseline VS config.

    Runs on Input 2: its high inter-frame redundancy maximizes the
    compositional masking the study is designed to expose (later frames
    are stitched over the area the hot function corrupted).
    """
    stream = input_stream("input2", scale)
    return run_hot_function_study(
        stream,
        config_for("VS"),
        n_injections=scale.hot_injections,
        seed=seed,
        workers=workers,
    )


# ---------------------------------------------------------------------------
# Fig. 12 — SDC quality distributions
# ---------------------------------------------------------------------------


@dataclass
class SDCQualityStudy:
    """Fig. 12: ED curves per algorithm for one input."""

    input_name: str
    vs_golden_curves: dict[str, EDCurve]  # compared against VS_golden
    approx_golden_curves: dict[str, EDCurve]  # compared against Approx_golden
    sdc_counts: dict[str, int]


@telemetry.traced("experiment.fig12")
def fig12_sdc_quality(
    scale: Scale, seed: int = 12, workers: int | None = None
) -> list[SDCQualityStudy]:
    """Reproduce Fig. 12: ED distribution of SDCs per algorithm and input."""
    studies = []
    for input_name in INPUTS:
        stream = input_stream(input_name, scale)
        vs_golden = golden_with_tape(stream, config_for("VS"))
        vs_curves: dict[str, EDCurve] = {}
        approx_curves: dict[str, EDCurve] = {}
        sdc_counts: dict[str, int] = {}
        for offset, algorithm in enumerate(ALGORITHMS):
            config = config_for(algorithm)
            golden = golden_with_tape(stream, config)
            campaign = run_campaign(
                vs_workload(stream, config),
                golden.output,
                golden.total_cycles,
                CampaignConfig(
                    n_injections=scale.sdc_injections,
                    kind=RegKind.GPR,
                    seed=seed + offset,
                    keep_sdc_outputs=True,
                    workers=workers,
                ),
                spec=VSWorkloadSpec.for_stream(stream, config),
            )
            vs_qualities: list[SDCQuality] = []
            approx_qualities: list[SDCQuality] = []
            for result in campaign.sdc_results:
                if result.output is None:
                    continue
                vs_qualities.append(compare_outputs(vs_golden.output, result.output))
                approx_qualities.append(compare_outputs(golden.output, result.output))
            vs_curves[algorithm] = build_curve(algorithm, vs_qualities)
            approx_curves[algorithm] = build_curve(algorithm, approx_qualities)
            sdc_counts[algorithm] = len(campaign.sdc_results)
        studies.append(
            SDCQualityStudy(
                input_name=input_name,
                vs_golden_curves=vs_curves,
                approx_golden_curves=approx_curves,
                sdc_counts=sdc_counts,
            )
        )
    return studies


# ---------------------------------------------------------------------------
# Fig. 13 — difference visualization (default vs approximate output)
# ---------------------------------------------------------------------------


@dataclass
class DiffVisualization:
    """Fig. 13: the four panels for one input."""

    input_name: str
    default_output: np.ndarray
    approx_output: np.ndarray
    absolute_diff: np.ndarray
    thresholded_diff: np.ndarray
    relative_l2_norm: float


@telemetry.traced("experiment.fig13")
def fig13_diff_visualization(scale: Scale, algorithm: str = "VS_SM") -> list[DiffVisualization]:
    """Reproduce Fig. 13: |VS - approx| raw and 128-thresholded diffs."""
    from repro.quality.align import align_for_comparison
    from repro.quality.metrics import pixel_128_diff, pixel_diff, relative_l2_norm

    panels = []
    for input_name in INPUTS:
        stream = input_stream(input_name, scale)
        vs_golden = golden_run(stream, config_for("VS"))
        approx_golden = golden_run(stream, config_for(algorithm))
        golden_aligned, approx_aligned = align_for_comparison(
            vs_golden.output, approx_golden.output
        )
        panels.append(
            DiffVisualization(
                input_name=input_name,
                default_output=golden_aligned,
                approx_output=approx_aligned,
                absolute_diff=pixel_diff(golden_aligned, approx_aligned),
                thresholded_diff=pixel_128_diff(golden_aligned, approx_aligned),
                relative_l2_norm=relative_l2_norm(golden_aligned, approx_aligned),
            )
        )
    return panels
