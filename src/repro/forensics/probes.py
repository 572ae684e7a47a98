"""Stage-boundary divergence probes for fault-propagation forensics.

The paper's central question is not just *whether* a flipped bit reaches
the output but *where it dies along the way* — masked by the ratio
test, absorbed by RANSAC's consensus, or surviving into the stitched
panorama as an SDC.  To make that observable per injection, the
pipeline's stage boundaries carry **probes**: when a
:class:`StageProbe` is active, each stage checksums its intermediate
output (FAST keypoints, ORB descriptors, the match set, the estimated
homography, the warped canvas, the final stitch) and appends the
checksum to the probe in execution order.

Comparing an injected run's probe stream against the golden run's
per-stage checksum sequences yields a
:class:`~repro.forensics.divergence.DivergenceRecord`: the first stage
whose output deviated, the last stage the run reached, and a per-stage
diverged/converged bitmap.

Determinism contract (mirrors :mod:`repro.telemetry`): probes only
*observe*.  They never touch an RNG, a register window or a cycle
counter, so probed campaigns are bit-identical in every outcome to
unprobed ones.  Disabled probing costs a single module-global ``None``
check per stage boundary — the same fast path the tracer uses.
"""

from __future__ import annotations

import contextlib
import zlib
from typing import Callable, Iterator

import numpy as np

#: Pipeline stages in dataflow order.  Bit ``i`` of a divergence bitmap
#: refers to ``STAGES[i]``; the order is part of the journal/store
#: contract, so append new stages at the end.
STAGES = ("fast", "orb", "match", "homography", "warp", "stitch")

#: Stage name -> bitmap bit position.
STAGE_INDEX = {name: index for index, name in enumerate(STAGES)}


def checksum_parts(*parts) -> int:
    """CRC32 over a heterogeneous tuple of stage-output parts.

    Arrays contribute their dtype, shape and raw bytes (so a reshaped
    or retyped array never aliases another); bytes/str/int/float
    contribute a tagged encoding.  Deterministic across processes —
    worker-side probes must agree with parent-side golden captures.
    """
    crc = 0
    for part in parts:
        if isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part)
            crc = zlib.crc32(f"a:{arr.dtype.str}:{arr.shape}".encode("ascii"), crc)
            crc = zlib.crc32(arr.tobytes(), crc)
        elif isinstance(part, (bytes, bytearray)):
            crc = zlib.crc32(b"b:" + bytes(part), crc)
        elif isinstance(part, str):
            crc = zlib.crc32(b"s:" + part.encode("utf-8"), crc)
        elif isinstance(part, (bool, int, np.integer)):
            crc = zlib.crc32(f"i:{int(part)}".encode("ascii"), crc)
        elif isinstance(part, (float, np.floating)):
            crc = zlib.crc32(f"f:{float(part).hex()}".encode("ascii"), crc)
        else:
            raise TypeError(f"unprobeable stage output part: {type(part)!r}")
    return crc


class StageProbe:
    """Collects one run's stage-boundary checksums in execution order."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        #: ``(stage, checksum)`` tuples, one per stage invocation.
        self.events: list[tuple[str, int]] = []

    def record(self, stage: str, checksum: int) -> None:
        """Append one stage invocation's checksum."""
        self.events.append((stage, checksum))

    @property
    def last_stage(self) -> str | None:
        """The stage of the final recorded event (None for an empty run)."""
        return self.events[-1][0] if self.events else None

    def signature(self) -> dict[str, tuple[int, ...]]:
        """Per-stage checksum sequences (the golden-reference shape)."""
        per_stage: dict[str, list[int]] = {stage: [] for stage in STAGES}
        for stage, crc in self.events:
            per_stage[stage].append(crc)
        return {stage: tuple(crcs) for stage, crcs in per_stage.items()}


#: The process-local active probe; ``None`` means probing is off — the
#: stage call sites check this single global and return immediately.
_PROBE: StageProbe | None = None


def active() -> bool:
    """True while a probe is capturing in this process."""
    return _PROBE is not None


def record(stage: str, *parts) -> None:
    """Checksum one stage invocation's output into the active probe.

    The disabled fast path is one global load and one comparison; call
    sites that must *build* anything (e.g. pack a keypoint list into an
    array) should guard with :func:`active` so the build cost is only
    paid while probing.
    """
    probe = _PROBE
    if probe is None:
        return
    probe.events.append((stage, checksum_parts(*parts)))


def replay_prefix(events: list[tuple[str, int]]) -> None:
    """Append pre-recorded golden stage events into the active probe.

    Golden-prefix fast-forward skips re-executing the uninjected prefix
    of an injected run; when divergence probes are on, the skipped
    stages' golden checksums are replayed here so the probe stream —
    and therefore every ``DivergenceRecord`` — is bit-identical to a
    full run's.  No-op when probing is off.
    """
    probe = _PROBE
    if probe is None:
        return
    probe.events.extend(events)


@contextlib.contextmanager
def capturing(probe: StageProbe | None) -> Iterator[StageProbe | None]:
    """Activate ``probe`` for the duration of the block (None = no-op).

    Captures nest by replacement: the previous probe is restored on
    exit, so a golden capture inside a larger capture never interleaves
    events.
    """
    global _PROBE
    if probe is None:
        yield None
        return
    previous = _PROBE
    _PROBE = probe
    try:
        yield probe
    finally:
        _PROBE = previous


def capture_run(run: Callable[[], object]) -> StageProbe:
    """Execute ``run()`` under a fresh probe and return the probe."""
    probe = StageProbe()
    with capturing(probe):
        run()
    return probe
