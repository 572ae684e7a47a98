"""Fault-propagation forensics: divergence tracing, result store, reports.

Three layers, all opt-in and result-neutral:

* :mod:`~repro.forensics.probes` — stage-boundary checksum probes
  (enable per campaign with ``CampaignConfig(probe=True)`` or the CLI's
  ``--probe``); off by default with a single ``None`` check per stage.
* :mod:`~repro.forensics.store` — campaign records under
  content-addressed ids in bounded, CRC-checked segments with a derived
  SQLite index (``repro campaign --store DIR``).
* :mod:`~repro.forensics.report` — deterministic terminal / markdown /
  HTML reports and cross-campaign regression diffs (``repro report``).

This ``__init__`` deliberately imports only the probe layer: the store
and report modules import campaign machinery, which itself imports the
probes — importing them here would create a cycle.  Reach them as
``repro.forensics.store`` / ``repro.forensics.report``.
"""

from repro.forensics.divergence import (
    DivergenceRecord,
    diff_against_golden,
    summarize_divergence,
)
from repro.forensics.probes import (
    STAGE_INDEX,
    STAGES,
    StageProbe,
    active,
    capturing,
    checksum_parts,
    record,
)

__all__ = [
    "DivergenceRecord",
    "diff_against_golden",
    "summarize_divergence",
    "STAGES",
    "STAGE_INDEX",
    "StageProbe",
    "active",
    "capturing",
    "checksum_parts",
    "record",
]
