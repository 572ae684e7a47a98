"""Deterministic campaign reports and cross-campaign regression diffs.

One stored campaign record (see :mod:`repro.forensics.store`) renders to
a terminal, markdown, or HTML report built from the same intermediate
section structure, so every format carries identical numbers and the
output is byte-deterministic for a given record: sections are emitted in
a fixed order, tables in fixed key order, and floats through fixed-width
formats.

``render_diff`` compares two records with a pooled two-proportion
z-test per outcome rate (and per first-divergence stage rate when both
campaigns were probed), flagging shifts with ``|z|`` above the 95%
threshold — the regression gate behind ``repro report diff``.
"""

from __future__ import annotations

import html
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.analysis.reporting import markdown_table
from repro.faultinject.outcomes import wilson_interval
from repro.forensics.divergence import NONE_KEY
from repro.forensics.probes import STAGES

#: Outcome keys in report order, mapped to the counts-dict field(s).
OUTCOME_FIELDS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("mask", ("masked",)),
    ("sdc", ("sdc",)),
    ("crash", ("crash_segv", "crash_abort")),
    ("hang", ("hang",)),
)

#: |z| above this flags a statistically significant rate shift (95%).
Z_THRESHOLD = 1.96

#: Bits per heatmap column: 64 bits fold into 8 octet columns.
OCTET = 8

REPORT_FORMATS = ("terminal", "markdown", "html")


@dataclass
class Section:
    """One report section: a title, a table, optional prose notes."""

    title: str
    headers: list[str] = field(default_factory=list)
    rows: list[list[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def _outcome_count(counts: dict, fields: tuple[str, ...]) -> int:
    return sum(int(counts[name]) for name in fields)


def _fmt_rate(value: float) -> str:
    return f"{value:.4f}"


# ---------------------------------------------------------------------------
# Section builders
# ---------------------------------------------------------------------------


def _overview_section(record: dict) -> Section:
    fingerprint = record["fingerprint"]
    section = Section("Campaign", headers=["field", "value"])
    section.rows = [
        ["label", record.get("label") or "-"],
        ["kind", fingerprint["kind"]],
        ["injections", fingerprint["n_injections"]],
        ["seed", fingerprint["seed"]],
        ["site filter", fingerprint.get("site_filter") or "-"],
        ["probed", "yes" if fingerprint.get("probe") else "no"],
        ["classified", record["counts"]["total"]],
        ["fired in study", record["fired_counts"]["total"]],
    ]
    return section


def _rates_section(record: dict) -> Section:
    counts = record["counts"]
    total = int(counts["total"])
    section = Section(
        "Outcome rates (Wilson 95% CI)",
        headers=["outcome", "count", "rate", "ci_low", "ci_high"],
    )
    for outcome, fields in OUTCOME_FIELDS:
        count = _outcome_count(counts, fields)
        rate = count / total if total else 0.0
        low, high = wilson_interval(count, total)
        section.rows.append(
            [outcome, count, _fmt_rate(rate), _fmt_rate(low), _fmt_rate(high)]
        )
    segv = int(counts["crash_segv"])
    abort = int(counts["crash_abort"])
    if segv + abort:
        section.notes.append(
            f"crash split: {segv} segv / {abort} abort "
            f"({segv / (segv + abort):.1%} segv)"
        )
    return section


#: Per-cell rows shown in a legacy grid's CI table before capping to the
#: widest-interval cells (full grids can run to hundreds of cells).
MAX_CELL_ROWS = 24


def _sampling_sections(record: dict) -> list[Section]:
    """Stratified-campaign sections: estimator table + per-stratum CIs.

    Only stratified records carry a ``sampling`` block; uniform reports
    are unchanged.  Records stored before the fire-log strata carry a
    register x bit x cycle grid and render as they always did.
    """
    sampling = record.get("sampling")
    if not sampling:
        return []
    grid = sampling["stratification"]
    legacy = "register_classes" in grid
    effort = [
        ["ci-width target", f"{sampling['ci_width']:g}"],
        ["rounds", sampling["rounds"]],
        ["draws", sampling["draws"]],
        ["uniform-equivalent draws", sampling["uniform_equivalent_draws"]],
        ["draws saved", sampling["draws_saved"]],
    ]
    budget = ["budget exhausted", "yes" if sampling["budget_exhausted"] else "no"]
    overview = Section("Stratified sampling", headers=["field", "value"])
    if legacy:
        overview.rows = [
            [
                "strata grid",
                f"{grid['register_classes']} reg x {grid['bit_octets']} bit x "
                f"{len(grid['cycle_edges']) - 1} cycle",
            ],
            ["cells", len(sampling["cells"])],
            ["cells converged", sampling["cells_converged"]],
            *effort,
            budget,
        ]
    else:
        overview.rows = [
            ["dead mass", _fmt_rate(grid["dead_mass"])],
            ["strata", len(sampling["cells"])],
            ["strata converged", sampling["cells_converged"]],
            *effort,
            ["unsampled mass", _fmt_rate(sampling["unsampled_mass"])],
            budget,
        ]
        overview.notes.append(
            "dead mass: the exact share of uniform plans the golden fire "
            "log decides MASKED without running them"
        )

    rates = Section(
        "Raw vs reweighted outcome rates",
        headers=["outcome", "raw", "reweighted"],
    )
    for outcome, _fields in OUTCOME_FIELDS:
        rates.rows.append(
            [
                outcome,
                _fmt_rate(sampling["raw_rates"][outcome]),
                _fmt_rate(sampling["ht_rates"][outcome]),
            ]
        )
    rates.notes.append(
        "reweighted (Horvitz-Thompson) rates are comparable to uniform "
        "campaigns; raw rates are biased toward oversampled strata "
        "(see docs/sampling.md)"
    )
    if legacy:
        title, columns = "Per-cell Wilson-CI widths", ["cell", "registers", "bits", "cycles"]
        rows = sorted(
            sampling["cells"], key=lambda cell: (-cell["max_ci_width"], cell["cell"])
        )
        shown = rows[:MAX_CELL_ROWS]
    else:
        title, columns = "Per-stratum Wilson-CI widths", ["stratum", "stage", "role", "weight"]
        rows = shown = sampling["cells"]
    cells = Section(title, headers=[*columns, "draws", "max_ci_width", "converged_round"])
    for cell in shown:
        if legacy:
            where = [f"{cell[axis][0]}-{cell[axis][1] - 1}" for axis in columns[1:]]
        else:
            where = [cell["stage"], cell["role"], _fmt_rate(cell["weight"])]
        cells.rows.append(
            [
                cell["cell"],
                *where,
                cell["draws"],
                _fmt_rate(cell["max_ci_width"]),
                cell["converged_round"] if cell["converged_round"] is not None else "-",
            ]
        )
    if len(rows) > len(shown):
        cells.notes.append(
            f"showing the {len(shown)} widest of {len(rows)} cells"
        )
    return [overview, rates, cells]


def _heatmap_sections(record: dict) -> list[Section]:
    """Register x bit-octet count tables, one per non-masked outcome.

    Full 32x64 tables are unreadable in a terminal; folding bits into
    octet columns keeps the register-file structure visible (sign/
    exponent octets vs mantissa octets) at a glance.  All-zero registers
    are omitted, so the tables stay small for focused campaigns.
    """
    sections = []
    for outcome, _fields in OUTCOME_FIELDS:
        if outcome == "mask":
            continue
        grid = np.zeros((32, OCTET), dtype=np.int64)
        for row in record["injections"]:
            register, bit, row_outcome = int(row[0]), int(row[1]), row[2]
            if row_outcome != outcome:
                continue
            grid[register, bit // OCTET] += 1
        section = Section(
            f"Heatmap: {outcome} by register x bit octet",
            headers=["register", *[f"b{o * OCTET}-{o * OCTET + OCTET - 1}" for o in range(OCTET)]],
        )
        for register in range(32):
            if not grid[register].any():
                continue
            section.rows.append([f"r{register}", *[int(v) for v in grid[register]]])
        if not section.rows:
            section.notes.append(f"no {outcome} outcomes recorded")
        sections.append(section)
    return sections


def _divergence_sections(record: dict) -> list[Section]:
    divergence = record["divergence"]
    sections = []

    flow = Section(
        "Divergence flow: first-diverged stage x outcome",
        headers=["first_divergence", "mask", "sdc", "crash", "hang", "total"],
    )
    for stage, by_outcome in divergence["first_divergence"].items():
        counts = [int(by_outcome.get(key, 0)) for key in ("mask", "sdc", "crash", "hang")]
        flow.rows.append([stage, *counts, sum(counts)])
    flow.notes.append(
        f"probed {divergence['probed']} / unprobed {divergence['unprobed']}; "
        f"{divergence['absorbed']} divergences absorbed before the stitch"
    )
    sections.append(flow)

    reach = Section(
        "Pipeline reach and per-stage divergence",
        headers=["stage", "runs_ending_here", "runs_diverged_here"],
    )
    last_stage = divergence["last_stage"]
    stage_diverged = divergence["stage_diverged"]
    for stage in (*STAGES, NONE_KEY):
        ended = int(last_stage.get(stage, 0))
        diverged = int(stage_diverged.get(stage, 0))
        if ended == 0 and diverged == 0:
            continue
        reach.rows.append([stage, ended, diverged])
    sections.append(reach)
    return sections


def _sdc_quality_section(record: dict) -> Section | None:
    quality = record.get("sdc_quality") or []
    if not quality:
        return None
    rels = [entry["relative_l2"] for entry in quality if entry["relative_l2"] is not None]
    eds = [int(entry["ed"]) for entry in quality]
    section = Section("SDC quality", headers=["metric", "value"])
    section.rows.append(["sdc outputs scored", len(quality)])
    if rels:
        section.rows.append(["relative L2 min", _fmt_rate(min(rels))])
        section.rows.append(["relative L2 median", _fmt_rate(float(np.median(rels)))])
        section.rows.append(["relative L2 max", _fmt_rate(max(rels))])
    for degree in sorted(set(eds)):
        section.rows.append([f"egregiousness degree {degree}", eds.count(degree)])
    return section


def build_sections(record: dict) -> list[Section]:
    """The full report as format-independent sections (fixed order)."""
    sections = [_overview_section(record), _rates_section(record)]
    sections.extend(_sampling_sections(record))
    sections.extend(_heatmap_sections(record))
    sections.extend(_divergence_sections(record))
    quality = _sdc_quality_section(record)
    if quality is not None:
        sections.append(quality)
    return sections


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _render_terminal(title: str, sections: list[Section]) -> str:
    lines = [title, "=" * len(title)]
    for section in sections:
        lines.append("")
        lines.append(section.title)
        lines.append("-" * len(section.title))
        if section.rows:
            table = [section.headers, *[[_cell(v) for v in row] for row in section.rows]]
            widths = [
                max(len(str(row[col])) for row in table)
                for col in range(len(section.headers))
            ]
            for index, row in enumerate(table):
                lines.append(
                    "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip()
                )
                if index == 0:
                    lines.append("  ".join("-" * width for width in widths))
        for note in section.notes:
            lines.append(f"* {note}")
    return "\n".join(lines) + "\n"


def _render_markdown(title: str, sections: list[Section]) -> str:
    lines = [f"# {title}"]
    for section in sections:
        lines.append("")
        lines.append(f"## {section.title}")
        lines.append("")
        if section.rows:
            lines.append(markdown_table(section.headers, section.rows))
        for note in section.notes:
            lines.append("")
            lines.append(f"*{note}*")
    return "\n".join(lines) + "\n"


def _render_html(title: str, sections: list[Section]) -> str:
    out = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>{html.escape(title)}</title>",
        "<style>",
        "body{font-family:monospace;margin:2em;background:#fafafa;color:#222}",
        "table{border-collapse:collapse;margin:0.5em 0}",
        "td,th{border:1px solid #bbb;padding:2px 8px;text-align:right}",
        "th{background:#eee}td:first-child,th:first-child{text-align:left}",
        "h2{border-bottom:1px solid #ccc;padding-bottom:2px}",
        ".note{color:#555;font-style:italic}",
        "</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
    ]
    for section in sections:
        out.append(f"<h2>{html.escape(section.title)}</h2>")
        if section.rows:
            out.append("<table><tr>")
            out.extend(f"<th>{html.escape(str(h))}</th>" for h in section.headers)
            out.append("</tr>")
            for row in section.rows:
                out.append(
                    "<tr>"
                    + "".join(f"<td>{html.escape(_cell(v))}</td>" for v in row)
                    + "</tr>"
                )
            out.append("</table>")
        for note in section.notes:
            out.append(f"<p class='note'>{html.escape(note)}</p>")
    out.append("</body></html>")
    return "\n".join(out) + "\n"


_RENDERERS = {
    "terminal": _render_terminal,
    "markdown": _render_markdown,
    "html": _render_html,
}


def render_sections(title: str, sections: list[Section], fmt: str = "terminal") -> str:
    """Render arbitrary sections through the shared renderer set.

    The public entry point for other report producers (the trend
    dashboard) so every artifact carries the same table styling and the
    same byte-determinism guarantees.
    """
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown report format {fmt!r} (choose from {REPORT_FORMATS})")
    return _RENDERERS[fmt](title, sections)


def render_report(record: dict, fmt: str = "terminal", cid: str | None = None) -> str:
    """Render one stored campaign record; byte-deterministic per input."""
    title = f"Campaign report {cid}" if cid else "Campaign report"
    return render_sections(title, build_sections(record), fmt)


# ---------------------------------------------------------------------------
# Cross-campaign regression diff
# ---------------------------------------------------------------------------


def two_proportion_z(successes_a: int, total_a: int, successes_b: int, total_b: int) -> float:
    """Pooled two-proportion z statistic (0.0 when degenerate).

    Degenerate inputs — an empty side, or a pooled rate of exactly 0 or
    1 (no variance under the null) — yield ``z == 0``: with no variance
    there is no evidence of a shift to flag.
    """
    if total_a == 0 or total_b == 0:
        return 0.0
    p_a = successes_a / total_a
    p_b = successes_b / total_b
    pooled = (successes_a + successes_b) / (total_a + total_b)
    variance = pooled * (1.0 - pooled) * (1.0 / total_a + 1.0 / total_b)
    if variance <= 0.0:
        return 0.0
    return (p_a - p_b) / float(np.sqrt(variance))


def _effective_outcome_counts(record: dict) -> tuple[dict[str, int], int]:
    """Outcome counts the diff gate should compare, plus the total.

    Uniform records compare their observed counts directly.  A
    stratified record's raw counts are deliberately biased (converged
    cells stop early, unresolved ones keep sampling), so comparing them
    against a uniform campaign would flag the sampling design, not a
    rate shift.  The valid comparison is the Horvitz-Thompson
    reweighted rate scaled back to an effective count at the campaign's
    draw total — conservative, since the stratified estimator's true
    variance is at most the binomial variance the z-test assumes.
    """
    counts = record["counts"]
    total = int(counts["total"])
    sampling = record.get("sampling")
    if sampling:
        return {
            outcome: round(sampling["ht_rates"][outcome] * total)
            for outcome, _fields in OUTCOME_FIELDS
        }, total
    return {
        outcome: _outcome_count(counts, fields)
        for outcome, fields in OUTCOME_FIELDS
    }, total


def diff_records(record_a: dict, record_b: dict) -> dict:
    """Compare two stored records; returns rows and flagged shifts.

    Each row is ``{metric, count_a, total_a, count_b, total_b, rate_a,
    rate_b, z, flagged}``.  Outcome rates are always compared —
    stratified records contribute reweighted effective counts (see
    :func:`_effective_outcome_counts`), so stratified and uniform
    campaigns diff cleanly against each other; first-divergence stage
    rates are compared when both campaigns carry probe data.
    """
    rows = []

    def add_row(metric: str, count_a: int, total_a: int, count_b: int, total_b: int) -> None:
        # z's sign follows B relative to A, matching the rendered delta.
        z = two_proportion_z(count_b, total_b, count_a, total_a)
        rows.append(
            {
                "metric": metric,
                "count_a": count_a,
                "total_a": total_a,
                "count_b": count_b,
                "total_b": total_b,
                "rate_a": count_a / total_a if total_a else 0.0,
                "rate_b": count_b / total_b if total_b else 0.0,
                "z": z,
                "flagged": abs(z) > Z_THRESHOLD,
            }
        )

    effective_a, total_a = _effective_outcome_counts(record_a)
    effective_b, total_b = _effective_outcome_counts(record_b)
    for outcome, _fields in OUTCOME_FIELDS:
        add_row(
            f"outcome:{outcome}",
            effective_a[outcome],
            total_a,
            effective_b[outcome],
            total_b,
        )

    div_a = record_a["divergence"]
    div_b = record_b["divergence"]
    if div_a["probed"] and div_b["probed"]:
        for stage in (*STAGES, NONE_KEY):
            first_a = sum(div_a["first_divergence"].get(stage, {}).values())
            first_b = sum(div_b["first_divergence"].get(stage, {}).values())
            if first_a == 0 and first_b == 0:
                continue
            add_row(
                f"first_divergence:{stage}",
                int(first_a),
                int(div_a["probed"]),
                int(first_b),
                int(div_b["probed"]),
            )

    return {
        "rows": rows,
        "flagged": [row["metric"] for row in rows if row["flagged"]],
        "threshold": Z_THRESHOLD,
    }


def render_diff(
    diff: dict,
    fmt: str = "terminal",
    cid_a: str | None = None,
    cid_b: str | None = None,
) -> str:
    """Render a :func:`diff_records` result; byte-deterministic."""
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown report format {fmt!r} (choose from {REPORT_FORMATS})")
    section = Section(
        f"Rate shifts (pooled two-proportion z, |z| > {diff['threshold']:g} flagged)",
        headers=["metric", "a", "b", "rate_a", "rate_b", "delta", "z", "flag"],
    )
    for row in diff["rows"]:
        section.rows.append(
            [
                row["metric"],
                f"{row['count_a']}/{row['total_a']}",
                f"{row['count_b']}/{row['total_b']}",
                _fmt_rate(row["rate_a"]),
                _fmt_rate(row["rate_b"]),
                f"{row['rate_b'] - row['rate_a']:+.4f}",
                f"{row['z']:+.2f}",
                "SHIFT" if row["flagged"] else "",
            ]
        )
    if diff["flagged"]:
        section.notes.append(
            f"{len(diff['flagged'])} significant shift(s): {', '.join(diff['flagged'])}"
        )
    else:
        section.notes.append("no statistically significant shifts")
    title = (
        f"Campaign diff {cid_a} vs {cid_b}" if cid_a and cid_b else "Campaign diff"
    )
    return _RENDERERS[fmt](title, [section])
