"""Cross-campaign trend dashboard: outcome rates over history.

``repro report trend`` walks the forensics store in insertion order,
renders each campaign's outcome rates (Wilson CIs, unicode sparklines)
as a trajectory, and gates **adjacent** campaigns through the same
pooled two-proportion z-test as ``repro report diff``.  The output
reuses the forensics report renderers, so the HTML artifact is
byte-deterministic for a given store, and the z-gate exit code makes
the dashboard double as a CI regression tripwire.

This module imports the forensics/report stack and must therefore never
be imported from ``repro.observe.__init__`` (the event-bus side stays
stdlib-only); consumers import ``repro.observe.trend`` explicitly.
"""

from __future__ import annotations

from repro.faultinject.outcomes import wilson_interval
from repro.forensics.report import (
    OUTCOME_FIELDS,
    Z_THRESHOLD,
    Section,
    _effective_outcome_counts,
    render_sections,
    two_proportion_z,
)
from repro.forensics.store import CampaignStore

#: Eight-level block ramp for deterministic text sparklines.
SPARK_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(values: list[float]) -> str:
    """Map ``values`` onto block characters; deterministic, no deps.

    The scale tops out at the series maximum, not at a rate's 1.0, so
    small movements of a low rate stay visible.
    """
    if not values:
        return ""
    top = max(values)
    if top <= 0:
        return SPARK_BLOCKS[0] * len(values)
    chars = []
    for value in values:
        level = int(round((value / top) * (len(SPARK_BLOCKS) - 1)))
        chars.append(SPARK_BLOCKS[max(0, min(level, len(SPARK_BLOCKS) - 1))])
    return "".join(chars)


def _counts_from_summary(summary: dict) -> tuple[dict[str, int], int] | None:
    """Effective outcome counts straight from an index summary row.

    Returns ``None`` for a stratified campaign: its diff-comparable
    counts are reweighted, so the full record has to stand in.
    """
    if summary["sampling"] != "uniform":
        return None
    return {
        "mask": int(summary["masked"]),
        "sdc": int(summary["sdc"]),
        "crash": int(summary["crash_segv"]) + int(summary["crash_abort"]),
        "hang": int(summary["hang"]),
    }, int(summary["total"])


def build_trend(store: CampaignStore) -> dict:
    """Fold the store's history into one trend payload.

    Returns ``{campaigns, gates, flagged, threshold}`` where
    ``gates`` holds one z-test row per adjacent campaign pair and
    outcome, and ``flagged`` lists the significant ones.  Reads go
    through the store index: uniform campaigns are charted from their
    summary rows alone; only stratified records (whose gate-comparable
    counts are Horvitz-Thompson reweighted) are fully loaded.
    """
    campaigns = []
    for cid, summary in store.summaries().items():
        from_summary = _counts_from_summary(summary)
        if from_summary is not None:
            effective, total = from_summary
            label = summary.get("label")
            kind = summary["kind"]
            stratified = False
        else:
            record = store.get(cid)
            effective, total = _effective_outcome_counts(record)
            label = record.get("label")
            kind = record["fingerprint"]["kind"]
            stratified = bool(record.get("sampling"))
        rates = {}
        for outcome, _fields in OUTCOME_FIELDS:
            count = effective[outcome]
            low, high = wilson_interval(count, total)
            rates[outcome] = {
                "count": count,
                "rate": count / total if total else 0.0,
                "ci_low": low,
                "ci_high": high,
            }
        campaigns.append(
            {
                "id": cid,
                "label": label,
                "kind": kind,
                "stratified": stratified,
                "total": total,
                "rates": rates,
            }
        )

    gates = []
    for prev, curr in zip(campaigns, campaigns[1:]):
        for outcome, _fields in OUTCOME_FIELDS:
            a, b = prev["rates"][outcome], curr["rates"][outcome]
            z = two_proportion_z(
                b["count"], curr["total"], a["count"], prev["total"]
            )
            gates.append(
                {
                    "pair": f"{prev['id']}->{curr['id']}",
                    "metric": f"outcome:{outcome}",
                    "rate_a": a["rate"],
                    "rate_b": b["rate"],
                    "z": z,
                    "flagged": abs(z) > Z_THRESHOLD,
                }
            )

    return {
        "campaigns": campaigns,
        "gates": gates,
        "flagged": [
            f"{gate['pair']} {gate['metric']}" for gate in gates if gate["flagged"]
        ],
        "threshold": Z_THRESHOLD,
    }


def _trend_sections(trend: dict) -> list[Section]:
    campaigns = trend["campaigns"]

    history = Section(
        "Campaign history (store insertion order)",
        headers=["#", "id", "label", "kind", "mode", "classified",
                 *[outcome for outcome, _f in OUTCOME_FIELDS]],
    )
    for index, campaign in enumerate(campaigns):
        history.rows.append(
            [
                index,
                campaign["id"],
                campaign["label"] or "-",
                campaign["kind"],
                "stratified" if campaign["stratified"] else "uniform",
                campaign["total"],
                *[
                    f"{campaign['rates'][outcome]['rate']:.4f}"
                    for outcome, _f in OUTCOME_FIELDS
                ],
            ]
        )
    if not campaigns:
        history.notes.append("store is empty — run campaigns with --store first")

    trajectory = Section(
        "Outcome-rate trajectories (Wilson 95% CI of the latest campaign)",
        headers=["outcome", "trend", "latest_rate", "ci_low", "ci_high"],
    )
    for outcome, _fields in OUTCOME_FIELDS:
        series = [campaign["rates"][outcome]["rate"] for campaign in campaigns]
        latest = campaigns[-1]["rates"][outcome] if campaigns else None
        trajectory.rows.append(
            [
                outcome,
                sparkline(series),
                f"{latest['rate']:.4f}" if latest else "-",
                f"{latest['ci_low']:.4f}" if latest else "-",
                f"{latest['ci_high']:.4f}" if latest else "-",
            ]
        )

    gate = Section(
        f"Adjacent-campaign z-gate (|z| > {trend['threshold']:g} flagged)",
        headers=["pair", "metric", "rate_a", "rate_b", "delta", "z", "flag"],
    )
    for row in trend["gates"]:
        gate.rows.append(
            [
                row["pair"],
                row["metric"],
                f"{row['rate_a']:.4f}",
                f"{row['rate_b']:.4f}",
                f"{row['rate_b'] - row['rate_a']:+.4f}",
                f"{row['z']:+.2f}",
                "SHIFT" if row["flagged"] else "",
            ]
        )
    if trend["flagged"]:
        gate.notes.append(
            f"{len(trend['flagged'])} significant shift(s): "
            + ", ".join(trend["flagged"])
        )
    elif trend["gates"]:
        gate.notes.append("no statistically significant shifts between neighbours")
    else:
        gate.notes.append("need at least 2 stored campaigns to gate")

    return [history, trajectory, gate]


def render_trend(trend: dict, fmt: str = "terminal") -> str:
    """Render one trend payload; byte-deterministic per input."""
    return render_sections("Campaign trend dashboard", _trend_sections(trend), fmt)
