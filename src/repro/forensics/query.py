"""Typed cross-campaign slicing queries over the result store.

The paper's resiliency conclusions come from slicing injection outcomes
by register class, bit position, and pipeline stage (Figs. 10-12).
This module turns the stored corpus into that slicing surface: a
:class:`StoreQuery` names campaign-level filters (label, kind, sampling
mode, ids), per-injection filters (outcome, crash kind, register class,
bit octet, first-divergence stage, fired), and a ``group_by`` list; the
result is one row per group with count, rate, and Wilson 95% CI.

Two engines answer the same query:

* :func:`index_query` — SQL over the store's SQLite index (O(log n)
  slicing; the production path, and what ``repro report query`` runs),
  and
* :func:`scan_query` — a brute-force walk of the raw record segments,
  the *reference oracle*: the hypothesis suite pins
  ``index_query == scan_query`` row for row.

Rates use the filtered injection population as their denominator, so
"share of SDCs that first diverged in ``warp``" is one ``--where
outcome=sdc --group-by stage`` away.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Iterable

from repro.faultinject.outcomes import wilson_interval
from repro.forensics.report import Section
from repro.forensics.store import CampaignStore, injection_view

#: Campaign-level fields: filter/group values come from the campaign
#: row, shared by every injection of that campaign.
CAMPAIGN_FIELDS = ("campaign", "label", "kind", "sampling", "seed", "probe")

#: Per-injection fields (normalized through ``injection_view``).
INJECTION_FIELDS = (
    "outcome",
    "crash_kind",
    "register",
    "bit",
    "register_class",
    "bit_octet",
    "stage",
    "last_stage",
    "fired",
)

QUERY_FIELDS = CAMPAIGN_FIELDS + INJECTION_FIELDS

#: Fields whose values are integers (filters are coerced, sort order is
#: numeric in both engines).
_INT_FIELDS = {"seed", "probe", "register", "bit", "register_class", "bit_octet", "fired"}

#: Field name -> SQL expression over campaigns c / injections i.
_SQL_EXPR = {
    "campaign": "c.cid",
    "label": "COALESCE(c.label, '')",
    "kind": "c.kind",
    "sampling": "c.sampling",
    "seed": "c.seed",
    "probe": "c.probe",
    "outcome": "i.outcome",
    "crash_kind": "i.crash_kind",
    "register": "i.register",
    "bit": "i.bit",
    "register_class": "i.register_class",
    "bit_octet": "i.bit_octet",
    "stage": "i.first_divergence",
    "last_stage": "i.last_stage",
    "fired": "i.fired",
}


class QueryError(ValueError):
    """The query is malformed (unknown field, bad value)."""


@dataclass(frozen=True)
class StoreQuery:
    """One slicing query: conjunctive filters + grouping fields.

    ``filters`` maps a field name to the tuple of accepted values
    (OR within a field, AND across fields); ``group_by`` lists the
    fields each result row is keyed by.
    """

    filters: dict = dataclass_field(default_factory=dict)
    group_by: tuple = ("outcome",)

    def __post_init__(self) -> None:
        for field in (*self.filters, *self.group_by):
            if field not in QUERY_FIELDS:
                raise QueryError(
                    f"unknown query field {field!r} "
                    f"(choose from {', '.join(QUERY_FIELDS)})"
                )
        if not self.group_by:
            raise QueryError("group_by needs at least one field")
        for field, values in self.filters.items():
            if not isinstance(values, tuple) or not values:
                raise QueryError(
                    f"filter {field!r} needs a non-empty tuple of values"
                )

    @classmethod
    def from_options(
        cls, where: Iterable[str] = (), group_by: str | None = None
    ) -> "StoreQuery":
        """Build from CLI-style options.

        ``where`` items are ``field=value`` (repeat a field to OR
        values); ``group_by`` is a comma-separated field list.
        """
        filters: dict[str, tuple] = {}
        for clause in where:
            field, sep, raw = clause.partition("=")
            field = field.strip()
            if not sep or not field:
                raise QueryError(f"--where needs field=value, got {clause!r}")
            value = _coerce(field, raw.strip())
            filters[field] = (*filters.get(field, ()), value)
        fields = tuple(
            part.strip() for part in (group_by or "outcome").split(",") if part.strip()
        )
        return cls(filters=filters, group_by=fields)


def _coerce(field: str, raw: str):
    if field in _INT_FIELDS:
        try:
            return int(raw)
        except ValueError:
            raise QueryError(f"filter {field!r} needs an integer, got {raw!r}") from None
    return raw


def _sort_key(values: tuple) -> tuple:
    # Mixed int/str group keys sort type-stably in both engines.
    return tuple((0, value) if isinstance(value, int) else (1, str(value)) for value in values)


def _finalize(groups: dict, total: int, query: StoreQuery) -> dict:
    rows = []
    for key in sorted(groups, key=_sort_key):
        count = groups[key]
        low, high = wilson_interval(count, total)
        rows.append(
            {
                "group": dict(zip(query.group_by, key)),
                "count": count,
                "rate": count / total if total else 0.0,
                "ci_low": low,
                "ci_high": high,
            }
        )
    return {
        "group_by": list(query.group_by),
        "filters": {field: list(values) for field, values in sorted(query.filters.items())},
        "total": total,
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------


def scan_query(store: CampaignStore, query: StoreQuery) -> dict:
    """Brute-force reference engine: decode and walk every record."""
    groups: dict[tuple, int] = {}
    total = 0
    for cid, record in store.records():
        meta = {
            "campaign": cid,
            "label": record.get("label") or "",
            "kind": record["fingerprint"]["kind"],
            "sampling": "stratified" if record.get("sampling") else "uniform",
            "seed": int(record["fingerprint"]["seed"]),
            "probe": 1 if record["fingerprint"].get("probe") else 0,
        }
        if any(
            meta[field] not in values
            for field, values in query.filters.items()
            if field in meta
        ):
            continue
        injection_filters = [
            (field, values)
            for field, values in query.filters.items()
            if field not in meta
        ]
        for row in record["injections"]:
            view = injection_view(row)
            view["stage"] = view.pop("first_divergence")
            if any(view[field] not in values for field, values in injection_filters):
                continue
            total += 1
            key = tuple(
                meta[field] if field in meta else view[field]
                for field in query.group_by
            )
            groups[key] = groups.get(key, 0) + 1
    return _finalize(groups, total, query)


def index_query(store: CampaignStore, query: StoreQuery) -> dict:
    """Indexed engine: one SQL aggregate over the SQLite index."""
    conn = store._db()
    clauses = []
    params: list = []
    for field, values in query.filters.items():
        expr = _SQL_EXPR[field]
        clauses.append(f"{expr} IN ({', '.join('?' for _ in values)})")
        params.extend(values)
    where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
    select = ", ".join(_SQL_EXPR[field] for field in query.group_by)
    sql = (
        f"SELECT {select}, COUNT(*) FROM injections i "
        f"JOIN campaigns c ON c.seq = i.campaign_seq {where} "
        f"GROUP BY {select}"
    )
    groups: dict[tuple, int] = {}
    total = 0
    for *key, count in conn.execute(sql, params):
        groups[tuple(key)] = int(count)
        total += int(count)
    return _finalize(groups, total, query)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def query_sections(result: dict) -> list[Section]:
    """Report sections for one query result (``repro report query``)."""
    filters = result["filters"]
    scope = Section("Query", headers=["field", "value"])
    scope.rows = [
        ["group by", ", ".join(result["group_by"])],
        [
            "where",
            "; ".join(
                f"{field} in ({', '.join(str(v) for v in values)})"
                for field, values in filters.items()
            )
            or "-",
        ],
        ["matching injections", result["total"]],
    ]

    table = Section(
        "Grouped counts (Wilson 95% CI over the filtered population)",
        headers=[*result["group_by"], "count", "rate", "ci_low", "ci_high"],
    )
    for row in result["rows"]:
        table.rows.append(
            [
                *[row["group"][field] for field in result["group_by"]],
                row["count"],
                f"{row['rate']:.4f}",
                f"{row['ci_low']:.4f}",
                f"{row['ci_high']:.4f}",
            ]
        )
    if not result["rows"]:
        table.notes.append("no injections match the filters")
    return [scope, table]
