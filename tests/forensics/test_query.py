"""Query engine tests: the SQLite index must equal the brute scan."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.forensics.query import (
    CAMPAIGN_FIELDS,
    INJECTION_FIELDS,
    QUERY_FIELDS,
    QueryError,
    StoreQuery,
    index_query,
    query_sections,
    scan_query,
)
from repro.forensics.report import render_sections
from repro.forensics.store import CampaignStore
from repro.forensics.synth import synthesize_corpus


@pytest.fixture(scope="module")
def corpus():
    return synthesize_corpus(6, seed=100, n_injections=40, stratified_every=3)


@pytest.fixture(scope="module")
def v2_store(tmp_path_factory, corpus):
    store = CampaignStore(tmp_path_factory.mktemp("qv2") / "store")
    for record in corpus:
        store.put(record)
    return store


class TestStoreQuery:
    def test_unknown_field_rejected(self):
        with pytest.raises(QueryError, match="unknown query field"):
            StoreQuery(group_by=("nope",))
        with pytest.raises(QueryError, match="unknown query field"):
            StoreQuery(filters={"nope": ("x",)})

    def test_from_options_parses_clauses(self):
        query = StoreQuery.from_options(
            where=["outcome=sdc", "outcome=hang", "register_class=2"],
            group_by="stage,kind",
        )
        assert query.filters == {"outcome": ("sdc", "hang"), "register_class": (2,)}
        assert query.group_by == ("stage", "kind")

    def test_from_options_rejects_bad_clause(self):
        with pytest.raises(QueryError, match="field=value"):
            StoreQuery.from_options(where=["outcome"])
        with pytest.raises(QueryError, match="integer"):
            StoreQuery.from_options(where=["register_class=warp"])

    def test_empty_group_by_rejected(self):
        with pytest.raises(QueryError, match="at least one"):
            StoreQuery(group_by=())


class TestEngineParity:
    """index_query is the fast path; scan_query is the semantics."""

    def test_default_query_matches(self, v2_store):
        query = StoreQuery()
        assert index_query(v2_store, query) == scan_query(v2_store, query)

    def test_rates_sum_to_one_without_filters(self, v2_store):
        result = index_query(v2_store, StoreQuery(group_by=("outcome",)))
        assert result["total"] == sum(row["count"] for row in result["rows"])
        assert sum(row["rate"] for row in result["rows"]) == pytest.approx(1.0)

    def test_campaign_filters_scope_population(self, v2_store, corpus):
        result = index_query(
            v2_store, StoreQuery(filters={"kind": ("gpr",)}, group_by=("campaign",))
        )
        gpr_records = [r for r in corpus if r["fingerprint"]["kind"] == "gpr"]
        assert result["total"] == sum(len(r["injections"]) for r in gpr_records)
        assert len(result["rows"]) == len(gpr_records)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_property_index_equals_scan(self, data, v2_store):
        # Generated group-bys over the full vocabulary, plus filters on a
        # vocabulary-appropriate value pool (hit and miss values mixed).
        group_by = tuple(
            data.draw(
                st.lists(
                    st.sampled_from(QUERY_FIELDS), min_size=1, max_size=3, unique=True
                )
            )
        )
        pools = {
            "campaign": st.sampled_from(v2_store.ids() + ["absent" * 2]),
            "label": st.sampled_from(["synthetic-100", "synthetic-103", "missing"]),
            "kind": st.sampled_from(["gpr", "fpr", "simd"]),
            "sampling": st.sampled_from(["uniform", "stratified"]),
            "seed": st.integers(min_value=98, max_value=107),
            "probe": st.sampled_from([0, 1]),
            "outcome": st.sampled_from(["mask", "sdc", "crash", "hang"]),
            "crash_kind": st.sampled_from(["", "segv", "abort"]),
            "register": st.integers(min_value=0, max_value=33),
            "bit": st.integers(min_value=0, max_value=65),
            "register_class": st.integers(min_value=0, max_value=4),
            "bit_octet": st.integers(min_value=0, max_value=8),
            "stage": st.sampled_from(
                ["fast", "orb", "match", "homography", "warp", "stitch", "none", "unprobed"]
            ),
            "last_stage": st.sampled_from(["fast", "stitch", "none", "unprobed"]),
            "fired": st.sampled_from([0, 1]),
        }
        filter_fields = data.draw(
            st.lists(st.sampled_from(QUERY_FIELDS), max_size=3, unique=True)
        )
        filters = {
            field: tuple(
                data.draw(st.lists(pools[field], min_size=1, max_size=2, unique=True))
            )
            for field in filter_fields
        }
        query = StoreQuery(filters=filters, group_by=group_by)
        assert index_query(v2_store, query) == scan_query(v2_store, query)


class TestRendering:
    def test_sections_render_all_formats(self, v2_store):
        query = StoreQuery(filters={"outcome": ("sdc",)}, group_by=("stage",))
        result = index_query(v2_store, query)
        for fmt in ("terminal", "markdown", "html"):
            text = render_sections("Store query", query_sections(result), fmt)
            assert "stage" in text
        # Deterministic: same query, same bytes.
        again = index_query(v2_store, query)
        assert render_sections(
            "Store query", query_sections(result), "markdown"
        ) == render_sections("Store query", query_sections(again), "markdown")

    def test_empty_result_notes(self, v2_store):
        result = index_query(
            v2_store, StoreQuery(filters={"kind": ("simd",)}, group_by=("outcome",))
        )
        text = render_sections("Store query", query_sections(result), "terminal")
        assert "no injections match" in text

    def test_field_vocabulary_is_closed(self):
        assert set(QUERY_FIELDS) == set(CAMPAIGN_FIELDS) | set(INJECTION_FIELDS)
