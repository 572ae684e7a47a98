"""Selective protection planning from SDC quality data.

The paper's closing argument (Section VI-D): "a large majority of the
SDC causing error-sites need not be protected if an error of 10% is
acceptable", so the cost of protecting the application is low.  This
module turns a campaign's SDC population plus an ED tolerance into a
protection plan:

* **benign** sites — masked outcomes: nothing to do;
* **symptomatic** sites — crashes/hangs: covered by cheap symptom
  detectors (a fixed small overhead);
* **tolerable SDC** sites — ED at or below the mission's tolerance:
  accepted without protection;
* **critical SDC** sites — ED above tolerance or egregious: protected
  by redundant execution of the code region the flip landed in
  (overhead modelled as the region's share of execution cycles,
  doubled).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faultinject.campaign import CampaignResult
from repro.faultinject.outcomes import Outcome
from repro.quality.metrics import SDCQuality
from repro.runtime.context import CostProfile

#: Modelled overhead of always-on symptom detectors (fraction of runtime).
SYMPTOM_DETECTOR_OVERHEAD = 0.005

#: Modelled slowdown of duplicating a protected region.
DUPLICATION_FACTOR = 1.0  # the region's cycles are paid twice


@dataclass
class SiteClassification:
    """Error-site populations by protection need."""

    benign: int = 0
    symptomatic: int = 0
    tolerable_sdc: int = 0
    critical_sdc: int = 0
    critical_sites: list[str] = field(default_factory=list)  # checkpoint sites

    @property
    def total(self) -> int:
        """All classified injections."""
        return self.benign + self.symptomatic + self.tolerable_sdc + self.critical_sdc

    @property
    def sdc_total(self) -> int:
        """All silent corruptions."""
        return self.tolerable_sdc + self.critical_sdc

    @property
    def tolerable_fraction(self) -> float:
        """Share of SDCs that need no protection (the paper's headline)."""
        if self.sdc_total == 0:
            return 1.0
        return self.tolerable_sdc / self.sdc_total


@dataclass
class ProtectionPlan:
    """A selective-protection decision with its modelled overhead."""

    classification: SiteClassification
    ed_tolerance: int
    protected_scopes: dict[str, float]  # profile scope -> cycle fraction
    runtime_overhead: float  # modelled slowdown of the protected binary


def classify_sites(
    campaign: CampaignResult,
    sdc_qualities: dict[int, SDCQuality],
    ed_tolerance: int,
) -> SiteClassification:
    """Classify every injection of a campaign by protection need.

    ``sdc_qualities`` maps result indices (positions in
    ``campaign.results``) to the assessed quality of that SDC's output.
    """
    classification = SiteClassification()
    for index, result in enumerate(campaign.results):
        if result.outcome is Outcome.MASKED:
            classification.benign += 1
        elif result.outcome in (Outcome.CRASH, Outcome.HANG):
            classification.symptomatic += 1
        else:
            quality = sdc_qualities.get(index)
            if quality is None:
                # Unassessed SDCs are conservatively critical.
                classification.critical_sdc += 1
                if result.record.site:
                    classification.critical_sites.append(result.record.site)
            elif quality.egregious or (
                quality.egregious_degree is not None
                and quality.egregious_degree > ed_tolerance
            ):
                classification.critical_sdc += 1
                if result.record.site:
                    classification.critical_sites.append(result.record.site)
            else:
                classification.tolerable_sdc += 1
    return classification


def plan_protection(
    campaign: CampaignResult,
    sdc_qualities: dict[int, SDCQuality],
    profile: CostProfile,
    ed_tolerance: int = 10,
) -> ProtectionPlan:
    """Build a selective protection plan.

    Regions (profiling scopes) that produced critical SDCs are
    duplicated; everything else relies on symptom detectors and the
    mission's error tolerance.
    """
    classification = classify_sites(campaign, sdc_qualities, ed_tolerance)

    fractions = profile.fractions()
    protected: dict[str, float] = {}
    for site in classification.critical_sites:
        # A checkpoint site maps onto the profile scope(s) it prefixes.
        for scope, fraction in fractions.items():
            shared_prefix = scope.split(".")[0] == site.split(".")[0]
            if shared_prefix and scope not in protected:
                protected[scope] = fraction

    overhead = SYMPTOM_DETECTOR_OVERHEAD + DUPLICATION_FACTOR * sum(protected.values())
    return ProtectionPlan(
        classification=classification,
        ed_tolerance=ed_tolerance,
        protected_scopes=protected,
        runtime_overhead=overhead,
    )


def full_duplication_overhead() -> float:
    """The baseline alternative: duplicate everything (paper's 'high
    overhead' redundancy)."""
    return 1.0
