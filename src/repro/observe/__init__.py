"""Live campaign observatory over the event bus.

* :mod:`repro.observe.events` — the event bus every span, counter and
  campaign event goes through
* :mod:`repro.observe.status` — crash-safe JSON status snapshots
* :mod:`repro.observe.server` — zero-dependency ``/status`` + ``/metrics``
* :mod:`repro.observe.recorder` — bounded flight-recorder ring
* :mod:`repro.observe.session` — the ``observe_campaign`` wiring
* :mod:`repro.observe.trend` — cross-campaign trend dashboard
"""
