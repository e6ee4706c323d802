"""Campaign-as-a-service: the programmatic and HTTP control plane.

The engine's one public submission surface: :class:`CampaignSpec` describes
a campaign (dict/JSON round-trippable, one validation path for CLI and
HTTP) and runs it in-process, and :mod:`repro.service.server` runs many,
each coordinator a child process, behind a stateless ``/v1`` JSON API whose
only persistence is the transport-backed store.

The names below are imported on first access, so a client process never
loads the server or the campaign engine.
"""

from repro import lazy_exports

__getattr__ = lazy_exports(
    globals(),
    {
        "ServiceClient": "repro.service.client",
        "ServiceError": "repro.service.client",
        "CampaignService": "repro.service.server",
        "CampaignServiceServer": "repro.service.server",
        "ServiceQuotaError": "repro.service.server",
        "UnknownCampaignError": "repro.service.server",
        "serve": "repro.service.server",
        "CampaignSpec": "repro.service.spec",
        "SpecError": "repro.service.spec",
    },
)

__all__ = [
    "CampaignService",
    "CampaignServiceServer",
    "CampaignSpec",
    "ServiceClient",
    "ServiceError",
    "ServiceQuotaError",
    "SpecError",
    "UnknownCampaignError",
    "serve",
]
