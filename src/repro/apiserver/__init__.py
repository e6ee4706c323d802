"""The API server.

The Apiserver is the only component that talks to the data store; every
other component reads and writes cluster state through it.  This package
provides the request path (validation → admission → serialization → etcd
transaction), the watch hub that notifies controllers of state changes, and
the client wrapper used by components — the two communication channels the
Mutiny injector can tamper with.
"""

from repro import lazy_exports

__getattr__ = lazy_exports(
    globals(),
    {
        "APIServer": "repro.apiserver.apiserver",
        "APIClient": "repro.apiserver.client",
        "ApiError": "repro.apiserver.errors",
        "ConflictError": "repro.apiserver.errors",
        "InvalidObjectError": "repro.apiserver.errors",
        "NotFoundError": "repro.apiserver.errors",
        "ServerUnavailableError": "repro.apiserver.errors",
    },
)

__all__ = [
    "APIClient",
    "APIServer",
    "ApiError",
    "ConflictError",
    "InvalidObjectError",
    "NotFoundError",
    "ServerUnavailableError",
]
