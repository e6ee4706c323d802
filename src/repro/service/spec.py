"""The declarative campaign specification shared by the CLI and the service.

A :class:`CampaignSpec` is the one description of "a campaign somebody wants
run": which workloads, how large, which execution backend, and where the
results go.  It round-trips losslessly through ``dict``/JSON — the body of
``POST /v1/campaigns`` *is* a spec document, and ``repro.cli campaign`` /
``submit`` build the identical object from their flags — so validation
happens exactly once, here, for every submission surface.

Identity follows from content: :meth:`CampaignSpec.fingerprint` hashes the
canonical JSON form, and the service derives campaign ids from it, which is
what makes resubmission idempotent and a restarted service able to recognise
its campaigns purely from the transport-backed index.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Optional

from repro.core.transport import StoreURLError, resolve_store_url
from repro.workloads.workload import WorkloadKind

if TYPE_CHECKING:
    import threading

    from repro.core.campaign import CampaignConfig, CampaignResult
    from repro.core.parallel import ProgressCallback

#: Execution backends a spec may name (mirrors ``Campaign.run``).
BACKENDS = ("local", "distributed")

#: Workload names a spec may list.
WORKLOAD_NAMES = tuple(kind.value for kind in WorkloadKind)


class SpecError(ValueError):
    """A campaign spec is malformed; the message names the offending field."""


def _require_int(name: str, value: Any, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise SpecError(f"{name} must be >= {minimum}, got {value!r}")
    return value


def _require_number(name: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{name} must be a number, got {value!r}")
    if value <= 0:
        raise SpecError(f"{name} must be > 0, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign, declaratively: what to run, how, and where results go.

    Field defaults match the ``repro.cli campaign`` flag defaults, so an
    empty ``POST /v1/campaigns`` body plus a store URL means the same thing
    as running the CLI with no flags.  ``max_experiments=0`` ("the full
    generated campaign" on the CLI) normalises to ``None``.
    """

    workloads: tuple[str, ...] = WORKLOAD_NAMES
    seed: int = 7
    golden_runs: int = 2
    max_experiments: Optional[int] = 60
    workers: Optional[int] = None
    chunk_size: Optional[int] = None
    shard_batch: int = 1
    backend: str = "local"
    store_url: Optional[str] = None
    slice_size: Optional[int] = None
    poll_interval: float = 0.5
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if isinstance(self.workloads, (str, bytes)) or not isinstance(
            self.workloads, (list, tuple)
        ):
            raise SpecError(
                f"workloads must be a list of workload names, got {self.workloads!r}"
            )
        names = tuple(self.workloads)
        if not names:
            raise SpecError("workloads must name at least one workload")
        for name in names:
            if name not in WORKLOAD_NAMES:
                raise SpecError(
                    f"workloads names unknown workload {name!r} "
                    f"(choose from {', '.join(WORKLOAD_NAMES)})"
                )
        object.__setattr__(self, "workloads", names)
        _require_int("seed", self.seed, minimum=-(2**63))
        _require_int("golden_runs", self.golden_runs, minimum=1)
        if self.max_experiments is not None:
            _require_int("max_experiments", self.max_experiments, minimum=0)
            if self.max_experiments == 0:
                object.__setattr__(self, "max_experiments", None)
        for name in ("workers", "chunk_size", "slice_size"):
            value = getattr(self, name)
            if value is not None:
                _require_int(name, value, minimum=1)
        _require_int("shard_batch", self.shard_batch, minimum=1)
        if self.backend not in BACKENDS:
            raise SpecError(
                f"backend must be one of {', '.join(BACKENDS)}, got {self.backend!r}"
            )
        object.__setattr__(self, "poll_interval", _require_number("poll_interval", self.poll_interval))
        if self.timeout is not None:
            object.__setattr__(self, "timeout", _require_number("timeout", self.timeout))
        if self.store_url is not None:
            try:
                object.__setattr__(
                    self, "store_url", resolve_store_url(self.store_url, option="store_url")
                )
            except StoreURLError as error:
                raise SpecError(str(error)) from None
        if self.backend == "distributed" and not self.store_url:
            raise SpecError(
                "backend 'distributed' requires store_url — pass --results-dir "
                "(a directory or objstore:// URL shared with the worker processes)"
            )

    # ------------------------------------------------------------ round-trip

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(spec_field.name for spec_field in fields(cls))

    @classmethod
    def from_dict(cls, data: Any) -> "CampaignSpec":
        """Build a spec from a decoded JSON document, rejecting unknown keys.

        Unknown fields are an error, not a warning: a typo'd ``max_expermnts``
        silently defaulting to 60 is exactly the configuration-defect class
        this repo exists to study.
        """
        if not isinstance(data, dict):
            raise SpecError(f"campaign spec must be a JSON object, got {data!r}")
        known = set(cls.field_names())
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(
                f"unknown campaign spec field(s): {', '.join(unknown)} "
                f"(known fields: {', '.join(sorted(known))})"
            )
        kwargs = dict(data)
        if isinstance(kwargs.get("workloads"), list):
            kwargs["workloads"] = tuple(kwargs["workloads"])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"campaign spec is not valid JSON: {error}") from None
        return cls.from_dict(data)

    @classmethod
    def from_cli_args(cls, args: Any) -> "CampaignSpec":
        """The one bridge from parsed CLI flags (``campaign``/``submit``) to
        a spec — argparse types already vetted the raw strings, the spec
        constructor revalidates the combination."""
        return cls(
            workloads=tuple(kind.value for kind in args.workloads),
            seed=args.seed,
            golden_runs=args.golden_runs,
            max_experiments=args.max_experiments,
            workers=args.workers,
            chunk_size=args.chunk_size,
            shard_batch=args.shard_batch,
            backend=args.backend,
            store_url=args.results_dir,
            slice_size=args.slice_size,
            poll_interval=args.poll_interval,
            timeout=args.coordinator_timeout,
        )

    def to_dict(self) -> dict:
        """The canonical JSON-ready form (what the service echoes back)."""
        data = {name: getattr(self, name) for name in self.field_names()}
        data["workloads"] = list(self.workloads)
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    # -------------------------------------------------------------- identity

    def fingerprint(self) -> str:
        """SHA-256 of the canonical JSON form: the spec's content identity.

        Includes ``store_url`` deliberately — a campaign *is* its
        configuration plus where its results live; the service keys its
        index on this, making resubmission of the same document idempotent.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def campaign_id(self) -> str:
        """The server-assigned id: a 16-hex-char prefix of the fingerprint."""
        return self.fingerprint()[:16]

    # ------------------------------------------------------------- execution

    def workload_kinds(self) -> tuple[WorkloadKind, ...]:
        return tuple(WorkloadKind(name) for name in self.workloads)

    def to_config(self) -> CampaignConfig:
        """The engine-facing configuration this spec describes."""
        from repro.core.campaign import CampaignConfig  # the client never needs the engine

        return CampaignConfig(
            workloads=self.workload_kinds(),
            golden_runs=self.golden_runs,
            max_experiments_per_workload=self.max_experiments,
            seed=self.seed,
            workers=self.workers,
            chunk_size=self.chunk_size,
            shard_batch=self.shard_batch,
        )

    def distributed_settings(self):
        """``DistributedSettings`` for distributed specs, else ``None``."""
        if self.backend != "distributed":
            return None
        from repro.core.distributed import DistributedSettings

        return DistributedSettings(
            slice_size=self.slice_size,
            poll_interval=self.poll_interval,
            timeout=self.timeout,
        )

    def run(
        self, progress: Optional[ProgressCallback] = None, cancel: Optional[threading.Event] = None
    ) -> CampaignResult:
        """Run this campaign to completion in this process, as ``repro.cli
        campaign`` and every service coordinator do (see ``Campaign.run``)."""
        from repro.core.campaign import Campaign

        return Campaign(self.to_config()).run(
            progress=progress, results_dir=self.store_url, backend=self.backend,
            distributed=self.distributed_settings(), cancel=cancel,
        )
