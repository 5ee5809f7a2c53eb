"""The online monitoring service runtime (conformance-tested).

This package splits the CE/AD/property semantics out of the
discrete-event scheduler behind a small :class:`~repro.service.runtime.Runtime`
interface and provides three interchangeable engines — the existing
simulator kernels, a scheduler-free direct core, and a real asyncio
service (sockets, tasks, bounded queues with backpressure, graceful
drain).  A recorded :class:`~repro.service.feed.UpdateFeed` replayed
through any engine must yield byte-identical displayed-alert frames and
identical property verdicts; :func:`~repro.service.runtime.check_conformance`
enforces exactly that.
"""

from repro.service.feed import (
    FEED_SCHEMA,
    FeedMismatchError,
    FeedSchemaError,
    UpdateFeed,
    feed_from_run,
    feed_messages,
    load_feed,
    loads_feed,
    record_feed,
)
from repro.service.queues import CLOSE, BoundedQueue, QueueStats
from repro.service.runtime import (
    ConformanceReport,
    DirectRuntime,
    FeedResult,
    KernelRuntime,
    Runtime,
    check_conformance,
    default_runtimes,
)
from repro.service.server import (
    AsyncioServiceRuntime,
    MonitorService,
    ServiceConfig,
    ServiceError,
    execute_feed,
)

__all__ = [
    "FEED_SCHEMA",
    "FeedSchemaError",
    "UpdateFeed",
    "feed_from_run",
    "feed_messages",
    "load_feed",
    "loads_feed",
    "record_feed",
    "CLOSE",
    "BoundedQueue",
    "QueueStats",
    "ConformanceReport",
    "DirectRuntime",
    "FeedMismatchError",
    "FeedResult",
    "KernelRuntime",
    "Runtime",
    "check_conformance",
    "default_runtimes",
    "AsyncioServiceRuntime",
    "MonitorService",
    "ServiceConfig",
    "ServiceError",
    "execute_feed",
]
