"""Concurrent model serving: ingest-while-serve on top of the estimator API.

:class:`~repro.serve.server.EstimatorServer` fronts one fitted estimator
with a plan-keyed result cache and a copy-on-write update protocol: readers
answer ``estimate_batch`` against an immutable published model while a
background ingester mutates a private copy (``checkout`` → ``insert`` /
``flush`` → ``publish``), and each publish atomically swaps the served model
and bumps a generation counter that invalidates the cache.

:class:`~repro.serve.breaker.CircuitBreaker` guards the read path against a
faulting model: attach it via ``breaker=`` (optionally with a ``fallback=``
estimator) and consecutive model faults trip the server into a degraded mode
that serves last-good cached results or the fallback instead of erroring,
half-opening with probe traffic after a timeout.
"""

from repro.serve.breaker import CircuitBreaker
from repro.serve.server import EstimatorServer, ServerCacheInfo

__all__ = [
    "EstimatorServer",
    "ServerCacheInfo",
    "CircuitBreaker",
]
