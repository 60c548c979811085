"""Sharded estimation engine: partition-wise synopses over one logical table.

This package horizontally partitions a table *and its synopsis*: a
:class:`~repro.shard.partition.Partitioner` routes rows to shards, one clone
of the base estimator is fitted per shard (in parallel on a thread pool,
through a :class:`~repro.shard.parallel.ShardExecutor`), and the
:class:`~repro.shard.sharded.ShardedEstimator` front end — itself a
:class:`~repro.core.estimator.SelectivityEstimator`, registered as
``"sharded"`` — serves the full estimator contract by routing per shard.
Fit and large weighted estimate batches run on the pool, bulk ingest folds
the shards one after another on the calling thread, and one shard can be
refreshed or swapped without rebuilding the world
(:meth:`~repro.shard.sharded.ShardedEstimator.refit_shard` /
:meth:`~repro.shard.sharded.ShardedEstimator.with_shard`).

Accuracy contract (vs. the monolithic estimator)
------------------------------------------------

How closely ``ShardedEstimator(base, shards=k)`` tracks the same base
estimator fitted monolithically depends on the base's merge class (see the
mergeable-synopsis protocol in :mod:`repro.core.estimator`):

* **Exact state-merge** (the histogram family — ``equiwidth``,
  ``equidepth``, ``grid``): estimates are **bitwise identical**.  The
  shard coordinator pins the synopsis layout on the full table
  (``shard_frame``), shards count rows over the shared layout, and the
  merged integer counts equal a monolithic fit's exactly.
* **Statistical state-merge** (``supports_merge`` only: ``sampling``,
  ``reservoir_sampling`` — pooled weighted resampling — and
  ``independence`` — moment recombination): the merged synopsis has the
  same distribution as (for ``independence``: is float-rounding-equal to) a
  monolithic fit, but is not bit-identical.
* **Float-rounding merge** (``streaming_ade``): the merged synopsis is the
  union of the shard kernel mixtures (see :mod:`repro.core.streaming`).  It
  answers what the weighted combine below answers, up to float rounding
  (within ``DEFAULT_ATOL``), so its deviation from a monolithic fit is the
  weighted combine's, not zero.
* **Weighted combine** (everything else, incl. the KDE family): per-shard
  estimates are reduced with the row-count-weighted ``combine_estimates``.
  Documented tolerance, measured as mean relative deviation from the
  monolithic estimator with selectivities floored at 0.05 on the standard
  workload (uniform 2-D range queries over the 20k-row mixture table at
  default synopsis budgets): ≤ 5 % for the KDE/ADE family (the
  ``streaming_ade`` union included) and the wavelet synopsis; ≤ 8 % for the
  self-tuning histogram (its initial structure is data-derived per shard)
  and for the samplers, which additionally carry their usual
  ``O(sqrt(p(1-p)/m))`` sampling noise per query.  These bounds are pinned
  by ``tests/shard/test_sharded_estimator.py``.
"""

from repro.shard.parallel import ShardExecutor
from repro.shard.partition import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    RoundRobinPartitioner,
    make_partitioner,
    partition_table,
)
from repro.shard.sharded import ShardedEstimator

__all__ = [
    "ShardedEstimator",
    "ShardExecutor",
    "Partitioner",
    "HashPartitioner",
    "RangePartitioner",
    "RoundRobinPartitioner",
    "make_partitioner",
    "partition_table",
]
