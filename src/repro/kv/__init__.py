"""Disk-based key-value storage engines.

Three engines share the :class:`~repro.kv.api.KVStore` interface:

* :mod:`repro.kv.faster` — a FASTER-like hybrid-log store (the substrate
  MLKV is built on, Section III of the paper),
* :mod:`repro.kv.lsm` — an LSM-tree store standing in for RocksDB,
* :mod:`repro.kv.btree` — a B+tree store standing in for WiredTiger.

All three persist to real files and charge simulated I/O costs to a shared
:class:`~repro.device.ssd.SSDModel`, so the Figure 7 buffer-size sweeps
exercise genuine hit/miss paths in each engine.

:mod:`repro.kv.sharded` is the one partitioned store built over them:
:class:`~repro.kv.sharded.ShardedKVStore` routes keys through a slot
table to *partitions* — each a plain engine (RF=1) or a
:class:`~repro.kv.replicated.ReplicaGroup` of RF engines with
synchronous write fan-out, divergence-bounded read routing and failover
with hinted catch-up — and owns the routed-op counters, the stats sum,
the coordinated checkpoint manifest and live ``split_shard`` /
``migrate_shard`` rescaling (copy-then-cutover under load), whatever
the replication factor.  Every engine overrides ``multi_get`` /
``multi_put`` with genuinely batched hot paths (one epoch acquisition,
WAL group commits, single leaf walks), and the store hands each
partition one sub-batch.  :class:`~repro.kv.replicated.ReplicatedKVStore`
builds the store over replica groups and adds the per-replica fault
surface; :class:`~repro.kv.parallel.ParallelShardStore` runs the same
store with each engine in a forked worker process so batched fan-out
uses real cores (:func:`~repro.kv.parallel.create_sharded_store` picks
parallel or serial automatically).
"""

from repro.kv.api import CheckpointManager, KVStore, StoreStats
from repro.kv.common.cache import ClockCache, LRUCache
from repro.kv.common.serialization import decode_vector, encode_vector
from repro.kv.parallel import ParallelShardStore, create_sharded_store
from repro.kv.replicated import ReplicaGroup, ReplicatedKVStore
from repro.kv.sharded import ShardedKVStore, ShardMigration, shard_hash

# The names above are the storage layer's public surface: the serving
# tier and the distributed trainer import *only* these (rule REP003 in
# `repro.analysis`), so engine internals can be refactored freely.
__all__ = [
    "CheckpointManager",
    "ClockCache",
    "KVStore",
    "LRUCache",
    "ParallelShardStore",
    "ReplicaGroup",
    "ReplicatedKVStore",
    "ShardMigration",
    "ShardedKVStore",
    "StoreStats",
    "create_sharded_store",
    "decode_vector",
    "encode_vector",
    "shard_hash",
]
