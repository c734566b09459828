"""The one partitioned store: a slot table routing keys to partitions.

:class:`ShardedKVStore` partitions the integer key space with a
splitmix64 hash, so dense sparse-feature id ranges spread uniformly
instead of striping by ``key % n`` (:meth:`ShardedKVStore.balance` lets
benchmarks and tests verify that).  A partition is any
:class:`~repro.kv.api.KVStore`: a plain engine (its own log, runs or
pages, and optionally its own SSD model), or a
:class:`~repro.kv.replicated.ReplicaGroup` of N engines holding the same
key range.  Replication is thus one dimension of the one store: every
partition routes, counts, checkpoints, splits and migrates alike.

Batched operations split one application batch into at most one
*sub-batch per partition*, visited in ascending index order, so every
child keeps its amortized batched hot path (one epoch acquisition, one
WAL group commit, one leaf walk); results scatter back into input order,
preserving the :class:`~repro.kv.api.KVStore` ordering contract.
:meth:`ShardedKVStore._dispatch` is the executor seam: in-process here,
forked workers in :class:`~repro.kv.parallel.ParallelShardStore`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.errors import CheckpointError, ConfigError
from repro.kv.api import CheckpointManager, KVStore, StoreStats
from repro.obs.trace import span as obs_span

_MASK64 = (1 << 64) - 1

_MANIFEST = "sharded.manifest.json"


def shard_hash(key: int) -> int:
    """splitmix64 finalizer: decorrelates shard choice from key locality."""
    x = (int(key) + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def shard_hash_array(keys: np.ndarray) -> np.ndarray:
    """Vectorized :func:`shard_hash` over a uint64 key array.

    uint64 arithmetic wraps modulo 2**64 exactly like the masked Python
    version, so the two agree bit for bit on every key.
    """
    x = keys.astype(np.uint64, copy=True)
    x += np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def partition_positions(keys: list, slots: Sequence[int]) -> dict[int, list[int]]:
    """Group batch *positions* by owning shard under a slot table.

    One vectorized splitmix64 pass plus a stable grouping sort, so shards
    come out in ascending order and per-shard position lists preserve
    input order.  Keys the uint64 conversion rejects fall back to the
    per-key loop (out-of-range values then surface the engine's own error
    downstream).
    """
    if len(keys) > 1:
        try:
            arr = np.asarray(keys, dtype=np.uint64)
        except (OverflowError, TypeError, ValueError):
            pass
        else:
            slot_arr = np.asarray(slots, dtype=np.int64)
            shard_idx = slot_arr[shard_hash_array(arr) % np.uint64(len(slot_arr))]
            order = np.argsort(shard_idx, kind="stable")
            sorted_shards = shard_idx[order]
            starts = np.flatnonzero(np.diff(sorted_shards)) + 1
            return {
                int(group_shards[0]): positions.tolist()
                for positions, group_shards in zip(
                    np.split(order, starts), np.split(sorted_shards, starts)
                )
            }
    by_shard: dict[int, list[int]] = {}
    for position, key in enumerate(keys):
        by_shard.setdefault(
            slots[shard_hash(key) % len(slots)], []
        ).append(position)
    return by_shard


def import_type(dotted: str) -> type:
    """Inverse of :func:`~repro.kv.api.type_name`."""
    module_name, _, class_name = dotted.rpartition(".")
    return getattr(importlib.import_module(module_name), class_name)


def replay(target: KVStore, keys: list, values: list) -> list[int]:
    """Make ``target`` hold ``values`` for ``keys`` (``None`` deletes),
    the present ones in one batched put; returns the keys written."""
    put_keys, put_values = [], []
    for key, value in zip(keys, values):
        if value is None:
            target.delete(key)
        else:
            put_keys.append(key)
            put_values.append(value)
    if put_keys:
        target.multi_put(put_keys, put_values)
    return put_keys


def stream_into(target: KVStore, records: Iterator[tuple[int, bytes]], batch: int = 1024) -> set[int]:
    """Copy a record stream into ``target`` in ``batch``-sized batched
    puts; returns the keys copied."""
    copied: set[int] = set()
    while chunk := list(itertools.islice(records, batch)):
        keys = [key for key, _ in chunk]
        target.multi_put(keys, [value for _, value in chunk])
        copied.update(keys)
    return copied


def sum_stats(children: Iterable[StoreStats]) -> StoreStats:
    """Counters summed over child snapshots (``extra`` left empty)."""
    total = StoreStats()
    for child in children:
        total.gets += child.gets
        total.puts += child.puts
        total.deletes += child.deletes
        total.hits += child.hits
        total.misses += child.misses
    return total


class ShardedKVStore(KVStore, CheckpointManager):
    """Hash-partitioned store fanning out to N partitions.

    Parameters
    ----------
    factory:
        ``factory(shard_index) -> KVStore`` building one partition per
        shard; any mix of FASTER / MLKV / LSM / B-tree engines (or
        replica groups of them) works, each with its own directory (and,
        for parallel-device modeling, its own clock + SSD).
    num_shards:
        Initial number of partitions; live :meth:`begin_split` adds more.
    directory:
        Optional base directory for *coordinated* checkpoints: when every
        engine's own directory lives under it, :meth:`checkpoint` writes a
        manifest binding the per-engine images into one restorable unit.
    """

    #: File name of the coordinated checkpoint manifest under ``directory``.
    manifest_name = _MANIFEST

    def __init__(
        self,
        factory: Callable[[int], KVStore],
        num_shards: int,
        directory: Optional[str] = None,
    ) -> None:
        if num_shards <= 0:
            raise ConfigError(f"num_shards must be positive, got {num_shards}")
        self.directory = directory
        self.shards: list[KVStore] = [
            self._place(factory(index), index) for index in range(num_shards)
        ]
        self._shard_ops = [0] * num_shards
        # Slot routing table: a key hashes to a *slot* (``hash % len``),
        # the slot names the owning partition.  Initially the identity,
        # so routing is exactly ``hash % num_shards``; live splits double
        # the table and re-point individual slots (see ShardMigration).
        self._slots: list[int] = list(range(num_shards))
        # In-flight migrations keyed by source partition index: writes to
        # a moving key range are dual-logged into the migration's delta.
        self._migrations: dict[int, "ShardMigration"] = {}
        # Deferred post-cutover cleanup: source partition index -> moved
        # keys awaiting deletion (routing already points at the target,
        # so these are unreachable; scans filter them until drained).
        self._cleanup_backlog: dict[int, set[int]] = {}
        self._closed = False

    @classmethod
    def from_stores(
        cls, stores: Sequence[KVStore], directory: Optional[str] = None
    ) -> "ShardedKVStore":
        """Wrap already-constructed partitions (one per shard)."""
        stores = list(stores)
        store = cls.__new__(cls)
        ShardedKVStore.__init__(store, stores.__getitem__, len(stores), directory)
        return store

    def _place(
        self, partition: KVStore, index: int, source: Optional[KVStore] = None
    ) -> KVStore:
        """Hook run when ``partition`` starts serving shard ``index``;
        ``source`` is the partition a split or migration copies from."""
        return partition

    @property
    def num_shards(self) -> int:
        """Current number of partitions (grows with every split)."""
        return len(self.shards)

    @property
    def replication(self) -> int:
        """Copies of each key: the widest partition's engine count."""
        return max(len(partition.engines()) for partition in self.shards)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def shard_of(self, key: int) -> int:
        """Deterministic partition index for ``key`` (via the slot table)."""
        return self._slots[shard_hash(key) % len(self._slots)]

    def _route(self, verb: str, key: int, *args):
        """Run one single-key op on the owning partition (a routed op);
        writes are dual-logged when a migration covers the key."""
        shard = self.shard_of(key)
        self._shard_ops[shard] += 1
        result = getattr(self.shards[shard], verb)(key, *args)
        if verb not in ("get", "snapshot_read"):
            self._note_writes(shard, [key])
        return result

    def _dispatch(self, op: str, keys: list, values, by_shard: dict, *args) -> list:
        """The in-process executor: one batched call per partition's
        sub-batch (``by_shard`` maps partition to input positions), in
        order — ``op(sub_keys, sub_values)`` when ``values`` is given,
        else ``op(sub_keys, *args)``.  Returns one result per sub-batch.
        ``lookahead`` is the one op outside the :class:`KVStore`
        contract: partitions that cannot stage answer 0.
        """
        results = []
        for shard, positions in by_shard.items():
            partition = self.shards[shard]
            if op == "lookahead" and not hasattr(partition, "lookahead"):
                results.append(0)
                continue
            sub_keys = [keys[position] for position in positions]
            with obs_span(
                "kv.shard",
                clock=getattr(partition.engines()[0], "clock", None),
                shard=shard,
                op=op,
                keys=len(sub_keys),
            ):
                call = getattr(partition, op)
                if values is None:
                    results.append(call(sub_keys, *args))
                else:
                    results.append(call(sub_keys, [values[position] for position in positions]))
        return results

    def _fan_out(self, op: str, keys: list, *args, values=None, count=True) -> list:
        """Split a batch by partition, dispatch it, and return per-key
        results in input order (per-partition ones for ``multi_put`` and
        ``lookahead``); writes are dual-logged into migrations."""
        by_shard = partition_positions(keys, self._slots)
        if count:
            for shard, positions in by_shard.items():
                self._shard_ops[shard] += len(positions)
        answers = self._dispatch(op, keys, values, by_shard, *args)
        if self._migrations and op in ("multi_put", "multi_rmw"):
            for shard, positions in by_shard.items():
                self._note_writes(shard, [keys[position] for position in positions])
        if op in ("multi_put", "lookahead"):
            return answers
        results: list = [None] * len(keys)
        for positions, sub_results in zip(by_shard.values(), answers):
            for position, value in zip(positions, sub_results):
                results[position] = value
        return results

    # ------------------------------------------------------------------
    # KVStore interface
    # ------------------------------------------------------------------
    def get(self, key: int) -> Optional[bytes]:
        """Single-key read routed to the owning partition."""
        return self._route("get", key)

    def snapshot_read(self, key: int) -> Optional[bytes]:
        """Committed single-key read routed to the owning partition."""
        return self._route("snapshot_read", key)

    def put(self, key: int, value: bytes) -> None:
        """Single-key write routed to the owning partition."""
        self._route("put", key, value)

    def delete(self, key: int) -> bool:
        """Single-key delete routed to the owning partition."""
        return self._route("delete", key)

    def rmw(self, key: int, update: Callable[[Optional[bytes]], bytes]) -> bytes:
        """Read-modify-write routed to the owning partition."""
        return self._route("rmw", key, update)

    def _note_writes(self, shard: int, keys: Iterable[int]) -> None:
        """Dual-log writes into the shard's in-flight migration, if any."""
        migration = self._migrations.get(shard)
        if migration is not None:
            for key in keys:
                migration.note_write(key)

    def multi_get(self, keys) -> list:
        """Fan one batch out as one batched sub-read per partition."""
        return self._fan_out("multi_get", self._normalize_keys(keys))

    def snapshot_read_many(self, keys) -> list:
        """Batched committed reads: one sub-batch per partition."""
        return self._fan_out("snapshot_read_many", self._normalize_keys(keys))

    def fresh_read_many(self, keys) -> list:
        """Batched reads reflecting every acknowledged write: each
        partition answers through its own :meth:`KVStore.fresh_read_many`."""
        return self._fan_out("fresh_read_many", self._normalize_keys(keys))

    def read_committed_many(self, keys) -> list:
        """Training-side alias of :meth:`snapshot_read_many` (every
        child's ``snapshot_read_many`` already is its committed read)."""
        return self.snapshot_read_many(keys)

    def multi_put(self, keys, values) -> None:
        """Fan one batch out as one batched sub-write per partition.

        Positions within each partition keep their input order, so the
        last-duplicate-wins contract holds per key.
        """
        keys, values = self._normalize_pairs(keys, values)
        self._fan_out("multi_put", keys, values=values)

    def multi_rmw(self, keys, update: Callable[[list, list], list]) -> list:
        """Batched read-modify-write, run by each owning partition.

        ``update`` runs once per partition sub-batch (the
        :meth:`KVStore.multi_rmw` contract allows it), so each partition
        applies its own freshness rule — a replica group reads a lag-0
        replica, never a bounded-stale one.
        """
        return self._fan_out("multi_rmw", self._normalize_keys(keys), update)

    def lookahead(self, keys) -> int:
        """Fan a prefetch batch out to the partitions that stage.

        Staging is not a routed operation, so balance counters are left
        alone.
        """
        return sum(self._fan_out("lookahead", self._normalize_keys(keys), count=False))

    def scan(self) -> Iterator[tuple[int, bytes]]:
        """All live records: the child iterators merged partition by partition.

        Every engine's ``scan`` yields its own order (LSM sorted, FASTER
        index order, ...), so the merged stream has no global order — the
        guarantees are that each live key appears exactly once and comes
        from the partition owning it.  Keys a deferred post-cutover
        cleanup has not deleted from their old partition yet are filtered
        out of that partition's stream (the target owns them).
        """
        for index, partition in enumerate(self.shards):
            pending = self._cleanup_backlog.get(index)
            for key, value in partition.scan():
                if not pending or key not in pending:
                    yield key, value

    def __len__(self) -> int:
        """Live records across all partitions.

        Children without ``__len__`` (LSM, B+tree) are counted by
        scanning — correct but O(n); hash-indexed engines answer in
        O(1).  Keys awaiting deferred cleanup are not counted (their
        copies on the target partition already are).
        """
        total = 0
        for index, partition in enumerate(self.shards):
            try:
                total += len(partition)  # type: ignore[arg-type]
            except TypeError:
                total += sum(1 for _ in partition.scan())
            total -= len(self._cleanup_backlog.get(index, ()))
        return total

    def freeze(self) -> "ShardedKVStore":
        """Freeze every partition and the store itself."""
        for partition in self.shards:
            partition.freeze()
        self.read_only = True
        return self

    def close(self) -> None:
        """Close every partition."""
        if not self._closed:
            for partition in self.shards:
                partition.close()
            self._closed = True

    # ------------------------------------------------------------------
    # engine passthroughs (meaningful when the engines support them)
    # ------------------------------------------------------------------
    def engines(self) -> list:
        """Every engine under every partition, in partition order."""
        return [engine for partition in self.shards for engine in partition.engines()]

    def _shared(self, attribute: str):
        """The one object every engine shares under ``attribute``.

        Engines with private ones (per-device SSD models and clocks) have
        no single one, so the store's attribute is then absent
        (``AttributeError``) and ``getattr(store, name, None)`` call
        sites degrade gracefully.
        """
        engines = self.engines()
        first = getattr(engines[0], attribute, None)
        if first is not None and all(
            getattr(engine, attribute, None) is first for engine in engines
        ):
            return first
        raise AttributeError(f"engines do not share a single {attribute}")

    @property
    def ssd(self):
        """The shared device model (the embedding layer's conventional
        prefetch scopes its background I/O on it)."""
        return self._shared("ssd")

    @property
    def clock(self):
        """The shared simulated clock (the serving tier times queueing and
        batching on it, so build engines over one ``SSDModel`` to serve)."""
        return self._shared("clock")

    @property
    def staleness_bound(self):
        """Tightest engine bound (the training loop clamps its prefetch
        window with it); absent unless every engine has one."""
        bounds = [getattr(engine, "staleness_bound", None) for engine in self.engines()]
        if any(bound is None for bound in bounds):
            raise AttributeError("not every engine enforces a staleness bound")
        return min(bounds)

    def set_stall_handler(self, handler) -> None:
        """Register the training stall hook on every capable engine."""
        for engine in self.engines():
            sink = getattr(engine, "set_stall_handler", None)
            if sink is not None:
                sink(handler)

    # ------------------------------------------------------------------
    # stats & balance
    # ------------------------------------------------------------------
    @property
    def stats(self) -> StoreStats:
        """Aggregated snapshot of all partition counters.

        Unlike single engines this returns a fresh object per access (the
        children own the live counters); ``extra`` carries the per-shard
        breakdown under ``"shard_ops"`` plus each partition's own extras
        under ``"shards"``.
        """
        children = [partition.stats for partition in self.shards]
        total = sum_stats(children)
        total.extra["shard_ops"] = list(self._shard_ops)
        total.extra["shards"] = [dict(child.extra) for child in children]
        return total

    def balance(self) -> list[int]:
        """Operations routed to each shard since construction."""
        return list(self._shard_ops)

    def imbalance(self) -> float:
        """Max/mean ratio of routed ops (1.0 = perfectly balanced)."""
        total = sum(self._shard_ops)
        if total == 0:
            return 1.0
        return max(self._shard_ops) / (total / self.num_shards)

    # ------------------------------------------------------------------
    # coordinated checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Coordinated checkpoint: every partition, then one binding manifest.

        Engines persist their crash-consistent images first; the manifest
        naming them (plus each replica group's clocks, liveness and hint
        queues) is written atomically last.  It pins *locations*, not
        image versions, so cross-shard crash atomicity comes from
        uploading the unit through
        :class:`~repro.core.checkpoint.CloudCheckpointer`, which pins
        every file by content digest.  Without a base ``directory`` only
        the per-partition checkpoints run.
        """
        while self._cleanup_backlog:
            self.cleanup_step(4096)
        for partition in self.shards:
            snap = getattr(partition, "checkpoint", None)
            if snap is not None:
                snap()
        if self.directory is None:
            return
        os.makedirs(self.directory, exist_ok=True)
        described = [partition.describe(self._relpath) for partition in self.shards]
        manifest = {
            "num_shards": self.num_shards,
            "shards": [location for location, _ in described],
            "types": [dotted for _, dotted in described],
            "slots": list(self._slots),
        }
        tmp = os.path.join(self.directory, self.manifest_name + ".tmp")
        with open(tmp, "w") as f:
            json.dump(manifest, f)
        os.replace(tmp, os.path.join(self.directory, self.manifest_name))

    def _relpath(self, engine) -> str:
        """An engine's directory relative to the coordinated base dir."""
        child_dir = getattr(engine, "directory", None)
        if child_dir is None:
            raise CheckpointError(
                f"engine {type(engine).__name__} has no directory; coordinated "
                "checkpoints need file-backed children"
            )
        rel = os.path.relpath(os.path.abspath(child_dir), os.path.abspath(self.directory))
        if rel.startswith(os.pardir):
            raise CheckpointError(
                f"engine directory {child_dir} is outside the coordinated base "
                f"{self.directory}; place every engine under the base directory"
            )
        return rel

    @classmethod
    def _read_manifest(cls, directory: str) -> dict:
        """Load and validate the coordinated manifest under ``directory``."""
        manifest_path = os.path.join(directory, cls.manifest_name)
        if not os.path.exists(manifest_path):
            raise CheckpointError(f"no coordinated manifest in {directory}")
        with open(manifest_path) as f:
            manifest = json.load(f)
        if "replicas" in manifest:
            # Written before replica groups became partitions: one column
            # per group field instead of one entry per group.
            columns = ("replicas", "types", "clocks", "alive", "max_hints", "hints")
            manifest["shards"] = [
                dict(
                    zip(("replicas", "types", "clock", "alive", "max_hints", "hints"), group),
                    divergence_bound=manifest["divergence_bound"],
                    read_policy=manifest["read_policy"],
                )
                for group in zip(*(manifest[column] for column in columns))
            ]
            manifest["types"] = ["repro.kv.replicated.ReplicaGroup"] * len(manifest["shards"])
        count = len(manifest["shards"])
        slots = manifest.setdefault("slots", list(range(count)))
        if any(not 0 <= slot < count for slot in slots):
            raise CheckpointError(
                f"manifest slot table {slots} references partitions outside "
                f"0..{count - 1}"
            )
        return manifest

    @staticmethod
    def _reopen(directory: str, manifest: dict, index: int, factory, kwargs: dict) -> KVStore:
        """Rebuild partition ``index`` from its manifest entry."""
        location, dotted = manifest["shards"][index], manifest["types"][index]
        if isinstance(location, dict):  # a replica group: its entry names the replicas
            replica_factory = None if factory is None else functools.partial(factory, index)
            return import_type(dotted).restore(
                directory, entry=location, factory=replica_factory, **kwargs
            )
        path = os.path.join(directory, location)
        if factory is not None:
            return factory(index, path)
        return import_type(dotted).restore(path, **kwargs)

    @classmethod
    def restore(
        cls,
        directory: str,
        factory: Optional[Callable[..., KVStore]] = None,
        **kwargs,
    ) -> "ShardedKVStore":
        """Reopen a coordinated checkpoint as one store.

        ``factory(shard_index, directory)`` — or, for each replica of a
        group, ``factory(shard_index, replica_index, directory)`` —
        rebuilds one engine from its image (to re-wire shared SSD/clock
        models or budgets); without it each recorded class's ``restore``
        runs with ``kwargs``.  Group state comes back as checkpointed.
        """
        manifest = cls._read_manifest(directory)
        store = cls.from_stores(
            [
                cls._reopen(directory, manifest, index, factory, kwargs)
                for index in range(len(manifest["shards"]))
            ],
            directory=directory,
        )
        store._slots = list(manifest["slots"])
        return store

    # ------------------------------------------------------------------
    # rebalancing
    # ------------------------------------------------------------------
    def rebalance(
        self, factory: Callable[[int], KVStore], num_shards: int, batch: int = 1024
    ) -> "ShardedKVStore":
        """Stream every record into a new store with ``num_shards`` shards.

        Returns the new store; this store remains readable (callers close
        it once cut over).  Records move in ``batch``-sized ``multi_put``
        calls so the target partitions ingest through their batched
        paths.  The invariants tests rely on: the new store holds exactly
        the same records, and only keys whose hash lands on a different
        ``% num_shards`` bucket change shard.
        """
        target = ShardedKVStore(factory, num_shards)
        stream_into(target, self.scan(), batch)
        return target

    # ------------------------------------------------------------------
    # live migration: split / migrate with copy-then-cutover
    # ------------------------------------------------------------------
    def begin_split(
        self, shard_index: int, factory: Callable[[int], KVStore]
    ) -> "ShardMigration":
        """Start splitting one partition's key range onto a new partition.

        If the partition owns a single routing slot, the slot table
        doubles first (pure routing arithmetic: slot ``s`` becomes slots
        ``s`` and ``s + L`` pointing at the same partition, and a key
        lands on ``s + L`` exactly when it landed on ``s`` under the old
        modulus — no data moves).  The highest slot the partition owns is
        then marked *moving*: its keys are snapshot-copied to the new
        partition built by ``factory(new_index)`` while the source keeps
        serving reads and absorbing writes (dual-logged as deltas).
        :meth:`ShardMigration.cutover` replays the deltas, re-points the
        slot, and removes the moved keys from the source.
        """
        owned = self._owned_slots(shard_index)
        if len(owned) == 1:
            self._slots = self._slots + self._slots
            owned = [owned[0], owned[0] + len(self._slots) // 2]
        target = self._place(factory(self.num_shards), self.num_shards, self.shards[shard_index])
        migration = ShardMigration(self, shard_index, target, {owned[-1]}, replace=False)
        self._migrations[shard_index] = migration
        return migration

    def split_shard(
        self, shard_index: int, factory: Callable[[int], KVStore], batch: int = 1024
    ) -> int:
        """Split a partition in one call; returns the new partition's index.

        Equivalent to :meth:`begin_split` + copy-to-completion +
        :meth:`ShardMigration.cutover`.  Callers that need to interleave
        their own writes with the copy (a genuine rescale under load)
        drive the migration object directly.
        """
        return self.begin_split(shard_index, factory).run(batch=batch)

    def begin_migrate(
        self, shard_index: int, factory: Callable[[int], KVStore]
    ) -> "ShardMigration":
        """Start moving a partition's *entire* range to a replacement.

        The replacement (``factory(shard_index)``) takes over every slot
        the old partition owns at cutover — node replacement for a failed
        or hot shard, with the same copy-then-cutover discipline as a
        split.  The old partition is closed after cutover.
        """
        owned = self._owned_slots(shard_index)
        target = self._place(factory(shard_index), shard_index, self.shards[shard_index])
        migration = ShardMigration(self, shard_index, target, set(owned), replace=True)
        self._migrations[shard_index] = migration
        return migration

    def migrate_shard(
        self, shard_index: int, factory: Callable[[int], KVStore], batch: int = 1024
    ) -> int:
        """Replace a partition in one call; returns its index."""
        return self.begin_migrate(shard_index, factory).run(batch=batch)

    def cleanup_pending(self) -> int:
        """Moved keys still awaiting deferred post-cutover deletion."""
        return sum(len(keys) for keys in self._cleanup_backlog.values())

    def cleanup_step(self, batch: int = 1024) -> int:
        """Delete up to ``batch`` deferred-cleanup keys; returns the rest.

        The counterpart of :meth:`ShardMigration.copy_step` for the
        *after* side of a cutover made with ``defer_cleanup=True``: each
        call physically deletes a bounded chunk of moved keys from their
        old partition, so an autoscaler can spread the cleanup across
        serving batches the same way it spreads the copy.  Routing
        already points at the target, so the order and pacing of these
        deletes is invisible to readers.
        """
        if batch < 1:
            raise ConfigError(f"cleanup batch must be >= 1, got {batch}")
        budget = batch
        for index in sorted(self._cleanup_backlog):
            if budget == 0:
                break
            pending = self._cleanup_backlog[index]
            partition = self.shards[index]
            for key in sorted(pending)[:budget]:
                partition.delete(key)
                pending.discard(key)
                budget -= 1
            if not pending:
                del self._cleanup_backlog[index]
        return self.cleanup_pending()

    def _owned_slots(self, shard_index: int) -> list[int]:
        """Check a migration may start on ``shard_index``; its slots."""
        if not 0 <= shard_index < self.num_shards:
            raise ConfigError(
                f"no partition {shard_index}; have {self.num_shards} shards"
            )
        if self._migrations:
            raise ConfigError(
                "another migration is in flight; cut it over or abort it "
                "first (the slot-table arithmetic is per-migration)"
            )
        if self.read_only:
            raise ConfigError("cannot migrate a frozen store")
        # A new migration snapshots raw partition scans, so finish any
        # deferred cleanup first — leftover moved keys on an old partition
        # must not leak into a snapshot or survive a replacement.
        while self._cleanup_backlog:
            self.cleanup_step(4096)
        owned = [slot for slot, owner in enumerate(self._slots) if owner == shard_index]
        if not owned:
            raise ConfigError(f"partition {shard_index} owns no routing slot")
        return owned


class ShardMigration:
    """Copy-then-cutover state machine for one live shard move.

    Lifecycle::

        migration = store.begin_split(0, factory)   # or begin_migrate
        while migration.copy_step(batch):            # interleave writes
            ...                                      #   freely here
        migration.cutover()                          # or .abort() on failure

    Between ``begin`` and ``cutover`` the source partition remains the
    owner: reads route to it and writes land on it, with writes into the
    moving key range *also* recorded as deltas.  ``copy_step`` streams
    the begin-time snapshot to the target in batches; ``cutover`` drains
    the remaining snapshot, replays the delta log until it is empty,
    re-points the routing slot(s), and removes moved keys from the
    source — so at every instant each key has exactly one serving owner
    and no write is lost.  Copies and replays read the source through
    its *fresh* committed read: a replica group answers from a lag-0
    replica, because a bounded-stale routed read copied to the target
    would lose an acknowledged write at cutover.
    """

    def __init__(
        self,
        store: ShardedKVStore,
        source_index: int,
        target: KVStore,
        moving_slots: set[int],
        replace: bool,
    ) -> None:
        self.store = store
        self.source_index = source_index
        self.target = target
        self.moving_slots = set(moving_slots)
        self.replace = replace
        self.done = False
        # Begin-time snapshot of the moving key set; values are read
        # lazily (committed reads) so the copy sees current data and the
        # delta log covers everything written after this instant.
        source = store.shards[source_index]
        self._snapshot_keys: list[int] = [
            key for key, _ in source.scan() if self._moves(key)
        ]
        self._cursor = 0
        self._delta: set[int] = set()
        self._moved_keys: set[int] = set()
        self.keys_copied = 0
        self.delta_replayed = 0

    def _moves(self, key: int) -> bool:
        return (shard_hash(key) % len(self.store._slots)) in self.moving_slots

    def note_write(self, key: int) -> None:
        """Dual-log a source write that falls in the moving range."""
        if not self.done and self._moves(key):
            self._delta.add(key)

    @property
    def remaining(self) -> int:
        """Snapshot keys not yet copied."""
        return len(self._snapshot_keys) - self._cursor

    def copy_step(self, batch: int = 1024) -> int:
        """Copy up to ``batch`` snapshot keys; returns the remaining count.

        Uses the committed-read path on the source (no admissions, no
        staleness consumption) and the batched write path on the target.
        Keys deleted since the snapshot read back ``None`` and are
        skipped — the delta log carries the delete to cutover.
        """
        if self.done:
            raise ConfigError("migration already cut over")
        chunk = self._snapshot_keys[self._cursor:self._cursor + batch]
        self._cursor += len(chunk)
        self.keys_copied += self._copy(chunk)
        return self.remaining

    def _copy(self, keys: list) -> int:
        """Bring the target's copy of ``keys`` up to the source's current
        committed values; returns how many were written (the rest were
        deleted)."""
        if not keys:
            return 0
        source = self.store.shards[self.source_index]
        values = source.fresh_read_many(keys)
        written = replay(self.target, keys, values)
        self._moved_keys.difference_update(keys)
        self._moved_keys.update(written)
        return len(written)

    def abort(self) -> None:
        """Cancel the migration and unblock the store.

        The source partition never stopped owning the moving range, so
        aborting is purely local: the half-filled target is closed and
        discarded, the dual-logging hook is removed, and the store can
        start a new migration.  Call this when a ``copy_step`` fails
        (target disk full, factory misconfiguration) — an abandoned
        migration would otherwise keep accumulating deltas and block
        every future migration.
        """
        if self.done:
            raise ConfigError("migration already cut over")
        self.done = True
        self.store._migrations.pop(self.source_index, None)
        self._delta.clear()
        self.target.close()

    def cutover(self, batch: int = 1024, defer_cleanup: bool = False) -> int:
        """Finish the move atomically; returns the target's partition index.

        Each delta replay pass re-reads current committed values, so the
        target ends bit-identical to the source for every moved key; a
        replaced partition is closed outright.  With
        ``defer_cleanup=True`` the source-side deletes are queued on the
        store for :meth:`ShardedKVStore.cleanup_step` to drain in bounded
        batches, so the cutover tick costs O(delta), not O(moved keys) —
        the synchronous delete loop is exactly the multi-millisecond
        stall a latency SLO notices.
        """
        if self.done:
            raise ConfigError("migration already cut over")
        while self.remaining:
            self.copy_step(batch)
        while self._delta:
            keys = sorted(self._delta)
            self._delta.clear()
            self._copy(keys)
            self.delta_replayed += len(keys)
        index = self._install(defer_cleanup)
        self.done = True
        del self.store._migrations[self.source_index]
        return index

    def run(self, batch: int = 1024) -> int:
        """Copy to completion and cut over (no interleaved load)."""
        while self.copy_step(batch):
            pass
        return self.cutover(batch)

    def _install(self, defer_cleanup: bool) -> int:
        store = self.store
        if self.replace:
            old = store.shards[self.source_index]
            store.shards[self.source_index] = self.target
            old.close()
            return self.source_index
        target_index = len(store.shards)
        store.shards.append(self.target)
        store._shard_ops.append(0)
        for slot in self.moving_slots:
            store._slots[slot] = target_index
        if defer_cleanup:
            backlog = store._cleanup_backlog.setdefault(self.source_index, set())
            backlog.update(self._moved_keys)
            return target_index
        source = store.shards[self.source_index]
        for key in sorted(self._moved_keys):
            source.delete(key)
        return target_index
