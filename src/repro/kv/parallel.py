"""Process-parallel executor for the partitioned store.

:class:`ParallelShardStore` is a :class:`~repro.kv.sharded.ShardedKVStore`
whose engines live in **shared-nothing worker processes**: each worker
owns a disjoint subset, built inside the worker after fork, so no file
descriptor or page cache is shared.  Routing, counters, balance, the
stats merge and the manifest are the one store's; this module adds only
the executor.  A batched operation ships each worker exactly one request
(the whole sub-batch as one encoded buffer from
:mod:`repro.kv.common.serialization`) and reads back one reply buffer,
so shards decode, probe and re-encode their sub-batches concurrently.
Every other operation reaches its engine through a :class:`_WorkerShard`
handle, one round trip per call.

This is an opt-in, *wall-clock* layer: engines in the workers keep
private simulated clocks, so parallel stores expose no ``clock``/``ssd``
and the serving tier's simulated-time paths refuse them gracefully.
:func:`create_sharded_store` picks parallel or serial; the two are
drop-in interchangeable, checkpoints included.

Protocol invariants (the deadlock-freedom argument):

* The parent sends at most one in-flight request per worker, and a
  request is at most two pipe messages (a pickled header, then for
  batches a raw payload buffer).  A worker is always blocked in ``recv``
  when a request arrives, drains both messages before replying, and
  replies with the same header(+payload) shape.
* Worker replies are read in worker order after all requests are sent,
  so independent workers overlap while the parent never waits on a
  worker it has not fed.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
from typing import Callable, Optional

import numpy as np

from repro.errors import CheckpointError, ConfigError, StorageError
from repro.kv.api import KVStore, StoreStats, type_name
from repro.kv.common.serialization import (
    decode_records,
    decode_values,
    encode_records,
    encode_values,
)
from repro.kv.sharded import ShardedKVStore
from repro.obs import profile as obs_profile
from repro.obs.trace import span as obs_span


def fork_available() -> bool:
    """Whether shared-nothing fork workers are supported on this platform."""
    return sys.platform != "win32" and "fork" in multiprocessing.get_all_start_methods()


def create_sharded_store(
    factory: Callable[[int], KVStore],
    num_shards: int,
    directory: Optional[str] = None,
    processes: Optional[int] = None,
):
    """Build a sharded store, process-parallel when the platform allows.

    Returns a :class:`ParallelShardStore` fanning ``num_shards`` engines
    out over ``processes`` workers, or the serial
    :class:`~repro.kv.sharded.ShardedKVStore` when parallelism cannot
    help or cannot be used:

    * ``processes`` (defaulting to ``min(num_shards, cpu_count)``)
      resolves to 1 — one worker would only add pipe hops;
    * fork start method unavailable (no cheap shared-nothing workers);
    * ``REPRO_SANITIZE=1`` — the runtime invariant sanitizer wraps store
      objects in-process, which cannot reach engines living in worker
      processes, so sanitized runs always exercise the serial path.
    """
    if processes is None:
        processes = min(num_shards, os.cpu_count() or 1)
    if (
        processes <= 1
        or not fork_available()
        or os.environ.get("REPRO_SANITIZE") == "1"
    ):
        return ShardedKVStore(factory, num_shards, directory=directory)
    return ParallelShardStore(factory, num_shards, directory=directory, processes=processes)


class _Unshippable(Exception):
    """A ``multi_rmw`` update that cannot run inside the workers."""


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _serve_call(engines: dict, shard: int, verb: str, args: tuple):
    """One single-engine request from a :class:`_WorkerShard` handle."""
    engine = engines[shard]
    if verb == "scan":
        return list(engine.scan())
    if verb == "len":
        return len(engine)
    if verb == "stats":
        return engine.stats
    if verb == "freeze":
        engine.freeze()
        return None
    if verb == "checkpoint":
        snap = getattr(engine, "checkpoint", None)
        if snap is not None:
            snap()
        return getattr(engine, "directory", None), type_name(engine)
    if verb == "close":
        engines.pop(shard).close()
        return None
    return getattr(engine, verb)(*args)  # get / put / delete / snapshot_read


def _serve_batch(engines: dict, op: str, entries: list, payload: bytes, update: bytes):
    """One combined sub-batch request: ``entries`` is ``[(shard, count)]``
    over the keys (or records, for ``multi_put``) in ``payload``.
    Returns the reply's ``(meta, payload)``."""
    if op == "multi_put":
        records = decode_records(payload, copy=True)
        for shard, count in entries:
            pairs = [next(records) for _ in range(count)]
            engines[shard].multi_put(
                [key for key, _ in pairs], [value for _, value in pairs]
            )
        return None, b""
    keys = np.frombuffer(payload, dtype=np.uint64)
    args: tuple = ()
    if op == "multi_rmw":
        try:
            args = (pickle.loads(update),)
        except Exception as exc:  # repro: lint-ignore[REP004]
            # Unpickling can raise nearly anything (a __main__ function
            # defined after the fork surfaces as AttributeError).  Not
            # swallowed: replied to the parent before touching any
            # engine, so it can safely run the op itself.
            raise _Unshippable(repr(exc)) from exc
    answers, offset = [], 0
    for shard, count in entries:
        sub_keys = keys[offset:offset + count].tolist()
        offset += count
        engine = engines[shard]
        if op == "lookahead" and not hasattr(engine, "lookahead"):
            answers.append(0)  # staging is MLKV-only, outside the KVStore contract
        else:
            answers.append(getattr(engine, op)(sub_keys, *args))
    if op == "lookahead":
        return answers, b""
    flat = [value for answer in answers for value in answer]
    return len(flat), bytes(encode_values(flat))


def _worker_main(shard_indices, factory, conn) -> None:
    """Own a subset of engines; serve one request at a time until each
    engine is closed."""
    engines = {index: factory(index) for index in shard_indices}
    while engines:
        try:
            message = conn.recv()
        except EOFError:
            break
        try:
            if message[0] == "call":
                _, shard, verb, args = message
                conn.send(("ok", _serve_call(engines, shard, verb, args)))
            else:
                _, op, entries, update = message
                meta, payload = _serve_batch(engines, op, entries, conn.recv_bytes(), update)
                conn.send(("ok", meta))
                conn.send_bytes(payload)
        except _Unshippable as exc:
            conn.send(("nopickle", exc))
        except BaseException as exc:  # repro: lint-ignore[REP004]
            # Not swallowed: every failure is relayed to the parent, which
            # re-raises it on the calling thread.
            try:
                conn.send(("err", exc))
            except Exception:  # repro: lint-ignore[REP004]
                # The exception object itself would not pickle; relay a
                # picklable stand-in instead of dying silently.
                conn.send(("err", StorageError(f"worker failed: {exc!r}")))
    conn.close()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class _WorkerShard(KVStore):
    """Parent-side handle on one engine living in a worker process.

    This is the partition the one store routes to: every call is one
    request/reply round trip to the owning worker (``rmw`` and the
    batched defaults compose them; the store's fan-out never uses
    them).  ``close`` takes a final counter snapshot first, so ``stats``
    stays readable after the worker is gone.
    """

    def __init__(self, store: "ParallelShardStore", index: int) -> None:
        self._store = store
        self.index = index
        self.directory: Optional[str] = None
        self.engine_type: Optional[str] = None
        self._final_stats: Optional[StoreStats] = None

    def _call(self, verb: str, *args):
        return self._store._call(self.index, verb, *args)

    def get(self, key: int) -> Optional[bytes]:
        return self._call("get", key)

    def snapshot_read(self, key: int) -> Optional[bytes]:
        return self._call("snapshot_read", key)

    def put(self, key: int, value: bytes) -> None:
        self._call("put", key, bytes(value))

    def delete(self, key: int) -> bool:
        return bool(self._call("delete", key))

    def scan(self):
        return iter(self._call("scan"))

    def __len__(self) -> int:
        return self._call("len")

    def freeze(self) -> "_WorkerShard":
        self._call("freeze")
        return self

    def checkpoint(self) -> None:
        self.directory, self.engine_type = self._call("checkpoint")

    def describe(self, relpath: Callable) -> tuple:
        return relpath(self), self.engine_type

    @classmethod
    def restore(cls, directory: str, **kwargs):
        raise CheckpointError("ParallelShardStore.restore reopens engines inside the workers")

    @property
    def stats(self) -> StoreStats:
        if self._final_stats is not None:
            return self._final_stats
        return self._call("stats")

    def close(self) -> None:
        try:
            self._final_stats = self._call("stats")
        except (EOFError, OSError, StorageError):
            pass  # a dead worker forfeits its final counters, not close()
        try:
            self._call("close")
        except (EOFError, OSError):
            pass  # the worker is already gone


class ParallelShardStore(ShardedKVStore):
    """Sharded store whose engines live in worker processes.

    Routing is the one store's (same splitmix64 slot table), so a data
    set written through one executor reads back identically through the
    other.  Live migration is not supported in parallel mode — rescale
    through the serial store, then reopen in parallel.
    """

    def __init__(
        self,
        factory: Callable[[int], KVStore],
        num_shards: int,
        directory: Optional[str] = None,
        processes: Optional[int] = None,
    ) -> None:
        if not fork_available():
            raise ConfigError(
                "ParallelShardStore needs the fork start method; use "
                "create_sharded_store() for a portable fallback"
            )
        super().__init__(lambda index: _WorkerShard(self, index), num_shards, directory)
        if processes is None:
            processes = min(num_shards, os.cpu_count() or 1)
        if processes <= 0:
            raise ConfigError(f"processes must be positive, got {processes}")
        self.processes = min(processes, num_shards)
        self._owner = [index % self.processes for index in range(num_shards)]
        context = multiprocessing.get_context("fork")
        self._workers = []
        for worker_index in range(self.processes):
            owned = [s for s in range(num_shards) if self._owner[s] == worker_index]
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(owned, factory, child_conn),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._workers.append((process, parent_conn))

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("parallel store is closed")

    def _call(self, shard: int, verb: str, *args):
        """One request/one reply against the worker owning ``shard``."""
        self._check_open()
        _, conn = self._workers[self._owner[shard]]
        conn.send(("call", shard, verb, args))
        status, payload = conn.recv()
        if status != "ok":
            raise payload
        return payload

    def _dispatch(self, op: str, keys: list, values, by_shard: dict, *args) -> list:
        """Ship one combined request per worker; split the replies back
        into one result per sub-batch (``multi_rmw`` takes its update
        already pickled).  Every pending reply is drained — even after a
        failure — so the pipes stay in lockstep for the next operation;
        only then does a relayed exception propagate."""
        self._check_open()
        update = args[0] if op == "multi_rmw" else b""
        with obs_span("kv.parallel_fanout", op=op, keys=len(keys)):
            dispatch_token = obs_profile.begin()
            by_worker: dict[int, list[tuple[int, list[int]]]] = {}
            for shard, positions in by_shard.items():
                by_worker.setdefault(self._owner[shard], []).append((shard, positions))
            key_arr = None if op == "multi_put" else np.asarray(keys, dtype=np.uint64)
            for worker_index, entries in by_worker.items():
                flat = [position for _, positions in entries for position in positions]
                _, conn = self._workers[worker_index]
                counts = [(shard, len(positions)) for shard, positions in entries]
                conn.send(("batch", op, counts, update))
                if op == "multi_put":
                    sub_keys = [keys[position] for position in flat]
                    sub_values = [values[position] for position in flat]
                    conn.send_bytes(bytes(encode_records(sub_keys, sub_values)))
                else:
                    conn.send_bytes(key_arr[flat].tobytes())
            obs_profile.end("parallel.dispatch", dispatch_token, units=len(keys))
            collect_token = obs_profile.begin()
            replies: dict[int, tuple] = {}
            failures: list[tuple[str, BaseException]] = []
            for worker_index in by_worker:
                _, conn = self._workers[worker_index]
                status, meta = conn.recv()
                if status == "ok":
                    replies[worker_index] = (meta, conn.recv_bytes())
                else:
                    failures.append((status, meta))
            if failures:
                if not replies and all(status == "nopickle" for status, _ in failures):
                    # Pickled here but no worker could load it (a
                    # __main__ function defined after the fork); nothing
                    # was applied.
                    raise _Unshippable(str(failures[0][1]))
                raise failures[0][1]
            answers: dict[int, object] = {}  # multi_put answers nothing
            for worker_index, entries in by_worker.items():
                meta, payload = replies[worker_index]
                if op == "lookahead":
                    answers.update(zip((shard for shard, _ in entries), meta))
                elif op != "multi_put":
                    decoded, cursor = decode_values(payload, meta), 0
                    for shard, positions in entries:
                        answers[shard] = decoded[cursor:cursor + len(positions)]
                        cursor += len(positions)
            obs_profile.end("parallel.collect", collect_token, units=len(keys))
            return [answers.get(shard) for shard in by_shard]

    def multi_rmw(self, keys, update) -> list:
        """Server-side batched RMW when ``update`` ships; central otherwise.

        A picklable ``update`` runs inside the workers (one invocation
        per shard sub-batch), so the read, the transform and the write
        all stay on the worker cores.  An unpicklable ``update`` (a
        closure over live state) falls back to the default
        read-transform-write in the parent, with the reads and writes
        still fanned out in parallel.  The pickle is tried before any
        key is routed, so the fallback's routed-op counts are its own.
        """
        keys = self._normalize_keys(keys)
        try:
            shipped = pickle.dumps(update)
        except Exception:  # repro: lint-ignore[REP004]
            # Closures over live state cannot ship; fall back to the
            # central read-transform-write (reads/writes still fan out).
            return KVStore.multi_rmw(self, keys, update)
        try:
            return self._fan_out("multi_rmw", keys, shipped)
        except _Unshippable:
            return KVStore.multi_rmw(self, keys, update)

    # ------------------------------------------------------------------
    # refused: engines are built inside the workers, never in the parent
    # ------------------------------------------------------------------
    def begin_split(self, shard_index: int, factory: Callable[[int], KVStore]):
        """Refused: live splits and migrations run on the serial store."""
        raise ConfigError(
            "live migration is not supported in parallel mode; rescale "
            "through the serial store, then reopen in parallel"
        )

    begin_migrate = begin_split

    @classmethod
    def from_stores(cls, stores, directory: Optional[str] = None):
        """Refused: wrap existing engines in a serial ShardedKVStore."""
        raise ConfigError("ParallelShardStore builds its engines inside worker processes")

    def close(self) -> None:
        """Close every shard, then shut the worker processes down."""
        if self._closed:
            return
        super().close()
        for process, conn in self._workers:
            conn.close()
            process.join(timeout=10)
            if process.is_alive():
                process.terminate()

    @classmethod
    def restore(
        cls,
        directory: str,
        factory: Optional[Callable[[int, str], KVStore]] = None,
        processes: Optional[int] = None,
        **kwargs,
    ) -> "ParallelShardStore":
        """Reopen a coordinated checkpoint with worker-process shards.

        Accepts the manifests :meth:`ShardedKVStore.checkpoint` writes;
        each engine is rebuilt inside its worker (``factory(index,
        shard_dir)``, else its recorded class's ``restore`` with
        ``kwargs``).  Slot tables with migrations applied are rejected —
        reopen migrated stores serially.
        """
        manifest = cls._read_manifest(directory)
        count = len(manifest["shards"])
        if manifest["slots"] != list(range(count)):
            raise CheckpointError(
                "manifest has a migrated slot table; parallel restore only "
                "supports identity routing — restore serially instead"
            )
        return cls(
            lambda index: cls._reopen(directory, manifest, index, factory, kwargs),
            count,
            directory=directory,
            processes=processes,
        )
