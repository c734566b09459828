"""Replica groups: the availability dimension of the partitioned store.

A :class:`ReplicaGroup` is a :class:`~repro.kv.api.KVStore` partition of
N independent engines holding the same key range.  Writes fan out to
every live replica synchronously; reads route to **one** replica, so
read throughput is unchanged by the replication factor and a failed
replica costs availability nothing.  :class:`ReplicatedKVStore` is the
:class:`~repro.kv.sharded.ShardedKVStore` built over such groups, plus
the fault surface that addresses them by ``(shard, replica)``.

Consistency reuses the paper's machinery: each group keeps a
:class:`~repro.device.clock.ReplicaVersionClock`, the vector-clock
staleness bound of MLKV applied at replica granularity.  A replica's
*lag* is the number of group writes it has not applied, and the
``divergence_bound`` admits it for reads only while its lag is within
the bound.  Reads whose result is written back (``rmw``) or copied
elsewhere (live migration) always use a lag-0 replica instead.

Failure handling:

* :meth:`~ReplicatedKVStore.fail_replica` marks a replica dead.  Writes
  continue on the survivors; each key written while a replica is down is
  recorded as a **hint** against it (hinted handoff).
* :meth:`~ReplicatedKVStore.revive_replica` brings it back: hinted keys
  are re-read from an up-to-date peer and replayed onto the reviving
  replica, after which its clock acknowledges the current group version.
  If the hint set overflowed ``max_hints`` while it was down, the replica
  is instead rebuilt wholesale from a peer's ``scan()``.
* :meth:`~ReplicatedKVStore.slow_replica` injects per-operation latency
  on one replica (a degraded disk, a noisy neighbor); the read router
  prefers un-slowed admissible replicas, so a slow replica is routed
  around exactly like a dead one as long as a healthy peer exists.
"""

from __future__ import annotations

import os
from typing import Callable, Iterator, Optional, Sequence

from repro.device.clock import ReplicaVersionClock
from repro.errors import CheckpointError, ConfigError, StorageError
from repro.kv.api import KVStore, StoreStats, type_name
from repro.kv.sharded import ShardedKVStore, import_type, replay, stream_into, sum_stats
from repro.obs.trace import instant as obs_instant
from repro.obs.trace import span as obs_span

READ_POLICIES = ("one", "quorum")

#: Batched counterpart of each single-key read (quorum reads batch).
_BATCHED = {"get": "multi_get", "snapshot_read": "snapshot_read_many"}

#: Clock component chaos-injected slowness is charged to (visible in the
#: busy-time table, separate from genuine cpu/ssd work).
CHAOS_COMPONENT = "chaos"


def _check_read_policy(divergence_bound: int, read_policy: str) -> None:
    if divergence_bound < 0:
        raise ConfigError(f"divergence_bound must be >= 0, got {divergence_bound}")
    if read_policy not in READ_POLICIES:
        raise ConfigError(
            f"read_policy must be one of {READ_POLICIES}, got {read_policy!r}"
        )


class ReplicaGroup(KVStore):
    """One partition's replica set: N engines, a version clock, hint queues.

    The group is the unit of fan-out and failover, and owns its read
    policy: ``divergence_bound`` is the most missed writes a replica may
    lag and still serve reads (0 = only fully caught-up replicas);
    ``read_policy`` ``"one"`` routes each read to one admissible replica,
    ``"quorum"`` reads a majority and answers from the freshest;
    ``hedge_threshold`` is set by :meth:`ReplicatedKVStore.enable_hedging`.
    ``max_hints`` caps each replica's hint queue (beyond it a revive
    rebuilds from a peer's scan).  ``shard`` labels trace spans.
    """

    def __init__(
        self,
        replicas: Sequence[KVStore],
        max_hints: int = 100_000,
        divergence_bound: int = 0,
        read_policy: str = "one",
    ) -> None:
        if not replicas:
            raise ConfigError("a replica group needs at least one replica")
        _check_read_policy(divergence_bound, read_policy)
        self.replicas: list[KVStore] = list(replicas)
        self.alive: list[bool] = [True] * len(self.replicas)
        self.clock = ReplicaVersionClock(len(self.replicas))
        self.max_hints = max_hints
        self.divergence_bound = divergence_bound
        self.read_policy = read_policy
        self.hedge_threshold: Optional[float] = None
        self.shard = 0
        # Per-replica hinted-handoff sets: keys written while it was down.
        # ``None`` marks an overflowed set (full resync needed on revive).
        self._hints: list[Optional[set[int]]] = [set() for _ in self.replicas]
        self._slow_penalty: list[float] = [0.0] * len(self.replicas)
        self._cursor = 0  # round-robin start for read routing
        self.failovers = 0  # reads that skipped the preferred replica
        self.catchup_keys = 0  # keys replayed by hinted catch-up
        self.resyncs = 0  # full scan-copy rebuilds
        self.hedged_reads = 0  # reads answered by a hedge instead of waiting

    # ------------------------------------------------------------------
    # liveness & health
    # ------------------------------------------------------------------
    @property
    def replication(self) -> int:
        """Configured replica count (live or not)."""
        return len(self.replicas)

    def engines(self) -> list[KVStore]:
        """The replica engines, live or not."""
        return self.replicas

    def live_indices(self) -> list[int]:
        """Indices of the replicas currently up, in order."""
        return [index for index, up in enumerate(self.alive) if up]

    def fail(self, replica: int) -> None:
        """Mark ``replica`` dead.

        A fully caught-up (lag 0) live replica must survive: the scalar
        version clock counts *how many* writes a replica missed, not
        *which*, so two replicas with disjoint gaps could not repair
        each other — catch-up needs a donor holding every acknowledged
        write.  Keeping one complete replica alive at all times is the
        invariant that makes lag 0 mean "holds everything" (and is why
        :meth:`_complete_peer` can never come up empty).
        """
        if not self.alive[replica]:
            return
        survivors = [
            index for index in self.live_indices() if index != replica
        ]
        if not any(self.clock.lag(index) == 0 for index in survivors):
            raise StorageError(
                f"cannot fail replica {replica}: no fully caught-up live "
                "replica would remain (catch up a lagging replica first)"
            )
        self.alive[replica] = False

    def revive(self, replica: int, catch_up: bool = True) -> int:
        """Bring ``replica`` back; returns the number of keys replayed.

        With ``catch_up=True`` (the default) the hinted keys — or, after
        hint overflow, the whole image — are copied from an up-to-date
        peer before the replica is admitted for reads.  With
        ``catch_up=False`` the replica comes back *lagging*: it is live
        for writes but the divergence bound keeps it out of read routing
        until :meth:`catch_up` runs.
        """
        if self.alive[replica]:
            return 0
        self.alive[replica] = True
        return self.catch_up(replica) if catch_up else 0

    def catch_up(self, replica: int) -> int:
        """Replay missed writes onto a live, lagging replica."""
        if not self.alive[replica]:
            raise StorageError("catch_up needs a live replica; revive it first")
        hints = self._hints[replica]
        if hints is not None and not hints and self.clock.lag(replica) == 0:
            return 0  # already converged: no donor needed
        donor = self.replicas[self._complete_peer(exclude=replica)]
        target = self.replicas[replica]
        replayed = 0
        if hints is None:
            # Hint overflow: rebuild from a peer's full image (batched —
            # this path exists for large images), then drop records the
            # group deleted while this replica was down.
            donor_keys = stream_into(target, donor.scan())
            for key, _ in list(target.scan()):
                if key not in donor_keys:
                    target.delete(key)
            replayed = len(donor_keys)
            self.resyncs += 1
        elif hints:
            keys = sorted(hints)
            replay(target, keys, donor.snapshot_read_many(keys))
            replayed = len(keys)
        self._hints[replica] = set()
        self.clock.ack(replica)
        self.catchup_keys += replayed
        return replayed

    def slow(self, replica: int, penalty_seconds: float) -> None:
        """Inject ``penalty_seconds`` of extra latency per read on one
        replica (0 clears it)."""
        if penalty_seconds < 0:
            raise ConfigError(f"penalty must be non-negative, got {penalty_seconds}")
        self._slow_penalty[replica] = penalty_seconds

    def _complete_peer(self, exclude: int) -> int:
        """A live replica holding **every** acknowledged write (lag 0).

        Only a lag-0 replica is a sound read source for catch-up, rmw,
        migration copies and scans: the scalar clock cannot tell which
        writes a lagging replica missed, so "highest applied version"
        alone could pick a donor missing an acknowledged write.  The
        :meth:`fail` invariant guarantees such a replica exists.
        """
        candidates = [
            index
            for index in self.live_indices()
            if index != exclude and self.clock.lag(index) == 0
        ]
        if not candidates:
            raise StorageError(
                "no fully caught-up live replica to read from; catch up a "
                "lagging replica first"
            )
        return candidates[0]

    def _fresh(self) -> KVStore:
        return self.replicas[self._complete_peer(exclude=-1)]

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _plan(self, bound: int, threshold: Optional[float] = None) -> tuple[int, float, int, bool]:
        """``(replica, charge, pool size, hedged)`` of the next routed read
        — :meth:`pick_reader` without a hedge ``threshold``, hedged
        routing (see :meth:`_route`) with one — with no side effects."""
        live = self.live_indices()
        admissible = [index for index in live if self.clock.in_bound(index, bound)]
        if not admissible:
            raise StorageError(
                f"no replica within divergence bound {bound}; live replicas "
                f"{live} lag {[self.clock.lag(index) for index in live]} "
                "(run catch_up first)"
            )
        if threshold is None:
            healthy = [index for index in admissible if not self._slow_penalty[index]]
            if not healthy:
                choice = min(admissible, key=self._slow_penalty.__getitem__)
                return choice, self._slow_penalty[choice], len(admissible), False
            return healthy[self._cursor % len(healthy)], 0.0, len(healthy), False
        choice = admissible[self._cursor % len(admissible)]
        penalty = self._slow_penalty[choice]
        alternates = [index for index in admissible if index != choice]
        if penalty > threshold and alternates:
            alternate = min(alternates, key=self._slow_penalty.__getitem__)
            hedged_cost = threshold + self._slow_penalty[alternate]
            if hedged_cost < penalty:
                return alternate, hedged_cost, len(admissible), True
        return choice, penalty, len(admissible), False

    def pick_reader(self, bound: int) -> int:
        """One admissible replica: live, lag ≤ bound, un-slowed preferred.

        Round-robin over the admissible pool spreads read load; when
        every admissible replica is slowed the least-penalized one is
        chosen (degraded service beats no service).  Raises when no live
        replica is within the divergence bound.  ``failovers`` counts
        reads served while the pool was short of the configured
        replication factor — reads that routed around a dead, lagging,
        or slowed replica.
        """
        choice, charge, pool, _ = self._plan(bound)
        if pool < self.replication:
            self.failovers += 1
        self._cursor += not charge  # the all-slowed fallback does not rotate
        return choice

    def quorum_readers(self) -> list[int]:
        """A majority of live replicas, freshest first.

        Quorum reads filter on liveness only — the freshest-first
        ranking (the first reader's answers win) is what guarantees a
        current value, so the divergence bound does not apply here.
        Reads served by a short group still count as failovers.
        """
        live = self.live_indices()
        needed = self.replication // 2 + 1
        if len(live) < needed:
            raise StorageError(
                f"quorum needs {needed} of {self.replication} replicas, "
                f"only {len(live)} live"
            )
        if len(live) < self.replication:
            self.failovers += 1
        ranked = sorted(live, key=lambda index: -self.clock.applied[index])
        return ranked[:needed]

    def _charge(self, replica: int, seconds: float) -> None:
        """Pay injected slowness on the replica's simulated clock."""
        if seconds:
            clock = getattr(self.replicas[replica], "clock", None)
            if clock is not None:
                clock.advance(seconds, component=CHAOS_COMPONENT)

    def _route(self) -> int:
        """Pick the replica one routed read uses and pay its slowness.

        With a ``hedge_threshold`` the read is hedged: unlike
        :meth:`pick_reader` — which *avoids* slowed replicas and so
        hot-spots every read onto the least-penalized one — hedged
        routing round-robins over the **whole** admissible pool, slowed
        replicas included: the hedge is what makes spreading load over
        degraded replicas safe.  When the routed replica's injected
        penalty exceeds the threshold, the read waits the threshold and
        duplicates to the least-slow admissible peer, completing at the
        faster of the two (it pays the threshold plus that peer's own
        penalty).
        """
        if self.hedge_threshold is None:
            replica = self.pick_reader(self.divergence_bound)
            charge = self._slow_penalty[replica]
        else:
            replica, charge, pool, hedged = self._plan(
                self.divergence_bound, self.hedge_threshold
            )
            self.failovers += pool < self.replication
            self._cursor += 1
            self.hedged_reads += hedged
        self._charge(replica, charge)
        return replica

    def _peek(self) -> int:
        """The replica the next routed read will use — without advancing
        the cursor, counting a failover or charging a penalty."""
        if self.read_policy == "quorum":
            return max(self.live_indices(), key=self.clock.applied.__getitem__)
        return self._plan(self.divergence_bound, self.hedge_threshold)[0]

    # ------------------------------------------------------------------
    # KVStore interface — reads
    # ------------------------------------------------------------------
    def get(self, key: int) -> Optional[bytes]:
        """Read from one admissible replica (or a quorum)."""
        return self._read("get", key)

    def snapshot_read(self, key: int) -> Optional[bytes]:
        """Committed read (no staleness consumption) from one replica."""
        return self._read("snapshot_read", key)

    def multi_get(self, keys) -> list:
        """One batched read served by one replica (or a quorum)."""
        return self._read("multi_get", self._normalize_keys(keys))

    def snapshot_read_many(self, keys) -> list:
        """Batched committed reads served by one replica (or a quorum)."""
        return self._read("snapshot_read_many", self._normalize_keys(keys))

    def fresh_read_many(self, keys) -> list:
        """Batched committed reads from a lag-0 replica.

        The read half of anything whose result outlives the read — an
        rmw write-back, a migration copy: a bounded-stale replica would
        fan or copy its old value over fresher ones (a lost update).
        """
        return self._fresh().snapshot_read_many(self._normalize_keys(keys))

    def _read(self, verb: str, arg):
        """One routed read, or a quorum read answered by the freshest
        majority member.  ``quorum_readers`` ranks by applied version, so
        the first reader's answers win; the rest are still read (paying
        their cost) — the price of quorum reads, and exactly why
        read-one + divergence bound is the serving path."""
        if self.read_policy == "quorum":
            single = verb in _BATCHED
            keys = [arg] if single else arg
            with obs_span("kv.replica_read", shard=self.shard, policy="quorum", keys=len(keys)):
                answers = []
                for replica in self.quorum_readers():
                    self._charge(replica, self._slow_penalty[replica])
                    answers.append(getattr(self.replicas[replica], _BATCHED.get(verb, verb))(keys))
            return answers[0][0] if single else answers[0]
        replica = self._route()
        reader = self.replicas[replica]
        with obs_span(
            "kv.replica_read",
            clock=getattr(reader, "clock", None),
            shard=self.shard,
            replica=replica,
        ):
            return getattr(reader, verb)(arg)

    def lookahead(self, keys) -> int:
        """Stage a prefetch batch on the replica the next routed read
        will use (staging elsewhere would only warm a replica that is
        not read)."""
        stage = getattr(self.replicas[self._peek()], "lookahead", None)
        return stage(self._normalize_keys(keys)) if stage is not None else 0

    # ------------------------------------------------------------------
    # KVStore interface — writes (synchronous fan-out)
    # ------------------------------------------------------------------
    def put(self, key: int, value: bytes) -> None:
        """Fan-out write to every live replica."""
        self._check_writable()
        self.fanout_put(key, value)

    def delete(self, key: int) -> bool:
        """Fan-out delete to every live replica."""
        self._check_writable()
        return self.fanout_delete(key)

    def multi_put(self, keys, values) -> None:
        """Batched fan-out write."""
        self._check_writable()
        keys, values = self._normalize_pairs(keys, values)
        with obs_span(
            "kv.replica_write",
            shard=self.shard,
            live_replicas=len(self.live_indices()),
            keys=len(keys),
        ):
            self.fanout_multi_put(keys, values)

    def rmw(self, key: int, update: Callable[[Optional[bytes]], bytes]) -> bytes:
        """Read-modify-write reading a **fully caught-up** replica.

        The divergence bound licenses stale *reads*, never stale
        write-backs: routing the read half through a bounded-stale
        replica would fan its old value out over fresher copies (a lost
        update).
        """
        self._check_writable()
        new_value = update(self._fresh().get(key))
        self.fanout_put(key, new_value)
        return new_value

    def multi_rmw(self, keys, update: Callable[[list, list], list]) -> list:
        """Batched :meth:`rmw`: the parameter-server apply hook.

        The read half uses :meth:`fresh_read_many`; the writes fan out
        through the group (hinted against dead replicas), so a replica
        killed mid-push loses nothing: the survivor takes the delta and
        the revive replays it.
        """
        self._check_writable()
        keys = self._normalize_keys(keys)
        new_values = list(update(keys, self.fresh_read_many(keys)))
        if len(new_values) != len(keys):
            raise ValueError(
                f"multi_rmw update returned {len(new_values)} values "
                f"for {len(keys)} keys"
            )
        self.fanout_multi_put(keys, new_values)
        return new_values

    def fanout_put(self, key: int, value: bytes) -> None:
        """Write to every live replica, hinting the write for down ones."""
        self._fanout([key], lambda replica: replica.put(key, value))

    def fanout_delete(self, key: int) -> bool:
        """Delete on every live replica; returns whether any held the key."""
        return self._fanout([key], lambda replica: replica.delete(key))

    def fanout_multi_put(self, keys: list, values: list) -> None:
        """Batched fan-out write with per-replica hinting."""
        self._fanout(keys, lambda replica: replica.multi_put(keys, values))

    def _fanout(self, keys: list, write: Callable[[KVStore], object]) -> bool:
        """Apply ``write`` on every live replica and hint ``keys`` against
        the dead ones; returns whether any replica's ``write`` was truthy."""
        self.clock.advance(len(keys))
        answered = False
        for index, replica in enumerate(self.replicas):
            if self.alive[index]:
                answered = bool(write(replica)) or answered
                # apply(), not ack(): a lagging replica keeps its gap —
                # taking new writes does not un-miss the hinted ones.
                self.clock.apply(index, len(keys))
            else:
                for key in keys:
                    self._hint(index, key)
        return answered

    def _hint(self, replica: int, key: int) -> None:
        hints = self._hints[replica]
        if hints is None:
            return  # already overflowed: revive will full-resync
        hints.add(key)
        if len(hints) > self.max_hints:
            self._hints[replica] = None

    def hints_outstanding(self, replica: int) -> int:
        """Hinted keys queued for ``replica`` (-1 after overflow)."""
        hints = self._hints[replica]
        return -1 if hints is None else len(hints)

    def scan(self) -> Iterator[tuple[int, bytes]]:
        """Every live record once, from a fully caught-up replica."""
        return self._fresh().scan()

    def __len__(self) -> int:
        """Live records on a fully caught-up replica (``TypeError`` for
        unsized engines, like the engines themselves)."""
        return len(self._fresh())  # type: ignore[arg-type]

    def freeze(self) -> "ReplicaGroup":
        """Freeze every replica and the group itself."""
        for replica in self.replicas:
            replica.freeze()
        self.read_only = True
        return self

    def close(self) -> None:
        """Close every replica."""
        for replica in self.replicas:
            replica.close()

    @property
    def stats(self) -> StoreStats:
        """Counters summed over every replica, plus replication health.

        Reads touch one replica and writes touch all live replicas, so
        ``puts`` counts fan-out copies (the real work done) while
        ``gets``/``hits``/``misses`` reflect the single routed read path.
        """
        total = sum_stats(replica.stats for replica in self.replicas)
        indices = range(self.replication)
        total.extra.update(
            replica_lag=[self.clock.lag(index) for index in indices],
            hints_outstanding=[self.hints_outstanding(index) for index in indices],
            slow_penalties=list(self._slow_penalty),
            failovers=self.failovers,
            catchup_keys=self.catchup_keys,
            hedged_reads=self.hedged_reads,
            resyncs=self.resyncs,
        )
        return total

    def checkpoint(self) -> None:
        """Checkpoint every replica engine."""
        for replica in self.replicas:
            snap = getattr(replica, "checkpoint", None)
            if snap is not None:
                snap()

    def describe(self, relpath: Callable[[KVStore], str]) -> tuple[dict, str]:
        """``(manifest entry, class)``: the replica images plus the group
        state a restore cannot rediscover.  Hinted-handoff queues survive
        the round trip, so a revive after restore replays exactly the
        keys the live run owed the dead replica."""
        entry = {
            "replicas": [relpath(replica) for replica in self.replicas],
            "types": [type_name(replica) for replica in self.replicas],
            "clock": {"version": self.clock.version, "applied": list(self.clock.applied)},
            "alive": list(self.alive),
            "max_hints": self.max_hints,
            "hints": [None if hints is None else sorted(hints) for hints in self._hints],
            "divergence_bound": self.divergence_bound,
            "read_policy": self.read_policy,
        }
        return entry, type_name(self)

    @classmethod
    def restore(
        cls,
        directory: str,
        entry: Optional[dict] = None,
        factory: Optional[Callable[[int, str], KVStore]] = None,
        **kwargs,
    ) -> "ReplicaGroup":
        """Reopen a group from its ``entry`` in a store manifest.

        Replica images live under ``directory`` at the entry's relative
        paths; ``factory(replica_index, replica_directory)`` rebuilds one
        (else each recorded class's ``restore`` runs with ``kwargs``).
        """
        if entry is None:
            raise CheckpointError("a replica group restores from its store manifest entry")
        replicas = []
        for index, (rel, dotted) in enumerate(zip(entry["replicas"], entry["types"])):
            path = os.path.join(directory, rel)
            replicas.append(
                factory(index, path) if factory is not None
                else import_type(dotted).restore(path, **kwargs)
            )
        group = cls(
            replicas,
            max_hints=entry["max_hints"],
            divergence_bound=entry["divergence_bound"],
            read_policy=entry["read_policy"],
        )
        group.clock.version = entry["clock"]["version"]
        group.clock.applied = list(entry["clock"]["applied"])
        group.alive = list(entry["alive"])
        group._hints = [None if hints is None else set(hints) for hints in entry["hints"]]
        return group


class ReplicatedKVStore(ShardedKVStore):
    """Sharded store whose partitions are N-way replica groups.

    Parameters
    ----------
    factory:
        ``factory(shard_index, replica_index) -> KVStore`` building one
        engine per (shard, replica); replicas of a shard must be
        independent instances (their own directories).
    num_shards:
        Initial number of partitions; live splits add more (their
        factory builds whole :class:`ReplicaGroup` s).
    replication:
        Replicas per shard (1 = plain sharding with group bookkeeping).
    divergence_bound, read_policy, max_hints:
        Every group's read policy and hinted-handoff cap (see
        :class:`ReplicaGroup`).
    directory:
        Optional base directory for the coordinated checkpoint manifest;
        every replica's own directory must live under it.
    """

    manifest_name = "replicated.manifest.json"

    def __init__(
        self,
        factory: Callable[[int, int], KVStore],
        num_shards: int,
        replication: int = 2,
        divergence_bound: int = 0,
        read_policy: str = "one",
        max_hints: int = 100_000,
        directory: Optional[str] = None,
    ) -> None:
        if replication <= 0:
            raise ConfigError(f"replication must be positive, got {replication}")
        _check_read_policy(divergence_bound, read_policy)
        super().__init__(
            lambda shard: ReplicaGroup(
                [factory(shard, replica) for replica in range(replication)],
                max_hints=max_hints,
                divergence_bound=divergence_bound,
                read_policy=read_policy,
            ),
            num_shards,
            directory=directory,
        )

    def _place(
        self, partition: KVStore, index: int, source: Optional[KVStore] = None
    ) -> KVStore:
        """Label the group with its shard; a split or migration target
        takes the source group's read policy."""
        if not isinstance(partition, ReplicaGroup):
            raise ConfigError(
                "a replicated store's partitions are ReplicaGroups; the "
                f"factory built a {type(partition).__name__}"
            )
        partition.shard = index
        if isinstance(source, ReplicaGroup):
            partition.divergence_bound = source.divergence_bound
            partition.read_policy = source.read_policy
            partition.hedge_threshold = source.hedge_threshold
        return partition

    @property
    def groups(self) -> list[ReplicaGroup]:
        """The partitions, one replica group per shard."""
        return self.shards  # type: ignore[return-value]

    @property
    def divergence_bound(self) -> int:
        """The groups' divergence bound (setting it applies to every group)."""
        return self.groups[0].divergence_bound

    @divergence_bound.setter
    def divergence_bound(self, bound: int) -> None:
        for group in self.groups:
            group.divergence_bound = bound

    def enable_hedging(self, threshold_seconds: Optional[float]) -> None:
        """Turn on request hedging for every group's routed reads
        (``None`` disables): see :meth:`ReplicaGroup._route`.
        Hedges taken land in ``stats.extra["hedged_reads"]``."""
        if threshold_seconds is not None and threshold_seconds < 0:
            raise ConfigError(
                f"hedge threshold must be non-negative, got {threshold_seconds}"
            )
        for group in self.groups:
            group.hedge_threshold = threshold_seconds

    # ------------------------------------------------------------------
    # fault injection & recovery (the chaos surface)
    # ------------------------------------------------------------------
    def live_replicas(self, shard: int) -> list[int]:
        """Indices of the live replicas of ``shard`` (the autoscaler's
        add/remove-replica surface reads this)."""
        return self.groups[shard].live_indices()

    def fail_replica(self, shard: int, replica: int) -> None:
        """Kill one replica; reads and writes route around it."""
        self.groups[shard].fail(replica)
        obs_instant(
            "chaos.fail_replica",
            clock=getattr(self, "clock", None),
            shard=shard,
            replica=replica,
        )

    def revive_replica(self, shard: int, replica: int, catch_up: bool = True) -> int:
        """Bring a replica back (hinted catch-up unless ``catch_up=False``)."""
        replayed = self.groups[shard].revive(replica, catch_up=catch_up)
        obs_instant(
            "chaos.revive_replica",
            clock=getattr(self, "clock", None),
            shard=shard,
            replica=replica,
            replayed=replayed,
        )
        return replayed

    def catch_up_replica(self, shard: int, replica: int) -> int:
        """Replay missed writes onto a live, lagging replica."""
        return self.groups[shard].catch_up(replica)

    def slow_replica(self, shard: int, replica: int, penalty_seconds: float) -> None:
        """Inject per-read latency on one replica (0 clears it)."""
        self.groups[shard].slow(replica, penalty_seconds)

    def replica_lag(self, shard: int, replica: int) -> int:
        """Writes a replica is behind its group's newest write."""
        return self.groups[shard].clock.lag(replica)

    @property
    def stats(self) -> StoreStats:
        """Sharded stats plus replication health rolled up over groups:
        per-group lag, hint and slowness vectors; summed failover,
        catch-up and hedge counts."""
        total = super().stats
        per_group = total.extra["shards"]
        for field in ("replica_lag", "hints_outstanding", "slow_penalties"):
            total.extra[field] = [group[field] for group in per_group]
        for field in ("failovers", "catchup_keys", "hedged_reads"):
            total.extra[field] = sum(group[field] for group in per_group)
        return total
