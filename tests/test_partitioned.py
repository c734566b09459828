"""One partitioned store: replica groups as shard partitions.

Covers what only the unified store can do — live splits of replicated
shards (by hand and by the autoscaler), migration reads that never copy
a bounded-stale replica's value, look-ahead staging on the replica the
next routed read uses — plus the manifest compatibility the unified
reader keeps for replicated checkpoints written in the old layout.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from repro.core.embedding import EmbeddingTables
from repro.core.mlkv import MLKV
from repro.device import SimClock, SSDModel
from repro.errors import ConfigError
from repro.kv import (
    ParallelShardStore,
    ReplicaGroup,
    ReplicatedKVStore,
    shard_hash,
)
from repro.kv.faster import FasterKV
from repro.kv.parallel import fork_available
from repro.nn.layers import Linear
from repro.serve.autoscale import Autoscaler, AutoscalerConfig
from repro.train.dist.server import ParameterServer
from repro.train.loop import TrainerConfig


def _engines(tmp_path, ssd):
    counter = itertools.count()

    def engine(*_):
        return FasterKV(str(tmp_path / f"e{next(counter)}"), ssd=ssd)

    return engine


def _parallel(tmp_path, num_shards=2):
    return ParallelShardStore(
        lambda index: FasterKV(str(tmp_path / f"p{index}"), ssd=SSDModel(SimClock())),
        num_shards,
        processes=2,
    )


def _server(store):
    return ParameterServer(EmbeddingTables(store, dim=4), Linear(4, 1), TrainerConfig())


needs_fork = pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")


def _assert_oracle(store, oracle, keys):
    got = store.multi_get(keys)
    lost = [key for key, value in zip(keys, got) if value != oracle.get(key)]
    assert not lost, f"{len(lost)} acknowledged writes lost, e.g. {lost[:5]}"


class TestLookahead:
    def test_stages_on_the_replica_the_next_routed_read_uses(self, tmp_path):
        """Regression: staging used to pick its replica through the read
        router, advancing the round-robin cursor — so the read that
        followed went to the *other* replica and hit the SSD for every
        staged key."""
        ssd = SSDModel(SimClock())
        store = ReplicatedKVStore(
            lambda shard, replica: MLKV(
                str(tmp_path / f"s{shard}r{replica}"), ssd=ssd,
                memory_budget_bytes=1 << 14, page_bytes=1 << 12,
            ),
            num_shards=1,
            replication=2,
        )
        keys = list(range(2000))
        store.multi_put(keys, [bytes([key % 251]) * 64 for key in keys])
        cold = keys[:50]  # the oldest records: flushed to disk
        assert store.lookahead(cold) == 50
        reads_before = ssd.stats()["reads"]
        assert store.multi_get(cold) == [bytes([key % 251]) * 64 for key in cold]
        assert ssd.stats()["reads"] == reads_before, "staged keys read from disk"
        copied = [r.mlkv_stats.lookahead_copied for r in store.groups[0].replicas]
        assert copied == [50, 0]
        # Finding the replica moved no routing state.
        assert store.groups[0].failovers == 0
        store.close()


class TestReplicatedSplit:
    def test_live_split_with_a_lagging_replica_and_a_killed_one(self, tmp_path):
        """A live split of an RF=2 shard under ``divergence_bound=1``.

        The source group's replica 1 missed one acknowledged write
        (revived with ``catch_up=False``) yet stays admissible, and its
        complete peer is slowed, so every routed read lands on the stale
        replica: the copy and the delta replay must read a lag-0 replica
        instead.  Between copy steps one replica of the new group is
        killed (the source's only complete replica cannot be: the fail
        invariant refuses it) while writes and deletes interleave.  Every
        acknowledged write must read back after the cutover, after the
        deferred cleanup, and after the killed replica is revived.
        """
        ssd = SSDModel(SimClock())
        engine = _engines(tmp_path, ssd)
        store = ReplicatedKVStore(engine, num_shards=1, replication=2, divergence_bound=1)
        keys = list(range(400))
        oracle = {key: f"v{key}".encode() for key in keys}
        store.multi_put(keys, [oracle[key] for key in keys])

        # The split doubles the one-slot table and moves slot 1.
        stale_key = next(key for key in keys if shard_hash(key) % 2 == 1)
        store.fail_replica(0, 1)
        store.put(stale_key, b"fresh")
        oracle[stale_key] = b"fresh"
        store.revive_replica(0, 1, catch_up=False)
        assert store.replica_lag(0, 1) == 1
        store.slow_replica(0, 0, 1e-3)  # routed reads now prefer replica 1
        assert store.get(stale_key) != b"fresh"  # the bound admits the stale copy

        migration = store.begin_split(0, lambda index: ReplicaGroup([engine(), engine()]))
        rng = np.random.default_rng(7)
        step = 0
        while migration.copy_step(16):
            if step == 3:
                migration.target.fail(0)
            write_keys = [key for key in rng.integers(0, 500, size=8).tolist() if key != stale_key]
            values = [f"w{key}.{step}".encode() for key in write_keys]
            store.multi_put(write_keys, values)
            oracle.update(zip(write_keys, values))
            victim = int(rng.integers(0, 500))
            if victim != stale_key:
                store.delete(victim)
                oracle.pop(victim, None)
            step += 1
        assert not migration.target.alive[0]
        assert migration.cutover(defer_cleanup=True) == 1
        probe = sorted(set(range(500)) | {stale_key})
        _assert_oracle(store, oracle, probe)
        assert store.shard_of(stale_key) == 1

        # The new group took the source's read policy.
        source, target = store.groups
        assert (target.divergence_bound, target.read_policy) == (1, "one")

        while store.cleanup_step(64):
            pass
        _assert_oracle(store, oracle, probe)
        assert len(store) == len(oracle)

        assert store.revive_replica(1, 0) > 0  # hinted catch-up
        _assert_oracle(store, oracle, probe)
        for key in probe:
            if store.shard_of(key) == 1:
                for replica in target.replicas:
                    assert replica.get(key) == oracle.get(key)
        store.close()

    def test_autoscaler_splits_a_replicated_store(self, tmp_path):
        ssd = SSDModel(SimClock())
        engine = _engines(tmp_path, ssd)
        store = ReplicatedKVStore(engine, num_shards=1, replication=2, divergence_bound=1)
        keys = list(range(300))
        oracle = {key: f"v{key}".encode() for key in keys}
        store.multi_put(keys, [oracle[key] for key in keys])
        store.enable_hedging(1e-3)
        autoscaler = Autoscaler(
            store,
            lambda index: ReplicaGroup([engine(), engine()]),
            AutoscalerConfig(p99_threshold=100e-6, check_interval=1e-3,
                             min_window=8, cooldown=0.0, copy_batch=32,
                             max_shards=2),
        )
        for _ in range(16):
            autoscaler.observe_request(5e-3)
        now = 0.0
        autoscaler.tick(now)
        assert autoscaler.rescaling
        for key in itertools.count():  # one live write per serving tick
            if not (autoscaler.rescaling or store.cleanup_pending()):
                break
            store.put(key % 300, b"live")
            oracle[key % 300] = b"live"
            now += 1e-4
            autoscaler.tick(now)
        assert autoscaler.splits_completed == 1
        assert [d["action"] for d in autoscaler.decisions] == ["split_begin", "split_cutover"]
        assert store.num_shards == 2 and store.replication == 2
        assert isinstance(store.groups[1], ReplicaGroup)
        new_group = store.groups[1]
        assert (new_group.divergence_bound, new_group.hedge_threshold) == (1, 1e-3)
        _assert_oracle(store, oracle, keys)
        with pytest.raises(AttributeError):
            store.replication = 3  # derived from the partitions
        store.close()


class TestManifest:
    def test_restores_a_replicated_manifest_in_the_old_layout(self, tmp_path):
        """Replicated checkpoints written before replica groups became
        partitions kept the group state in parallel top-level lists."""
        ssd = SSDModel(SimClock())
        store = ReplicatedKVStore(
            lambda shard, replica: FasterKV(str(tmp_path / f"s{shard}r{replica}"), ssd=ssd),
            num_shards=2,
            replication=2,
            divergence_bound=1,
            directory=str(tmp_path),
        )
        store.multi_put(list(range(60)), [b"v"] * 60)
        store.fail_replica(0, 1)
        store.put(1000, b"hinted")
        store.checkpoint()
        store.close()
        path = tmp_path / "replicated.manifest.json"
        entries = json.loads(path.read_text())["shards"]
        path.write_text(json.dumps({
            "num_shards": 2,
            "replication": 2,
            "divergence_bound": 1,
            "read_policy": "one",
            "replicas": [entry["replicas"] for entry in entries],
            "types": [entry["types"] for entry in entries],
            "clocks": [entry["clock"] for entry in entries],
            "alive": [entry["alive"] for entry in entries],
            "max_hints": [entry["max_hints"] for entry in entries],
            "hints": [entry["hints"] for entry in entries],
        }))
        restored = ReplicatedKVStore.restore(str(tmp_path), ssd=SSDModel(SimClock()))
        assert restored.divergence_bound == 1
        assert restored.multi_get([0, 59, 1000]) == [b"v", b"v", b"hinted"]
        assert restored.groups[0].alive == [True, False]
        assert restored.revive_replica(0, 1) >= 1
        restored.close()


@needs_fork
class TestParallelExecutor:
    def test_refuses_the_migration_surface_up_front(self, tmp_path):
        store = _parallel(tmp_path)
        try:
            # Engines live in the workers: no shared sim clock to expose.
            assert store.replication == 1 and getattr(store, "clock", None) is None
            for start in (store.begin_split, store.begin_migrate, store.split_shard):
                with pytest.raises(ConfigError, match="parallel mode"):
                    start(0, lambda index: None)
            with pytest.raises(ConfigError, match="worker processes"):
                ParallelShardStore.from_stores([])
        finally:
            store.close()

    def test_unshippable_rmw_counts_only_its_fallback(self, tmp_path):
        """A closure cannot be pickled to the workers, so ``multi_rmw``
        runs centrally: one routed read and one routed write per key,
        and no count for the shipping attempt."""
        store = _parallel(tmp_path)
        try:
            keys = list(range(40))
            suffix = b"!"
            store.multi_rmw(keys, lambda sub_keys, values: [
                (value or b"") + suffix for value in values
            ])
            assert sum(store.balance()) == 2 * len(keys)
            assert store.multi_get(keys) == [b"!"] * len(keys)
        finally:
            store.close()


class TestScaleOut:
    def test_splits_a_replicated_store_with_a_group_factory(self, tmp_path):
        engine = _engines(tmp_path, SSDModel(SimClock()))
        store = ReplicatedKVStore(engine, num_shards=2, replication=2)
        store.multi_put(list(range(100)), [b"v"] * 100)
        store.multi_get([key for key in range(100) if store.shard_of(key) == 1])
        server = _server(store)
        assert server.scale_out(lambda index: ReplicaGroup([engine(), engine()])) == 2
        assert any(store.shard_of(key) == 2 for key in range(100))
        assert store.groups[2].shard == 2
        assert store.multi_get(list(range(100))) == [b"v"] * 100
        store.close()

    @needs_fork
    def test_is_noop_on_a_parallel_store(self, tmp_path):
        store = _parallel(tmp_path)
        try:
            assert _server(store).scale_out(lambda index: None) is None
            assert store.num_shards == 2
        finally:
            store.close()
