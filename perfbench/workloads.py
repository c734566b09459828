"""The three benchmark workloads: set-up, one measured round, teardown.

A *round* is one full pass of a workload's fixed, seed-derived input over
freshly built state: the same seed therefore gives bit-identical
sim-clock results in every round, which ``run.py`` checks.  Each round
returns a :class:`Round` with

* its wall measurements (timed phase, one sample per step),
* ``sim`` — every value that must not depend on wall time or tracing:
  sim-clock throughput and latency, output quality and the device and
  store counters (deltas over the timed phase),
* ``checks`` — output-check failures (empty when the outputs are right).

Every workload drives only public entry points of ``repro.train``,
``repro.serve``, ``repro.core``, ``repro.kv`` and ``repro.device``.  When
a :class:`~tracing.Tracer` is given, each layer's public boundary is
wrapped for the round (see ``tracing.Patches``); without one, only the
step-boundary hooks the wall-clock step times need are installed.  A
:class:`~hostspeed.HostProbe`, when given, ticks at those step
boundaries and its time is kept out of every wall measurement.
"""

from __future__ import annotations

import math
import os
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import repro.core.embedding as embedding_module
import repro.serve.server as server_module
from repro.bench import BENCH_GPU_FLOPS
from repro.core.embedding import EmbeddingTables
from repro.core.lookahead import LookaheadEngine
from repro.core.mlkv import MLKV
from repro.core.staleness import ASP_BOUND
from repro.data import CTRDataset
from repro.data.arrivals import PoissonProcess
from repro.device import GPUModel, SimClock, SSDModel
from repro.errors import StalenessViolation
from repro.kv.common.serialization import encode_vectors
from repro.kv.sharded import ShardedKVStore
from repro.models import FFNN
from repro.serve import BatchPolicy, EmbeddingServer, ServingLoop
from repro.serve.loadgen import OpenLoopArrivals
from repro.serve.request import Request
from repro.train import DLRMTrainer, TrainerConfig

from hostspeed import HostProbe
from tracing import Patches, Tracer, first_len, one

_perf = time.perf_counter


@dataclass
class Round:
    """What one round measured."""

    attempted: int
    completed: int
    wall_s: float
    step_ms: list[float]
    step_end: list[float]         # perf_counter() when each step ended
    sim: dict[str, float]
    checks: list[str] = field(default_factory=list)
    abort: Optional[dict] = None


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _fnv1a_64(values: np.ndarray) -> np.ndarray:
    """FNV-1a over each value's 8 little-endian bytes (uint64 wraps)."""
    state = np.full(values.shape, 0xCBF29CE484222325, dtype=np.uint64)
    words = values.astype(np.uint64)
    for shift in range(0, 64, 8):
        state ^= (words >> np.uint64(shift)) & np.uint64(0xFF)
        state *= np.uint64(0x100000001B3)
    return state


def zipf_keys(item_count: int, count: int, seed: int, theta: float = 0.99) -> np.ndarray:
    """YCSB scrambled-zipfian keys, vectorised.

    Draws exactly the keys ``repro.data.ycsb.ZipfianGenerator(item_count,
    theta, seed)`` yields from ``count`` successive ``next_key`` calls;
    that generator runs one Python-level FNV hash per key, which would
    make input generation most of the set-up time.
    """
    rng = np.random.default_rng(seed)
    zetan = float((1.0 / np.power(np.arange(1, item_count + 1, dtype=np.float64), theta)).sum())
    zeta2 = 1.0 + 0.5 ** theta
    alpha = 1.0 / (1.0 - theta)
    eta = (1.0 - (2.0 / item_count) ** (1.0 - theta)) / (1.0 - zeta2 / zetan)
    u = rng.random(count)
    ranks = (item_count * np.power(np.maximum(eta * u - eta + 1.0, 0.0), alpha)).astype(np.int64)
    ranks = np.where(u * zetan < zeta2, 1, ranks)
    ranks = np.where(u * zetan < 1.0, 0, ranks)
    return (_fnv1a_64(ranks) % np.uint64(item_count)).astype(np.int64)


@contextmanager
def _bench_span(tracer: Optional[Tracer]):
    """The benchmark's own work (output checks, counters) in a traced
    round: a ``bench.check`` span, which no program layer counts."""
    if tracer is None:
        yield
        return
    tracer.open("bench.check")
    try:
        yield
    finally:
        tracer.close()


def _wrap_mlkv(patches: Patches, tracer: Tracer, store: MLKV) -> None:
    """Spans over one MLKV engine's public read/write/stage entry points."""
    patches.wrap(tracer, store, "multi_get", "mlkv.get", first_len)
    patches.wrap(tracer, store, "get", "mlkv.get", one)
    patches.wrap(tracer, store, "multi_put", "mlkv.put", first_len)
    patches.wrap(tracer, store, "put", "mlkv.put", one)
    patches.wrap(tracer, store, "snapshot_read_many", "mlkv.snapshot", first_len)
    patches.wrap(tracer, store, "snapshot_read", "mlkv.snapshot", one)
    patches.wrap(tracer, store, "lookahead", "mlkv.lookahead", first_len)


def _counters(ssd: SSDModel, clock: SimClock, engines: list[MLKV]) -> dict[str, float]:
    """Device and engine counters; rounds report deltas over the timed phase."""
    stats = ssd.stats()
    components = clock.components()
    counters = {
        "device.ssd.reads": stats["reads"],
        "device.ssd.bytes_read": stats["bytes_read"],
        "device.ssd.bytes_written": stats["bytes_written"],
        "device.sim.cpu_s": components.get("cpu", 0.0),
        "device.sim.ssd_s": components.get("ssd", 0.0),
        "device.sim.gpu_s": components.get("gpu", 0.0),
        "device.sim.wait_s": components.get("wait", 0.0),
        "mlkv.hits": 0, "mlkv.misses": 0, "mlkv.cas_retries": 0,
        "mlkv.stall.events": 0, "mlkv.stall.sim_s": 0.0,
        "lookahead.copied": 0, "lookahead.requests": 0,
        "lookahead.skipped_memory": 0,
    }
    for engine in engines:
        stats, mstats = engine.stats, engine.mlkv_stats
        counters["mlkv.hits"] += stats.hits
        counters["mlkv.misses"] += stats.misses
        counters["mlkv.cas_retries"] += mstats.cas_retries
        counters["mlkv.stall.events"] += mstats.stall_events
        counters["mlkv.stall.sim_s"] += mstats.stall_seconds
        counters["lookahead.copied"] += mstats.lookahead_copied
        counters["lookahead.requests"] += mstats.lookahead_requests
        counters["lookahead.skipped_memory"] += mstats.lookahead_skipped_memory
    return counters


def _delta(after: dict, before: dict) -> dict:
    return {name: after[name] - before[name] for name in after}


class Workload:
    """Interface shared by the three workloads."""

    name = ""
    unit = ""
    #: Highest percentile ``step_ms_tail`` may use.  A round uses it when
    #: at least ten steps lie beyond it, else the next lower one that has
    #: ten (``run.TAIL_LADDER``); every seed measured so far uses the cap.
    tail_percentile = 90.0

    def setup(self, seed: int, workdir: str):
        raise NotImplementedError

    def run(self, state, tracer: Optional[Tracer], probe: Optional[HostProbe]) -> Round:
        raise NotImplementedError

    def teardown(self, state) -> None:
        state["store"].close()


# ----------------------------------------------------------------------
# train-ooc: Fig. 7 MLKV configuration, out of core
# ----------------------------------------------------------------------
class TrainOOC(Workload):
    """DLRM/FFNN training through ``DLRMTrainer`` over one out-of-core MLKV."""

    name = "train-ooc"
    unit = "samples"
    tail_percentile = 90.0

    FIELDS = 8
    CARDINALITY = 20_000          # 160k keys x 64-byte vectors ~ 10 MB
    DIM = 16                      # 16 x float32 = 64 bytes
    BUFFER_BYTES = 1 << 20
    STEPS = 300
    BATCH = 128
    BOUND = 4
    PIPELINE_DEPTH = 2
    WINDOW = 4
    LOOKAHEAD = 16
    APP_CACHE = 16384
    EMB_LR = 0.1
    #: Held-out AUC every completed run must reach; the planted signal
    #: puts it near 0.80 after ~130 steps.
    AUC_FLOOR = 0.70

    def setup(self, seed: int, workdir: str):
        dataset = CTRDataset(num_fields=self.FIELDS, field_cardinality=self.CARDINALITY,
                             seed=seed)
        batches = dataset.batches(self.STEPS, self.BATCH)
        clock = SimClock()
        ssd = SSDModel(clock)
        gpu = GPUModel(clock, flops_per_second=BENCH_GPU_FLOPS)
        store = MLKV(os.path.join(workdir, "mlkv"), staleness_bound=self.BOUND,
                     ssd=ssd, memory_budget_bytes=self.BUFFER_BYTES)
        tables = EmbeddingTables(store, self.DIM, seed=0, cache_entries=self.APP_CACHE)
        config = TrainerConfig(
            batch_size=self.BATCH, pipeline_depth=self.PIPELINE_DEPTH,
            conventional_window=self.WINDOW, lookahead_distance=self.LOOKAHEAD,
            emb_lr=self.EMB_LR,
        )
        network = FFNN(num_dense=dataset.num_dense, num_fields=self.FIELDS,
                       emb_dim=self.DIM, rng=np.random.default_rng(config.seed))
        trainer = DLRMTrainer(tables, network, gpu, config, dataset)
        return {"clock": clock, "ssd": ssd, "store": store, "tables": tables,
                "trainer": trainer, "batches": batches}

    def run(self, state, tracer: Optional[Tracer], probe: Optional[HostProbe]) -> Round:
        clock, ssd, store = state["clock"], state["ssd"], state["store"]
        tables, trainer = state["tables"], state["trainer"]
        starts: list[float] = []
        ends: list[float] = []
        marks_sim: list[float] = []
        steps: list[int] = []
        losses: list[float] = []
        advance = LookaheadEngine.advance
        compute_gradients = trainer.compute_gradients
        if tracer is not None:
            advance = tracer.wrap("lookahead.advance", advance)
            compute_gradients = tracer.wrap("nn.grad", compute_gradients)

        def on_advance(engine, step):
            # Step boundary: run() calls advance(step) first in every step.
            ends.append(_perf())
            if probe is not None:
                probe.tick()
            starts.append(_perf())
            marks_sim.append(clock.now)
            steps.append(step)
            if tracer is not None:
                tracer.begin_step(step, "train.step")
            return advance(engine, step)

        def on_gradients(*args, **kwargs):
            loss, grads = compute_gradients(*args, **kwargs)
            losses.append(loss)
            return loss, grads

        before = _counters(ssd, clock, [store])
        cache_before = (tables.cache.hits, tables.cache.misses)
        abort: Optional[StalenessViolation] = None
        with Patches() as patches:
            patches.set(LookaheadEngine, "advance", on_advance)
            patches.set(trainer, "compute_gradients", on_gradients)
            if tracer is not None:
                flush = tracer.wrap("train.flush", trainer.flush_pending)

                def on_flush():
                    tracer.end_step()
                    return flush()

                patches.set(trainer, "flush_pending", on_flush)
                patches.wrap(tracer, tables, "get", "emb.get", first_len)
                patches.wrap(tracer, tables, "put", "emb.put", first_len)
                patches.wrap(tracer, trainer.nn_optimizer, "step", "nn.optim")
                patches.wrap(tracer, trainer.emb_optimizer, "updated_rows", "nn.optim",
                             first_len)
                patches.wrap(tracer, embedding_module, "encode_vectors", "codec", first_len)
                patches.wrap(tracer, embedding_module, "decode_vectors", "codec", first_len)
                _wrap_mlkv(patches, tracer, store)
            sim_start = clock.now
            start = _perf()
            if tracer is not None:
                tracer.open("train.run")
            try:
                trainer.run(state["batches"])
            except StalenessViolation as error:
                abort = error
            finally:
                if tracer is not None:
                    tracer.end_step()  # still open when run() raised
                    tracer.close()
            wall = _perf() - start - (probe.spent() if probe is not None else 0.0)
            sim_seconds = clock.now - sim_start
        with _bench_span(tracer):
            counters = _delta(_counters(ssd, clock, [store]), before)
            auc = float(trainer.evaluate())
        hits = tables.cache.hits - cache_before[0]
        misses = tables.cache.misses - cache_before[1]

        # A step completes when the next one starts (or the run returns).
        completed = self.STEPS if abort is None else steps[-1]
        step_end = ends[1:completed + 1]
        step_ms = [1e3 * (end - begin) for begin, end in zip(starts, step_end)]
        sim_step = [b - a for a, b in zip(marks_sim, marks_sim[1:])][:completed]
        done = completed * self.BATCH
        checks = []
        if not all(math.isfinite(loss) for loss in losses):
            checks.append("train-ooc: non-finite training loss")
        if completed == 0:
            checks.append("train-ooc: no step completed")
        elif not auc >= self.AUC_FLOOR:
            checks.append(f"train-ooc: held-out AUC {auc:.4f} below floor {self.AUC_FLOOR}")
        abort_note = None
        if abort is not None:
            match = re.search(r"Get\((\d+)\)", str(abort))
            abort_note = {
                "error": type(abort).__name__,
                "step": steps[-1],
                "key": int(match.group(1)) if match else None,
                "message": str(abort),
            }
        sim = {
            "sim_units_per_s": _ratio(done, sim_seconds),
            "sim_latency_us_p99": 1e6 * _percentile(sim_step, 99),
            "quality": auc,
            "completed_steps": completed,
            "emb.cache.hits": hits,
            "emb.cache.misses": misses,
            **counters,
        }
        return Round(attempted=self.STEPS * self.BATCH, completed=done, wall_s=wall,
                     step_ms=step_ms, step_end=step_end, sim=sim, checks=checks,
                     abort=abort_note)


# ----------------------------------------------------------------------
# serve-zipf: micro-batched bounded reads, memory resident
# ----------------------------------------------------------------------
class ServeZipf(Workload):
    """``ServingLoop`` + ``EmbeddingServer`` (bounded reads) over MLKV."""

    name = "serve-zipf"
    unit = "requests"
    tail_percentile = 99.0

    ITEMS = 20_000
    DIM = 16
    BOUND = 8
    BUFFER_BYTES = 1 << 23        # holds the whole table: no disk reads
    REQUESTS = 100_000
    RATE = 1.0e6                  # offered requests per simulated second
    POLICY = BatchPolicy(max_batch=256, max_delay=100e-6)
    ADMISSION_CACHE = 2048

    def setup(self, seed: int, workdir: str):
        clock = SimClock()
        ssd = SSDModel(clock)
        store = MLKV(os.path.join(workdir, "mlkv"), staleness_bound=self.BOUND,
                     ssd=ssd, memory_budget_bytes=self.BUFFER_BYTES)
        rng = np.random.default_rng(seed)
        committed = rng.normal(0.0, 0.1, (self.ITEMS, self.DIM)).astype(np.float32)
        store.multi_put(list(range(self.ITEMS)), encode_vectors(committed))
        clock.drain()
        server = EmbeddingServer(store, dim=self.DIM, seed=seed,
                                 cache_entries=self.ADMISSION_CACHE, read_mode="bounded")
        keys = zipf_keys(self.ITEMS, self.REQUESTS, seed).tolist()
        times = PoissonProcess(self.RATE, seed=seed ^ 0xA11, start=clock.now).times(self.REQUESTS)
        requests = [Request(key=key, arrival_time=float(t), user=index)
                    for index, (key, t) in enumerate(zip(keys, times.tolist()))]
        loop = ServingLoop(server, self.POLICY)
        return {"clock": clock, "ssd": ssd, "store": store, "server": server,
                "loop": loop, "requests": requests, "committed": committed}

    def run(self, state, tracer: Optional[Tracer], probe: Optional[HostProbe]) -> Round:
        clock, ssd, store = state["clock"], state["ssd"], state["store"]
        server, loop, requests = state["server"], state["loop"], state["requests"]
        starts: list[float] = []
        ends: list[float] = []
        form = loop.batcher.form
        if tracer is not None:
            form = tracer.wrap("serve.form", form)

        def on_form(queue):
            # Micro-batch boundary: the loop forms each batch exactly once.
            ends.append(_perf())
            if probe is not None:
                probe.tick()
            starts.append(_perf())
            if tracer is not None:
                tracer.step = len(starts) - 1
            return form(queue)

        before = _counters(ssd, clock, [store])
        with Patches() as patches:
            patches.set(loop.batcher, "form", on_form)
            if tracer is not None:
                patches.wrap(tracer, server, "lookup_unique", "serve.lookup", first_len)
                patches.wrap(tracer, server_module, "decode_vector", "codec", one)
                _wrap_mlkv(patches, tracer, store)
            start = _perf()
            if tracer is not None:
                tracer.open("serve.run")
            try:
                loop.run(OpenLoopArrivals(requests))
            finally:
                if tracer is not None:
                    tracer.close()
            ends.append(_perf())
        wall = ends[-1] - start - (probe.spent() if probe is not None else 0.0)
        step_end = ends[1:]
        step_ms = [1e3 * (end - begin) for begin, end in zip(starts, step_end)]

        with _bench_span(tracer):
            counters = _delta(_counters(ssd, clock, [store]), before)
            answered = [r for r in requests
                        if r.value is not None and r.completed_at is not None]
            keys = np.fromiter((r.key for r in answered), dtype=np.int64, count=len(answered))
            expected = state["committed"][np.clip(keys, 0, self.ITEMS - 1)]
            absent = keys >= self.ITEMS
            for row in np.flatnonzero(absent):
                expected[row] = server.tables.init_vector(int(keys[row]))
            values = np.stack([r.value for r in answered]) if answered else expected
            correct = int(np.all(values == expected, axis=1).sum()) if answered else 0
        latency = [r.completed_at - r.arrival_time for r in answered]
        span = (max(r.completed_at for r in answered) - requests[0].arrival_time) if answered else 0.0
        checks = []
        if correct != len(requests):
            checks.append(f"serve-zipf: {len(requests) - correct} of {len(requests)} "
                          "answers differ from the committed value")
        tiers = server.cache.tiers
        sim = {
            "sim_units_per_s": _ratio(len(answered), span),
            "sim_latency_us_p99": 1e6 * _percentile(latency, 99),
            "quality": _ratio(correct, len(requests)),
            "serve.cache.hits": tiers.cache_hits,
            "serve.cache.total": tiers.total,
            "serve.batches": loop.batcher.batches_formed,
            **counters,
        }
        return Round(attempted=len(requests), completed=len(answered), wall_s=wall,
                     step_ms=step_ms, step_end=step_end, sim=sim, checks=checks)


# ----------------------------------------------------------------------
# kv-ycsb-a: 50/50 batched reads/updates over a 4-shard store
# ----------------------------------------------------------------------
class KvYcsbA(Workload):
    """YCSB-A (50% ``multi_get`` / 50% ``multi_put``) over ``ShardedKVStore``.

    One step is a read batch followed by an update batch.  Reads and
    writes alternate rather than follow a seed-drawn order: the store
    warms as writes pull hot keys into memory, so a drawn order would
    make the early, coldest reads (and with them the tail) depend on the
    seed.  Pairing them also keeps the step-time distribution unimodal.
    """

    name = "kv-ycsb-a"
    unit = "keys"
    tail_percentile = 99.0

    RECORDS = 200_000
    VALUE_BYTES = 64
    SHARDS = 4
    SHARD_BUFFER_BYTES = 1 << 20  # 4 MiB in total
    BATCH = 256
    STEPS = 1500                  # 3000 batch calls
    PRELOAD_CHUNK = 4096

    def setup(self, seed: int, workdir: str):
        clock = SimClock()
        ssd = SSDModel(clock)

        def factory(index: int) -> MLKV:
            return MLKV(os.path.join(workdir, f"shard{index}"), staleness_bound=ASP_BOUND,
                        ssd=ssd, memory_budget_bytes=self.SHARD_BUFFER_BYTES)

        store = ShardedKVStore(factory, self.SHARDS)
        rng = np.random.default_rng(seed)
        size = self.VALUE_BYTES

        def random_values(count: int) -> list[bytes]:
            blob = rng.integers(0, 256, (count, size), dtype=np.uint8).tobytes()
            return [blob[i * size:(i + 1) * size] for i in range(count)]

        values = random_values(self.RECORDS)
        keys = list(range(self.RECORDS))
        for lo in range(0, self.RECORDS, self.PRELOAD_CHUNK):
            store.multi_put(keys[lo:lo + self.PRELOAD_CHUNK], values[lo:lo + self.PRELOAD_CHUNK])
        clock.drain()
        step_keys = zipf_keys(self.RECORDS, 2 * self.BATCH * self.STEPS, seed ^ 0x5C3A)
        step_keys = step_keys.reshape(self.STEPS, 2, self.BATCH).tolist()
        steps = [(read_keys, write_keys, random_values(self.BATCH))
                 for read_keys, write_keys in step_keys]
        return {"clock": clock, "ssd": ssd, "store": store, "steps": steps,
                "oracle": dict(zip(keys, values))}

    def run(self, state, tracer: Optional[Tracer], probe: Optional[HostProbe]) -> Round:
        clock, ssd, store = state["clock"], state["ssd"], state["store"]
        oracle: dict[int, bytes] = state["oracle"]
        before = _counters(ssd, clock, store.shards)
        step_ms: list[float] = []
        step_end: list[float] = []
        sim_step: list[float] = []
        reads = mismatches = 0
        with Patches() as patches:
            if tracer is not None:
                patches.wrap(tracer, store, "multi_get", "route.get", first_len)
                patches.wrap(tracer, store, "multi_put", "route.put", first_len)
                for shard in store.shards:
                    _wrap_mlkv(patches, tracer, shard)
            sim_start = clock.now
            multi_get, multi_put = store.multi_get, store.multi_put
            for step, (read_keys, write_keys, write_values) in enumerate(state["steps"]):
                if tracer is not None:
                    tracer.step = step
                if probe is not None:
                    probe.tick()
                sim0 = clock.now
                start = _perf()
                got = multi_get(read_keys)
                multi_put(write_keys, write_values)
                end = _perf()
                step_ms.append(1e3 * (end - start))
                step_end.append(end)
                sim_step.append(clock.now - sim0)
                # Checked between the timed calls: the oracle holds every
                # write made before this read.
                with _bench_span(tracer):
                    reads += len(read_keys)
                    mismatches += sum(1 for key, value in zip(read_keys, got)
                                      if value != oracle[key])
                    oracle.update(zip(write_keys, write_values))
            sim_seconds = clock.now - sim_start
        with _bench_span(tracer):
            counters = _delta(_counters(ssd, clock, store.shards), before)
        checks = []
        if mismatches:
            checks.append(f"kv-ycsb-a: {mismatches} of {reads} reads differ from the oracle")
        keys_done = 2 * self.BATCH * len(state["steps"])
        sim = {
            "sim_units_per_s": _ratio(keys_done, sim_seconds),
            "sim_latency_us_p99": 1e6 * _percentile(sim_step, 99),
            "quality": _ratio(reads - mismatches, reads),
            "route.imbalance": store.imbalance(),
            **counters,
        }
        return Round(attempted=2 * self.BATCH * self.STEPS, completed=keys_done,
                     wall_s=sum(step_ms) / 1e3, step_ms=step_ms, step_end=step_end,
                     sim=sim, checks=checks)


WORKLOADS = {w.name: w for w in (TrainOOC(), ServeZipf(), KvYcsbA())}
