"""Repository benchmark: one command, three workloads, two clocks.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload train-ooc --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload kv-ycsb-a --seed 7 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with no spans recorded;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer breakdown.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
name every metric with its unit, the run's metadata and any abort.
Exit status: 0 when every output check passes, 1 when one fails (the
JSON is still printed), 2 when the program cannot be found or the
arguments are wrong (nothing printed on standard output).  See
``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: model maths must not depend on the BLAS
# thread count, or sim-clock and quality numbers differ between machines.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

#: Minimum rounds per run: two rounds of one seed are compared for
#: bit-identical sim-clock values, whatever ``--seconds`` says.
MIN_ROUNDS = 2
#: ``setup_s`` is the median of at least this many set-ups.
MIN_SETUPS = 3
#: Host probes taken right before and right after each set-up.
SETUP_PROBES = 5
#: The layers' self times must account for the traced wall time within
#: this share.
SELF_TIME_TOLERANCE = 0.10
#: ``step_ms_tail`` needs at least this many steps beyond its percentile.
MIN_BEYOND = 10
#: Percentiles ``step_ms_tail`` may use, highest first.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)

E2E_UNITS = {
    "setup_s": "s",
    "throughput": "1/s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "quality": "ratio",
    "sim_units_per_s": "1/s",
    "sim_latency_us_p99": "us",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "serve.loop.self_ms": "ms",
    "serve.lookup.self_ms": "ms",
    "serve.cache.hit_ratio": "ratio",
    "serve.batch.unique_keys": "count",
    "train.step.self_ms": "ms",
    "nn.grad.ms": "ms",
    "nn.optim.ms": "ms",
    "emb.get.self_ms": "ms",
    "emb.put.self_ms": "ms",
    "emb.init.keys": "count",
    "emb.cache.hit_ratio": "ratio",
    "lookahead.self_ms": "ms",
    "lookahead.staged_ratio": "ratio",
    "lookahead.skipped_memory": "count",
    "codec.ms": "ms",
    "codec.rows": "count",
    "route.self_ms": "ms",
    "route.imbalance": "ratio",
    "mlkv.get.us_per_key": "us",
    "mlkv.put.us_per_key": "us",
    "mlkv.get.keys": "count",
    "mlkv.put.keys": "count",
    "mlkv.memory_hit_ratio": "ratio",
    "mlkv.cas_retries": "count",
    "mlkv.stall.events": "count",
    "mlkv.stall.sim_s": "s",
    "device.ssd.reads": "count",
    "device.ssd.bytes_read": "bytes",
    "device.ssd.bytes_written": "bytes",
    "device.sim.cpu_s": "s",
    "device.sim.ssd_s": "s",
    "device.sim.gpu_s": "s",
    "device.sim.wait_s": "s",
    "run.failed_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_ratio": "ratio",
}

WORKLOAD_NAMES = ("kv-ycsb-a", "serve-zipf", "train-ooc")
#: The benchmark's own spans (``bench.*``) are not program time.
ROOT_SPAN = "bench.round"

#: Program layers and the span names whose self time is theirs.  A span
#: named nowhere here counts as unattributed.
LAYER_SPANS = {
    "serve": ("serve.run", "serve.form", "serve.lookup"),
    "train": ("train.run", "train.step", "train.flush"),
    "nn": ("nn.grad", "nn.optim"),
    "emb": ("emb.get", "emb.put"),
    "lookahead": ("lookahead.advance", "mlkv.lookahead"),
    "codec": ("codec",),
    "route": ("route.get", "route.put"),
    "mlkv": ("mlkv.get", "mlkv.put", "mlkv.snapshot"),
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _layer_shares(tracer, wall_s: float) -> dict[str, float]:
    """Each layer's self time, and the unattributed rest, as shares of
    ``wall_s``, the round's timed phase measured apart from the spans."""
    shares = {layer: sum(tracer.self_ns.get(name, 0) for name in names) / 1e9 / wall_s
              for layer, names in LAYER_SPANS.items()}
    shares["unattributed"] = 1.0 - sum(shares.values())
    return shares


def _tail(samples: list, cap: float):
    """``(q, value)``: the highest percentile q <= ``cap`` in
    ``TAIL_LADDER`` with ``MIN_BEYOND`` samples beyond it, or None."""
    for q in TAIL_LADDER:
        if q <= cap:
            value = float(np.percentile(samples, q))
            if sum(1 for ms in samples if ms > value) >= MIN_BEYOND:
                return q, value
    return None


def _layers(tracer, sim: dict, wall_s: float) -> dict[str, float]:
    """Per-layer values of one traced round (ms are per round)."""
    self_ns, total_ns = tracer.self_ns, tracer.total_ns
    units, calls = tracer.units, tracer.calls

    def self_ms(*names):
        return sum(self_ns.get(name, 0) for name in names) / 1e6

    def per_key_us(name):
        return self_ns.get(name, 0) / 1e3 / units[name] if units.get(name) else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "serve.loop.self_ms": self_ms("serve.run", "serve.form"),
        "serve.lookup.self_ms": self_ms("serve.lookup"),
        "serve.cache.hit_ratio": ratio(sim.get("serve.cache.hits", 0),
                                       sim.get("serve.cache.total", 0)),
        "serve.batch.unique_keys": ratio(units.get("serve.lookup", 0),
                                         calls.get("serve.lookup", 0)),
        # The train layer: BaseTrainer.run outside any step (schedule
        # building), the step bodies and the final flush.
        "train.step.self_ms": self_ms("train.run", "train.step", "train.flush"),
        "nn.grad.ms": total_ns.get("nn.grad", 0) / 1e6,
        "nn.optim.ms": total_ns.get("nn.optim", 0) / 1e6,
        "emb.get.self_ms": self_ms("emb.get"),
        "emb.put.self_ms": self_ms("emb.put"),
        # Lazy initialisation: keys written by multi_put while a facade
        # read (training get or conventional prefetch) was in progress.
        "emb.init.keys": tracer.units_under.get(("mlkv.put", "emb.get"), 0)
        + tracer.units_under.get(("mlkv.put", "lookahead.advance"), 0),
        "emb.cache.hit_ratio": ratio(sim.get("emb.cache.hits", 0),
                                     sim.get("emb.cache.hits", 0) + sim.get("emb.cache.misses", 0)),
        "lookahead.self_ms": self_ms("lookahead.advance", "mlkv.lookahead"),
        "lookahead.staged_ratio": ratio(sim["lookahead.copied"], sim["lookahead.requests"]),
        "lookahead.skipped_memory": sim["lookahead.skipped_memory"],
        "codec.ms": total_ns.get("codec", 0) / 1e6,
        "codec.rows": units.get("codec", 0),
        "route.self_ms": self_ms("route.get", "route.put"),
        "route.imbalance": sim.get("route.imbalance", 0.0),
        "mlkv.get.us_per_key": per_key_us("mlkv.get"),
        "mlkv.put.us_per_key": per_key_us("mlkv.put"),
        "mlkv.get.keys": units.get("mlkv.get", 0),
        "mlkv.put.keys": units.get("mlkv.put", 0),
        "mlkv.memory_hit_ratio": ratio(sim["mlkv.hits"], sim["mlkv.hits"] + sim["mlkv.misses"]),
        "mlkv.cas_retries": sim["mlkv.cas_retries"],
        "mlkv.stall.events": sim["mlkv.stall.events"],
        "mlkv.stall.sim_s": sim["mlkv.stall.sim_s"],
        **{name: sim[name] for name in LAYER_UNITS if name.startswith("device.")},
        "trace.unattributed_ratio": _layer_shares(tracer, wall_s)["unattributed"],
    }


@dataclass
class Measured:
    """One round as the run loop saw it."""

    result: object            # workloads.Round
    setup_s: float
    tracer: object = None     # tracing.Tracer of a traced round
    #: Step times divided by the host slowdown around each step, and the
    #: time-weighted slowdown they imply for the round (1 when traced).
    calibrated_ms: list = None
    slowdown: float = 1.0


def _calibrate(result, probe) -> tuple[list, float]:
    raw = result.step_ms
    if not raw:
        return [], 1.0
    mid = [end - ms / 2e3 for end, ms in zip(result.step_end, raw)]
    calibrated = (np.asarray(raw) / probe.local_slowdown(mid)).tolist()
    return calibrated, sum(raw) / sum(calibrated)


def _throughput(rounds, calibrated: bool) -> float:
    wall = sum(m.result.wall_s / (m.slowdown if calibrated else 1.0) for m in rounds)
    return sum(m.result.completed for m in rounds) / wall if wall else 0.0


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from hostspeed import HostProbe
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    run_dir = os.path.join(WORK, f"{workload.name}-s{args.seed}-p{os.getpid()}")
    os.makedirs(WORK, exist_ok=True)

    def fresh_state():
        """Set up once; returns the state and the raw and calibrated times."""
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        gc.collect()
        probe = HostProbe()
        for _ in range(SETUP_PROBES):
            probe.sample()
        start = time.perf_counter()
        state = workload.setup(args.seed, run_dir)
        setup_s = time.perf_counter() - start
        for _ in range(SETUP_PROBES):
            probe.sample()
        return state, (setup_s, setup_s / probe.slowdown())

    def drop_state(state):
        workload.teardown(state)
        shutil.rmtree(run_dir, ignore_errors=True)

    rounds: list[Measured] = []
    setups: list[tuple[float, float]] = []
    deadline = time.perf_counter() + args.seconds
    try:
        while True:
            began = time.perf_counter()
            # Traced runs alternate untraced and traced rounds so the
            # overhead ratio compares rounds taken under the same load.
            tracer = Tracer() if traced and len(rounds) % 2 == 1 else None
            probe = HostProbe() if tracer is None else None
            state, setup = fresh_state()
            setups.append(setup)
            try:
                if tracer is not None:
                    tracer.open(ROOT_SPAN)
                result = workload.run(state, tracer, probe)
                if tracer is not None:
                    tracer.close()
            finally:
                drop_state(state)
            calibrated, slowdown = (_calibrate(result, probe) if probe is not None
                                    else (result.step_ms, 1.0))
            rounds.append(Measured(result, setup[0], tracer, calibrated, slowdown))
            took = time.perf_counter() - began
            if len(rounds) >= MIN_ROUNDS and time.perf_counter() + took > deadline:
                break
        while not traced and len(setups) < MIN_SETUPS:
            state, setup = fresh_state()
            setups.append(setup)
            drop_state(state)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    checks: list[str] = []
    for m in rounds:
        checks.extend(check for check in m.result.checks if check not in checks)
    reference = rounds[0].result.sim
    for index, m in enumerate(rounds[1:], start=1):
        if m.result.sim != reference:
            differing = sorted(name for name in reference if m.result.sim.get(name) != reference[name])
            checks.append(f"sim-clock values differ between rounds 0 and {index} "
                          f"of seed {args.seed}: {', '.join(differing)}")
    traced_rounds = [m for m in rounds if m.tracer is not None]
    untraced_rounds = [m for m in rounds if m.tracer is None]

    attempted = sum(m.result.attempted for m in rounds)
    failed = attempted - sum(m.result.completed for m in rounds)
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(traced),
        "rounds": len(rounds),
        "traced_rounds": len(traced_rounds),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "unit": workload.unit,
    }
    print("# meta " + json.dumps(meta, sort_keys=True))
    abort = rounds[0].result.abort
    if abort:
        print(f"# abort {abort['error']} at step {abort['step']} key {abort['key']}: "
              f"{abort['message']} (cause: src/repro/core/mlkv.py:211-212, "
              "see perfbench/README.md)")
    print("# rounds " + " ".join(
        f"{'T' if m.tracer is not None else 'U'}:{m.result.completed / m.result.wall_s:.1f}/s,"
        f"setup={m.setup_s:.3f}s,slowdown={m.slowdown:.3f}" for m in rounds))
    print(f"# failed_ratio {failed / attempted:.6f} ({failed} of {attempted} {workload.unit} "
          "not completed)")

    if traced:
        units = LAYER_UNITS
        per_round = []
        for index, m in enumerate(rounds):
            if m.tracer is None:
                continue
            per_round.append(_layers(m.tracer, m.result.sim, m.result.wall_s))
            shares = _layer_shares(m.tracer, m.result.wall_s)
            print(f"# layer shares of round {index} ({m.result.wall_s:.3f} s timed): "
                  + ", ".join(f"{layer} {share:.3f}" for layer, share in shares.items()))
            if abs(shares["unattributed"]) > SELF_TIME_TOLERANCE:
                checks.append(f"layer self times account for {1 - shares['unattributed']:.3f} "
                              f"of round {index}'s {m.result.wall_s:.3f} s timed phase")
        metrics = {name: statistics.median(layer[name] for layer in per_round)
                   for name in per_round[0]}
        metrics["run.failed_ratio"] = failed / attempted
        metrics["trace.overhead_ratio"] = (
            _throughput(traced_rounds, False) / _throughput(untraced_rounds, False)
        )
        # One file per workload (the seed is in its meta): a train-ooc
        # round records ~10^5-10^6 spans, so older dumps are not kept.
        trace_path = os.path.join(WORK, f"trace-{workload.name}.json")
        last = traced_rounds[-1].tracer
        last.dump(trace_path, meta)
        print(f"# trace {os.path.relpath(trace_path, ROOT)}: "
              f"{last.span_count()} spans of the last traced round")
    else:
        units = E2E_UNITS
        raw = [ms for m in rounds for ms in m.result.step_ms]
        step_ms = [ms for m in rounds for ms in m.calibrated_ms]
        # Per round, then the median over rounds: a host burst that hits
        # one round does not set the run's tail.
        tails = [_tail(m.calibrated_ms, workload.tail_percentile) for m in rounds]
        raw_tails = [_tail(m.result.step_ms, workload.tail_percentile) for m in rounds]
        for index, (m, tail) in enumerate(zip(rounds, tails)):
            if tail is None:
                checks.append(f"round {index} has {len(m.calibrated_ms)} steps, too few for "
                              f"{MIN_BEYOND} beyond p{TAIL_LADDER[-1]:g}")
        tails = [tail for tail in tails if tail is not None] or [(0.0, 0.0)]
        raw_tails = [tail for tail in raw_tails if tail is not None] or [(0.0, 0.0)]
        metrics = {
            "setup_s": statistics.median(calibrated for _, calibrated in setups),
            "throughput": _throughput(rounds, True),
            "step_ms_p50": statistics.median(step_ms),
            "step_ms_tail": statistics.median(value for _, value in tails),
            "quality": reference["quality"],
            "sim_units_per_s": reference["sim_units_per_s"],
            "sim_latency_us_p99": reference["sim_latency_us_p99"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        percentiles = "/".join(f"p{q:g}" for q in sorted({q for q, _ in tails}, reverse=True))
        print(f"# step_ms_tail is the median over {len(rounds)} rounds of each round's "
              f"{percentiles} (at least {MIN_BEYOND} steps beyond it); step_ms_p50 pools "
              f"{len(step_ms)} steps; throughput and sim_units_per_s count {workload.unit}")
        print(f"# uncalibrated: setup_s {statistics.median(raw_s for raw_s, _ in setups):.6f} s, "
              f"throughput {_throughput(rounds, False):.6f} 1/s, "
              f"step_ms_p50 {statistics.median(raw):.6f} ms, "
              f"step_ms_tail {statistics.median(value for _, value in raw_tails):.6f} ms")

    for name, value in metrics.items():
        print(f"{name:28s} {value:16.6f} {units[name]}")
    for check in checks:
        print(f"# CHECK FAILED: {check}")
    result = {
        "correct": not checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not checks else 1


if __name__ == "__main__":
    sys.exit(main())
