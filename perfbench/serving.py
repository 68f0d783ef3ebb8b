"""Serving workload: request latency and saturation throughput.

A sim-trained checkpoint (input generation, untimed) is served on the
``sim`` backend.  One run performs :data:`SETUPS` set-ups
(``from_checkpoint`` + ``start`` + one forced batch of
every size 1..8, so every batch width is compiled before timing), each
followed by a sequential pass over the request pool (one request in
flight); the first set-up records the reference logits.  The last engine
then takes :data:`BLOCKS` rounds of

* a *sequential* block: one client, one request in flight;
* a *saturation* round: a closed loop holding :data:`SAT_INFLIGHT`
  requests in flight; completions per second, median over the rounds;

interleaved so that both sample the host over the whole run.  Traced runs
then add the open-loop phases: a seeded Poisson schedule at
:data:`LIGHT_QPS` and one at :data:`HEAVY_QPS`, from one load thread,
latency timed from each request's due time.

Why ``sim`` and closed loops: on a shared 2-vCPU host every wake-up of a
thread or process costs a variable delay.  Served on ``process`` (three
worker round trips per 4 ms forward), the sequential p90 and the
saturation rate spread 0.30 and 0.27 over five seeds, and open-loop
latency, which adds the load thread's and the engine's wake-ups, spread
up to 0.40 (p90 at 100 qps) over ten; on ``sim`` the closed loops spread
0.02-0.09.  The open-loop numbers are therefore reported per layer, not
gated, and the process transport is gated by ``train-reddit-process``.

Every response is compared bit for bit (``np.array_equal``) with the
sequential logits of its pooled request: batched == sequential.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
from collections import deque
from time import perf_counter, sleep
from typing import List, Optional

import numpy as np

from measure import median, percentile
from spans import Tracer, in_window, layer_metrics

SETUPS = 7
POOL = 16
MAX_BATCH = 8
SAT_INFLIGHT = 2 * MAX_BATCH
LIGHT_QPS = 100.0
HEAVY_QPS = 250.0
#: Sequential blocks, each followed by one saturation round.
BLOCKS = 6
#: Per second of ``--seconds``: sequential requests (all blocks) and
#: completions per saturation round.
SEQ_REQUESTS_PER_S = 60
SAT_COMPLETIONS_PER_S = 20
#: Per second of ``--seconds``, traced runs: open-loop requests at each
#: rate; each phase sends at least 1000, so that its p99 has ten samples
#: beyond it.
LIGHT_REQUESTS_PER_S = 50
HEAVY_REQUESTS_PER_S = 40
RESULT_TIMEOUT_S = 30.0

WORKLOADS = ("serve-reddit-sim",)


class _Tally:
    """Failure accounting of one run (every kind counts in ``failed``)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.mismatched = 0
        self.rejected = 0
        self.expired = 0
        self.errors = 0
        self.timeouts = 0

    @property
    def failed(self) -> int:
        return (self.mismatched + self.rejected + self.expired
                + self.errors + self.timeouts)


def run(name: str, seed: int, seconds: int,
        tracer: Optional[Tracer]) -> dict:
    from repro import DistTrainConfig, load_dataset
    from repro.serve.engine import ServeOptions, ServingEngine
    from repro.serve.loadgen import prepare_checkpoint

    dataset = load_dataset("reddit", scale=0.05, seed=seed)
    config = DistTrainConfig(
        n_ranks=2, algorithm="1d", sparsity_aware=True, partitioner=None,
        hidden=16, n_layers=3, machine="perlmutter-scaled",
        backend="sim", seed=seed, dtype="float64")
    n, width = dataset.n_vertices, dataset.n_features
    rng = np.random.default_rng(seed)
    pool = [rng.standard_normal((n, width)) for _ in range(POOL)]
    sizes = {"seq_block": max(100, seconds * SEQ_REQUESTS_PER_S // BLOCKS),
             "sat_round": max(100, seconds * SAT_COMPLETIONS_PER_S),
             "light": max(1000, seconds * LIGHT_REQUESTS_PER_S),
             "heavy": max(1000, seconds * HEAVY_REQUESTS_PER_S)}
    light_due = np.cumsum(rng.exponential(1.0 / LIGHT_QPS, sizes["light"]))
    heavy_due = np.cumsum(rng.exponential(1.0 / HEAVY_QPS, sizes["heavy"]))
    options = ServeOptions(max_batch_width=MAX_BATCH * width)

    tally = _Tally()
    reference: List[np.ndarray] = []
    setup_s: List[float] = []
    first_ms: List[float] = []
    setup_windows = []
    work = tempfile.mkdtemp(prefix="ckpt-", dir=_work_dir())
    try:
        checkpoint = prepare_checkpoint(
            dataset, config, os.path.join(work, "serve.ckpt"))
        for rep in range(SETUPS):
            if tracer:
                tracer.install()
            t0 = perf_counter()
            engine = ServingEngine.from_checkpoint(dataset, config,
                                                   checkpoint, options)
            try:
                engine.start()
                warm = _warm_batches(engine, pool)
                t1 = perf_counter()
                setup_s.append(t1 - t0)
                setup_windows.append((t0, t1))

                if rep == 0:
                    reference.extend(
                        engine.submit(f).result(RESULT_TIMEOUT_S).logits
                        for f in pool)
                first_ms.append(median(
                    _sequential(engine, pool, tally, reference)) * 1e3)
                for i, logits in warm:
                    tally.attempted += 1
                    if not np.array_equal(logits, reference[i]):
                        tally.mismatched += 1
                if rep == SETUPS - 1:
                    result = _timed_phases(engine, pool, reference, tally,
                                           tracer, sizes, light_due,
                                           heavy_due)
            finally:
                engine.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = {"attempted": tally.attempted, "failed": tally.failed,
           "correct": (tally.mismatched == 0 and tally.errors == 0
                       and tally.timeouts == 0),
           "info": dict(sizes, rejected=tally.rejected,
                        expired=tally.expired, mismatched=tally.mismatched,
                        errors=tally.errors, timeouts=tally.timeouts)}
    if tracer is None:
        seq = result["seq"]
        n_seq = len(seq["latency"])
        out["metrics"] = {
            "setup_s": median(setup_s),
            "first_op_ms": median(first_ms),
            "op_p50_ms": median(seq["latency"]) * 1e3,
            "op_p90_ms": percentile(seq["latency"], 90) * 1e3,
            "peak_ops_per_s": median(result["sat_rates"]),
            "comm_mb_per_op": seq["sent"].sum() / n_seq / 1e6,
            "max_send_mb_per_op": seq["sent"].max() / n_seq / 1e6,
        }
        return out
    out["metrics"] = _traced_metrics(tracer, result, setup_windows, setup_s,
                                     tally)
    return out


def _work_dir() -> str:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(path, exist_ok=True)
    return path


def _warm_batches(engine, pool):
    """Serve one forced batch of each size 1..MAX_BATCH: requests queued
    while the drain thread is stopped coalesce into one batch at start,
    so every batch width compiles before timing."""
    served = []
    for k in range(1, MAX_BATCH + 1):
        engine.stop()
        futures = [engine.submit(pool[i]) for i in range(k)]
        engine.start()
        served.extend((i, f.result(RESULT_TIMEOUT_S).logits)
                      for i, f in enumerate(futures))
    return served


def _timed_phases(engine, pool, reference, tally, tracer, sizes, light_due,
                  heavy_due) -> dict:
    stats0 = engine.stats()
    seq, sat_rates = [], []
    for _ in range(BLOCKS):
        seq.append(_counted(engine, lambda: _sequential(
            engine, pool, tally, reference, sizes["seq_block"])))
        sat_rates.append(_saturation(engine, pool, reference, tally,
                                     sizes["sat_round"]))
    result = {"seq": {"latency": [x for b in seq for x in b["result"]],
                      "sent": sum(b["sent"] for b in seq)},
              "sat_rates": sat_rates}
    if tracer:
        # Alternating plain and traced sequential passes: the tracing
        # overhead per request.
        plain, traced = [], []
        for rep in range(6):
            if rep % 2:
                tracer.install()
                traced += _sequential(engine, pool, tally, reference)
            else:
                tracer.uninstall()
                plain += _sequential(engine, pool, tally, reference)
        result["trace_overhead_s"] = median(traced) - median(plain)
        result["light"] = _counted(engine, lambda: _open_loop(
            engine, pool, reference, tally, light_due))
        result["heavy"] = _open_loop(engine, pool, reference, tally,
                                     heavy_due)
        tracer.uninstall()
    stats1 = engine.stats()
    result["plan_misses"] = (stats1.get("serve_plan_misses", 0)
                             - stats0.get("serve_plan_misses", 0))
    result["queue_depth_max"] = stats1.get("serve_queue_depth_max", 0.0)
    result["shed"] = sum(v for k, v in stats1.items()
                         if k.startswith("serve_shed_total"))
    return result


def _counted(engine, phase) -> dict:
    """Run ``phase()`` and count the exchange volume it caused."""
    comm = engine.comm
    sent0 = comm.events.bytes_sent_by_rank(comm.nranks)
    msgs0 = comm.events.message_count()
    cache0 = comm.cache_stats()
    result = phase()
    cache1 = comm.cache_stats()
    hits = cache1.get("hits", 0) - cache0.get("hits", 0)
    return {"result": result,
            "sent": comm.events.bytes_sent_by_rank(comm.nranks) - sent0,
            "messages": comm.events.message_count() - msgs0, "hits": hits,
            "lookups": hits + cache1.get("misses", 0)
            - cache0.get("misses", 0)}


def _resolve(future, i, reference, tally) -> bool:
    """Wait for one response and check it; False when it failed."""
    from repro.serve.engine import RequestExpired, ServeError
    try:
        out = future.result(RESULT_TIMEOUT_S)
    except TimeoutError:
        tally.timeouts += 1
        return False
    except RequestExpired:
        tally.expired += 1
        return False
    except ServeError:
        tally.errors += 1
        return False
    if not np.array_equal(out.logits, reference[i % len(reference)]):
        tally.mismatched += 1
    return True


def _sequential(engine, pool, tally, reference,
                n: Optional[int] = None) -> List[float]:
    """One request in flight; ``n`` requests (default: the pool once)."""
    latencies = []
    for i in range(len(pool) if n is None else n):
        t = perf_counter()
        future = engine.submit(pool[i % len(pool)])
        tally.attempted += 1
        if _resolve(future, i, reference, tally):
            latencies.append(perf_counter() - t)
    return latencies


def _open_loop(engine, pool, reference, tally, due_offsets) -> dict:
    """Submit on the seeded schedule from this thread; one collector
    thread stamps completions in submission order (responses complete in
    FIFO order, so the stamp is the fulfilment time plus a wake-up)."""
    from repro.serve.admission import RequestRejected
    n = len(due_offsets)
    futures: List = [None] * n
    submitted = threading.Semaphore(0)
    done = [None] * n

    def collect() -> None:
        for i in range(n):
            submitted.acquire()
            future = futures[i]
            if future is not None and _resolve(future, i, reference, tally):
                done[i] = perf_counter()

    collector = threading.Thread(target=collect, name="perfbench-collect")
    collector.start()
    late = []
    start = perf_counter() + 0.05
    try:
        for i in range(n):
            due = start + due_offsets[i]
            wait = due - perf_counter()
            if wait > 0:
                sleep(wait)
            late.append(perf_counter() - due)
            tally.attempted += 1
            try:
                futures[i] = engine.submit(pool[i % len(pool)])
            except RequestRejected:
                tally.rejected += 1
            submitted.release()
    finally:
        collector.join()
    latency = [done[i] - (start + due_offsets[i])
               for i in range(n) if done[i] is not None]
    return {"latency": latency, "late": late,
            "window": (start, perf_counter())}


def _saturation(engine, pool, reference, tally, per_round) -> float:
    """Closed loop holding SAT_INFLIGHT requests outstanding: completions
    per second over ``per_round`` completions, after filling the window
    and two windows' worth of completions to reach the steady state."""
    inflight = deque()
    seq = 0

    def turn() -> None:
        nonlocal seq
        if len(inflight) == SAT_INFLIGHT:
            i, future = inflight.popleft()
            _resolve(future, i, reference, tally)
        inflight.append((seq, engine.submit(pool[seq % len(pool)])))
        tally.attempted += 1
        seq += 1

    for _ in range(3 * SAT_INFLIGHT):
        turn()
    t0 = perf_counter()
    for _ in range(per_round):
        turn()
    rate = per_round / (perf_counter() - t0)
    while inflight:
        i, future = inflight.popleft()
        _resolve(future, i, reference, tally)
    return rate


def _traced_metrics(tracer, result, setup_windows, setup_s, tally) -> dict:
    """Per-layer split of the light open-loop phase (per request)."""
    from training import setup_metrics
    light = result["light"]
    phase = light["result"]
    spans = in_window(tracer.spans, *phase["window"])
    layers = layer_metrics(spans)
    forwards = [s for s in spans
                if s.name == "model.forward" and s.args["streams"] > 0]
    forward_s = [s.dur for s in forwards]
    n_req = len(phase["latency"])
    metrics = {key: layers[key] / n_req for key in (
        "model.forward_s", "model.dense_s", "spmm.calls", "spmm.s",
        "spmm.widest_s", "spmm.pack_s", "spmm.exchange_s", "spmm.mult_s",
        "comm.alltoallv_calls", "comm.alltoallv_s", "comm.parallel_for_s")}
    metrics["spmm.mult_gflop"] = layers["spmm.mult_flop"] / n_req / 1e9
    metrics["spmm.mult_gflops"] = (
        layers["spmm.mult_flop"] / layers["spmm.mult_s"] / 1e9
        if layers["spmm.mult_s"] else 0.0)
    metrics["comm.mb"] = light["sent"].sum() / n_req / 1e6
    metrics["comm.messages"] = light["messages"] / n_req
    metrics["comm.plan_cache_hit_ratio"] = (
        light["hits"] / light["lookups"] if light["lookups"] else 0.0)
    metrics.update(setup_metrics(tracer, setup_windows, setup_s))
    t0, t1 = phase["window"]
    metrics["serve.forward_ms"] = median(forward_s) * 1e3
    metrics["serve.batch_size_mean"] = (
        sum(s.args["streams"] for s in forwards) / len(forwards))
    metrics["serve.forward_busy"] = sum(forward_s) / (t1 - t0)
    metrics["serve.overhead_ms"] = (median(phase["latency"])
                                    - median(forward_s)) * 1e3
    metrics["serve.plan_misses"] = result["plan_misses"]
    metrics["serve.queue_depth_max"] = result["queue_depth_max"]
    metrics["serve.shed"] = result["shed"]
    metrics["serve.rejected"] = tally.rejected
    metrics["serve.light_p50_ms"] = median(phase["latency"]) * 1e3
    metrics["serve.light_p99_ms"] = percentile(phase["latency"], 99) * 1e3
    heavy = result["heavy"]
    if heavy["latency"]:        # empty only if every heavy request failed
        metrics["serve.heavy_p50_ms"] = median(heavy["latency"]) * 1e3
        metrics["serve.heavy_p99_ms"] = percentile(heavy["latency"],
                                                   99) * 1e3
    metrics["loadgen.late_p99_ms"] = percentile(
        phase["late"] + heavy["late"], 99) * 1e3
    metrics["trace.overhead_s"] = result["trace_overhead_s"]
    metrics["trace.coverage"] = layers["comm.leaf_s"] / sum(forward_s)
    metrics["fail_ratio"] = tally.failed / tally.attempted
    return metrics
