"""Training workloads: wall-clock epochs of the distributed GCN.

One run performs ``TrainSpec.warmups`` independent set-ups
(``setup_distributed`` + worker start; ``TrainSpec.setups`` of them,
spread evenly, also partition, the rest reuse the last partition), times
the warm-up epoch after each, then runs the steady epochs on the last
one.  Every epoch's loss is checked against the single-process
``train_reference`` on the same dataset and seed, whose epoch time is the
single-worker baseline.
"""

from __future__ import annotations

import gc
import math
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional

from measure import median, percentile
from spans import Tracer, in_window, layer_metrics

LEARNING_RATE = 0.05
#: Fewest steady epochs in a run (a traced run traces every other one).
MIN_STEADY = 20
#: Loss tolerance of the distributed-vs-reference equivalence tests.
RTOL, ATOL = 1e-7, 1e-9


@dataclass(frozen=True)
class TrainSpec:
    dataset: str
    scale: float
    backend: str
    ranks: int
    partitioner: Optional[str]
    #: Full set-ups (partition included) per run; ``setup_s`` is their
    #: median (few where one set-up partitions for seconds).
    setups: int
    #: Set-ups per run, each followed by a warm-up epoch; ``first_op_ms``
    #: is the median of those epochs.  The set-ups that are not full
    #: reuse the last partition, so the warm-up epoch is sampled cheaply.
    warmups: int
    #: Steady epochs per second of ``--seconds`` (sized so that a run
    #: measures about ``--seconds`` on a 2-vCPU host).
    epochs_per_second: float


WORKLOADS = {
    "train-reddit-process": TrainSpec("reddit", 4.0, "process", 2, None, 7,
                                      7, 0.8),
    "train-papers-gvb-sim": TrainSpec("papers", 1.0, "sim", 4, "gvb", 5, 11,
                                      1.3),
}


def run(name: str, seed: int, seconds: int,
        tracer: Optional[Tracer]) -> dict:
    from repro import (DistTrainConfig, ReferenceTrainConfig,
                       get_partitioner, load_dataset, setup_distributed,
                       train_reference)

    spec = WORKLOADS[name]
    dataset = load_dataset(spec.dataset, scale=spec.scale, seed=seed)
    config = DistTrainConfig(
        n_ranks=spec.ranks, algorithm="1d", sparsity_aware=True,
        partitioner=spec.partitioner, hidden=16, n_layers=3,
        learning_rate=LEARNING_RATE, machine="perlmutter-scaled",
        backend=spec.backend, seed=seed, dtype="float64")
    n_steady = max(MIN_STEADY, round(seconds * spec.epochs_per_second))
    # A traced run alternates plain and traced steady epochs: the traced
    # ones give the per-layer split, and their difference to the plain
    # ones (which drift with the host alike) is the tracing overhead.

    setup_s: List[float] = []
    first_s: List[float] = []
    losses: List[List[float]] = []
    steady: List[float] = []
    modeled: List[float] = []
    setup_windows = []
    part_stats: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    a2a_bytes = 0
    # The full set-ups are spread evenly among the warm-ups, so that the
    # warm-up epochs sample the whole set-up phase, not one short stretch
    # of the host's speed.
    full_reps = {round(i * spec.warmups / spec.setups)
                 for i in range(spec.setups)}
    partition = None
    for rep in range(spec.warmups):
        full = rep in full_reps
        if tracer:
            tracer.install()
        t0 = perf_counter()
        if spec.partitioner is not None and full:
            with tracer.span("partition") if tracer else nullcontext():
                partition = get_partitioner(
                    spec.partitioner, seed=seed).partition(
                        dataset.adjacency, spec.ranks)
            part_stats = dict(partition.stats)
        setup = setup_distributed(dataset, config, partition=partition)
        try:
            # The process backend starts its rank workers lazily, at the
            # first collective; start them here so set-up includes them.
            setup.comm.barrier()
            t1 = perf_counter()
            if full:
                setup_s.append(t1 - t0)
                setup_windows.append((t0, t1))
            model, comm = setup.model, setup.comm

            # Set-up's garbage (the partitioner's above all) is collected
            # here, not by whichever epoch happens to trigger the collector.
            gc.collect()
            t = perf_counter()
            losses.append([model.train_epoch(LEARNING_RATE)])
            first_s.append(perf_counter() - t)
            if rep < spec.warmups - 1:
                continue

            events = comm.events
            sent0 = events.bytes_sent_by_rank(spec.ranks)
            msgs0 = events.message_count()
            cache0 = comm.cache_stats()
            t_steady = perf_counter()
            for i in range(n_steady):
                traced_epoch = tracer is not None and i % 2 == 1
                if traced_epoch:
                    tracer.install()
                    a2a0 = events.total_bytes("alltoall")
                elif tracer:
                    tracer.uninstall()
                m0 = comm.elapsed()
                t = perf_counter()
                losses[-1].append(model.train_epoch(LEARNING_RATE))
                steady.append(perf_counter() - t)
                modeled.append(comm.elapsed() - m0)
                if traced_epoch:
                    a2a_bytes += events.total_bytes("alltoall") - a2a0
            traced_window = (t_steady, perf_counter())
            if tracer:
                tracer.uninstall()
            sent = events.bytes_sent_by_rank(spec.ranks) - sent0
            counters["bytes"] = float(sent.sum())
            counters["max_send_bytes"] = float(sent.max())
            counters["messages"] = float(events.message_count() - msgs0)
            cache1 = comm.cache_stats()
            hits = cache1.get("hits", 0) - cache0.get("hits", 0)
            lookups = hits + cache1.get("misses", 0) - cache0.get("misses", 0)
            counters["plan_cache_hit_ratio"] = hits / lookups \
                if lookups else 0.0
        finally:
            setup.comm.close()

    ref_config = dict(hidden=16, n_layers=3, learning_rate=LEARNING_RATE,
                      seed=seed)
    t = perf_counter()
    train_reference(dataset.adjacency, dataset.node_data,
                    ReferenceTrainConfig(epochs=0, **ref_config))
    fixed = perf_counter() - t
    n_ref = 1 + n_steady
    t = perf_counter()
    reference = train_reference(dataset.adjacency, dataset.node_data,
                                ReferenceTrainConfig(epochs=n_ref,
                                                     **ref_config))
    ref_epoch_s = (perf_counter() - t - fixed) / n_ref
    ref_losses = [rec.loss for rec in reference.history]

    attempted = sum(len(run_losses) for run_losses in losses)
    failed = sum(
        1 for run_losses in losses
        for loss, ref in zip(run_losses, ref_losses)
        if not math.isclose(loss, ref, rel_tol=RTOL, abs_tol=ATOL))

    result = {"attempted": attempted, "failed": failed,
              "correct": failed == 0, "info": {
                  "steady_epochs": n_steady, "setups": spec.setups,
                  "warmups": spec.warmups}}
    per_op = 1.0 / n_steady
    if tracer is None:
        result["metrics"] = {
            "setup_s": median(setup_s),
            "first_op_ms": median(first_s) * 1e3,
            "op_p50_ms": median(steady) * 1e3,
            "op_p90_ms": percentile(steady, 90) * 1e3,
            "peak_ops_per_s": len(steady) / sum(steady),
            "comm_mb_per_op": counters["bytes"] * per_op / 1e6,
            "max_send_mb_per_op": counters["max_send_bytes"] * per_op / 1e6,
        }
        return result

    traced, plain = steady[1::2], steady[0::2]
    layers = layer_metrics(in_window(tracer.spans, *traced_window))
    n = len(traced)
    wrapped_bytes = layers["comm.alltoallv_bytes"]
    bytes_ok = wrapped_bytes == a2a_bytes
    result["correct"] = result["correct"] and bytes_ok
    result["info"]["alltoallv_bytes_check"] = {
        "wrapper_bytes": wrapped_bytes,
        "event_log_alltoall_bytes": a2a_bytes,
        "equal": bytes_ok}
    metrics = {key: layers[key] / n for key in (
        "model.forward_s", "model.backward_s", "model.loss_s",
        "model.optimizer_s", "model.dense_s", "spmm.calls", "spmm.s",
        "spmm.widest_s", "spmm.pack_s", "spmm.exchange_s", "spmm.mult_s",
        "comm.alltoallv_calls", "comm.alltoallv_s", "comm.allreduce_calls",
        "comm.allreduce_s", "comm.parallel_for_s",
        "gradsync.drain_wait_s")}
    metrics["spmm.mult_gflop"] = layers["spmm.mult_flop"] / n / 1e9
    metrics["spmm.mult_gflops"] = (
        layers["spmm.mult_flop"] / layers["spmm.mult_s"] / 1e9
        if layers["spmm.mult_s"] else 0.0)
    metrics["comm.mb"] = counters["bytes"] * per_op / 1e6
    metrics["comm.messages"] = counters["messages"] * per_op
    metrics["comm.plan_cache_hit_ratio"] = counters["plan_cache_hit_ratio"]
    metrics["comm.modeled_epoch_s"] = (median(modeled)
                                       if spec.backend == "sim" else 0.0)
    metrics["gcn.ref_epoch_s"] = ref_epoch_s
    metrics.update(setup_metrics(tracer, setup_windows, setup_s))
    metrics["partition.total_volume_rows"] = part_stats.get(
        "total_volume", 0.0)
    metrics["partition.max_send_volume_rows"] = part_stats.get(
        "max_send_volume", 0.0)
    metrics["trace.overhead_s"] = median(traced) - median(plain)
    metrics["trace.coverage"] = layers["comm.leaf_s"] / sum(traced)
    metrics["fail_ratio"] = failed / attempted
    result["metrics"] = metrics
    return result


def setup_metrics(tracer: Tracer, windows, setup_s: List[float]) -> dict:
    """Mean per set-up of its parts, from the set-up windows' spans.

    Communicator start is the factory call plus the benchmark's own
    top-level ``barrier`` (which starts the process backend's workers).
    """
    parts = {"partition.s": 0.0, "setup.comm_start_s": 0.0,
             "setup.compile_s": 0.0}
    for t0, t1 in windows:
        for s in in_window(tracer.spans, t0, t1):
            if s.name == "partition":
                parts["partition.s"] += s.dur
            elif s.name == "setup.make_communicator" or (
                    s.name == "comm.barrier" and s.parent is None):
                parts["setup.comm_start_s"] += s.dur
            elif s.name == "setup.compile":
                parts["setup.compile_s"] += s.dur
    out = {k: v / len(windows) for k, v in parts.items()}
    out["setup.other_s"] = (sum(setup_s) / len(setup_s)
                            - sum(out.values()))
    return out

