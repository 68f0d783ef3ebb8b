"""Outside-in span tracing for the benchmark's traced runs.

The benchmark measures per-layer time without touching the program: it
wraps the public entry point of each layer (partitioner call, communicator
factory and collectives, compiled SpMM plans, the distributed GCN's
forward/loss/backward/optimizer, the gradient drain) with a thin timer and
records one span per call.  Spans are kept in memory (name, start, end,
parent, thread, args); :func:`layer_metrics` turns a window of them into
the per-layer numbers, and :meth:`Tracer.write_chrome` writes them out as
a Chrome trace when the run ends.

Wrappers are installed only for ``--trace 1`` runs and only around the
phases that report per-layer numbers; end-to-end numbers come from runs
with nothing installed.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterable, List, Optional

#: Communicator methods timed as the ``comm`` layer.  Every collective is
#: listed (blocking and nonblocking) so that a later change moving the
#: exchange to another collective still lands in a comm span.
COMM_METHODS = ("parallel_for", "barrier", "alltoallv", "ialltoallv",
                "allreduce", "iallreduce", "broadcast", "ibroadcast",
                "allgather", "reduce", "exchange", "iexchange")
COLLECTIVES = frozenset(m for m in COMM_METHODS if m != "parallel_for")

#: Model-level spans (``repro.core.dist_gcn.DistributedGCN``).
MODEL_SPANS = ("model.forward", "model.loss", "model.backward",
               "model.optimizer")


class Span:
    __slots__ = ("sid", "parent", "name", "tid", "t0", "t1", "args")

    def __init__(self, sid: int, parent: Optional[int], name: str, tid: int,
                 t0: float, args: Optional[dict]) -> None:
        self.sid = sid
        self.parent = parent
        self.name = name
        self.tid = tid
        self.t0 = t0
        self.t1 = t0
        self.args = args

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Thread-aware span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self._patches: List[tuple] = []

    # -- spans ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, args: Optional[dict] = None) -> Span:
        stack = self._stack()
        with self._lock:
            sid = self._next
            self._next += 1
        span = Span(sid, stack[-1].sid if stack else None, name,
                    threading.get_ident(), perf_counter(), args)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str, args: Optional[dict] = None):
        span = self.open(name, args)
        try:
            yield span
        finally:
            self.close(span)

    # -- wrappers ------------------------------------------------------
    def _wrap(self, owner, attr: str, name: str, args_of=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*a, **k):
            span = tracer.open(name, args_of(a, k) if args_of else None)
            try:
                return original(*a, **k)
            finally:
                tracer.close(span)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every layer's public entry points (idempotent)."""
        if self._patches:
            return
        import repro.core.trainer as trainer
        from repro.comm.base import Communicator
        from repro.core.dist_gcn import DistributedGCN
        from repro.core.engine import CompiledSpmm, SpmmEngine
        from repro.core.gradsync import PendingGradients

        self._wrap(trainer, "make_communicator", "setup.make_communicator")
        self._wrap(SpmmEngine, "compile", "setup.compile")
        self._wrap(CompiledSpmm, "__call__", "spmm",
                   lambda a, k: {"width": a[0].spec.width,
                                 "nnz": a[0].matrix.nnz})
        self._wrap(DistributedGCN, "forward", "model.forward",
                   _forward_args)
        self._wrap(DistributedGCN, "loss_and_logits_grad", "model.loss")
        self._wrap(DistributedGCN, "backward", "model.backward")
        self._wrap(DistributedGCN, "apply_gradients", "model.optimizer")
        self._wrap(PendingGradients, "wait", "gradsync.drain")
        for cls in _subclasses(Communicator):
            for method in COMM_METHODS:
                if method in cls.__dict__:
                    args_of = _alltoallv_bytes if method == "alltoallv" \
                        else None
                    self._wrap(cls, method, "comm." + method, args_of)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------
    def write_chrome(self, path: str) -> None:
        """Write every recorded span as a Chrome trace."""
        if not self.spans:
            return
        base = min(s.t0 for s in self.spans)
        events = [{"name": s.name, "ph": "X", "pid": 0, "tid": s.tid,
                   "ts": (s.t0 - base) * 1e6, "dur": s.dur * 1e6,
                   "args": dict(s.args or {}, id=s.sid, parent=s.parent)}
                  for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events}, fh)


def _subclasses(cls) -> List[type]:
    out, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def _forward_args(a, k) -> dict:
    features = a[1] if len(a) > 1 else k.get("features")
    if features is None:
        return {"streams": 0}
    return {"streams": int(k.get("streams", 1))}


def _alltoallv_bytes(a, k) -> dict:
    send = a[1] if len(a) > 1 else k["send"]
    nbytes = 0
    for j, row in enumerate(send):
        for i, payload in enumerate(row):
            if payload is not None and i != j:
                nbytes += payload.nbytes
    return {"bytes": nbytes}


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def in_window(spans: Iterable[Span], t0: float, t1: float) -> List[Span]:
    return [s for s in spans if s.t0 >= t0 and s.t1 <= t1]


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Totals (seconds, counts) of the per-layer quantities over ``spans``.

    Rules, applied to one window of spans:

    * ``comm.*`` times count only *outermost* communicator spans (a
      backend collective implemented on top of another is not counted
      twice); their sum is the leaf time used for coverage.
    * Inside an ``spmm`` span, compute (``parallel_for``) before the first
      collective is ``pack``, collectives are ``exchange`` and compute
      after it is ``mult``.
    * ``model.dense`` is compute under ``model.forward`` /
      ``model.backward`` that is not inside an ``spmm`` span.
    """
    by_id = {s.sid: s for s in spans}
    children: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    def ancestors(s: Span):
        p = s.parent
        while p is not None and p in by_id:
            yield by_id[p]
            p = by_id[p].parent

    out: Dict[str, float] = defaultdict(float)
    widest = max((s.args["width"] for s in spans if s.name == "spmm"),
                 default=0)
    for s in spans:
        name = s.name
        if name in MODEL_SPANS:
            out[name + "_s"] += s.dur
        elif name == "spmm":
            out["spmm.calls"] += 1
            out["spmm.s"] += s.dur
            out["spmm.mult_flop"] += 2.0 * s.args["nnz"] * s.args["width"]
            if s.args["width"] == widest:
                out["spmm.widest_s"] += s.dur
            seen_collective = False
            for c in sorted(children.get(s.sid, ()), key=lambda c: c.t0):
                method = c.name.removeprefix("comm.")
                if method in COLLECTIVES:
                    seen_collective = True
                    out["spmm.exchange_s"] += c.dur
                elif method == "parallel_for":
                    key = "spmm.mult_s" if seen_collective else "spmm.pack_s"
                    out[key] += c.dur
        elif name == "gradsync.drain":
            out["gradsync.drain_wait_s"] += s.dur
        elif name.startswith("comm."):
            anc = list(ancestors(s))
            if any(a.name.startswith("comm.") for a in anc):
                continue
            method = name.removeprefix("comm.")
            out["comm.leaf_s"] += s.dur
            if method in ("parallel_for", "alltoallv", "allreduce"):
                out[f"comm.{method}_s"] += s.dur
                if method != "parallel_for":
                    out[f"comm.{method}_calls"] += 1
            if method == "alltoallv":
                out["comm.alltoallv_bytes"] += s.args["bytes"]
            if method == "parallel_for":
                in_spmm = any(a.name == "spmm" for a in anc)
                model = next((a.name for a in anc if a.name in MODEL_SPANS),
                             None)
                if not in_spmm and model in ("model.forward",
                                             "model.backward"):
                    out["model.dense_s"] += s.dur
    return out
