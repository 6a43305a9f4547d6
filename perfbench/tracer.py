"""Benchmark-side layer attribution for one traced pass.

Nothing here lives in ``src/``: while a :class:`LayerTracer` is
installed, the layer entry points named in :data:`SPAN_POINTS` are
wrapped at run time so each call is a span, and every simulator that
runs is armed through the public ``Simulator.enable_profiling()`` with
a ``record`` hook that buckets each dispatched handler by the
``repro.<layer>`` module that owns it.  A layer's share is its *self*
time: span duration minus the part its child spans cover, so the shares
of one pass add up to the pass.

Spans stay in memory; :meth:`LayerTracer.write` dumps them when the
benchmark ends.  Untraced passes never import this module's patches.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from repro.bittorrent.peer import PeerConnection
from repro.bittorrent.tracker import Tracker
from repro.cdn.origin import Origin
from repro.cdn.scenario import CdnScenario
from repro.net.host import Host
from repro.runner import Runner
from repro.scale.fluid import FluidSwarm
from repro.scale.hybrid import HybridSwarm
from repro.sim import Simulator
from repro.tcp.connection import TCPConnection
from repro.tcp.stack import TCPStack
from repro.wp2p import client as wp2p_client
from repro.wp2p.age_manipulation import AgeBasedManipulation
from repro.wp2p.incentive_aware import LIHDController
from repro.wp2p.mobility_aware import MobilityAwareSelector

from perfbench import workloads

#: (owner, attribute, layer, span name).  Message and request handlers
#: are private methods; they are where a layer is entered from below.
SPAN_POINTS: Tuple[Tuple[object, str, str, str], ...] = (
    (Host, "send", "net", "net.send"),
    (Host, "deliver", "net", "net.deliver"),
    (TCPStack, "receive", "tcp", "tcp.receive"),
    (TCPConnection, "send_message", "tcp", "tcp.send_message"),
    (PeerConnection, "_on_message", "bittorrent", "bittorrent.message"),
    (Tracker, "_handle", "bittorrent", "bittorrent.announce"),
    (wp2p_client.WP2PClient, "restart_task", "wp2p", "wp2p.restart_task"),
    (wp2p_client, "wp2p_ip_change_policy", "wp2p", "wp2p.ip_change"),
    (LIHDController, "_update", "wp2p", "wp2p.lihd_update"),
    (AgeBasedManipulation, "_ingress", "wp2p", "wp2p.am_ingress"),
    (AgeBasedManipulation, "_egress", "wp2p", "wp2p.am_egress"),
    (MobilityAwareSelector, "choose", "wp2p", "wp2p.choose"),
    (CdnScenario, "_handle_request", "cdn", "cdn.request"),
    (CdnScenario, "_sweep_completions", "cdn", "cdn.sweep"),
    (Origin, "on_request", "cdn", "cdn.origin_request"),
    (Origin, "_activate", "cdn", "cdn.origin_activate"),
    (FluidSwarm, "run", "scale", "scale.fluid_run"),
    (FluidSwarm, "advance", "scale", "scale.fluid_advance"),
    (HybridSwarm, "run", "scale", "scale.hybrid_run"),
    (workloads, "cdn_fluid_cell", "scale", "scale.cdn_fluid"),
    (Runner, "run", "runner", "runner.run"),
)

#: Layers reported by name; time owned by any other module is "other".
LAYERS = ("sim", "net", "tcp", "bittorrent", "wp2p", "cdn", "scale", "runner")

#: Raw spans kept for the dump; the aggregates cover every span.
SPAN_CAP = 100_000


def _layer_of_module(module: str) -> str:
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1 and parts[1] in LAYERS:
        return parts[1]
    return "other"


class LayerTracer:
    """Span stack, per-layer self time and call counts for one pass."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.events = 0  # handlers dispatched by every profiled run
        self.handler_s = 0.0  # wall inside those handlers
        self.spans: List[tuple] = []  # (id, parent, layer, name, start, end)
        # One frame per open span: [seconds covered by children, span id,
        # children-seconds already charged to finished handlers].
        self._stack: List[list] = []
        self._next_id = 0
        self._module_layer: Dict[str, str] = {}
        self._originals: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def span(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each call is one span of ``layer``."""
        stack, self_s, calls, spans = (
            self._stack, self.self_s, self.calls, self.spans
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [0.0, self._next_id, 0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = perf_counter()
                elapsed = ended - started
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                calls[name] += 1
                parent = 0
                if stack:
                    stack[-1][0] += elapsed
                    parent = stack[-1][1]
                if len(spans) < SPAN_CAP:
                    spans.append((frame[1], parent, layer, name, started, ended))

        return traced

    def _traced_sim_run(self, run: Callable) -> Callable:
        """``Simulator.run`` as a ``sim`` span whose children are the
        handlers it dispatches; what is left is the event loop itself."""
        spanned = self.span("sim", "sim.run", run)

        @functools.wraps(run)
        def traced(sim, *args, **kwargs):
            sim.enable_profiling().record = self._record_handler
            return spanned(sim, *args, **kwargs)

        return traced

    def _record_handler(self, callback: Callable, elapsed: float) -> None:
        """Profiler hook: one handler ran for ``elapsed`` seconds."""
        frame = self._stack[-1]  # the enclosing sim.run span
        own = elapsed - (frame[0] - frame[2])  # minus spans opened inside it
        frame[0] += own
        frame[2] = frame[0]
        self.self_s[self._layer_of(callback)] += own
        self.events += 1
        self.handler_s += elapsed

    def _layer_of(self, callback: Callable) -> str:
        owner = getattr(callback, "__self__", None)
        if owner is not None and type(owner).__module__ == "repro.sim.timers":
            # Timer / PeriodicTask: charge the callback they carry.
            callback = owner._callback
            owner = getattr(callback, "__self__", None)
        if isinstance(callback, functools.partial):
            callback = callback.func
        module = (
            type(owner).__module__ if owner is not None
            else getattr(callback, "__module__", "") or ""
        )
        layer = self._module_layer.get(module)
        if layer is None:
            layer = self._module_layer[module] = _layer_of_module(module)
        return layer

    # ------------------------------------------------------------------
    def install(self) -> None:
        for owner, attr, layer, name in SPAN_POINTS:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self.span(layer, name, original))
        original = Simulator.run
        self._originals.append((Simulator, "run", original))
        Simulator.run = self._traced_sim_run(original)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def shares(self, total_s: float) -> Dict[str, float]:
        """Each layer's self time as a share of ``total_s``."""
        out = {layer: self.self_s.get(layer, 0.0) / total_s for layer in LAYERS}
        out["other"] = sum(
            s for layer, s in self.self_s.items() if layer not in LAYERS
        ) / total_s
        return out

    def write(self, path: str) -> None:
        """Dump aggregates and the first :data:`SPAN_CAP` raw spans."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "self_s": dict(self.self_s), "calls": dict(self.calls),
                "events": self.events, "handler_s": self.handler_s,
                "spans_kept": len(self.spans),
            }, sort_keys=True) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
