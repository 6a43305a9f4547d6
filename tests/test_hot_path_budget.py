"""Budgets for the two hot paths — counts, so they repeat exactly.

**Packet tier: a frame budget for the per-packet path.**

One ``--quick``-size ``packet_swarm`` cell runs under ``sys.setprofile``
and the Python ``call`` events are divided by the kernel events it
dispatched.  The parent of the PR that introduced this test spent 11.93
Python frames per kernel event; flattening the pass-through frames
(``Host.send -> Interface.transmit -> send_from_host -> _Direction.send
-> DropTailQueue.enqueue -> _serve``, ``Timer.start -> cancel ->
Simulator.cancel -> EventQueue.cancel -> Event.cancel``, a
``pop_due()`` call per event) brought it under the bound below.  A
wrapper re-added on the per-packet path turns this test red.  The same
cell with the kernel profiler armed spent 10.15 frames per event while
observed runs still went through ``pop_due()``; one dispatch loop for
both brought it to 9.15.

**Fluid tier: a stepper budget.**  A clean ``figx_scale`` fluid cell at
``dt=0.003`` spends most of its steps in steady epochs, which
:meth:`FluidSwarm.advance` fast-forwards, and the rest in the warm-up
ramp epoch, which it hands to one loop (``FluidSwarm._ramp``); neither
calls :meth:`FluidSwarm._step`.  The 10^6-peer cell stepped 40 % of its
steps when the fast-forward was introduced; with ramp epochs it steps 7
of 103,666 (startup and completion steps), ramps 40.2 % and
fast-forwards 59.8 %, read off the swarm's ``steps_ramped`` and
``steps_fast_forwarded`` attributes.  A change that breaks a steady
or ramp epoch for nothing, or ramps through steady steps, turns this
test red.
"""

from __future__ import annotations

import sys
from unittest import mock

from repro.experiments.figx_scale import FigXScale, fluid_cell, packet_cell
from repro.scale import FluidSwarm
from repro.sim import Simulator

#: ~10 % above what the hot path achieves today.
MAX_FRAMES_PER_EVENT = 8.0
#: The same with the profiler armed (its ``record`` frames included).
MAX_PROFILED_FRAMES_PER_EVENT = 9.5
#: Share of a fine-dt fluid cell's steps that may run through ``_step``
#: (about twice the 7 of 103,666 it takes).
MAX_STEPPED_SHARE = 0.00015
#: Share that must be fast-forwarded, not ramped (it measures 59.8 %).
MIN_FORWARDED_SHARE = 0.55


def _frames_per_event():
    params = dict(FigXScale.defaults, file_size_kib=256, handoff_interval=10.0)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        value = packet_cell(3, 10, 0.2, True, params)
    finally:
        sys.setprofile(None)
    events = int(value["steps"])
    assert events == 14_174
    return calls / events


def test_python_frames_per_kernel_event_stay_within_budget():
    per_event = _frames_per_event()
    assert per_event <= MAX_FRAMES_PER_EVENT, (
        f"{per_event:.2f} Python frames per kernel event "
        f"exceeds {MAX_FRAMES_PER_EVENT}"
    )


def test_profiled_runs_share_the_dispatch_loop():
    run = Simulator.run

    def profiled_run(sim, *args, **kwargs):
        sim.enable_profiling()
        return run(sim, *args, **kwargs)

    with mock.patch.object(Simulator, "run", profiled_run):
        per_event = _frames_per_event()
    assert per_event <= MAX_PROFILED_FRAMES_PER_EVENT, (
        f"{per_event:.2f} Python frames per profiled kernel event "
        f"exceeds {MAX_PROFILED_FRAMES_PER_EVENT}"
    )


def test_fluid_steady_epochs_skip_the_stepper():
    params = dict(FigXScale.defaults, dt=0.003)
    with mock.patch.object(
        FluidSwarm, "finish", autospec=True, side_effect=FluidSwarm.finish
    ) as finish:
        value = fluid_cell(1_000_000, 0.221, False, params)
    steps = int(value["steps"])
    assert steps == 103_666
    swarm = finish.call_args.args[0]
    forwarded = swarm.steps_fast_forwarded / steps
    ramped = swarm.steps_ramped / steps
    stepped = 1.0 - forwarded - ramped
    assert stepped <= MAX_STEPPED_SHARE, (
        f"_step ran for {stepped:.4%} of {steps} steps "
        f"(budget {MAX_STEPPED_SHARE:.4%})"
    )
    assert forwarded >= MIN_FORWARDED_SHARE, (
        f"{forwarded:.1%} of {steps} steps fast-forwarded "
        f"(budget {MIN_FORWARDED_SHARE:.0%}; {ramped:.1%} ramped)"
    )
