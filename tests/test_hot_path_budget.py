"""A frame budget for the per-packet path — a count, so it repeats exactly.

One ``--quick``-size ``packet_swarm`` cell runs under ``sys.setprofile``
and the Python ``call`` events are divided by the kernel events it
dispatched.  The parent of the PR that introduced this test spent 11.93
Python frames per kernel event; flattening the pass-through frames
(``Host.send -> Interface.transmit -> send_from_host -> _Direction.send
-> DropTailQueue.enqueue -> _serve``, ``Timer.start -> cancel ->
Simulator.cancel -> EventQueue.cancel -> Event.cancel``, a
``pop_due()`` call per event) brought it under the bound below.  A
wrapper re-added on the per-packet path turns this test red.
"""

from __future__ import annotations

import sys

from repro.experiments.figx_scale import FigXScale, packet_cell

#: ~10 % above what the hot path achieves today.
MAX_FRAMES_PER_EVENT = 8.0


def test_python_frames_per_kernel_event_stay_within_budget():
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
    per_event = calls / events
    assert per_event <= MAX_FRAMES_PER_EVENT, (
        f"{per_event:.2f} Python frames per kernel event "
        f"({calls} calls / {events} events) exceeds {MAX_FRAMES_PER_EVENT}"
    )
