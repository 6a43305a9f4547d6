"""The minimum distribution time of Kumar & Ross on the packet tier.

``tests/test_oracles_fluid.py`` holds the fluid tier to Kumar & Ross
(2006): no swarm distributes a file of ``F`` bytes to ``N`` leechers
before ``D_min = max{F/u_s, F/d_min, N·F/(u_s + Σu_i)}``, with ``u_s``
the seeds' total upload, ``d_min`` the slowest leecher download and
``Σu_i`` the leechers' total upload.  This is the same inequality on one
quick packet cell (the benchmark's ``--quick`` swarm: 10 peers, 256 KiB,
seed 3), with every rate read from the cell's own parameters.

No tolerance, written down before the first run: the rates are raw link
rates, and IP/TCP/BitTorrent headers, MAC overhead, handshakes,
announces and handoffs can only slow a transfer below them, so the last
leecher finishes at or after ``D_min``.  A mobile leecher's upload and
download are both bounded by its wireless cell's rate.
"""

from __future__ import annotations

from repro.experiments.figx_scale import FigXScale, packet_cell

#: The ``--quick`` packet_swarm cell of the committed benchmark.
QUICK = dict(FigXScale.defaults, file_size_kib=256, handoff_interval=10.0)


def _d_min(size: int, mobile_fraction: float, p: dict) -> float:
    """Kumar–Ross ``D_min`` for ``packet_cell``'s topology."""
    seeds = min(size - 1, int(p["seed_count"]))
    mobile = round((size - seeds) * mobile_fraction)
    wired = size - seeds - mobile
    f = float(p["file_size_kib"]) * 1024
    u_s = seeds * float(p["seed_up_rate"])
    u_leechers = wired * float(p["wired_up_rate"]) + mobile * float(p["wireless_rate"])
    d_min = min(
        [float(p["wired_down_rate"])] * wired + [float(p["wireless_rate"])] * mobile
    )
    n = wired + mobile
    return max(f / u_s, f / d_min, n * f / (u_s + u_leechers))


def test_last_leecher_finishes_no_sooner_than_kumar_ross():
    out = packet_cell(3, 10, 0.2, False, QUICK)
    assert out["completion"] is not None
    assert out["completion"] >= _d_min(10, 0.2, QUICK)
