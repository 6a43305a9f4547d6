"""Scale-tier benchmarks: fluid swarms plus the packet-engine hot path.

The whole point of :mod:`repro.scale` is that a 10^6-peer swarm costs
the same as a 10^2-peer one — per class and per time step, never per
peer.  These benches pin that property (and the ``figx_scale``
acceptance budget: the full sweep, including the 100k-peer 20%-mobile
cell, in well under a minute) and attach ``events`` / ``peak_swarm``
extra-info so ``scripts/run_benchmarks.py`` can consolidate
events-per-second and swarm-size numbers into ``BENCH_scale.json``.

The packet-engine bench runs one mid-size packet-backend cell end to
end, giving ``BENCH_scale.json`` a simulated-events-per-second
trajectory for the discrete-event kernel (see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

from conftest import run_figure

from repro.scale import FluidParams, FluidSwarm, PeerClass


def _params(scale: float) -> FluidParams:
    return FluidParams(
        file_size=4 << 20,
        piece_length=1 << 16,
        classes=(
            PeerClass("seeds", 5 * scale, 96_000.0, 1_000_000.0, seed=True),
            PeerClass("wired", 75 * scale, 48_000.0, 500_000.0),
            PeerClass("mobile", 20 * scale, 24_000.0, 100_000.0,
                      mobile=True, wireless_shared=True,
                      handoff_interval=90.0),
        ),
    )


def _bench_engine(benchmark, scale: float) -> None:
    swarms = []

    def run():
        swarm = FluidSwarm(_params(scale))
        result = swarm.run()
        swarms.append((swarm, result))
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    swarm, _ = swarms[-1]
    assert result.leecher_completion_time() is not None
    assert swarm.wall_seconds < 60.0
    benchmark.extra_info["events"] = result.steps
    benchmark.extra_info["peak_swarm"] = result.peak_population
    benchmark.extra_info["horizon"] = result.horizon


def test_fluid_engine_100_peers(benchmark):
    """Baseline: a small fluid swarm (100 peers, 3 classes)."""
    _bench_engine(benchmark, 1.0)


def test_fluid_engine_100k_peers(benchmark):
    """100k peers must integrate as fast as 100 (same classes, same steps)."""
    _bench_engine(benchmark, 1_000.0)


def test_fluid_engine_1m_peers(benchmark):
    """10^6 peers: the ROADMAP north star, still milliseconds."""
    _bench_engine(benchmark, 10_000.0)


def test_packet_engine_e2e(benchmark):
    """One packet-backend cell (12 peers, 25% mobile) end to end.

    The result is pinned by tests/test_scale.py; here we only measure
    speed.  ``events`` is the kernel event count, so the consolidated
    events-per-second is directly comparable across PRs.
    """
    from repro.experiments.figx_scale import FigXScale, packet_cell

    def run():
        return packet_cell(1, 12, 0.25, False, dict(FigXScale.defaults))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["events"] = result["steps"]
    benchmark.extra_info["subsystem"] = "packet_engine"


def test_hybrid_engine_e2e(benchmark):
    """One hybrid-backend cell end to end: 2 packet focal mobiles coupled
    to a 10^4-peer fluid background.

    ``events`` counts both resolutions (kernel events + fluid steps), so
    the consolidated events-per-second tracks the co-simulation as one
    engine across PRs.
    """
    from repro.experiments.figx_hybrid import FigXHybrid, hybrid_cell

    def run():
        return hybrid_cell(1, 10_000, 1.0, False, dict(FigXHybrid.defaults))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result["completion"] is not None
    assert result["couplings"] > 0
    benchmark.extra_info["events"] = result["steps"]
    benchmark.extra_info["peak_swarm"] = result["peak_swarm"]
    benchmark.extra_info["subsystem"] = "hybrid_engine"


def test_cdn_engine_e2e(benchmark):
    """One packet-backend CDN cell end to end: the default figx_cdn
    geometry (4-asset catalog, 10 shared-uplink peers, 40% mobile) as a
    full multi-swarm run.

    ``events`` is the kernel event count across every concurrent
    per-asset swarm, so the consolidated events-per-second tracks the
    multi-swarm scheduler (shared token buckets, per-asset ports, origin
    activation) as one engine across PRs.
    """
    from repro.experiments.figx_cdn import FigXCdn, cdn_run

    def run():
        return cdn_run(1, "default", 0.4, dict(FigXCdn.defaults))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result["requests"] > 0
    benchmark.extra_info["events"] = result["steps"]
    benchmark.extra_info["subsystem"] = "cdn_engine"


def test_cdn_fluid_10k_assets(benchmark):
    """A 10^4-asset catalog through the band surrogate.

    Cost must stay O(log assets): geometric rank bands collapse the
    catalog into ~14 class solves, so this is milliseconds regardless of
    catalog size — the property that makes the fluid backend the right
    tool for CDN-scale sweeps.
    """
    from repro.cdn import cdn_fluid_cell

    def run():
        return cdn_fluid_cell(
            catalog={"assets": 10_000, "size_kib": 256, "piece_kib": 16},
            demand="zipf:0.9@50.0",
            origin={"policy": "pin_top_k", "k": 100, "capacity": 10_000},
            peers=100_000,
            mobile_fraction=0.2,
            wp2p=False,
            horizon=600.0,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result["steps"] <= 16
    benchmark.extra_info["events"] = result["steps"]
    benchmark.extra_info["subsystem"] = "cdn_fluid"


def test_figx_scale_fluid_sweep(benchmark):
    """The full figx_scale sweep (up to 100k peers, 20% and 50% mobile)
    on the fluid backend — the acceptance budget is < 60 s; the scenario's
    own claims are checked by ``run_figure``."""
    result = run_figure(benchmark, "figx_scale")
    benchmark.extra_info["events"] = result.parameters["engine_steps"]
    benchmark.extra_info["peak_swarm"] = result.parameters["peak_swarm_size"]
    assert result.parameters["peak_swarm_size"] >= 100_000
