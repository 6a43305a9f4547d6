"""Single-layer drivers: the ``(driver)`` per-layer metrics.

The packet-kernel drivers are the existing ``benchmarks/bench_micro.py``
functions, imported and timed here rather than copied.  The runner
drivers call the public pieces ``Runner.run`` is made of, one at a time,
on the same grid ``campaign_runner`` uses, so a change to spec
expansion, digests or the cache shows as its own number.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
from time import perf_counter
from typing import Callable, Dict, Tuple

import bench_micro  # benchmarks/ is put on sys.path by run.py

from repro.runner import ResultCache, ScenarioSpec, get_scenario
from repro.runner.spec import cell_digest, code_version

from perfbench.hostspeed import HostSpeed, slowdown
from perfbench.workloads import scratch_dir

REPS = 3


def timed(fn: Callable[[], object], host: HostSpeed) -> Tuple[float, object]:
    """Median of :data:`REPS` timings of ``fn`` at nominal host speed,
    and the last result."""
    walls = []
    before = host.spin()
    for _ in range(REPS):
        started = perf_counter()
        result = fn()
        raw = perf_counter() - started
        after = host.spin()
        walls.append(raw / slowdown(before, after))
        before = after
    return statistics.median(walls), result


def kernel_drivers(host: HostSpeed) -> Dict[str, float]:
    out = {}
    for metric, fn in (
        ("sim.queue_ns_per_op", lambda: bench_micro._queue_churn(None)),
        ("net.wireless_ns_per_frame", bench_micro._wireless_saturation),
        ("tcp.pump_ns_per_event", bench_micro._tcp_bulk_transfer),
        ("obs.off_ns_per_call", bench_micro._obs_off_calls),
    ):
        wall, units = timed(fn, host)
        out[metric] = 1e9 * wall / units
    return out


def runner_drivers(grid_overrides: Dict[str, object],
                   host: HostSpeed) -> Dict[str, float]:
    scn = get_scenario("figx_scale")

    def expand():
        params = scn.params(grid_overrides)
        cells = [(tuple(key), seed) for key, seed in scn.cells(params)]
        spec = ScenarioSpec.create(
            scn.name, params, seeds=sorted({seed for _, seed in cells}),
            description=scn.description, backend="fluid",
        )
        return params, cells, spec

    expand_s, (params, cells, spec) = timed(expand, host)
    code = code_version()
    digest_s, digests = timed(
        lambda: [cell_digest(spec, key, seed, code) for key, seed in cells], host
    )

    # The fluid engine ignores the seed: one real value per grid point.
    by_key = {}
    for key, seed in cells:
        if key not in by_key:
            by_key[key] = scn.run_cell_fluid(key, seed, params)
    values = {cell: by_key[cell[0]] for cell in cells}

    root = scratch_dir("driver-")
    try:
        def put():
            # A new root each time: every put creates its entry.
            cache = ResultCache(tempfile.mkdtemp(dir=root))
            for digest, cell in zip(digests, cells):
                cache.put(digest, values[cell], meta={"seed": cell[1]})
            return cache

        put_s, cache = timed(put, host)
        get_s, hits = timed(
            lambda: sum(cache.get(digest)[0] for digest in digests), host
        )
        if hits != len(cells):
            raise RuntimeError(f"cache driver: {hits}/{len(cells)} hits")
    finally:
        shutil.rmtree(root, ignore_errors=True)

    assemble_s, _ = timed(lambda: scn.assemble(params, values, []), host)
    n = len(cells)
    return {
        "runner.expand_ms": 1e3 * expand_s,
        "runner.digest_us_per_cell": 1e6 * digest_s / n,
        "runner.cache_put_us_per_cell": 1e6 * put_s / n,
        "runner.cache_get_us_per_cell": 1e6 * get_s / n,
        "runner.assemble_ms": 1e3 * assemble_s,
    }
