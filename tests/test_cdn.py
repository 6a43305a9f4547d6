"""Tests for the CDN tier (repro.cdn): catalogs, demand, origin,
multi-swarm scenarios, the fluid surrogate, and the workload axis.

The load-bearing contracts:

* eager validation — malformed catalog/demand/origin specs raise
  ``ValueError`` at parse time (and ``SystemExit`` at the CLI), never
  inside a worker mid-campaign;
* seeded determinism — a demand trace (and a whole packet cell) is a
  pure function of (spec, seed), so serial and ``--jobs N`` runs are
  bit-identical and the cache can address results by content;
* digest stability — the ``workload`` spec axis folds into hashes only
  when non-default (the default digest is the ``axes/default`` row of
  ``scripts/pins.py``).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import context
from repro.cdn import (
    Catalog,
    CdnScenario,
    ZipfDemand,
    cdn_fluid_cell,
    normalize_catalog,
    normalize_demand,
    normalize_origin,
    normalize_workload,
    rank_bands,
    zipf_weights,
)
from repro.cdn.demand import cycle_factor, mean_cycle_factor
from repro.cdn.origin import POLICIES
from repro.cdn.surrogate import MAX_BANDS
from repro.runner import Runner
from repro.runner.spec import ScenarioSpec, cell_digest
from repro.scale.assets import AssetClassParams, asset_class_outcome

import pins


@pytest.fixture(autouse=True)
def _no_ambient_workload():
    with context.scope(workload=None):
        yield


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------
class TestCatalog:
    def test_normalize_defaults_and_forms(self):
        assert normalize_catalog(None) == {
            "assets": 4, "size_kib": 256, "piece_kib": 16,
        }
        assert normalize_catalog(8)["assets"] == 8
        parsed = normalize_catalog("assets:8,size_kib:512,piece_kib:32")
        assert parsed == {"assets": 8, "size_kib": 512, "piece_kib": 32}
        assert normalize_catalog({"assets": 2}) == {
            "assets": 2, "size_kib": 256, "piece_kib": 16,
        }

    def test_malformed_specs_rejected_eagerly(self):
        with pytest.raises(ValueError):
            normalize_catalog("assets:0")
        with pytest.raises(ValueError):
            normalize_catalog({"assets": "many"})
        with pytest.raises(ValueError):
            normalize_catalog({"bogus": 1})
        with pytest.raises(ValueError):
            normalize_catalog("assets")  # no key:value shape
        with pytest.raises(ValueError):
            # piece length must stay block-aligned
            normalize_catalog({"piece_kib": 17})

    def test_per_asset_sizes(self):
        cat = Catalog.from_spec({"assets": 3, "sizes_kib": [64, 32, 16]})
        assert [a.size for a in cat] == [64 * 1024, 32 * 1024, 16 * 1024]
        with pytest.raises(ValueError):
            normalize_catalog({"assets": 3, "sizes_kib": [64]})

    def test_assets_are_hash_addressed(self):
        cat = Catalog.from_spec({"assets": 2, "size_kib": 64})
        a1, a2 = list(cat)
        assert a1.asset_id != a2.asset_id
        # Content-derived and stable: same (name, size, piece) -> same id.
        again = Catalog.from_spec({"assets": 2, "size_kib": 64})
        assert [a.asset_id for a in again] == [a1.asset_id, a2.asset_id]
        torrent = cat.torrent(a1, "10.0.0.1")
        assert torrent.info_hash == f"cdn-{a1.asset_id}"


# ----------------------------------------------------------------------
# Demand
# ----------------------------------------------------------------------
class TestDemand:
    def test_normalize_string_forms(self):
        assert normalize_demand("zipf:1.2") == {
            "kind": "zipf", "alpha": 1.2, "rate": 0.05,
        }
        assert normalize_demand("zipf:0.8@0.4")["rate"] == 0.4

    def test_malformed_rejected_eagerly(self):
        for bad in (
            "zipf:0", "zipf:-1", "zipf:abc", "poisson:1",
            {"kind": "zipf", "alpha": 0.0},
            {"kind": "zipf", "rate": -0.1},
            {"kind": "zipf", "bogus": 1},
            {"kind": "zipf", "flash_crowd": {"at": -1.0}},
            {"kind": "zipf", "flash_crowd": {"size": 0}},
            {"kind": "zipf", "flash_crowd": {"width": 0.0}},
            {"kind": "zipf", "flash_crowd": {"rank": 0}},
            {"kind": "zipf", "daily_cycle": {"depth": 1.0}},
            {"kind": "zipf", "daily_cycle": {"period": 0.0}},
        ):
            with pytest.raises(ValueError):
                normalize_demand(bad)

    def test_zipf_weights(self):
        w = zipf_weights(4, 1.0)
        assert w[0] > w[1] > w[2] > w[3]
        assert sum(w) == pytest.approx(1.0)

    def test_trace_is_a_pure_function_of_spec_and_seed(self):
        spec = {
            "kind": "zipf", "alpha": 1.1, "rate": 0.5,
            "flash_crowd": {"at": 50.0, "rank": 1, "size": 5, "width": 4.0},
            "daily_cycle": {"period": 100.0, "depth": 0.5},
        }
        t1 = ZipfDemand(spec, assets=4, peers=6, seed=9).trace(200.0)
        t2 = ZipfDemand(spec, assets=4, peers=6, seed=9).trace(200.0)
        assert t1 == t2
        t3 = ZipfDemand(spec, assets=4, peers=6, seed=10).trace(200.0)
        assert t1 != t3
        # Sorted by time; peers/ranks in range.
        times = [r.time for r in t1]
        assert times == sorted(times)
        assert all(0 <= r.peer < 6 and 1 <= r.rank <= 4 for r in t1)

    def test_flash_crowd_lands_in_its_window(self):
        base = {"kind": "zipf", "alpha": 1.0, "rate": 0.01}
        flash = dict(base, flash_crowd={
            "at": 100.0, "rank": 2, "size": 8, "width": 10.0,
        })
        quiet = ZipfDemand(base, assets=4, peers=4, seed=1).trace(200.0)
        crowd = ZipfDemand(flash, assets=4, peers=4, seed=1).trace(200.0)
        burst = [r for r in crowd if r not in quiet]
        assert len(burst) >= 8
        in_window = [r for r in burst if 100.0 <= r.time <= 110.0 + 1e-9]
        assert len(in_window) >= 8
        assert sum(1 for r in in_window if r.rank == 2) >= 8

    def test_daily_cycle_thins_arrivals(self):
        base = {"kind": "zipf", "alpha": 1.0, "rate": 1.0}
        cycled = dict(base, daily_cycle={"period": 100.0, "depth": 0.8})
        flat = ZipfDemand(base, assets=2, peers=4, seed=2).trace(400.0)
        thinned = ZipfDemand(cycled, assets=2, peers=4, seed=2).trace(400.0)
        assert len(thinned) < len(flat)
        assert cycle_factor(0.0, cycled["daily_cycle"]) == pytest.approx(1.0)
        assert cycle_factor(50.0, cycled["daily_cycle"]) == pytest.approx(0.2)
        assert mean_cycle_factor(cycled["daily_cycle"]) == pytest.approx(0.6)


# ----------------------------------------------------------------------
# Origin policies
# ----------------------------------------------------------------------
class TestOrigin:
    def test_normalize_and_policies(self):
        norm = normalize_origin(None)
        assert norm["policy"] == "pin_top_k"
        assert normalize_origin({"policy": "lru_evict"})["policy"] == "lru_evict"
        with pytest.raises(ValueError):
            normalize_origin({"policy": "magic"})
        with pytest.raises(ValueError):
            normalize_origin({"policy": "pin_top_k", "k": 5, "capacity": 2})
        with pytest.raises(ValueError):
            normalize_origin({"capacity": 0})
        with pytest.raises(ValueError):
            normalize_origin({"up_rate": 0})


# ----------------------------------------------------------------------
# Workload axis: normalize / ambient install / digests
# ----------------------------------------------------------------------
class TestWorkloadAxis:
    def test_normalize_workload(self):
        assert normalize_workload(None) is None
        assert normalize_workload({}) is None
        norm = normalize_workload({"catalog": 2, "demand": "zipf:1.1"})
        assert norm["catalog"]["assets"] == 2
        assert norm["demand"]["alpha"] == 1.1
        with pytest.raises(ValueError):
            normalize_workload({"catalogue": 2})
        with pytest.raises(ValueError):
            normalize_workload("zipf:1.1")

    def test_ambient_workload_beats_constructor_arguments(self):
        with context.scope(workload={"catalog": {"assets": 2, "size_kib": 16}}):
            assert context.get("workload") is not None
            sc = CdnScenario(seed=0, catalog="assets:5", peers=2, horizon=10.0)
            assert len(sc.catalog) == 2
        assert context.get("workload") is None
        sc = CdnScenario(seed=0, catalog="assets:5,size_kib:16", peers=2,
                         horizon=10.0)
        assert len(sc.catalog) == 5

    def test_default_workload_digest_is_byte_identical_to_pre_cdn_era(self):
        assert pins.main(["check", "axes/default"]) == 0

    def test_workloads_cache_disjointly(self):
        specs = [
            ScenarioSpec.create("figx", {"runs": 2}, workload=workload)
            for workload in (
                None,
                normalize_workload({"catalog": 2}),
                normalize_workload({"catalog": 2, "demand": "zipf:1.3"}),
            )
        ]
        assert len({s.spec_hash() for s in specs}) == 3
        assert len({cell_digest(s, ("k",), 1, code="c") for s in specs}) == 3

    def test_runner_validates_eagerly_and_drops_the_default(self):
        assert Runner(workload=None).axes.get("workload") is None
        assert Runner(workload={}).axes.get("workload") is None
        runner = Runner(workload={"demand": "zipf:1.5@0.2"})
        assert runner.axes["workload"] == {
            "demand": {"kind": "zipf", "alpha": 1.5, "rate": 0.2},
        }
        with pytest.raises(ValueError):
            Runner(workload={"demand": "zipf:-2"})
        with pytest.raises(ValueError):
            Runner(workload={"origin": {"policy": "nope"}})


# ----------------------------------------------------------------------
# Packet scenario
# ----------------------------------------------------------------------
SMALL = dict(
    catalog="assets:3,size_kib:48,piece_kib:16",
    demand="zipf:1.0@0.15",
    peers=4,
    horizon=90.0,
)


class TestCdnScenario:
    def test_runs_and_serves_requests(self):
        sc = CdnScenario(seed=5, **SMALL)
        sc.run()
        r = sc.results()
        assert r["requests"] > 0
        assert 0 < r["served"] <= r["requests"]
        assert 0.0 <= r["offload"] <= 1.0
        assert r["origin_bytes"] > 0  # cold copies always hit the origin

    def test_deterministic_across_identical_runs(self):
        runs = []
        for _ in range(2):
            sc = CdnScenario(seed=7, **SMALL)
            sc.run()
            runs.append(json.dumps(sc.results(), sort_keys=True))
        assert runs[0] == runs[1]

    def test_peers_share_one_upload_bucket(self):
        sc = CdnScenario(seed=5, **SMALL)
        sc.run()
        multi = [p for p in sc.peers if len(p.clients) >= 2]
        assert multi, "sweep produced no multi-swarm peer"
        for peer in multi:
            buckets = {id(c.upload_bucket) for c in peer.clients.values()}
            assert buckets == {id(peer.bucket)}

    def test_repeat_request_is_a_local_hit(self):
        sc = CdnScenario(
            seed=1, catalog="assets:1,size_kib:16", peers=1,
            demand={"kind": "zipf", "alpha": 1.0, "rate": 0.2},
            horizon=60.0,
        )
        sc.run()
        r = sc.results()
        # One peer, one asset: once the first fetch lands, every request
        # arriving after it is served from the local replica instantly
        # (a request overlapping the in-flight fetch still accrues
        # latency from its own arrival).
        assert r["requests"] >= 2
        assert r["served"] == r["requests"]
        first_done = sc.pending[0].time + sc.pending[0].latency
        after = [e for e in sc.pending if e.time > first_done]
        assert after and all(e.latency == 0.0 for e in after)

    def test_packet_catalog_limit_enforced(self):
        with pytest.raises(ValueError):
            CdnScenario(seed=0, catalog={"assets": 65, "size_kib": 16})

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CdnScenario(seed=0, peers=0)
        with pytest.raises(ValueError):
            CdnScenario(seed=0, mobile_fraction=1.5)
        with pytest.raises(ValueError):
            CdnScenario(seed=0, horizon=0.0)


# ----------------------------------------------------------------------
# Fluid surrogate
# ----------------------------------------------------------------------
class TestFluidSurrogate:
    def test_rank_bands_partition_geometrically(self):
        assert rank_bands(1) == [(1, 1)]
        assert rank_bands(10) == [(1, 1), (2, 3), (4, 7), (8, 10)]
        # The last of MAX_BANDS bands takes every remaining rank.
        assert rank_bands(2**20) == [
            (2**i, 2**(i + 1) - 1) for i in range(MAX_BANDS - 1)
        ] + [(2**(MAX_BANDS - 1), 2**20)]
        bands = rank_bands(10_000)
        assert bands[0] == (1, 1)
        assert bands[-1][1] == 10_000
        covered = []
        for first, last in bands:
            covered.extend(range(first, last + 1))
        assert covered == list(range(1, 10_001))
        with pytest.raises(ValueError):
            rank_bands(0)

    def test_offload_monotone_in_mobility_and_wp2p_recovers(self):
        kw = dict(catalog="assets:4", demand="zipf:1.0@0.2", peers=10,
                  horizon=600.0)
        offloads = [
            cdn_fluid_cell(mobile_fraction=f, **kw)["offload"]
            for f in (0.0, 0.3, 0.6, 0.9)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(offloads, offloads[1:]))
        assert offloads[-1] < offloads[0]
        default = cdn_fluid_cell(mobile_fraction=0.6, **kw)["offload"]
        wp2p = cdn_fluid_cell(mobile_fraction=0.6, wp2p=True, **kw)["offload"]
        assert wp2p > default

    def test_large_catalog_is_cheap(self):
        result = cdn_fluid_cell(
            catalog={"assets": 10_000, "size_kib": 64},
            demand="zipf:1.1@5.0",
            peers=500,
            horizon=600.0,
        )
        # O(log assets) band solves, not 10^4 integrations.
        assert result["steps"] <= 16
        assert 0.0 <= result["offload"] <= 1.0
        assert result["requests"] > 0

    def test_ambient_workload_reaches_the_fluid_cell(self):
        with context.scope(workload={"catalog": {"assets": 2, "size_kib": 16}}):
            result = cdn_fluid_cell(catalog="assets:9")
            assert len(result["per_asset"]) == 2  # bands of a 2-asset catalog

    def test_asset_class_outcome_contracts(self):
        base = dict(
            size=65_536.0, request_rate=0.1, download_rate=500_000.0,
            upload_rate=48_000.0, origin_rate=100_000.0,
        )
        out = asset_class_outcome(AssetClassParams(**base), horizon=600.0)
        assert out.requests == pytest.approx(60.0)
        assert 0.0 <= out.offload <= 1.0
        assert out.origin_bytes <= out.total_bytes
        # Monotone: less-available peers push bytes onto the origin.
        degraded = asset_class_outcome(
            AssetClassParams(**base, peer_availability=0.4), horizon=600.0
        )
        assert degraded.offload <= out.offload
        with pytest.raises(ValueError):
            AssetClassParams(**dict(base, size=0.0))
        with pytest.raises(ValueError):
            AssetClassParams(**dict(base, peer_availability=0.0))
        # Zero demand: only the (possible) cold copy matters.
        idle = asset_class_outcome(
            AssetClassParams(**dict(base, request_rate=0.0)), horizon=600.0
        )
        assert idle.requests == 0.0
        assert idle.offload == 1.0


def _reference_expected_active(cat, dem, org, horizon):
    """The origin's expected active set as the loop computed it with
    builtin ``min()``, before it became a comparison."""
    assets = int(cat["assets"])
    weights = zipf_weights(assets, float(dem["alpha"]))
    base_rate = float(dem["rate"]) * mean_cycle_factor(dem.get("daily_cycle"))
    flash = dem.get("flash_crowd")
    flash_rank = min(int(flash["rank"]), assets) if flash is not None else None
    flash_rate = float(flash["size"]) / horizon if flash is not None else 0.0
    pinned_k = int(org["k"]) if org["policy"] == "pin_top_k" else 0
    pinned_k = min(pinned_k, assets)
    expected_active = float(pinned_k)
    for rank in range(pinned_k + 1, assets + 1):
        rank_rate = base_rate * weights[rank - 1] + (
            flash_rate if rank == flash_rank else 0.0
        )
        expected_active += min(1.0, rank_rate * horizon)
    if org["policy"] in ("pin_top_k", "lru_evict"):
        expected_active = min(expected_active, float(org["capacity"]))
    return expected_active


_flash = st.none() | st.fixed_dictionaries({
    "at": st.floats(0.0, 500.0), "rank": st.integers(1, 400),
    "size": st.integers(1, 60), "width": st.floats(0.1, 30.0),
})
_cycle = st.none() | st.fixed_dictionaries({
    "period": st.floats(1.0, 2000.0), "depth": st.floats(0.0, 0.99),
    "phase": st.floats(0.0, 1000.0),
})


@settings(max_examples=80, deadline=None)
@given(
    assets=st.integers(1, 300),
    size_kib=st.integers(1, 512),
    alpha=st.floats(0.05, 2.5),
    rate=st.floats(1e-4, 60.0),
    flash=_flash,
    cycle=_cycle,
    policy=st.sampled_from(POLICIES),
    capacity=st.integers(1, 400),
    k_share=st.floats(0.0, 1.0),
    horizon=st.floats(1.0, 3000.0),
)
def test_origin_active_set_is_bit_identical_to_the_min_loop(
    assets, size_kib, alpha, rate, flash, cycle, policy, capacity, k_share,
    horizon,
):
    demand = {"alpha": alpha, "rate": rate}
    if flash is not None:
        demand["flash_crowd"] = flash
    if cycle is not None:
        demand["daily_cycle"] = cycle
    origin = {"policy": policy, "capacity": capacity,
              "k": int(k_share * capacity)}
    catalog = {"assets": assets, "size_kib": size_kib}
    got = cdn_fluid_cell(catalog=catalog, demand=demand, origin=origin,
                         peers=50, mobile_fraction=0.3, horizon=horizon)
    want = _reference_expected_active(
        normalize_catalog(catalog), normalize_demand(demand),
        normalize_origin(origin), horizon,
    )
    assert got["origin_activations"].hex() == want.hex()


# ----------------------------------------------------------------------
# figx_cdn through the runner and the CLI
# ----------------------------------------------------------------------
QUICK_FIGX = [
    "--set", 'mobile_fractions=[0.0,0.5]',
    "--set", 'runs=2',
]


class TestFigxCdn:
    def test_registered_on_both_backends(self):
        import repro.experiments  # noqa: F401 — registers the scenarios
        from repro.runner import get_scenario

        scn = get_scenario("figx_cdn")
        assert scn.backends == ("packet", "fluid")

    def test_fluid_run_emits_gate(self, capsys):
        # The offload gate at the full default grid, as CI runs it on
        # the packet backend: the fluid surrogate must hold it too.
        from repro.experiments.__main__ import main

        main(["run", "figx_cdn", "--backend", "fluid", "--no-cache",
              "--quiet", "--json", "--check"])
        payload = json.loads(capsys.readouterr().out)
        verdicts = {v["name"]: v for v in payload["verdicts"]}
        assert set(verdicts) == {"offload_monotone_decreasing", "wp2p_recovers_half_gap"}
        assert all(v["ok"] for v in verdicts.values())
        gate = payload["parameters"]["gate"]
        assert verdicts["offload_monotone_decreasing"]["observed"]["default_offload"] \
            == gate["default_offload"]
        assert len(gate["default_offload"]) == 3

    def test_serial_and_parallel_runs_are_bit_identical(self, capsys):
        from repro.experiments.__main__ import main

        argv = ["run", "figx_cdn", "--backend", "fluid", "--no-cache",
                "--quiet", "--json", *QUICK_FIGX]
        main(argv)
        serial = json.loads(capsys.readouterr().out)
        main([*argv, "--jobs", "2"])
        parallel = json.loads(capsys.readouterr().out)
        # Everything but wall-clock timing must match bit-for-bit.
        serial.pop("stats")
        parallel.pop("stats")
        assert serial == parallel

    def test_packet_serial_and_parallel_runs_are_bit_identical(self, capsys):
        from repro.experiments.__main__ import main

        argv = ["run", "figx_cdn", "--no-cache", "--quiet", "--json",
                "--set", 'catalog="assets:2,size_kib:32"',
                "--set", 'demand="zipf:1.0@0.1"',
                "--set", 'mobile_fractions=[0.0,0.5]',
                "--set", 'runs=1', "--set", 'peers=3',
                "--set", 'duration=60.0']
        main(argv)
        serial = json.loads(capsys.readouterr().out)
        main([*argv, "--jobs", "2"])
        parallel = json.loads(capsys.readouterr().out)
        serial.pop("stats")
        parallel.pop("stats")
        assert serial == parallel

    def test_warm_cache_rerun_executes_zero_sims(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        # 8 distinct keys at one run each: fluid seeds of one key share
        # a single computation, so they would not count as executed.
        argv = ["run", "figx_cdn", "--backend", "fluid", "--quiet",
                "--json", "--cache-dir", str(tmp_path),
                "--set", 'mobile_fractions=[0.0,0.2,0.4,0.6]', "--set", 'runs=1']
        main(argv)
        cold = json.loads(capsys.readouterr().out)
        assert cold["stats"]["executed"] == 8
        main(argv)
        warm = json.loads(capsys.readouterr().out)
        assert warm["stats"]["executed"] == 0
        assert warm["stats"]["cache_hits"] == 8
        assert warm["series"] == cold["series"]

    def test_catalog_flag_conflicts_with_set_spelling(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit, match="--catalog conflicts"):
            main(["run", "figx_cdn", "--backend", "fluid", "--no-cache",
                  "--quiet", "--catalog", "assets:2",
                  "--set", 'catalog="assets:4"'])
        with pytest.raises(SystemExit, match="--demand conflicts"):
            main(["run", "figx_cdn", "--backend", "fluid", "--no-cache",
                  "--quiet", "--demand", "zipf:1.1",
                  "--set", 'demand="zipf:1.2"'])

    def test_malformed_flag_values_exit_cleanly(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit, match="alpha"):
            main(["run", "figx_cdn", "--backend", "fluid", "--no-cache",
                  "--quiet", "--demand", "zipf:0"])
        with pytest.raises(SystemExit, match="assets"):
            main(["run", "figx_cdn", "--backend", "fluid", "--no-cache",
                  "--quiet", "--catalog", "assets:0"])

    def test_workload_flag_changes_the_spec_hash(self, capsys):
        from repro.experiments.__main__ import main

        argv = ["run", "figx_cdn", "--backend", "fluid", "--no-cache",
                "--quiet", "--json", *QUICK_FIGX]
        main(argv)
        plain = json.loads(capsys.readouterr().out)
        main([*argv, "--catalog", "assets:2,size_kib:32"])
        loaded = json.loads(capsys.readouterr().out)
        assert plain["spec_hash"] != loaded["spec_hash"]


# ----------------------------------------------------------------------
# Shared-uplink conservation under audit
# ----------------------------------------------------------------------
class TestAuditedCdn:
    def test_small_cdn_run_is_audit_clean(self):
        from repro import audit

        with audit.audited():
            sc = CdnScenario(seed=11, mobile_fraction=0.5, **SMALL)
            sc.run()
        r = sc.results()
        assert r["requests"] > 0
