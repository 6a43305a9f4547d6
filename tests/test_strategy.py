"""Tests for the pluggable client-strategy layer (repro.strategy).

Covers the registry and mix machinery, the choker-policy seam
(seeding-vs-leeching rank flip, optimistic rotation gating, ledger
composition with identity retention), the built-in exploiter policies,
the ambient-mix plumbing through SwarmScenario/Runner/CLI, and the
cache keying of mixes (default-strategy cells keep the ``axes/default``
digest row of ``scripts/pins.py``).
"""

from __future__ import annotations

import random

import pytest

from repro import context
from repro.bittorrent import ClientConfig, make_selector, selector_names
from repro.bittorrent.swarm import SwarmScenario
from repro.runner.axes import AXES
from repro.runner.spec import ScenarioSpec, cell_digest
from repro.strategy import (
    ClientStrategy,
    FreeriderPolicy,
    MixAssigner,
    PropSharePolicy,
    ReferencePolicy,
    TyrantPolicy,
    UnknownStrategyError,
    contribution_rate,
    get_strategy,
    mix_is_default,
    normalize_mix,
    resolve_strategy,
    strategy_names,
)
from repro.wp2p import WP2PClient, WP2PConfig

import pins


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        assert strategy_names() == [
            "freerider", "propshare", "reference", "tyrant",
        ]

    def test_unknown_name_lists_known(self):
        with pytest.raises(UnknownStrategyError, match="propshare"):
            get_strategy("bitthief")

    def test_resolve_passthrough(self):
        assert resolve_strategy(None) is None
        tyrant = get_strategy("tyrant")
        assert resolve_strategy(tyrant) is tyrant
        assert resolve_strategy("tyrant") is tyrant

    def test_freerider_overrides_disable_uploads(self):
        freerider = get_strategy("freerider")
        assert freerider.config_overrides["unchoke_slots"] == 0
        assert freerider.config_overrides["keep_seeding"] is False

    def test_make_policy_returns_fresh_instances(self):
        tyrant = get_strategy("tyrant")
        assert tyrant.make_policy() is not tyrant.make_policy()

    def test_selector_registry(self):
        assert selector_names() == ["hold", "random", "rarest-first", "sequential"]
        assert make_selector("sequential") is not make_selector("sequential")


# ----------------------------------------------------------------------
# Mix normalisation and deterministic assignment
# ----------------------------------------------------------------------
class TestMix:
    def test_flat_form_implies_all(self):
        mix = normalize_mix({"freerider": 0.25})
        assert mix == {"all": {"freerider": 0.25}}

    def test_population_form(self):
        mix = normalize_mix({"mobile": {"tyrant": 0.5}})
        assert mix == {"mobile": {"tyrant": 0.5}}

    def test_mixed_forms_rejected(self):
        with pytest.raises(ValueError):
            normalize_mix({"freerider": 0.25, "mobile": {"tyrant": 0.5}})

    def test_unknown_strategy_rejected_eagerly(self):
        with pytest.raises(UnknownStrategyError):
            normalize_mix({"bitthief": 0.5})

    def test_overfull_population_rejected(self):
        with pytest.raises(ValueError):
            normalize_mix({"freerider": 0.7, "tyrant": 0.5})

    def test_zero_fractions_dropped(self):
        assert normalize_mix({"freerider": 0.0}) == {}

    def test_default_detection(self):
        assert mix_is_default(normalize_mix({"reference": 1.0}))
        assert mix_is_default({})
        assert not mix_is_default(normalize_mix({"freerider": 0.1}))

    def test_allocate_counts_proportions(self):
        assigner = MixAssigner({"all": {"reference": 0.75, "freerider": 0.25}})
        names = [assigner.assign("all") for _ in range(8)]
        assert (names.count("reference"), names.count("freerider")) == (6, 2)

    def test_assignment_is_deterministic_and_rng_free(self):
        assigner_a = MixAssigner({"all": {"freerider": 0.34}})
        assigner_b = MixAssigner({"all": {"freerider": 0.34}})
        seq_a = [assigner_a.assign("all") for _ in range(50)]
        seq_b = [assigner_b.assign("all") for _ in range(50)]
        assert seq_a == seq_b
        assert seq_a.count("freerider") == 17  # 0.34 * 50

    def test_population_falls_back_to_all(self):
        assigner = MixAssigner({"all": {"tyrant": 1.0}})
        assert assigner.assign("mobile") == "tyrant"
        scoped = MixAssigner({"mobile": {"tyrant": 1.0}})
        assert scoped.assign("wired") == "reference"


# ----------------------------------------------------------------------
# Policies: ranking and allocation
# ----------------------------------------------------------------------
class _Stub:
    """Attribute bag that stays hashable (unlike SimpleNamespace)."""

    def __init__(self, **attrs):
        self.__dict__.update(attrs)


def _stub_client(complete=False, ledger_rates=None):
    rates = dict(ledger_rates or {})
    return _Stub(
        manager=_Stub(complete=complete),
        ledger=_Stub(rate=lambda pid: rates.get(pid, 0.0)),
    )


def _stub_peer(peer_id, down=0.0, up=0.0, choking=True):
    return _Stub(
        peer_id=peer_id,
        download_meter=_Stub(rate=lambda: down),
        upload_meter=_Stub(rate=lambda: up),
        peer_choking=choking,
    )


class TestContributionRate:
    def test_rank_flips_from_reciprocation_to_service_on_completion(self):
        # Leeching: rank by what the peer sends us (+ ledger credit).
        # Seeding: rank by how fast we can push to the peer.
        peer = _stub_peer("p1", down=100.0, up=999.0)
        leeching = _stub_client(complete=False)
        seeding = _stub_client(complete=True)
        assert contribution_rate(leeching, peer) == 100.0
        assert contribution_rate(seeding, peer) == 999.0

    def test_ledger_credit_folds_into_leeching_rank(self):
        peer = _stub_peer("p1", down=100.0)
        client = _stub_client(ledger_rates={"p1": 40.0})
        assert contribution_rate(client, peer) == 140.0

    def test_handshakeless_peer_gets_no_ledger_credit(self):
        peer = _stub_peer(None, down=100.0)
        client = _stub_client(ledger_rates={None: 1e9})
        assert contribution_rate(client, peer) == 100.0


class TestPolicies:
    def test_reference_allocates_top_ranked(self):
        policy = ReferencePolicy()
        client = _stub_client()
        peers = [_stub_peer(f"p{i}", down=float(i)) for i in range(5)]
        chosen = policy.allocate(client, peers, 2, random.Random(0))
        assert chosen == {peers[4], peers[3]}

    def test_freerider_allocates_nothing(self):
        policy = FreeriderPolicy()
        assert not policy.uses_optimistic
        peers = [_stub_peer("p0", down=50.0)]
        assert policy.allocate(_stub_client(), peers, 3, random.Random(0)) == set()

    def test_tyrant_cost_update_direction(self):
        policy = TyrantPolicy()
        client = _stub_client()
        generous = _stub_peer("gen", down=100.0, choking=False)
        stingy = _stub_peer("sti", down=100.0, choking=True)
        # Round 1 establishes who we unchoked; round 2 adapts the cost
        # estimates from whether they reciprocated.
        policy.allocate(client, [generous, stingy], 2, random.Random(0))
        assert policy.cost == {}
        policy.allocate(client, [generous, stingy], 2, random.Random(0))
        # Reciprocators get cheaper, non-reciprocators more expensive, so
        # the tyrant's value/cost ranking shifts toward the generous peer.
        assert policy.cost["gen"] == pytest.approx(
            policy.initial_cost * policy.decrease
        )
        assert policy.cost["sti"] == pytest.approx(
            policy.initial_cost * policy.increase
        )
        assert policy.rank(client, generous) > policy.rank(client, stingy)

    def test_propshare_excludes_zero_contributors_from_ranked_slots(self):
        policy = PropSharePolicy()
        client = _stub_client()
        contributor = _stub_peer("con", down=80.0)
        freeloader = _stub_peer("fre", down=0.0)
        for trial in range(20):
            chosen = policy.allocate(
                client, [freeloader, contributor], 2, random.Random(trial)
            )
            assert freeloader not in chosen
            assert contributor in chosen

    def test_propshare_samples_proportionally(self):
        policy = PropSharePolicy()
        client = _stub_client()
        big = _stub_peer("big", down=90.0)
        small = _stub_peer("small", down=10.0)
        rng = random.Random(7)
        wins = sum(
            1 for _ in range(500)
            if big in policy.allocate(client, [small, big], 1, rng)
        )
        assert 400 <= wins <= 490  # ~90% of draws, not a top-N cutoff


# ----------------------------------------------------------------------
# Choker driver integration
# ----------------------------------------------------------------------
class TestChokerIntegration:
    def test_freerider_choker_skips_optimistic_and_never_unchokes(self):
        sc = SwarmScenario(seed=61, file_size=512 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True)
        free = sc.add_wired_peer("free", strategy="freerider")
        sc.add_wired_peer("l0")
        sc.start_all()
        sc.run(until=40.0)
        assert free.client.choker.rounds_run > 0
        assert free.client.choker.optimistic_peer is None
        assert free.client.uploaded.total == 0
        assert all(p.am_choking for p in free.client.connected_peers())

    def test_reference_optimistic_rotation_cadence(self):
        # With optimistic_every=2 and 2 s rounds the optimistic pick must
        # change identity across a 40 s window (rotation cadence), while
        # optimistic_every=1000 pins the first pick for the whole run.
        def optimistic_ids(optimistic_every):
            cfg = ClientConfig(
                unchoke_slots=1,
                optimistic_every=optimistic_every,
                choke_interval=2.0,
            )
            sc = SwarmScenario(
                seed=62, file_size=4 * 1024 * 1024, piece_length=65_536
            )
            seed = sc.add_wired_peer(
                "seed", complete=True, up_rate=40_000, config=cfg
            )
            for i in range(5):
                sc.add_wired_peer(f"l{i}")
            sc.start_all()
            seen = set()
            for _ in range(20):
                sc.run(until=sc.sim.now + 2.0)
                peer = seed.client.choker.optimistic_peer
                if peer is not None and peer.peer_id:
                    seen.add(peer.peer_id)
            return seen

        assert len(optimistic_ids(2)) >= 2
        assert len(optimistic_ids(1000)) == 1

    def test_strategy_trace_only_for_strategic_clients(self):
        from repro.obs.tracing import RingBufferSink

        sc = SwarmScenario(seed=63, file_size=512 * 1024, piece_length=65_536)
        sink = sc.sim.trace.attach(
            RingBufferSink(), layers=["strategy", "bittorrent"]
        )
        sc.add_wired_peer("seed", complete=True)
        sc.add_wired_peer("plain")
        sc.add_wired_peer("tyrant0", strategy="tyrant")
        sc.start_all()
        sc.run(until=30.0)
        assigned = [e for e in sink.by_layer("strategy") if e["event"] == "assign"]
        assert [(e["client"], e["strategy"]) for e in assigned] == [("tyrant0", "tyrant")]
        rounds = sink.matching("choke_round")
        assert {e["client"] for e in rounds} >= {"seed", "plain", "tyrant0"}
        tagged = {(e["client"], e["policy"]) for e in rounds if "policy" in e}
        assert tagged == {("tyrant0", "tyrant")}

    def test_ledger_credit_survives_identity_retained_reconnect(self):
        # wP2P identity retention keeps the peer ID across handoffs, so
        # tit-for-tat credit recorded in fixed peers' ledgers keeps
        # ranking the mobile host after it reconnects — under any policy.
        sc = SwarmScenario(seed=64, file_size=2 * 1024 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True)
        fixed = sc.add_wired_peer("fixed", strategy="propshare")
        mob = sc.add_wireless_peer(
            "mob", rate=200_000, client_factory=WP2PClient,
            config=WP2PConfig(am_enabled=False, mobility_aware_fetching=False),
        )
        sc.add_mobility(mob, interval=12.0, downtime=1.0)
        sc.start_all()
        sc.run(until=11.0)
        mob_id = mob.client.peer_id
        credit_before = fixed.client.ledger.rate(mob_id)
        sc.run(until=40.0)
        assert mob.client.reconnections >= 1
        assert mob.client.peer_id == mob_id
        # The ledger still carries (and keeps accruing) credit under the
        # retained ID; a fresh-ID default client would rank from zero.
        assert fixed.client.ledger.raw_credit(mob_id) >= 0
        peer = next(
            (
                p for p in fixed.client.connected_peers()
                if p.peer_id == mob_id
            ),
            None,
        )
        if peer is not None and credit_before > 0:
            assert contribution_rate(fixed.client, peer) >= 0


# ----------------------------------------------------------------------
# Swarm construction: explicit, mix, ambient
# ----------------------------------------------------------------------
class TestSwarmAssignment:
    def test_explicit_strategy_beats_mix(self):
        with context.scope(strategies=AXES["strategies"].normalize({"freerider": 1.0})):
            sc = SwarmScenario(seed=65, file_size=256 * 1024)
        sc.add_wired_peer("seed", complete=True)
        pinned = sc.add_wired_peer("pinned", strategy="tyrant")
        drawn = sc.add_wired_peer("drawn")
        assert pinned.client.strategy_name == "tyrant"
        assert drawn.client.strategy_name == "freerider"

    def test_seeds_never_draw_from_mix(self):
        with context.scope(strategies=AXES["strategies"].normalize({"freerider": 1.0})):
            sc = SwarmScenario(seed=66, file_size=256 * 1024)
        seed = sc.add_wired_peer("seed", complete=True)
        assert seed.client.strategy_name == "reference"
        assert seed.client.strategy is None

    def test_population_scoped_mix(self):
        mix = AXES["strategies"].normalize({"mobile": {"freerider": 1.0}})
        with context.scope(strategies=mix):
            sc = SwarmScenario(seed=67, file_size=256 * 1024)
        wired = sc.add_wired_peer("w0")
        wireless = sc.add_wireless_peer("m0")
        assert wired.client.strategy_name == "reference"
        assert wireless.client.strategy_name == "freerider"

    def test_ambient_mix_round_trip(self):
        assert context.get("strategies") is None
        mix = AXES["strategies"].normalize({"freerider": 1.0})
        assert mix == {"all": {"freerider": 1.0}}
        with context.scope(strategies=mix):
            sc = SwarmScenario(seed=68, file_size=256 * 1024)
            leech = sc.add_wired_peer("l0")
            assert leech.client.strategy_name == "freerider"
        assert context.get("strategies") is None
        sc = SwarmScenario(seed=68, file_size=256 * 1024)
        assert sc.add_wired_peer("l1").client.strategy_name == "reference"

    def test_default_mix_installs_nothing(self):
        assert AXES["strategies"].normalize({"reference": 1.0}) is None

    def test_config_overrides_copy_not_mutate(self):
        shared = ClientConfig(unchoke_slots=4)
        sc = SwarmScenario(seed=69, file_size=256 * 1024)
        free = sc.add_wired_peer("free", config=shared, strategy="freerider")
        assert free.client.config.unchoke_slots == 0
        assert shared.unchoke_slots == 4

    def test_strategy_selector_resolved_from_registry(self):
        streamer = ClientStrategy(
            name="streamer",
            policy_factory=ReferencePolicy,
            selector="sequential",
        )
        sc = SwarmScenario(seed=70, file_size=256 * 1024)
        peer = sc.add_wired_peer("s0", strategy=streamer)
        from repro.bittorrent import SequentialSelector

        assert isinstance(peer.client.selector, SequentialSelector)


# ----------------------------------------------------------------------
# Cache keying: mixes disjoint from the default
# ----------------------------------------------------------------------
class TestStrategyKeying:
    def test_default_digest_is_byte_identical_to_pre_strategy_era(self):
        assert pins.main(["check", "axes/default"]) == 0

    def test_mix_digests_are_disjoint_from_default(self):
        default = ScenarioSpec.create("figx", {"runs": 2})
        mixed = ScenarioSpec.create(
            "figx", {"runs": 2},
            strategies={"all": {"freerider": 0.25, "reference": 0.75}},
        )
        assert default.spec_hash() != mixed.spec_hash()
        assert (cell_digest(default, ("k",), 1, code="c")
                != cell_digest(mixed, ("k",), 1, code="c"))

    def test_distinct_mixes_get_distinct_digests(self):
        a = ScenarioSpec.create(
            "figx", {}, strategies={"all": {"freerider": 0.25}}
        )
        b = ScenarioSpec.create(
            "figx", {}, strategies={"all": {"tyrant": 0.25}}
        )
        assert (cell_digest(a, (), 1, code="c")
                != cell_digest(b, (), 1, code="c"))


# ----------------------------------------------------------------------
# Runner / CLI plumbing
# ----------------------------------------------------------------------
class TestRunnerPlumbing:
    def test_runner_rejects_strategy_and_mix_together(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit, match="not both"):
            main(["run", "fig2a", "--strategy", "tyrant", "--strategy-mix", "tyrant=0.5"])

    def test_runner_normalizes_reference_to_default(self):
        from repro.runner import Runner

        assert Runner(strategies="reference").axes.get("strategies") is None
        assert Runner(strategies={"reference": 1.0}).axes.get("strategies") is None

    def test_runner_single_strategy_becomes_all_mix(self):
        from repro.runner import Runner

        runner = Runner(strategies="freerider")
        assert runner.axes["strategies"] == {"all": {"freerider": 1.0}}

    def test_runner_rejects_unknown_strategy(self):
        from repro.runner import Runner

        with pytest.raises((ValueError, KeyError)):
            Runner(strategies="bitthief")

    def test_cli_mix_parser_forms(self):
        from repro.experiments.__main__ import _parse_strategy_mix

        assert _parse_strategy_mix(None) is None
        assert _parse_strategy_mix('{"freerider": 0.25}') == {"freerider": 0.25}
        assert _parse_strategy_mix("freerider=0.25,tyrant=0.25") == {
            "freerider": 0.25, "tyrant": 0.25,
        }
        assert _parse_strategy_mix("mobile:freerider=0.5") == {
            "mobile": {"freerider": 0.5},
        }
        with pytest.raises(SystemExit):
            _parse_strategy_mix("freerider")


# ----------------------------------------------------------------------
# End-to-end: exploiters in a small arena swarm
# ----------------------------------------------------------------------
class TestArenaBehaviour:
    def test_freerider_completes_slower_in_reciprocation_swarm(self):
        # Mini version of figx_arena's all-wired bracket: every leecher
        # starts with half the pieces, the seed only drips, leechers
        # leave when done.  The free-rider must finish strictly last —
        # the tit-for-tat penalty the strategy layer exists to measure.
        from repro.experiments.figx_arena import ARENA_MIXES, arena_run
        from repro.runner import get_scenario

        p = dict(get_scenario("figx_arena").defaults)
        # Half the default file keeps this under ~5 s; seed 1701 is a
        # representative draw (the headline figx_arena number averages
        # seeds, individual draws can invert on warmup luck).
        p.update(file_size_kib=16_384)
        out = arena_run(1701, dict(ARENA_MIXES["freeriders"]),
                        0.0, wp2p=False, p=p)
        by_strategy = {}
        for peer in out["peers"]:
            by_strategy.setdefault(peer["strategy"], []).append(
                peer["completion"]
            )
        assert set(by_strategy) == {"reference", "freerider"}
        freerider_mean = sum(by_strategy["freerider"]) / len(
            by_strategy["freerider"]
        )
        reference_mean = sum(by_strategy["reference"]) / len(
            by_strategy["reference"]
        )
        assert freerider_mean > reference_mean

    def test_mixed_swarm_diverges_from_default_but_stays_deterministic(self):
        def run(mix):
            with context.scope(strategies=AXES["strategies"].normalize(mix)):
                sc = SwarmScenario(seed=71, file_size=512 * 1024, piece_length=65_536)
            sc.add_wired_peer("seed", complete=True)
            for i in range(3):
                sc.add_wired_peer(f"l{i}")
            sc.start_all()
            sc.run(until=60.0)
            return (
                sc.sim.events_processed,
                [sc.peers[f"l{i}"].client.downloaded.total for i in range(3)],
            )

        default_a = run(None)
        default_b = run(None)
        mixed = run({"freerider": 0.34})
        assert default_a == default_b
        assert mixed != default_a
