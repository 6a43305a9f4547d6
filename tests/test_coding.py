"""repro.coding: codecs, digests, coded swarms, and sampling.

Covers the contract of the erasure-coded content tier: non-default
content caches disjointly (the default digest is the ``axes/default``
row of ``scripts/pins.py``); the GroupCodec decoding law (any
``required`` in-group pieces reconstruct, fewer never do); coded swarms
that complete with partial bitfields under a clean audit; the
availability sampler's ``coding.*`` metrics; and the fluid tier's
coded-availability surrogate.
"""

from __future__ import annotations

import random

import pytest

from repro import audit, context
from repro.bittorrent.bitfield import Bitfield
from repro.bittorrent.selection import make_selector
from repro.bittorrent.swarm import SwarmScenario
from repro.coding import (
    DEFAULT_K,
    DEFAULT_N,
    GroupCodec,
    ReplicationCodec,
    coded_file_size,
    content_is_default,
    custody_column,
    make_codec,
    normalize_content,
)
from repro.runner import Runner, ScenarioSpec
from repro.runner.spec import cell_digest
from repro.scale import coded_fetchability, content_rate_factor

import pins

KIB = 1024


class FakeTorrent:
    """Duck-typed torrent for codec unit tests (no protocol layer)."""

    def __init__(self, num_pieces: int, piece_length: int = 16_384,
                 last_piece: int | None = None) -> None:
        self.num_pieces = num_pieces
        self.piece_length = piece_length
        self._last = piece_length if last_piece is None else last_piece
        self.total_size = piece_length * (num_pieces - 1) + self._last

    def piece_size(self, index: int) -> int:
        return self._last if index == self.num_pieces - 1 else self.piece_length


# ----------------------------------------------------------------------
# Content specs
# ----------------------------------------------------------------------
class TestContentSpec:
    def test_parse_forms(self):
        assert normalize_content("replication") == {"mode": "replication"}
        assert normalize_content("group") == {
            "mode": "group", "k": DEFAULT_K, "n": DEFAULT_N,
        }
        assert normalize_content("group:2/3") == {"mode": "group", "k": 2, "n": 3}
        assert normalize_content({"mode": "group", "k": 3, "n": 5}) == {
            "mode": "group", "k": 3, "n": 5,
        }
        assert normalize_content('{"mode": "group", "k": 2, "n": 4}') == {
            "mode": "group", "k": 2, "n": 4,
        }

    @pytest.mark.parametrize("bad", [
        "erasure", "group:0/6", "group:7/6", "group:4", "group:4-6",
        {"mode": "group", "k": 4, "n": 6, "parity": 2},
        {"mode": "replication", "k": 4},
        42,
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises((ValueError, TypeError)):
            normalize_content(bad)

    def test_default_detection_and_label(self):
        assert content_is_default(None)
        assert content_is_default({"mode": "replication"})
        assert not content_is_default(normalize_content("group:4/6"))

    def test_coded_file_size_expansion(self):
        assert coded_file_size(1000, 4, 6) == 1500
        assert coded_file_size(1000, 1, 1) == 1000
        # ceiling, never truncation
        assert coded_file_size(1001, 4, 6) == -(-1001 * 6 // 4)
        with pytest.raises(ValueError):
            coded_file_size(1000, 6, 4)

    def test_custody_columns_partition_piece_space(self):
        columns = [custody_column(17, j, 3) for j in range(3)]
        merged = sorted(i for column in columns for i in column)
        assert merged == list(range(17))
        with pytest.raises(ValueError):
            custody_column(17, 3, 3)

    def test_make_codec_dispatch(self):
        torrent = FakeTorrent(12)
        assert isinstance(make_codec(None, torrent), ReplicationCodec)
        assert isinstance(make_codec("replication", torrent), ReplicationCodec)
        grouped = make_codec("group:4/6", torrent)
        assert isinstance(grouped, GroupCodec)
        assert (grouped.k, grouped.n) == (4, 6)


# ----------------------------------------------------------------------
# Digests: the only-when-non-default contract
# ----------------------------------------------------------------------
class TestContentDigests:
    def test_default_content_digest_is_byte_identical_to_pre_codec_era(self):
        assert pins.main(["check", "axes/default"]) == 0

    def test_content_modes_cache_disjointly(self):
        specs = [
            ScenarioSpec.create("figx", {"runs": 2}, content=content)
            for content in (
                None,
                normalize_content("group:4/6"),
                normalize_content("group:2/3"),
            )
        ]
        assert len({s.spec_hash() for s in specs}) == 3
        assert len({
            cell_digest(s, ("k",), 1, code="c") for s in specs
        }) == 3

    def test_runner_normalizes_default_content_away(self):
        # Asking for plain replication explicitly must land at exactly
        # the default addresses — the runner drops it before the spec.
        assert Runner(content="replication").axes.get("content") is None
        assert Runner(content=None).axes.get("content") is None
        assert Runner(content="group:4/6").axes["content"] == {
            "mode": "group", "k": 4, "n": 6,
        }
        with pytest.raises(ValueError):
            Runner(content="group:9/6")


# ----------------------------------------------------------------------
# The decoding law
# ----------------------------------------------------------------------
class TestGroupCodecProperties:
    def test_any_k_subset_reconstructs_and_k_minus_one_never_does(self):
        rng = random.Random(20260809)
        for _ in range(40):
            n = rng.randrange(2, 9)
            k = rng.randrange(1, n + 1)
            num_pieces = rng.randrange(n + 1, 6 * n)
            codec = GroupCodec(FakeTorrent(num_pieces), k=k, n=n)
            for group in range(codec.num_groups):
                members = list(codec.group_indices(group))
                required = codec.required(group)
                assert required == min(k, len(members))
                for _ in range(4):
                    enough = rng.sample(members, required)
                    assert codec.reconstructs(group, enough)
                    if required > 0:
                        assert not codec.reconstructs(group, enough[:-1])
                # out-of-group pieces never help
                outsiders = [i for i in range(num_pieces) if i not in members]
                short = rng.sample(members, max(required - 1, 0))
                assert not codec.reconstructs(group, short + outsiders)

    def test_tail_group_geometry(self):
        codec = GroupCodec(FakeTorrent(16), k=4, n=6)  # groups 6 / 6 / 4
        assert codec.num_groups == 3
        assert [codec.required(g) for g in range(3)] == [4, 4, 4]
        codec = GroupCodec(FakeTorrent(14), k=4, n=6)  # tail of 2
        assert codec.required(2) == 2

    def test_complete_from_any_required_subset_only(self):
        rng = random.Random(7)
        codec = GroupCodec(FakeTorrent(16), k=4, n=6)
        held = [
            index
            for group in range(codec.num_groups)
            for index in rng.sample(
                list(codec.group_indices(group)), codec.required(group)
            )
        ]
        bitfield = Bitfield(16, held)
        assert codec.is_complete(bitfield)
        assert not bitfield.complete
        assert codec.decoded_bytes(bitfield) == codec.source_size
        # dropping any single held piece breaks exactly one group
        broken = Bitfield(16, held[1:])
        assert not codec.is_complete(broken)
        assert sum(codec.decodable_groups(broken)) == codec.num_groups - 1

    def test_source_size_is_the_decoded_payload(self):
        torrent = FakeTorrent(16, piece_length=16_384, last_piece=1_000)
        codec = GroupCodec(torrent, k=4, n=6)
        # groups decode 4 + 4 + 4 pieces worth; the short last piece sits
        # in the tail group's required prefix only if selected there.
        assert codec.source_size == sum(
            codec.group_source_bytes(g) for g in range(codec.num_groups)
        )
        assert codec.source_size < torrent.total_size


# ----------------------------------------------------------------------
# Coded swarms end-to-end
# ----------------------------------------------------------------------
def coded_swarm(seed: int = 90, content: str = "group:4/6") -> SwarmScenario:
    sc = SwarmScenario(
        seed=seed, file_size=384 * KIB, piece_length=16 * KIB,
        content=content,
    )
    sc.add_wired_peer("seed", complete=True)
    sc.add_wired_peer("leech")
    return sc


class TestCodedSwarm:
    def test_completes_with_partial_bitfield_audit_clean(self):
        with audit.audited() as auditors:
            sc = coded_swarm()
            sc.start_all()
            assert sc.run_until_complete(["leech"], timeout=600)
        manager = sc["leech"].client.manager
        assert manager.complete
        assert not manager.bitfield.complete  # decoded, not exhaustive
        assert manager.content_progress == 1.0
        # 24 pieces in 4 groups of 6: completion needs 4 per group, and
        # the piece picker never *starts* redundant pieces, so at most a
        # few in-flight extras land beyond the 16 required.
        have = len(list(manager.bitfield.indices()))
        assert 16 <= have < 24
        assert sc["leech"].client.completion_time is not None
        assert all(a.ok for a in auditors)

    def test_custody_seeded_swarm_completes(self):
        with audit.audited() as auditors:
            sc = SwarmScenario(
                seed=91, file_size=384 * KIB, piece_length=16 * KIB,
                content="group:4/6",
            )
            for j in range(3):
                sc.add_wired_peer(
                    f"cust{j}",
                    initial_pieces=sc.custody_pieces(j, 3),
                    selector=make_selector("hold"),
                )
            sc.add_wired_peer("leech")
            sc.start_all()
            assert sc.run_until_complete(["leech"], timeout=600)
        # custodians held their columns and nothing else
        for j in range(3):
            manager = sc[f"cust{j}"].client.manager
            assert list(manager.bitfield.indices()) == sc.custody_pieces(j, 3)
        assert sc["leech"].client.manager.complete
        assert all(a.ok for a in auditors)

    def test_coded_runs_are_deterministic(self):
        def completion(seed: int) -> float:
            sc = coded_swarm(seed=seed)
            sc.start_all()
            assert sc.run_until_complete(["leech"], timeout=600)
            return sc["leech"].client.completion_time

        assert completion(92) == completion(92)

    def test_default_content_keeps_trivial_fast_path(self):
        sc = SwarmScenario(seed=93, file_size=128 * KIB, piece_length=16 * KIB)
        handle = sc.add_wired_peer("p0")
        manager = handle.client.manager
        assert isinstance(manager.codec, ReplicationCodec)
        assert manager._grouped is None

    def test_ambient_install_reaches_internally_built_swarms(self):
        with context.scope(content="group:2/3"):
            sc = SwarmScenario(seed=94, file_size=128 * KIB,
                               piece_length=16 * KIB)
            handle = sc.add_wired_peer("p0")
            codec = handle.client.manager.codec
            assert isinstance(codec, GroupCodec)
            assert (codec.k, codec.n) == (2, 3)
        sc = SwarmScenario(seed=95, file_size=128 * KIB, piece_length=16 * KIB)
        assert sc.add_wired_peer("p0").client.manager.codec.trivial


# ----------------------------------------------------------------------
# Availability sampling
# ----------------------------------------------------------------------
class TestAvailabilitySampling:
    def test_sampler_attaches_and_publishes_metrics(self):
        from repro.obs.tracing import RingBufferSink

        sc = coded_swarm(seed=96)
        sink = sc.sim.trace.attach(RingBufferSink(), layers=["coding"])
        sc.start_all()
        sc.run(until=60.0)
        sampler = sc["leech"].client._availability_sampler
        assert sampler is not None and sampler.sweeps > 0
        sweeps = [e for e in sink.matching("sample_sweep") if e["client"] == "leech"]
        assert len(sweeps) == sampler.sweeps
        assert all(0.0 <= e["min"] <= e["mean"] <= 1.0 for e in sweeps)
        assert all(0.0 <= e <= 1.0 for e in sampler.group_estimates.values())

    def test_trivial_codec_attaches_no_sampler(self):
        sc = SwarmScenario(seed=97, file_size=128 * KIB, piece_length=16 * KIB)
        handle = sc.add_wired_peer("p0")
        assert handle.client._availability_sampler is None


# ----------------------------------------------------------------------
# The fluid tier's coded-availability surrogate
# ----------------------------------------------------------------------
class TestCodedSurrogate:
    def test_replication_is_the_degenerate_geometry(self):
        for a in (0.0, 0.3, 0.7, 1.0):
            assert coded_fetchability(a, 1, 1) == pytest.approx(a)
            assert content_rate_factor("replication", a) == pytest.approx(a)

    def test_redundancy_only_helps(self):
        for a in (0.1, 0.5, 0.9):
            f = coded_fetchability(a, 4, 6)
            assert f >= a
            # more spare pieces, more fetchability
            assert coded_fetchability(a, 2, 6) >= f
            # k == n has no alternates: back to replication
            assert coded_fetchability(a, 6, 6) == pytest.approx(a)

    def test_default_mode_models_nothing(self):
        assert content_rate_factor("", 0.123) == 1.0
        with pytest.raises(ValueError):
            content_rate_factor("parity", 0.5)
        with pytest.raises(ValueError):
            coded_fetchability(0.5, 6, 4)
