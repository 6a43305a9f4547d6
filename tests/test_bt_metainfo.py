"""Unit tests for torrent metainfo and bitfields."""

from __future__ import annotations

import pytest

from repro.bittorrent import BLOCK_LENGTH, Bitfield, Torrent, make_torrent


class TestTorrent:
    def test_piece_count(self):
        t = make_torrent("f", total_size=1_000_000, piece_length=262_144)
        assert t.num_pieces == 4

    def test_final_piece_short(self):
        t = make_torrent("f", total_size=1_000_000, piece_length=262_144)
        assert t.piece_size(0) == 262_144
        assert t.piece_size(3) == 1_000_000 - 3 * 262_144

    def test_exact_multiple(self):
        t = make_torrent("f", total_size=4 * 262_144, piece_length=262_144)
        assert t.num_pieces == 4
        assert t.piece_size(3) == 262_144

    def test_blocks_in_piece(self):
        t = make_torrent("f", total_size=262_144 * 2, piece_length=262_144)
        assert t.blocks_in_piece(0) == 262_144 // BLOCK_LENGTH

    def test_final_block_short(self):
        t = make_torrent("f", total_size=262_144 + 20_000, piece_length=262_144)
        last = t.num_pieces - 1
        blocks = t.block_offsets(last)
        assert sum(length for _, length in blocks) == 20_000
        assert blocks[-1][1] == 20_000 - BLOCK_LENGTH

    def test_block_offsets_cover_piece(self):
        t = make_torrent("f", total_size=1_000_000, piece_length=65_536)
        for index in range(t.num_pieces):
            offsets = t.block_offsets(index)
            assert sum(length for _, length in offsets) == t.piece_size(index)
            expected_begin = 0
            for begin, length in offsets:
                assert begin == expected_begin
                expected_begin += length

    def test_out_of_range_piece(self):
        t = make_torrent("f", total_size=100_000, piece_length=65_536)
        with pytest.raises(IndexError):
            t.piece_size(5)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            Torrent("x", "f", total_size=0)
        with pytest.raises(ValueError):
            Torrent("x", "f", total_size=100, piece_length=0)

    def test_unique_info_hashes(self):
        hashes = {
            make_torrent("f", total_size=100).info_hash,
            make_torrent("g", total_size=100).info_hash,
            make_torrent("f", total_size=200).info_hash,
            make_torrent("f", total_size=100, piece_length=65_536).info_hash,
        }
        assert len(hashes) == 4

    def test_same_arguments_give_equal_torrents(self):
        a = make_torrent("f", total_size=100, tracker_ip="10.0.0.1")
        b = make_torrent("f", total_size=100, tracker_ip="10.0.0.1")
        assert a == b
        assert make_torrent("f", total_size=100).info_hash == a.info_hash


class TestBitfield:
    def test_set_and_has(self):
        bf = Bitfield(10)
        bf.set(3)
        assert bf.has(3)
        assert not bf.has(4)
        assert 3 in bf
        assert 99 not in bf

    def test_clear(self):
        bf = Bitfield(10, have=[1, 2])
        bf.clear(1)
        assert not bf.has(1)
        assert bf.has(2)

    def test_count_and_complete(self):
        bf = Bitfield(12)
        assert bf.count() == 0
        assert bf.empty
        for i in range(12):
            bf.set(i)
        assert bf.count() == 12
        assert bf.complete

    def test_full_constructor(self):
        bf = Bitfield.full(9)
        assert bf.complete
        assert list(bf.indices()) == list(range(9))

    def test_missing(self):
        bf = Bitfield(5, have=[0, 2, 4])
        assert list(bf.missing()) == [1, 3]

    def test_copy_is_independent(self):
        bf = Bitfield(5, have=[1])
        cp = bf.copy()
        cp.set(2)
        assert not bf.has(2)
        assert bf == Bitfield(5, have=[1])

    def test_interest_detection(self):
        mine = Bitfield(8, have=[0, 1])
        theirs = Bitfield(8, have=[0, 1, 2])
        assert theirs.has_piece_other_is_missing(mine)
        assert not mine.has_piece_other_is_missing(theirs)

    def test_interest_false_when_equal(self):
        a = Bitfield(8, have=[3, 4])
        assert not a.has_piece_other_is_missing(a.copy())

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Bitfield(8).has_piece_other_is_missing(Bitfield(9))

    def test_wire_bytes(self):
        assert Bitfield(8).wire_bytes == 1
        assert Bitfield(9).wire_bytes == 2
        assert Bitfield(400).wire_bytes == 50

    def test_out_of_range(self):
        bf = Bitfield(8)
        with pytest.raises(IndexError):
            bf.set(8)
        with pytest.raises(IndexError):
            bf.has(-1)

    def test_last_byte_padding_not_counted(self):
        bf = Bitfield(9, have=[8])
        assert bf.count() == 1
        assert list(bf.indices()) == [8]


class TestMessageSizes:
    def test_wire_lengths_match_protocol(self):
        from repro.bittorrent import (
            BitfieldMessage,
            Choke,
            Handshake,
            Have,
            Interested,
            KeepAlive,
            NotInterested,
            Piece,
            Request,
            Unchoke,
        )

        assert Handshake("ih", "pid").wire_length == 68
        assert KeepAlive().wire_length == 4
        assert Choke().wire_length == 5
        assert Unchoke().wire_length == 5
        assert Interested().wire_length == 5
        assert NotInterested().wire_length == 5
        assert Have(3).wire_length == 9
        assert Request(0, 0, 16384).wire_length == 17
        assert Piece(0, 0, 16384).wire_length == 13 + 16384
        assert BitfieldMessage(Bitfield(400)).wire_length == 5 + 50

    def test_piece_requires_positive_length(self):
        from repro.bittorrent import Piece

        with pytest.raises(ValueError):
            Piece(0, 0, 0)
