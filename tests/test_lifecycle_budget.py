"""A lifecycle budget for connection churn — a count, so it repeats exactly.

A closed connection must die by reference count: whatever only the cycle
collector can free is paid for in collector passes over everything still
alive, and no profile shows it (docs/PERFORMANCE.md § Object lifecycle).
The parent of the PR that introduced this test left 33,295 unreachable
objects behind one 60 s CDN churn cell — every closed ``TCPConnection``
with its timers, streams and ``PeerConnection`` — because endpoints held
bound methods of themselves and of each other with no release point.

The cell-level count goes through ``scripts/lifecycle_census.py``, the
same ``census()`` the CI ``perf-smoke`` job runs with ``--check``; the
unit tests below name the three teardown paths one by one.  All of them
run with the collector off, so "dead" means "freed by reference count".
"""

from __future__ import annotations

import gc
import pathlib
import re
import weakref

import pytest

import lifecycle_census
import pins

from repro.bittorrent.swarm import SwarmScenario

from tests.helpers import Message, TwoHostNet

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_churn_cell_leaves_nothing_for_the_cycle_collector():
    row = lifecycle_census.census(lifecycle_census.cells()["cdn_churn_default"])
    assert row["events"] == pins.load("packet")["cdn_churn_default"]["events"]
    assert row["tcp_connections"] == 1_723
    assert row["unreachable"] <= lifecycle_census.BUDGET, (
        f"{row['unreachable']} unreachable objects after the cell, "
        f"by type: {row['unreachable_types']}"
    )


def test_library_code_leaves_the_collector_alone():
    """No ``gc.`` call, ``__del__`` or weakref under ``src/repro``: a
    library must not change a process-wide setting, and with the cycles
    gone there is nothing left for any of them to do."""
    pattern = re.compile(r"\bgc\.|\bimport gc\b|__del__|\bweakref\b")
    offenders = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []


def _open_pair(net):
    accepted = []

    def accept(conn):
        # The shape applications use: a closure over the connection.
        conn.on_message = lambda message: accepted.append((conn, message.tag))

    net.stack_b.listen(6881, accept)
    client = net.stack_a.connect(net.b.ip, 6881)
    client.on_close = lambda reason: accepted.append((client, reason))
    client.send_message(Message(500, "hello"))
    net.sim.run(until=2.0)
    assert client.established and accepted[0][1] == "hello"
    return client, accepted.pop()[0], accepted


@pytest.mark.parametrize("graceful", [True, False])
def test_both_ends_of_a_closed_pair_die_with_the_last_reference(collector_off, graceful):
    net = TwoHostNet()
    client, server, log = _open_pair(net)
    if graceful:
        client.close()
        net.sim.run(until=4.0)
        server.close()
    else:
        client.abort()
    net.sim.run(until=8.0)
    assert client.closed and server.closed
    refs = [weakref.ref(client), weakref.ref(server)]
    log.clear()
    del client, server
    assert [ref() for ref in refs] == [None, None]


def test_syn_timeout_connection_dies_with_the_last_reference(collector_off):
    net = TwoHostNet()
    reasons = []
    conn = net.stack_a.connect("10.250.0.9", 6881)  # nobody routes this
    conn.on_close = reasons.append
    net.sim.run(until=120.0)
    assert conn.closed and reasons == ["timeout"]
    ref = weakref.ref(conn)
    del conn
    assert ref() is None


def test_peer_connection_closed_by_restart_task_dies_with_the_last_reference(
    collector_off,
):
    sc = SwarmScenario(seed=2, file_size=512 * 1024, piece_length=16_384)
    sc.add_wired_peer("seed", complete=True, up_rate=20_000)
    leech = sc.add_wired_peer("leech")
    sc.start_all()
    sc.run(until=5.0)
    peer = leech.client.connected_peers()[0]
    assert peer.blocks_downloaded > 0  # meters and bitfield were built
    refs = [weakref.ref(peer), weakref.ref(peer.tcp)]
    leech.client.restart_task()
    assert peer.closed and peer.close_reason == "task_restart"
    del peer
    assert [ref() for ref in refs] == [None, None]
