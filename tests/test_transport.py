"""Socket transport failures surface as CollectiveError naming the peer."""

import select
import socket
import struct
import sys
import threading
import time

import numpy as np
import pytest

from lioncomm.collectives import (Topology, allgather_f64, direct_allreduce,
                                  ps_gather_broadcast, run_ranks)
from lioncomm.errors import CollectiveError, ConfigError
from lioncomm.transport import FRAME_HEADER, SocketTransport
from test_frames import free_base_port, open_fds, socket_mesh


@pytest.fixture
def mesh():
    """Two connected socket endpoints, closed after the test."""
    ends = socket_mesh()
    yield ends
    for e in ends:
        e.close()


def test_stalled_payload_raises_collective_error(mesh):
    rank0, rank1 = mesh
    # A frame header that promises 100 payload bytes, followed by only 10.
    rank1._socks[0].sendall(FRAME_HEADER.pack(5, 1, 3, 100) + b"x" * 10)
    with pytest.raises(CollectiveError) as err:
        rank0.recv(0, 1, generation=5, tag=3, timeout=0.3)
    assert (err.value.rank, err.value.generation, err.value.phase) == (1, 5, "tag 3")


def test_frame_from_wrong_source_raises_collective_error(mesh):
    rank0, rank1 = mesh
    # Rank 1's connection carries a frame that claims to come from rank 3.
    rank1._socks[0].sendall(FRAME_HEADER.pack(5, 3, 3, 1) + b"x")
    with pytest.raises(CollectiveError, match="source mismatch") as err:
        rank0.recv(0, 1, generation=5, tag=3, timeout=5)
    assert (err.value.rank, err.value.generation, err.value.phase) == (1, 5, "tag 3")


def test_send_to_reset_peer_raises_collective_error(mesh):
    rank0, rank1 = mesh
    peer = rank1._socks[0]
    # Linger 0 makes close() reset the connection instead of closing it.
    peer.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    peer.close()
    readable, _, _ = select.select([rank0._socks[1]], [], [], 5)
    assert readable  # the reset has arrived
    with pytest.raises(CollectiveError) as err:
        rank0.send(0, 1, generation=7, tag=4, payload=b"x")
    assert (err.value.rank, err.value.generation, err.value.phase) == (1, 7, "tag 4")


def test_recv_from_reset_peer_raises_collective_error(mesh):
    rank0, rank1 = mesh
    peer = rank1._socks[0]
    peer.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    peer.close()
    with pytest.raises(CollectiveError) as err:
        rank0.recv(0, 1, generation=2, tag=6, timeout=5)
    assert err.value.rank == 1


def test_peer_closing_mid_collective_fails_at_once(mesh):
    rank0, rank1 = mesh
    topo = Topology(world_size=2, rank=0, transport=rank0, timeout=5)
    # Rank 0 waits in the gather; rank 1 closes cleanly (EOF, not a reset).
    closer = threading.Timer(0.2, rank1.close)
    closer.start()
    t0 = time.monotonic()
    with pytest.raises(CollectiveError, match="closed") as err:
        ps_gather_broadcast(np.ones(4, dtype=np.int8), topo, q_max=1)
    assert time.monotonic() - t0 < 2
    assert (err.value.rank, err.value.generation, err.value.phase) == (1, 1, "tag 1")
    closer.join(timeout=5)
    assert not closer.is_alive()
    t0 = time.monotonic()
    with pytest.raises(CollectiveError, match="closed") as again:
        rank0.recv(0, 1, generation=2, tag=1, timeout=5)
    assert time.monotonic() - t0 < 0.5
    assert again.value.rank == 1


def test_send_after_peer_eof_raises_collective_error(mesh):
    rank0, rank1 = mesh
    rank1.close()
    with pytest.raises(CollectiveError, match="closed"):
        rank0.recv(0, 1, generation=3, tag=2, timeout=5)
    with pytest.raises(CollectiveError) as err:
        rank0.send(0, 1, generation=4, tag=5, payload=b"x")
    assert (err.value.rank, err.value.generation, err.value.phase) == (1, 4, "tag 5")


def test_send_to_peer_that_never_reads_times_out():
    """A raw peer sends its rank header and then reads nothing: a 64 MB
    send fails once no byte has gone out for ``connect_timeout``."""
    base, timeout = free_base_port(), 1.0
    ends = []
    builder = threading.Thread(target=lambda: ends.append(
        SocketTransport(2, 0, base_port=base, connect_timeout=timeout)))
    builder.start()
    deadline = time.monotonic() + 5
    while True:
        try:
            peer = socket.create_connection(("127.0.0.1", base), timeout=5)
            break
        except ConnectionRefusedError:
            assert time.monotonic() < deadline
            time.sleep(0.02)
    try:
        peer.sendall(struct.pack("<i", 1))
        builder.join(timeout=5)
        assert not builder.is_alive()
        (rank0,) = ends
        t0 = time.monotonic()
        with pytest.raises(CollectiveError) as err:
            rank0.send(0, 1, generation=9, tag=4, payload=bytes(64 << 20))
        assert time.monotonic() - t0 < timeout + 1
        assert (err.value.rank, err.value.generation, err.value.phase) == (
            1, 9, "tag 4")
    finally:
        peer.close()
        for end in ends:
            end.close()


def test_mesh_starts_no_thread_and_closes_every_fd():
    threads, fds = set(threading.enumerate()), open_fds()
    ends = socket_mesh(3)
    assert set(threading.enumerate()) == threads
    for e in ends:
        e.close()
    assert open_fds() == fds


def run_socket_ranks(fn, world=2, timeout=5):
    """``fn(topo)`` on ``world`` socket ranks with a short timeout."""
    base = free_base_port(world)
    return run_ranks(world, fn, timeout=timeout,
                     transport_factory=lambda r: SocketTransport(
                         world, r, base_port=base, connect_timeout=timeout))


def test_ring_frames_larger_than_socket_buffers_do_not_stall():
    # A 16-bit lane of 8M elements: each ring frame is 8 MB, and both
    # ranks send it before they receive.
    rng = np.random.default_rng(8)
    vecs = [rng.integers(-127, 128, size=8_000_000, dtype=np.int8)
            for _ in range(2)]
    t0 = time.monotonic()
    results = run_socket_ranks(
        lambda topo: direct_allreduce(vecs[topo.rank], topo, q_max=127).values)
    assert time.monotonic() - t0 < 10
    expect = vecs[0].astype(np.int64) + vecs[1]
    assert all(np.array_equal(r, expect) for r in results)


def test_allgather_larger_than_socket_buffers_does_not_stall():
    vecs = [np.arange(1_000_000, dtype=np.float64) * (r + 1) for r in range(2)]
    t0 = time.monotonic()
    results = run_socket_ranks(lambda topo: allgather_f64(vecs[topo.rank], topo))
    assert time.monotonic() - t0 < 10
    for got in results:
        assert all(np.array_equal(g, v) for g, v in zip(got, vecs))


@pytest.mark.parametrize("world", [3, 4])
def test_frames_larger_than_socket_buffers_do_not_stall_any_world(world):
    # With P >= 3, an endpoint that blocked on one whole frame could wait
    # in a cycle: every rank sends to every other before it receives.
    rng = np.random.default_rng(world)
    ints = [rng.integers(-127, 128, size=8_000_000, dtype=np.int8)
            for _ in range(world)]
    floats = [np.arange(1_000_000, dtype=np.float64) * (r + 1)
              for r in range(world)]

    def fn(topo):
        return (allgather_f64(floats[topo.rank], topo),
                direct_allreduce(ints[topo.rank], topo, q_max=127).values)

    t0 = time.monotonic()
    results = run_socket_ranks(fn, world=world)
    assert time.monotonic() - t0 < 10
    expect = sum(v.astype(np.int64) for v in ints)
    for gathered, total in results:
        assert all(np.array_equal(g, v) for g, v in zip(gathered, floats))
        assert np.array_equal(total, expect)


def test_many_readers_under_fast_thread_switching():
    # Four socket ranks, one thread each, run mixed collectives with a
    # very short interpreter switch interval: every frame must arrive
    # whole and in order.
    world = 4
    vecs = [np.arange(5_000, dtype=np.float64) * (r + 1) for r in range(world)]

    def fn(topo):
        for _ in range(20):
            gathered = allgather_f64(vecs[topo.rank], topo)
            assert all(np.array_equal(g, v) for g, v in zip(gathered, vecs))
            total = ps_gather_broadcast(vecs[topo.rank], topo, efficient=True)
            assert np.array_equal(total.values, sum(vecs))
        return True

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        t0 = time.monotonic()
        assert run_socket_ranks(fn, world=world) == [True] * world
        assert time.monotonic() - t0 < 10
    finally:
        sys.setswitchinterval(old)


@pytest.mark.parametrize("rank", [2, -1])
def test_rank_outside_world_is_a_config_error(rank):
    t0 = time.monotonic()
    with pytest.raises(ConfigError):
        SocketTransport(2, rank, base_port=free_base_port(), connect_timeout=0.5)
    assert time.monotonic() - t0 < 0.5  # rejected before any bind or dial


@pytest.mark.parametrize("world, headers", [(2, [5]), (2, [0]), (3, [1, 1])],
                         ids=["outside_world", "not_above_acceptor", "repeated"])
def test_bad_rank_header_is_rejected_and_closed(world, headers):
    """Rank 0 fails set-up when raw connections send ``headers`` as their
    4-byte rank headers, and closes every one of them."""
    base = free_base_port(world)
    caught = []

    def listen():
        try:
            SocketTransport(world, 0, base_port=base, connect_timeout=5).close()
        except CollectiveError as exc:
            caught.append(exc)

    listener = threading.Thread(target=listen)
    listener.start()
    clients = []
    try:
        for header in headers:
            t0 = time.monotonic()
            while True:
                try:
                    client = socket.create_connection(("127.0.0.1", base), timeout=5)
                    break
                except ConnectionRefusedError:
                    assert time.monotonic() - t0 < 5
                    time.sleep(0.02)
            clients.append(client)
            client.sendall(struct.pack("<i", header))
        listener.join(timeout=10)
        assert not listener.is_alive()
        assert [e.phase for e in caught] == ["accept"]
        assert all(c.recv(1) == b"" for c in clients)
    finally:
        for c in clients:
            c.close()
