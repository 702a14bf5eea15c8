"""Socket transport failures surface as CollectiveError naming the peer."""

import select
import socket
import struct
import threading

import pytest

from lioncomm.errors import CollectiveError
from lioncomm.transport import FRAME_HEADER, SocketTransport


def free_base_port(world=2):
    """A base port whose ``world`` consecutive ports are free right now."""
    for base in range(29700, 29990, world):
        probes = []
        try:
            for rank in range(world):
                s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                probes.append(s)
                s.bind(("127.0.0.1", base + rank))
            return base
        except OSError:
            continue
        finally:
            for s in probes:
                s.close()
    raise RuntimeError("no free port block")


@pytest.fixture
def mesh():
    """Two connected socket endpoints, closed after the test."""
    base = free_base_port()
    ends = [None, None]

    def connect(rank):
        ends[rank] = SocketTransport(2, rank, base_port=base, connect_timeout=5)

    threads = [threading.Thread(target=connect, args=(r,)) for r in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert all(e is not None for e in ends)
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
