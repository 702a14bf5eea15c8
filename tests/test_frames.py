"""The lockstep frame check in ``Topology.recv`` (generation, tag and
length) and socket set-up failures."""

import os
import socket
import threading
import time

import pytest

from lioncomm.collectives import Topology
from lioncomm.errors import CollectiveError
from lioncomm.transport import InprocTransport, SocketTransport


def free_base_port(world=2, start=29800):
    """A base port whose ``world`` consecutive ports are free right now."""
    for base in range(start, start + 180, world):
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


def socket_mesh(world=2):
    """``world`` connected socket endpoints, built on threads that have all
    ended when this returns."""
    base = free_base_port(world)
    ends = [None] * world

    def connect(rank):
        ends[rank] = SocketTransport(world, rank, base_port=base,
                                     connect_timeout=5)

    threads = [threading.Thread(target=connect, args=(r,)) for r in range(world)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert all(e is not None for e in ends)
    return ends


@pytest.fixture(params=["inproc", "socket"])
def ends(request):
    """Rank 0's and rank 1's transport endpoints in a world of two."""
    if request.param == "inproc":
        shared = InprocTransport(2)
        yield [shared, shared]
        return
    mesh = socket_mesh()
    yield mesh
    for e in mesh:
        e.close()


def test_matching_frame_is_delivered(ends):
    ends[1].send(1, 0, 5, 3, b"abc")
    topo = Topology(world_size=2, rank=0, transport=ends[0], timeout=5)
    assert topo.recv(1, tag=3, generation=5, size=3) == b"abc"


@pytest.mark.parametrize("sent_gen,sent_tag,sent", [
    (4, 3, b"abc"), (6, 3, b"abc"), (5, 2, b"abc"), (5, 3, b"abcd"),
], ids=["4-3", "6-3", "5-2", "wrong-length"])
def test_out_of_step_frame_names_the_source(ends, sent_gen, sent_tag, sent):
    ends[1].send(1, 0, sent_gen, sent_tag, sent)
    topo = Topology(world_size=2, rank=0, transport=ends[0], timeout=5)
    with pytest.raises(CollectiveError, match="mismatch") as err:
        topo.recv(1, tag=3, generation=5, size=3)
    assert (err.value.rank, err.value.generation, err.value.phase) == (
        1, 5, "tag 3")


def open_fds():
    """Number of open file descriptors of this process, where listable."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0


def assert_port_free(port):
    """The port can be bound again: nothing is still listening on it."""
    s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        s.bind(("127.0.0.1", port))
        s.listen(1)
    finally:
        s.close()


def test_peer_that_never_dials_in_raises_collective_error():
    base = free_base_port()
    fds = open_fds()
    t0 = time.monotonic()
    with pytest.raises(CollectiveError) as err:
        SocketTransport(2, 0, base_port=base, connect_timeout=0.2)
    assert time.monotonic() - t0 < 2
    assert err.value.phase == "accept"
    assert open_fds() == fds
    assert_port_free(base)


def test_peer_that_sends_no_rank_header_raises_collective_error():
    base = free_base_port()
    fds = open_fds()
    failure = []

    def rank0():
        try:
            SocketTransport(2, 0, base_port=base, connect_timeout=0.5)
        except BaseException as exc:
            failure.append(exc)

    thread = threading.Thread(target=rank0)
    thread.start()
    dialer = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        deadline = time.monotonic() + 2
        while True:
            try:
                dialer.connect(("127.0.0.1", base))
                break
            except OSError:
                assert time.monotonic() < deadline
                time.sleep(0.02)
        thread.join(timeout=5)
    finally:
        dialer.close()
    assert not thread.is_alive()
    assert len(failure) == 1 and isinstance(failure[0], CollectiveError)
    assert failure[0].phase == "accept"
    assert open_fds() == fds
    assert_port_free(base)


def test_unreachable_lower_rank_closes_every_socket():
    base = free_base_port()
    fds = open_fds()
    t0 = time.monotonic()
    with pytest.raises(CollectiveError) as err:
        SocketTransport(2, 1, base_port=base, connect_timeout=0.2)
    assert time.monotonic() - t0 < 2
    assert (err.value.rank, err.value.phase) == (0, "connect")
    assert open_fds() == fds
    assert_port_free(base + 1)


def test_taken_port_raises_collective_error():
    base = free_base_port(world=1)
    squatter = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        squatter.bind(("127.0.0.1", base))
        squatter.listen(1)
        fds = open_fds()
        with pytest.raises(CollectiveError) as err:
            SocketTransport(1, 0, base_port=base, connect_timeout=0.2)
        assert err.value.phase == "bind"
        assert str(base) in str(err.value)
        assert open_fds() == fds
        # The squatter still listens on its port.
        squatter.settimeout(2)
        with socket.create_connection(("127.0.0.1", base), timeout=2):
            squatter.accept()[0].close()
    finally:
        squatter.close()
