"""Point-to-point transports the collectives are built on.  Both deliver
frames in order per ordered rank pair, which is all the lockstep
collectives require.

* ``InprocTransport`` -- ranks run as threads of one process and send into
  one FIFO per ordered rank pair, a ``queue.SimpleQueue``, whose put and
  get run in C: at small N a vote is mostly messages, and ``queue.Queue``
  spends several Python-level lock and condition calls on each.  This is
  the default for tests.
* ``SocketTransport`` -- a TCP mesh.  Rank i listens on base_port + i; for
  each pair the higher rank connects and sends its rank as a 4-byte header.
  A frame is an 8-byte generation, 4-byte source rank, 4-byte tag and
  4-byte payload length, then the payload (all little-endian).  The rank's
  own thread does all socket I/O, only inside ``send`` or ``recv``: while
  either waits it reads every readable peer into its inbox, so no send
  waits on a receive.  Between calls, frames wait in kernel buffers.
"""

from __future__ import annotations

import contextlib
import queue
import selectors
import socket
import struct
import time

from .errors import CollectiveError, ConfigError

FRAME_HEADER = struct.Struct("<qiii")  # generation, source, tag, length

DEFAULT_TIMEOUT = 30.0


def _broken(what: str, peer: int, generation: int, tag: int) -> CollectiveError:
    return CollectiveError(what, rank=peer, generation=generation, phase=f"tag {tag}")


class Transport:
    """Interface: ordered, reliable frames between rank pairs."""

    world_size: int

    def send(self, src: int, dst: int, generation: int, tag: int, payload: bytes):
        raise NotImplementedError

    def recv(self, dst: int, src: int, generation: int, tag: int,
             timeout: float) -> tuple[int, int, bytes]:
        """(generation, tag, payload) of the next frame from ``src``; the
        expected ``generation`` and ``tag`` only label errors here."""
        raise NotImplementedError

    def close(self):
        pass


class InprocTransport(Transport):
    """One FIFO per ordered rank pair, for threaded ranks."""

    def __init__(self, world_size: int):
        if world_size < 1:
            raise ConfigError("world_size must be >= 1")
        self.world_size = world_size
        self._queues = {
            (s, d): queue.SimpleQueue()
            for s in range(world_size)
            for d in range(world_size)
            if s != d
        }

    def send(self, src, dst, generation, tag, payload):
        # A view of immutable bytes (a peer's slice of an encoded block) is
        # queued as it is; anything else is copied, as the sender may reuse
        # its buffer.
        if not (isinstance(payload, memoryview)
                and isinstance(payload.obj, bytes)):
            payload = bytes(payload)
        self._queues[(src, dst)].put((generation, tag, payload))

    def recv(self, dst, src, generation, tag, timeout):
        try:
            return self._queues[(src, dst)].get(timeout=timeout)
        except queue.Empty:
            raise _broken("timed out waiting for peer", src, generation, tag) from None


class SocketTransport(Transport):
    """Full TCP mesh; one duplex connection per unordered rank pair.  All
    of an endpoint's socket I/O runs on the thread that calls ``send`` or
    ``recv``; two threads must not use one endpoint at the same time."""

    def __init__(self, world_size: int, rank: int, host: str = "127.0.0.1",
                 base_port: int = 29400, connect_timeout: float = DEFAULT_TIMEOUT):
        if not 0 <= rank < world_size:
            raise ConfigError(f"rank {rank} outside world {world_size}")
        self.world_size, self.rank = world_size, rank
        self._timeout = connect_timeout
        self._socks: dict[int, socket.socket] = {}

        # Every socket opened here is closed again if set-up fails.
        with contextlib.ExitStack() as opened:
            try:
                listener = opened.enter_context(socket.create_server(
                    (host, base_port + rank), backlog=world_size))
            except OSError as exc:
                raise CollectiveError(
                    f"could not listen on port {base_port + rank}: {exc}",
                    phase="bind") from exc
            listener.settimeout(connect_timeout)
            self._listener = listener

            # Rank order breaks symmetry: dial every lower-ranked peer,
            # accept every higher-ranked one.
            for peer in range(rank):
                t0 = time.monotonic()
                while True:
                    try:
                        s = opened.enter_context(socket.create_connection(
                            (host, base_port + peer), connect_timeout))
                        break
                    except OSError:
                        if time.monotonic() - t0 > connect_timeout:
                            raise CollectiveError("could not reach peer",
                                                  rank=peer, phase="connect")
                        time.sleep(0.02)
                s.sendall(struct.pack("<i", rank))
                self._socks[peer] = s
            for _ in range(world_size - 1 - rank):
                try:
                    conn = opened.enter_context(listener.accept()[0])
                    conn.settimeout(connect_timeout)
                    (peer,) = struct.unpack("<i", conn.recv(4, socket.MSG_WAITALL))
                except (OSError, struct.error) as exc:
                    raise CollectiveError(
                        f"a higher-ranked peer did not connect: {exc}",
                        phase="accept") from exc
                if not rank < peer < world_size or peer in self._socks:
                    raise CollectiveError(
                        f"a connecting peer sent rank header {peer}",
                        phase="accept")
                self._socks[peer] = conn
            opened.pop_all()  # set-up succeeded: keep every socket open
        self._inbox = {peer: [] for peer in self._socks}  # whole frames, in order
        self._part = {}  # peer -> frame in progress: (buffer, filled, header)
        self._failed: dict[int, str] = {}  # peer -> why its connection broke
        self._selector = selectors.DefaultSelector()
        for peer, s in self._socks.items():
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            s.setblocking(False)
            self._selector.register(s, selectors.EVENT_READ, peer)

    def _wait(self, timeout: float, writer: int | None = None):
        """Wait up to ``timeout`` s, reading what each readable peer sent
        (EOF or a reset fails that peer), or until ``writer`` can send."""
        if writer is not None:
            self._selector.modify(self._socks[writer],
                                  selectors.EVENT_READ | selectors.EVENT_WRITE, writer)
        ready = self._selector.select(timeout)
        if writer is not None:
            self._selector.modify(self._socks[writer], selectors.EVENT_READ, writer)
        for key, _ in ready:
            try:
                self._pull(key.data, key.fileobj)
            except OSError as exc:
                self._failed[key.data] = str(exc)
                self._selector.unregister(key.fileobj)

    def _pull(self, peer: int, sock: socket.socket):
        """Read ``peer``'s bytes straight into its frame in progress (header, then
        payload); whole frames join its inbox.  A broken link raises ``OSError``."""
        buf, filled, header = (self._part.get(peer)
                               or (bytearray(FRAME_HEADER.size), 0, None))
        try:
            got = sock.recv_into(memoryview(buf)[filled:])
        except BlockingIOError:
            return  # woken for writing only
        if not got:
            raise ConnectionError("peer closed connection")
        filled += got
        if header is None and filled == len(buf):
            header = FRAME_HEADER.unpack(buf)  # generation, source, tag, length
            if header[1] != peer or header[3] < 0:
                raise ConnectionError(
                    f"frame source mismatch: got {header[1]}, length {header[3]}")
            buf, filled = bytearray(header[3]), 0
        if header is not None and filled == len(buf):
            self._inbox[peer].append((header, buf))
            buf, filled, header = bytearray(FRAME_HEADER.size), 0, None
        self._part[peer] = buf, filled, header

    def send(self, src, dst, generation, tag, payload):
        assert src == self.rank
        header = FRAME_HEADER.pack(generation, src, tag, len(payload))
        try:  # two writes: the payload is never copied into a frame
            for view in (memoryview(header), memoryview(payload).cast("B")):
                stalled = time.monotonic() + self._timeout
                while view:
                    if dst in self._failed:
                        raise ConnectionError(self._failed[dst])
                    try:
                        view = view[self._socks[dst].send(view):]
                        stalled = time.monotonic() + self._timeout
                    except BlockingIOError:
                        self._wait(stalled - time.monotonic(), writer=dst)
                        if time.monotonic() >= stalled:
                            raise TimeoutError(f"stalled for {self._timeout} s")
        except OSError as exc:
            raise _broken(f"send to peer failed: {exc}", dst, generation, tag) from exc

    def recv(self, dst, src, generation, tag, timeout):
        inbox, deadline = self._inbox[src], time.monotonic() + timeout
        while not inbox:
            if src in self._failed:
                raise _broken(f"receive from peer failed: {self._failed[src]}",
                              src, generation, tag)
            if time.monotonic() >= deadline:
                raise _broken("timed out waiting for peer", src, generation, tag)
            self._wait(deadline - time.monotonic())
        (got_gen, _, got_tag, _), payload = inbox.pop(0)
        return got_gen, got_tag, payload

    def close(self):
        for s in (self._selector, self._listener, *self._socks.values()):
            s.close()
