"""Point-to-point transports the collectives are built on.

Two interchangeable backends, both receiving from one FIFO per ordered
rank pair through ``InprocTransport.recv``:

* ``InprocTransport`` -- ranks run as threads inside a single process and
  send straight into the FIFOs.  This is the default for tests.
* ``SocketTransport`` -- a TCP mesh.  Rank i listens on base_port + i
  (rank 0 on the configured port); for each pair the higher rank connects
  and identifies itself with a 4-byte rank header.  Every message is
  framed as: 8-byte generation, 4-byte source rank, 4-byte tag,
  4-byte payload length, payload (all little-endian).  One reader thread
  per peer moves each frame into its FIFO, so every peer is always
  drained and no send waits on a receive; a read failure is queued in
  place of a frame.

Both deliver frames in order per ordered pair, which is all the lockstep
collectives require.
"""

from __future__ import annotations

import contextlib
import queue
import selectors
import socket
import struct
import threading
import time

from .errors import CollectiveError, ConfigError

FRAME_HEADER = struct.Struct("<qiii")  # generation, source, tag, length

DEFAULT_TIMEOUT = 30.0


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
            (s, d): queue.Queue()
            for s in range(world_size)
            for d in range(world_size)
            if s != d
        }

    def send(self, src, dst, generation, tag, payload):
        self._queues[(src, dst)].put((generation, tag, bytes(payload)))

    def recv(self, dst, src, generation, tag, timeout):
        fifo = self._queues[(src, dst)]
        try:
            frame = fifo.get(timeout=timeout)
        except queue.Empty:
            raise CollectiveError("timed out waiting for peer", rank=src,
                                  generation=generation, phase=f"tag {tag}") from None
        if isinstance(frame, Exception):
            fifo.put(frame)  # the channel stays broken: later receives fail too
            raise CollectiveError(f"receive from peer failed: {frame}", rank=src,
                                  generation=generation,
                                  phase=f"tag {tag}") from frame
        return frame


class SocketTransport(InprocTransport):
    """Full TCP mesh; one duplex connection per unordered rank pair, and
    one reader thread per peer feeding the inherited FIFOs."""

    def __init__(self, world_size: int, rank: int, host: str = "127.0.0.1",
                 base_port: int = 29400, connect_timeout: float = DEFAULT_TIMEOUT):
        super().__init__(world_size)
        if not 0 <= rank < world_size:
            raise ConfigError(f"rank {rank} outside world {world_size}")
        self.rank = rank
        self._socks: dict[int, socket.socket] = {}
        self._lock = threading.Lock()

        # Every socket opened here is closed again if set-up fails.
        with contextlib.ExitStack() as opened:
            listener = opened.enter_context(
                socket.socket(socket.AF_INET, socket.SOCK_STREAM))
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                listener.bind((host, base_port + rank))
            except OSError as exc:
                raise CollectiveError(
                    f"could not listen on port {base_port + rank}: {exc}",
                    phase="bind") from exc
            listener.listen(world_size)
            listener.settimeout(connect_timeout)
            self._listener = listener

            # Rank order breaks symmetry: dial every lower-ranked peer,
            # accept every higher-ranked one.
            for peer in range(rank):
                s = opened.enter_context(
                    socket.socket(socket.AF_INET, socket.SOCK_STREAM))
                s.settimeout(connect_timeout)
                t0 = time.monotonic()
                while True:
                    try:
                        s.connect((host, base_port + peer))
                        break
                    except (ConnectionRefusedError, OSError):
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
                    (peer,) = struct.unpack("<i", self._recv_exact(conn, bytearray(4)))
                except (OSError, CollectiveError) as exc:
                    raise CollectiveError(
                        f"a higher-ranked peer did not connect: {exc}",
                        phase="accept") from exc
                if not rank < peer < world_size or peer in self._socks:
                    raise CollectiveError(
                        f"a connecting peer sent rank header {peer}",
                        phase="accept")
                self._socks[peer] = conn
            opened.pop_all()  # set-up succeeded: keep every socket open
        for s in self._socks.values():
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._readers = [threading.Thread(target=self._read, args=pair, daemon=True)
                         for pair in self._socks.items()]
        for reader in self._readers:
            reader.start()

    @staticmethod
    def _recv_exact(sock: socket.socket, buf: bytearray) -> bytearray:
        """Fill ``buf`` from ``sock`` and return it; EOF first is an error."""
        view = memoryview(buf)
        while view:
            got = sock.recv_into(view)
            if not got:
                raise CollectiveError("peer closed connection")
            view = view[got:]
        return buf

    def _read(self, peer: int, sock: socket.socket):
        """Reader thread: move each frame from ``peer``, read into one
        buffer, to its FIFO.  A failure (reset, EOF, source mismatch, a
        frame stalled past the socket timeout) is queued in its place."""
        fifo = self._queues[(peer, self.rank)]
        header = bytearray(FRAME_HEADER.size)
        try:
            with selectors.DefaultSelector() as idle:
                idle.register(sock, selectors.EVENT_READ)
                while True:
                    # Idle gaps are waited out in 1 s slices; a socket
                    # closed under this thread then fails the read below.
                    if not idle.select(1.0) and sock.fileno() >= 0:
                        continue
                    generation, src, tag, length = FRAME_HEADER.unpack(
                        self._recv_exact(sock, header))
                    if src != peer:
                        raise CollectiveError(f"frame source mismatch: got {src}")
                    fifo.put((generation, tag,
                              self._recv_exact(sock, bytearray(length))))
        except (OSError, ValueError, CollectiveError) as exc:
            # ValueError: the socket was closed before it could be registered.
            fifo.put(exc)

    def send(self, src, dst, generation, tag, payload):
        assert src == self.rank
        header = FRAME_HEADER.pack(generation, src, tag, len(payload))
        with self._lock:
            try:  # two writes: the payload is never copied into a frame
                self._socks[dst].sendall(header)
                self._socks[dst].sendall(payload)
            except OSError as exc:
                raise CollectiveError(f"send to peer failed: {exc}", rank=dst,
                                      generation=generation,
                                      phase=f"tag {tag}") from exc

    def close(self):
        # Shutting down wakes every reader, even one blocked mid-frame.
        for s in self._socks.values():
            with contextlib.suppress(OSError):
                s.shutdown(socket.SHUT_RDWR)
        for reader in self._readers:
            reader.join()
        for s in self._socks.values():
            s.close()
        self._listener.close()
