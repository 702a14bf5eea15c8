"""Point-to-point transports the collectives are built on.

Two interchangeable backends:

* ``InprocTransport`` -- one bounded FIFO per ordered rank pair; ranks run
  as threads inside a single process.  This is the default for tests.
* ``SocketTransport`` -- a TCP mesh.  Rank i listens on base_port + i
  (rank 0 on the configured port); for each pair the higher rank connects
  and identifies itself with a 4-byte rank header.  Every message is
  framed as: 8-byte generation, 4-byte source rank, 4-byte tag,
  4-byte payload length, payload (all little-endian).

Both deliver frames in order per ordered pair, which is all the lockstep
collectives require.
"""

from __future__ import annotations

import contextlib
import queue
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
    """Bounded FIFO channels per ordered rank pair, for threaded ranks."""

    def __init__(self, world_size: int):
        if world_size < 1:
            raise ConfigError("world_size must be >= 1")
        self.world_size = world_size
        self._queues = {
            (s, d): queue.Queue(maxsize=1024)
            for s in range(world_size)
            for d in range(world_size)
            if s != d
        }

    def send(self, src, dst, generation, tag, payload):
        self._queues[(src, dst)].put((generation, tag, bytes(payload)))

    def recv(self, dst, src, generation, tag, timeout):
        try:
            return self._queues[(src, dst)].get(timeout=timeout)
        except queue.Empty:
            raise CollectiveError("timed out waiting for peer", rank=src,
                                  generation=generation, phase=f"tag {tag}") from None


class SocketTransport(Transport):
    """Full TCP mesh; one duplex connection per unordered rank pair."""

    def __init__(self, world_size: int, rank: int, host: str = "127.0.0.1",
                 base_port: int = 29400, connect_timeout: float = DEFAULT_TIMEOUT):
        self.world_size = world_size
        self.rank = rank
        self._socks: dict[int, socket.socket] = {}
        self._lock = threading.Lock()

        # Every socket opened here is closed again if set-up fails.
        with contextlib.ExitStack() as opened:
            listener = opened.enter_context(
                socket.socket(socket.AF_INET, socket.SOCK_STREAM))
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((host, base_port + rank))
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
                    (peer,) = struct.unpack("<i", self._recv_exact(conn, 4))
                except (OSError, CollectiveError) as exc:
                    raise CollectiveError(
                        f"a higher-ranked peer did not connect: {exc}",
                        phase="accept") from exc
                self._socks[peer] = conn
            opened.pop_all()  # set-up succeeded: keep every socket open
        for s in self._socks.values():
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    @staticmethod
    def _recv_exact(sock: socket.socket, n: int) -> bytes:
        chunks = []
        got = 0
        while got < n:
            chunk = sock.recv(n - got)
            if not chunk:
                raise CollectiveError("peer closed connection", phase="recv")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def send(self, src, dst, generation, tag, payload):
        assert src == self.rank
        frame = FRAME_HEADER.pack(generation, src, tag, len(payload)) + payload
        with self._lock:
            try:
                self._socks[dst].sendall(frame)
            except OSError as exc:
                raise CollectiveError(f"send to peer failed: {exc}", rank=dst,
                                      generation=generation,
                                      phase=f"tag {tag}") from exc

    def recv(self, dst, src, generation, tag, timeout):
        assert dst == self.rank
        sock = self._socks[src]
        try:
            sock.settimeout(timeout)
            hdr = self._recv_exact(sock, FRAME_HEADER.size)
            got_gen, got_src, got_tag, length = FRAME_HEADER.unpack(hdr)
            if got_src != src:
                raise CollectiveError("frame source mismatch", rank=src)
            payload = self._recv_exact(sock, length) if length else b""
        except socket.timeout:
            raise CollectiveError("timed out waiting for peer", rank=src,
                                  generation=generation,
                                  phase=f"tag {tag}") from None
        except OSError as exc:
            raise CollectiveError(f"receive from peer failed: {exc}", rank=src,
                                  generation=generation,
                                  phase=f"tag {tag}") from exc
        return got_gen, got_tag, payload

    def close(self):
        for s in self._socks.values():
            try:
                s.close()
            except OSError:
                pass
        self._listener.close()
