"""Communication contract and the two bundled transports.

A :class:`Collectives` endpoint exposes exactly two group operations:

* ``all_gather``: every rank contributes a payload and receives the list
  of all payloads, ordered by rank, identical on every rank.
* ``all_reduce_sum``: every rank contributes an array and receives the
  elementwise sum, accumulated in ``complex128`` in fixed rank order so
  the result is deterministic and replicated.

``ThreadHub`` backs the in-process transport: one hub object shared by
``world_size`` worker threads, message passing by value.  It is the
transport used by the test suite.  ``SocketCollectives`` implements the
same contract across processes over TCP with length-prefixed frames
(rank and round tags as u32, payload length as u64, little-endian), for
real multi-process runs; rank 0 acts as the hub.

Both transports record a trace of collective rounds (kind, per-rank
payload summary) for communication-contract assertions.
"""

from __future__ import annotations

import copy
import math
import os
import socket
import struct
import time
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ProtocolError

__all__ = [
    "TraceEvent",
    "Collectives",
    "ThreadHub",
    "ThreadCollectives",
    "SocketCollectives",
    "ENV_WORLD_SIZE",
    "ENV_RANK",
    "ENV_RENDEZVOUS",
]

ENV_WORLD_SIZE = "BTASEL_WORLD_SIZE"
ENV_RANK = "BTASEL_RANK"
ENV_RENDEZVOUS = "BTASEL_RENDEZVOUS"


@dataclass
class TraceEvent:
    """One collective round as observed at the transport level."""

    kind: str  # "all_gather" | "all_reduce"
    round_id: int
    payloads: list  # per-rank summary dicts


def _summarize(obj) -> dict:
    if hasattr(obj, "summary"):
        return obj.summary()
    if isinstance(obj, np.ndarray):
        return {"nbytes": obj.nbytes, "elements": obj.size}
    return {"nbytes": None}


def _rank_ordered_sum(parts: list) -> np.ndarray:
    """The all_reduce result: the ranks' ``complex128`` parts summed in
    rank order, so every rank gets the same bits on either transport.
    Parts of different shapes raise :class:`ProtocolError`."""
    total = parts[0].copy()
    for part in parts[1:]:
        if part.shape != total.shape:
            raise ProtocolError(f"all_reduce shape mismatch: {part.shape} vs {total.shape}")
        total += part
    return total


class Collectives:
    """Abstract endpoint; concrete transports implement the two rounds."""

    rank: int
    world_size: int

    def all_gather(self, payload) -> list:
        raise NotImplementedError

    def all_reduce_sum(self, array: np.ndarray) -> np.ndarray:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# In-process transport
# ---------------------------------------------------------------------------


class ThreadHub:
    """Shared rendezvous state for ``world_size`` worker threads.

    A worker that fails outside a collective must call :meth:`abort` so
    that peers blocked inside a round fail fast instead of waiting on
    the barrier forever.
    """

    def __init__(self, world_size: int):
        if world_size < 1:
            raise ValueError("world_size must be positive")
        self.world_size = world_size
        self.trace: list[TraceEvent] = []
        self._slots = [None] * world_size
        self._barrier = threading.Barrier(world_size)
        self._lock = threading.Lock()
        self._round = 0

    def endpoint(self, rank: int) -> "ThreadCollectives":
        return ThreadCollectives(self, rank)

    def abort(self) -> None:
        self._barrier.abort()

    def _wait(self):
        try:
            self._barrier.wait()
        except threading.BrokenBarrierError as exc:
            raise ProtocolError("collective aborted: a peer worker failed") from exc

    def _exchange(self, kind: str, rank: int, payload):
        # Message passing by value: the hub owns a deep copy of every payload.
        self._slots[rank] = copy.deepcopy(payload)
        self._wait()
        if rank == 0:
            with self._lock:
                self.trace.append(
                    TraceEvent(
                        kind=kind,
                        round_id=self._round,
                        payloads=[_summarize(p) for p in self._slots],
                    )
                )
                self._round += 1
        result = list(self._slots)
        self._wait()
        return result


class ThreadCollectives(Collectives):
    """Per-rank endpoint of an in-process :class:`ThreadHub`."""

    def __init__(self, hub: ThreadHub, rank: int):
        if not 0 <= rank < hub.world_size:
            raise ValueError(f"rank {rank} out of range for world size {hub.world_size}")
        self.hub = hub
        self.rank = rank
        self.world_size = hub.world_size

    def all_gather(self, payload) -> list:
        return self.hub._exchange("all_gather", self.rank, payload)

    def all_reduce_sum(self, array: np.ndarray) -> np.ndarray:
        part = np.asarray(array, dtype=np.complex128)
        return _rank_ordered_sum(self.hub._exchange("all_reduce", self.rank, part))


# ---------------------------------------------------------------------------
# Multi-process transport
# ---------------------------------------------------------------------------

_FRAME_HEADER = struct.Struct("<IIQ")  # rank, round, payload length


def _frame(rank: int, round_id: int, *parts) -> list[memoryview]:
    """A frame as byte views, its header before ``parts``.  A part is any
    C-contiguous buffer that holds at least one byte or is
    one-dimensional."""
    bufs = [memoryview(p).cast("B") for p in parts]
    head = _FRAME_HEADER.pack(rank, round_id, sum(map(len, bufs)))
    return [memoryview(head), *bufs]


def _send_views(sock: socket.socket, bufs: list) -> None:
    """Send the byte views ``bufs`` back to back: one ``sendmsg`` gathers
    them, so nothing is joined."""
    sent = sock.sendmsg(bufs)
    for buf in bufs:  # the rest of a send that a signal cut short
        if sent < len(buf):
            sock.sendall(buf[sent:])
        sent = max(sent - len(buf), 0)


def _send_frame(sock: socket.socket, rank: int, round_id: int, *parts) -> None:
    """Send a frame whose payload is ``parts`` back to back."""
    _send_views(sock, _frame(rank, round_id, *parts))


def _recv_exact(sock: socket.socket, size: int) -> bytearray:
    """``size`` bytes from ``sock``, received into one buffer."""
    buf = bytearray(size)
    view = memoryview(buf)
    got = 0
    while got < size:
        count = sock.recv_into(view[got:])
        if not count:
            raise ProtocolError("connection closed mid-frame")
        got += count
    return buf


def _recv_frame(sock: socket.socket) -> tuple[int, int, bytearray]:
    rank, round_id, length = _FRAME_HEADER.unpack(_recv_exact(sock, _FRAME_HEADER.size))
    return rank, round_id, _recv_exact(sock, length)


_NDIM = struct.Struct("<I")  # an all_reduce part's number of axes


def _unpack_part(rank: int, blob: bytes) -> np.ndarray:
    """One rank's all_reduce part, from its shape header and entries."""
    malformed = ProtocolError(f"all_reduce part of rank {rank} is malformed ({len(blob)} bytes)")
    if len(blob) < _NDIM.size:
        raise malformed
    (ndim,) = _NDIM.unpack_from(blob)
    offset = _NDIM.size + 8 * ndim
    if offset > len(blob):
        raise malformed
    shape = struct.unpack_from(f"<{ndim}Q", blob, _NDIM.size)
    if len(blob) - offset != 16 * math.prod(shape):
        raise malformed
    return np.frombuffer(blob, dtype="<c16", offset=offset).reshape(shape)


class SocketCollectives(Collectives):
    """TCP star transport: rank 0 is the hub, everyone else connects to it.

    Gather payloads must provide ``parts()``, their bytes as buffers that
    are sent back to back from their own memory, and a ``from_bytes``
    classmethod that reads those bytes joined; reduce payloads are
    complex arrays, sent as their shape (a u32 number of axes, then one
    u64 extent per axis) and their little-endian ``complex128`` entries.
    The wire carries only length-prefixed frames tagged with rank and
    round.
    """

    def __init__(self, world_size: int, rank: int, rendezvous: str, timeout: float = 60.0):
        self.world_size = world_size
        self.rank = rank
        self.trace: list[TraceEvent] = []
        self._round = 0
        host, port = rendezvous.rsplit(":", 1)
        port = int(port)
        deadline = time.monotonic() + timeout
        if rank == 0:
            self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            self._listener.listen(world_size)
            self._peers: dict[int, socket.socket] = {}
            try:
                while len(self._peers) < world_size - 1:
                    self._accept_peer(deadline)
            except BaseException:
                self.close()
                raise
        else:
            # Ranks may start before the hub listens; retry until the deadline.
            self._hub = None
            while self._hub is None:
                try:
                    self._hub = socket.create_connection((host, port), timeout=timeout)
                except (ConnectionRefusedError, socket.timeout):
                    if time.monotonic() > deadline:
                        raise ProtocolError(f"could not reach rendezvous {rendezvous}")
                    time.sleep(0.05)
            self._hub.settimeout(None)
            _send_frame(self._hub, rank, 0, b"")

    def _accept_peer(self, deadline: float) -> None:
        """Accept one connection and register it under its hello rank.

        The rank must lie in ``1..world_size-1`` and not be taken yet;
        anything else closes the connection and raises ``ProtocolError``.
        """
        try:
            self._listener.settimeout(max(deadline - time.monotonic(), 1e-3))
            conn, _ = self._listener.accept()
        except socket.timeout as exc:
            raise ProtocolError(
                f"rendezvous timed out with {len(self._peers) + 1} of "
                f"{self.world_size} ranks present"
            ) from exc
        try:
            conn.settimeout(max(deadline - time.monotonic(), 1e-3))
            peer_rank, _, _ = _recv_frame(conn)
            if not 1 <= peer_rank < self.world_size:
                raise ProtocolError(
                    f"hello from rank {peer_rank}, outside 1..{self.world_size - 1}"
                )
            if peer_rank in self._peers:
                raise ProtocolError(f"hello from rank {peer_rank}, which is already connected")
            conn.settimeout(None)
        except socket.timeout as exc:
            conn.close()
            raise ProtocolError("rendezvous timed out waiting for a hello frame") from exc
        except BaseException:
            conn.close()
            raise
        self._peers[peer_rank] = conn

    @classmethod
    def from_env(cls) -> "SocketCollectives":
        return cls(
            world_size=int(os.environ[ENV_WORLD_SIZE]),
            rank=int(os.environ[ENV_RANK]),
            rendezvous=os.environ[ENV_RENDEZVOUS],
        )

    @staticmethod
    def _recv_from(peer: int, sock: socket.socket, round_id: int) -> bytes:
        """Receive one frame from ``peer``; it must carry that rank and round."""
        frame_rank, frame_round, payload = _recv_frame(sock)
        if frame_rank != peer:
            raise ProtocolError(f"frame tagged rank {frame_rank} on rank {peer}'s connection")
        if frame_round != round_id:
            raise ProtocolError(f"round mismatch: got {frame_round}, expected {round_id}")
        return payload

    def _collect(self, *parts) -> tuple[int, list[bytes] | None]:
        """Open a round: rank 0 receives every peer's frame and returns the
        round id and all blobs in rank order; any other rank sends its
        blob, ``parts`` back to back, and returns the round id and None."""
        round_id = self._round
        self._round += 1
        if self.rank != 0:
            _send_frame(self._hub, self.rank, round_id, *parts)
            return round_id, None
        blobs = [b"".join(parts)] + [None] * (self.world_size - 1)
        for peer, sock in self._peers.items():
            blobs[peer] = self._recv_from(peer, sock, round_id)
        return round_id, blobs

    def _round_trip(self, *parts) -> list[bytes]:
        """Send this rank's blob, ``parts`` back to back, and receive
        everyone's, ordered by rank.

        Rank 0 relays the round's frames to every peer with their rank
        and round tags unchanged, each as its header and the received
        blob, in one ``sendmsg`` per peer; the peers check both tags.
        """
        round_id, blobs = self._collect(*parts)
        if blobs is None:
            return [self._recv_from(r, self._hub, round_id) for r in range(self.world_size)]
        frames = [buf for r, p in enumerate(blobs) for buf in _frame(r, round_id, p)]
        for sock in self._peers.values():
            _send_views(sock, frames)
        return blobs

    def all_gather(self, payload) -> list:
        blobs = self._round_trip(*payload.parts())
        results = [type(payload).from_bytes(blob) for blob in blobs]
        self.trace.append(
            TraceEvent(
                kind="all_gather",
                round_id=self._round - 1,
                payloads=[_summarize(p) for p in results],
            )
        )
        return results

    def all_reduce_sum(self, array: np.ndarray) -> np.ndarray:
        array = np.ascontiguousarray(array, dtype=np.complex128)
        head = struct.pack(f"<I{array.ndim}Q", array.ndim, *array.shape)
        blobs = self._round_trip(head, array.astype("<c16", copy=False).ravel())
        parts = [_unpack_part(r, blob) for r, blob in enumerate(blobs)]
        total = _rank_ordered_sum(parts)
        self.trace.append(
            TraceEvent(
                kind="all_reduce",
                round_id=self._round - 1,
                payloads=[_summarize(p) for p in parts],
            )
        )
        return total

    def gather_to_root(self, *parts) -> list[bytes] | None:
        """Auxiliary root-only gather used for final output assembly: this
        rank's blob is ``parts`` back to back, sent without joining them.

        Not part of the solver's collective contract (which is one
        AllGather plus one AllReduce); only the multi-process runner uses
        it to hand the partition slices to rank 0.
        """
        return self._collect(*parts)[1]

    def close(self) -> None:
        if self.rank == 0:
            for sock in self._peers.values():
                sock.close()
            self._listener.close()
        else:
            self._hub.close()
