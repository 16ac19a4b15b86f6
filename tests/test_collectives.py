import multiprocessing
import socket
import struct
import threading
import time

import numpy as np
import pytest

from btasel import BtaMatrix, ProtocolError, ThreadHub
from btasel.collectives import _FRAME_HEADER, SocketCollectives
from btasel.dist import BoundaryPayload
from btasel.errors import TruncatedPayloadError


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestThreadHub:
    def test_all_gather_orders_by_rank(self):
        hub = ThreadHub(4)
        results = [None] * 4

        def run(rank):
            results[rank] = hub.endpoint(rank).all_gather(np.array([rank + 0j]))

        threads = [threading.Thread(target=run, args=(r,)) for r in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for rank in range(4):
            got = [int(x[0].real) for x in results[rank]]
            assert got == [0, 1, 2, 3]

    def test_all_reduce_sum_deterministic(self):
        hub = ThreadHub(3)
        results = [None] * 3

        def run(rank):
            results[rank] = hub.endpoint(rank).all_reduce_sum(
                np.full((2, 2), rank + 1, dtype=complex)
            )

        threads = [threading.Thread(target=run, args=(r,)) for r in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for res in results:
            np.testing.assert_array_equal(res, np.full((2, 2), 6.0))
        # Bitwise identical across ranks (fixed-order reduction).
        assert all(np.array_equal(results[0], r) for r in results)

    def test_message_passing_by_value(self):
        hub = ThreadHub(2)
        payload = np.ones(3, dtype=complex)
        results = [None] * 2

        def run(rank):
            results[rank] = hub.endpoint(rank).all_gather(payload)

        threads = [threading.Thread(target=run, args=(r,)) for r in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        payload[:] = -1  # sender-side mutation must not reach receivers
        np.testing.assert_array_equal(results[0][0], np.ones(3))

    def test_rounds_traced(self):
        hub = ThreadHub(2)
        results = [None] * 2

        def run(rank):
            ep = hub.endpoint(rank)
            ep.all_gather(np.zeros(1, dtype=complex))
            ep.all_reduce_sum(np.zeros((2, 2), dtype=complex))

        threads = [threading.Thread(target=run, args=(r,)) for r in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert [e.kind for e in hub.trace] == ["all_gather", "all_reduce"]
        assert hub.trace[1].payloads[0]["elements"] == 4


def _payload(rank, kind, b=2, a=1):
    side = BtaMatrix.zeros(1, b, a)
    side.diag[0] = rank + 1
    side.arrow_row[0] = 1j * rank
    return BoundaryPayload(rank=rank, kind=kind, a=side)


def test_payload_roundtrip_bytes():
    pay = _payload(3, "first")
    again = BoundaryPayload.from_bytes(pay.to_bytes())
    assert again.rank == 3 and again.kind == "first"
    np.testing.assert_array_equal(again.a.diag[0], pay.a.diag[0])
    np.testing.assert_array_equal(again.a.arrow_row[0], pay.a.arrow_row[0])
    assert again.nbytes() == pay.nbytes()


def _fused_middle_payload():
    # A middle payload in fused mode: two containers of two blocks each.
    a, b = (BtaMatrix.zeros(2, 2, 1) for _ in range(2))
    a.upper[0], b.lower[0] = 1.0, 2j
    return BoundaryPayload(rank=1, kind="middle", a=a, b=b).to_bytes()


@pytest.mark.parametrize(
    "mangle, cause",
    [
        (lambda buf: buf[:4], struct.error),  # short head
        (lambda buf: buf[:4] + b"\x07" + buf[5:], KeyError),  # unknown kind code
        (lambda buf: buf[:-1], TruncatedPayloadError),  # truncated container
        (lambda buf: buf + buf[5:], None),  # extra containers
        (lambda buf: buf + b"\x00", None),  # trailing bytes
    ],
    ids=["short-head", "unknown-kind", "truncated", "extra-container", "trailing-bytes"],
)
def test_malformed_payload_is_a_protocol_error(mangle, cause):
    buf = _fused_middle_payload()
    again = BoundaryPayload.from_bytes(buf)
    assert again.a.upper[0][0, 0] == 1.0 and again.b.lower[0][0, 0] == 2j
    with pytest.raises(ProtocolError) as info:
        BoundaryPayload.from_bytes(mangle(buf))
    assert type(info.value.__cause__) is (cause or type(None))


def _socket_worker(rank, world, port, queue):
    coll = SocketCollectives(world, rank, f"127.0.0.1:{port}")
    try:
        gathered = coll.all_gather(_payload(rank, "first"))
        reduced = coll.all_reduce_sum(np.full((2, 2), rank + 1, dtype=complex))
        queue.put(
            (
                rank,
                [p.a.diag[0][0, 0].real for p in gathered],
                reduced[0, 0].real,
            )
        )
    finally:
        coll.close()


def test_socket_collectives_multiprocess():
    port = _free_port()
    world = 3
    ctx = multiprocessing.get_context("spawn")
    queue = ctx.Queue()
    procs = [
        ctx.Process(target=_socket_worker, args=(rank, world, port, queue))
        for rank in range(world)
    ]
    for p in procs:
        p.start()
    results = [queue.get(timeout=60) for _ in range(world)]
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    for _, gathered, reduced in results:
        assert gathered == [1.0, 2.0, 3.0]
        assert reduced == 6.0


def test_socket_env_config(monkeypatch):
    from btasel.collectives import ENV_RANK, ENV_RENDEZVOUS, ENV_WORLD_SIZE

    port = _free_port()
    monkeypatch.setenv(ENV_WORLD_SIZE, "1")
    monkeypatch.setenv(ENV_RANK, "0")
    monkeypatch.setenv(ENV_RENDEZVOUS, f"127.0.0.1:{port}")
    coll = SocketCollectives.from_env()
    try:
        assert coll.world_size == 1 and coll.rank == 0
        out = coll.all_gather(_payload(0, "first"))
        assert len(out) == 1
    finally:
        coll.close()


def test_thread_hub_world_size_validation():
    with pytest.raises(ValueError):
        ThreadHub(0)
    hub = ThreadHub(2)
    with pytest.raises(ValueError):
        hub.endpoint(5)


def test_socket_reduce_size_mismatch_raises():
    # Parts travel without a shape: a part of another size is refused on
    # every rank, as on the thread transport.
    port = _free_port()
    errors = []

    def run(rank):
        try:
            coll = SocketCollectives(2, rank, f"127.0.0.1:{port}", timeout=30.0)
            try:
                coll.all_reduce_sum(np.ones((rank + 1, 2, 2), dtype=complex))
            finally:
                coll.close()
        except Exception as exc:  # noqa: BLE001 - checked below
            errors.append((rank, type(exc)))

    threads = [threading.Thread(target=run, args=(rank,)) for rank in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert sorted(errors) == [(0, ProtocolError), (1, ProtocolError)]


def test_reduce_shape_mismatch_raises():
    hub = ThreadHub(2)
    errors = []
    results = [None] * 2

    def run(rank):
        try:
            arr = np.zeros((2, 2) if rank == 0 else (3, 3), dtype=complex)
            results[rank] = hub.endpoint(rank).all_reduce_sum(arr)
        except ProtocolError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(r,)) for r in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors


class TestRendezvousValidation:
    # Rank 0 runs in a thread with a short deadline; raw client sockets
    # play the other ranks and send what a faulty or foreign peer might.
    TIMEOUT = 5.0

    def _hub(self, world, port, then=None, timeout=TIMEOUT):
        outcome = {}

        def run():
            try:
                coll = SocketCollectives(world, 0, f"127.0.0.1:{port}", timeout=timeout)
                try:
                    if then is not None:
                        then(coll)
                finally:
                    coll.close()
            except Exception as exc:  # noqa: BLE001 - inspected by the test
                outcome["error"] = exc

        thread = threading.Thread(target=run)
        thread.start()
        return thread, outcome

    def _peer(self, port, rank):
        deadline = time.monotonic() + self.TIMEOUT
        while True:
            try:
                sock = socket.create_connection(("127.0.0.1", port), timeout=self.TIMEOUT)
                break
            except ConnectionRefusedError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        if rank is not None:
            sock.sendall(_FRAME_HEADER.pack(rank, 0, 0))
        return sock

    def _expect_protocol_error(self, thread, outcome, started):
        thread.join(timeout=2 * self.TIMEOUT)
        assert not thread.is_alive()
        assert isinstance(outcome.get("error"), ProtocolError), outcome
        assert time.monotonic() - started < self.TIMEOUT

    @pytest.mark.parametrize("hellos", [[0], [3], [7], [1, 1], [2, 0]])
    def test_bad_hello_rank(self, hellos):
        port = _free_port()
        started = time.monotonic()
        thread, outcome = self._hub(3, port)
        peers = [self._peer(port, rank) for rank in hellos]
        try:
            self._expect_protocol_error(thread, outcome, started)
        finally:
            for sock in peers:
                sock.close()

    def test_missing_hello_times_out(self):
        port = _free_port()
        thread, outcome = self._hub(2, port, timeout=1.0)
        peer = self._peer(port, None)
        try:
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert isinstance(outcome.get("error"), ProtocolError), outcome
        finally:
            peer.close()

    @pytest.mark.parametrize(
        "collective",
        [lambda c: c.all_reduce_sum(np.zeros(1)), lambda c: c.gather_to_root(b"x")],
        ids=["all_reduce_sum", "gather_to_root"],
    )
    def test_frame_rank_must_match_connection(self, collective):
        # Registered as rank 1, the peer tags its round-0 frame as rank 0:
        # rank 0's own contribution must not be overwritten.
        port = _free_port()
        started = time.monotonic()
        thread, outcome = self._hub(2, port, collective)
        peer = self._peer(port, 1)
        try:
            peer.sendall(_FRAME_HEADER.pack(0, 0, 1) + b"y")
            self._expect_protocol_error(thread, outcome, started)
        finally:
            peer.close()
