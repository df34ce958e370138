"""``ServiceClient`` connections: one keep-alive socket per calling thread,
``TCP_NODELAY`` on both ends, one retry when a reused socket went stale."""

import socket
import threading

import pytest

from repro.service import (
    DrainingError,
    NotFoundError,
    QueueFullError,
    ScenarioService,
    ServiceClient,
    ServiceError,
    make_server,
)

pytestmark = pytest.mark.fast

SCENARIO = {"region": "VT", "params": {"TAU": 0.3}, "days": 10,
            "scale": 1e-3, "seed": 9}


def start(service, port=0):
    """Serve ``service`` on ``port``; count the connections it accepts."""
    server = make_server(service, port=port)
    server.accepted = []
    process = server.process_request

    def counting(request, client_address):
        server.accepted.append(client_address)
        process(request, client_address)

    server.process_request = counting
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


def stop(server):
    server.shutdown()
    server.server_close()


def nodelay(sock) -> bool:
    return bool(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))


def test_one_connection_per_calling_thread():
    server = start(ScenarioService(parallel=False))
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    ports: dict[str, set] = {}

    def calls(name):
        for _ in range(4):
            client.health()
            client.metrics()
            ports.setdefault(name, set()).add(
                client._connection().sock.getsockname()[1])

    try:
        threads = [threading.Thread(target=calls, args=(name,))
                   for name in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        calls("main")
        assert len(server.accepted) == 3
        assert all(len(seen) == 1 for seen in ports.values())
        assert len(set.union(*ports.values())) == 3
        # Nagle's algorithm is off at both ends of a live connection.
        assert nodelay(client._connection().sock)
        assert server._open and all(nodelay(s) for s in server._open)
    finally:
        client.close()
        stop(server)


def test_stale_connection_is_retried_once_after_a_restart():
    server = start(ScenarioService(parallel=False))
    port = server.server_address[1]
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout_s=10.0)
    try:
        assert client.health()["status"] == "ok"
        stop(server)  # closes the kept-alive socket, as an exit would
        # Nothing listens: the stale socket's retry is refused, and that
        # fresh-connection failure is not retried again.
        with pytest.raises(ServiceError) as exc:
            client.health()
        assert exc.value.status == 0
        server = start(ScenarioService(parallel=False), port=port)
        assert client.health()["status"] == "ok"
        stop(server)
        server = start(ScenarioService(capacity=1, parallel=False),
                       port=port)
        # The socket to the stopped server is stale: one retry, served.
        assert client.submit(SCENARIO)["status"] == "queued"
        assert len(server.accepted) == 1
        # Typed errors still come back over the kept-alive connection.
        with pytest.raises(NotFoundError) as exc:
            client.status("r999999")
        assert exc.value.status == 404
        with pytest.raises(QueueFullError) as exc:
            client.submit(dict(SCENARIO, seed=10))
        assert exc.value.status == 429 and exc.value.retry_after_s > 0
        server.service.queue.close()
        with pytest.raises(DrainingError) as exc:
            client.submit(dict(SCENARIO, seed=11))
        assert exc.value.status == 503
        assert len(server.accepted) == 1
    finally:
        client.close()
        server.service.queue.cancel_pending()
        stop(server)


def test_idle_connection_is_closed_and_the_client_reconnects(monkeypatch):
    import time

    from repro.service.server import ScenarioHandler

    # The idle period is a constant; shorten it here only to keep the
    # test fast.
    monkeypatch.setattr(ScenarioHandler, "timeout", 0.2)
    server = start(ScenarioService(parallel=False))
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    try:
        client.health()
        deadline = time.monotonic() + 10.0
        while server._open:
            assert time.monotonic() < deadline, "idle connection kept"
            time.sleep(0.05)
        assert client.health()["status"] == "ok"
        assert len(server.accepted) == 2
    finally:
        client.close()
        stop(server)
