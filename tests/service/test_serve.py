"""One service process: its composition, and several of them on one store.

``build_service`` is the only place a :class:`ScenarioService` is composed,
so every ``repro serve`` option is honoured there or nowhere.  With a store
it always attaches the store's lease table: two ``repro serve`` processes
given the same scenario at the same moment run it once, and the other
reads the winner's blob — the cross-process test below drives two real
subprocesses over HTTP.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.parallel import InstanceSpec
from repro.service import ServiceClient, ServiceConfig, build_service

SRC = Path(__file__).resolve().parents[2] / "src"
SALT = "serve-tests"


def spec_of(tau, *, days=6):
    return InstanceSpec(region_code="VT", params={"TAU": tau}, n_days=days,
                        scale=1e-4, seed=3, label="serve-test")


class TestServiceConfig:
    def test_unservable_combinations_are_refused_by_the_config(self):
        with pytest.raises(ValueError, match="--surrogate"):
            ServiceConfig(surrogate=True, no_cache=True)
        with pytest.raises(ValueError, match="drop --no-cache"):
            ServiceConfig(checkpoint_every=5, no_cache=True)
        with pytest.raises(ValueError, match="bad --inject spec"):
            ServiceConfig(inject=("no.such.site",))

    def test_a_store_brings_its_lease_table(self, tmp_path):
        service = build_service(ServiceConfig(
            store_dir=str(tmp_path / "store"), serial=True, salt=SALT))
        assert service.broker.leases.root == tmp_path / "store" / "leases"
        assert build_service(ServiceConfig(no_cache=True)).broker.leases \
            is None

    def test_retry_faults_and_ledger_reach_the_fanout(self, tmp_path):
        """The first attempt raises, the retry completes the request, the
        ledger records it."""
        ledger = tmp_path / "ledger.jsonl"
        service = build_service(ServiceConfig(
            store_dir=str(tmp_path / "store"), serial=True, salt=SALT,
            max_attempts=3, ledger=str(ledger),
            inject=("worker.exception:times=1",)))
        adm = service.submit(spec_of(0.29))
        service.broker.run_once()
        assert service.status(adm.request_id)["state"] == "done"
        metrics = service.metrics_snapshot()
        assert metrics["faults.worker.exception"] == 1
        assert metrics["retry.retries"] == 1
        events = [json.loads(line)["event"]
                  for line in ledger.read_text().splitlines()]
        assert events.count("instance_completed") == 1


def _start_serve(store: Path, port_file: Path, log: Path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "w") as out:
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--serial",
             "--port", "0", "--port-file", str(port_file), "--no-trace",
             "--store-dir", str(store)],
            env=env, stdout=out, stderr=subprocess.STDOUT)


def _client_of(proc, port_file: Path, timeout_s: float = 60.0):
    deadline = time.monotonic() + timeout_s
    while not port_file.exists():
        if proc.poll() is not None or time.monotonic() > deadline:
            raise RuntimeError(f"repro serve did not come up ({port_file})")
        time.sleep(0.05)
    return ServiceClient(f"http://127.0.0.1:{int(port_file.read_text())}",
                         timeout_s=60.0)


class TestTwoProcessesOneStore:
    def test_a_shared_scenario_runs_once(self, tmp_path):
        store = tmp_path / "store"
        procs = [_start_serve(store, tmp_path / f"p{k}.port",
                              tmp_path / f"serve{k}.log") for k in (0, 1)]
        try:
            clients = [_client_of(proc, tmp_path / f"p{k}.port")
                       for k, proc in enumerate(procs)]
            scenario = {"region": "VT", "params": {"TAU": 0.27},
                        "days": 40, "scale": 1e-3, "seed": 3}
            barrier = threading.Barrier(2)
            views = [None, None]

            def submit(k):
                barrier.wait()
                adm = clients[k].submit(scenario)
                views[k] = clients[k].wait(adm["id"], timeout_s=120.0)

            threads = [threading.Thread(target=submit, args=(k,))
                       for k in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert [v["state"] for v in views] == ["done", "done"]
            assert views[0]["key"] == views[1]["key"]
            # Both JSON payloads are the float64 series of one execution.
            assert views[0]["result"] == views[1]["result"]
            metrics = [c.metrics() for c in clients]
            assert sum(m.get("memo.misses", 0) for m in metrics) == 1
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.send_signal(signal.SIGINT)
            codes = []
            for proc in procs:
                try:  # a drain that hangs fails the test, never the suite
                    codes.append(proc.wait(timeout=30))
                except subprocess.TimeoutExpired:
                    proc.kill()
                    codes.append(proc.wait())
        assert codes == [0, 0]
        assert list((store / "leases").glob("*.lease")) == []
