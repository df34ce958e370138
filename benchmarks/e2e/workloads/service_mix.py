"""``service_mix`` — interactive demand over the real front door.

``python -m repro.cli serve`` runs as a subprocess; two closed-loop
``ServiceClient`` threads each POST a scenario and GET it every 5 ms until
it is terminal, then send the next (closed loop: each analyst waits for a
reply).  Every barrier-separated round is 6 never-seen scenarios (one per
region) sent by
one client (an analyst exploring) while the other sends 14 repeats drawn
Zipf(1.1) from scenarios completed in earlier rounds (an analyst
re-reading dashboards).

Why the two clients do not share one shuffled list: when both may send a
never-seen scenario at once, whether two of them land in one broker batch
(and so pay a ~300 ms pool spawn instead of a ~40 ms in-process run) is a
timing lottery, and runs of the same code then disagree by 20-40 %
(measured).  With one explorer a batch holds at most one miss, so the
broker executes in-process every time: the pool is bypassed here and
``night_replicates`` is the workload that spawns it.  Repeats still queue
behind a running execution and share the server's interpreter lock with
it, which is what their latency measures.

With two clients the queue almost never holds two identical scenarios at
once, so coalescing is all but idle here — it is reported, not exercised.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import threading
import time

from harness import SRC_DIR, percentile
from repro.core.runner import execute_spec
from repro.obs.registry import MetricsRegistry
from repro.service.api import spec_from_request
from repro.service.client import ServiceClient, ServiceError
from repro.store.memo import outcome_payload

from .base import (
    ASSET_SEED,
    CELLS,
    SCALE,
    Workload,
    p50_ms,
    registry_values,
)

POLL_S = 0.005
ZIPF_A = 1.1
SAMPLED_PAYLOADS = 10
TERMINAL = ("done", "failed", "cancelled")


class Reply:
    """What one closed-loop request saw."""

    __slots__ = ("kind", "body", "start", "end", "state", "result",
                 "submit_s", "polls_s")

    def __init__(self, kind: str, body: dict) -> None:
        self.kind = kind  #: "exec" (never seen) or "hit" (repeat)
        self.body = body
        self.state = "refused"
        self.result = None
        self.submit_s = 0.0
        self.polls_s: list[float] = []


class ServiceMix(Workload):
    name = "service_mix"

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir, smoke)
        self.regions = (("VT", "WY") if smoke
                        else ("VA", "CO", "KS", "VT", "WY", "DE"))
        self.n_days = 10 if smoke else 100
        self.fresh = 2 if smoke else 6
        self.repeats = 4 if smoke else 14
        self.ops_per_round = self.fresh + self.repeats
        self.rng = random.Random(seed)
        self.completed: list[dict] = []  #: scenario bodies, oldest first
        self.next_round = 0
        self.proc = None

    # -- server --------------------------------------------------------------
    def setup(self) -> None:
        port_file = self.workdir / "port"
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        self.log = open(self.workdir / "serve.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--port-file", str(port_file),
             "--store-dir", str(self.workdir / "store"),
             "--workers", "2", "--capacity", "256", "--no-trace"],
            env=env, stdout=self.log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 60
        while not (port_file.exists() and port_file.read_text().strip()):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("repro serve did not come up; see "
                                   f"{self.workdir / 'serve.log'}")
            time.sleep(0.01)
        self.client = ServiceClient(
            f"http://127.0.0.1:{int(port_file.read_text())}")
        # One warm request per region: the server's workers build assets.
        for j, region in enumerate(self.regions):
            reply = self._request(Reply("exec", self._body(region, -1, j)))
            if reply.state != "done":
                raise RuntimeError(f"warm request for {region} "
                                   f"ended {reply.state}")
            self.completed.append(reply.body)

    def teardown(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)  # graceful drain
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()

    # -- load ------------------------------------------------------------------
    def _body(self, region: str, index: int, position: int) -> dict:
        """A never-seen scenario: the fresh TAU makes the key new, the
        cell's other knobs keep the work the same."""
        cell = dict(CELLS[position % len(CELLS)])
        cell["TAU"] = round(cell["TAU"] + self.rng.uniform(-0.01, 0.01), 6)
        return {"region": region, "params": cell, "days": self.n_days,
                "scale": SCALE, "seed": self.rng.randrange(1 << 30),
                "asset_seed": ASSET_SEED,
                "_tag": f"r{index}p{position}"}

    def make_round(self, index: int) -> list[Reply]:
        """Rounds depend on their predecessors (repeats come from earlier
        rounds), so they are generated strictly in order."""
        if index != self.next_round:
            raise ValueError(f"round {index} generated out of order")
        self.next_round += 1
        fresh = [Reply("exec", self._body(
            self.regions[p % len(self.regions)], index, p))
            for p in range(self.fresh)]
        weights = [1.0 / (rank + 1) ** ZIPF_A
                   for rank in range(len(self.completed))]
        hits = [Reply("hit", body) for body in self.rng.choices(
            self.completed, weights=weights, k=self.repeats)]
        self.completed += [r.body for r in fresh]
        return fresh + hits

    def _request(self, reply: Reply) -> Reply:
        wire = {k: v for k, v in reply.body.items() if k != "_tag"}
        reply.start = time.perf_counter()
        try:
            rid = self.client.submit(wire)["id"]
            reply.submit_s = time.perf_counter() - reply.start
            while True:
                t0 = time.perf_counter()
                view = self.client.status(rid)
                reply.polls_s.append(time.perf_counter() - t0)
                if view["state"] in TERMINAL:
                    break
                time.sleep(POLL_S)
            reply.state = view["state"]
            reply.result = view.get("result")
        except ServiceError as exc:
            reply.state = f"error: {exc}"
        reply.end = time.perf_counter()
        return reply

    def run_round(self, items: list[Reply]) -> list[Reply]:
        def client(mine: list[Reply]) -> None:
            for reply in mine:
                self._request(reply)

        threads = [threading.Thread(
            target=client, args=([r for r in items if r.kind == kind],))
            for kind in ("exec", "hit")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return items

    def failed_ops(self, replies) -> int:
        return sum(1 for r in replies if r.state != "done")

    def round_wait_s(self, wall: float, replies) -> float:
        """Mean over the round's requests of POST to terminal GET.  The
        mean, not a percentile: request waits are bimodal twice over
        (small vs large regions; repeats stuck behind an execution vs
        free ones), a pooled median sits on a mode boundary and flips
        between runs, while every round holds the same mix, so its mean
        is one well-defined number."""
        return sum(r.end - r.start for r in replies) / len(replies)

    # -- outside the timed region ---------------------------------------------
    def check(self, rounds):
        """Sampled ``done`` payloads equal ``execute_spec`` run here, and
        every repeat returned the payload its scenario first returned."""
        replies = [r for _w, _i, rs in rounds for r in rs
                   if r.state == "done"]
        bad = []
        first: dict[str, dict] = {}
        for r in replies:
            want = first.setdefault(r.body["_tag"], r.result)
            if r.result != want:
                bad.append(f"repeat of {r.body['_tag']} returned a "
                           f"different payload")
        execs = [r for r in replies if r.kind == "exec"]
        sample = random.Random(self.seed).sample(
            execs, min(SAMPLED_PAYLOADS, len(execs)))
        for r in sample:
            wire = {k: v for k, v in r.body.items() if k != "_tag"}
            outcome = execute_spec(spec_from_request(wire)[0],
                                   metrics=MetricsRegistry())
            want = {k: v.tolist()
                    for k, v in outcome_payload(outcome).items()}
            if r.result != want:
                bad.append(f"payload of {r.body['_tag']} differs from "
                           f"execute_spec")
        return len(sample), bad

    def trace(self, rec, real):
        values = self.asset_probes(rec)
        before = self.client.metrics()
        traced = []
        for k in range(len(real)):
            rec.round_id = k
            items = self.make_round(self.next_round)
            t0 = time.perf_counter()
            self.run_round(items)
            traced.append((time.perf_counter() - t0, items, items))
            for r in items:
                parent = len(rec.spans)
                rec.add("service.client.request", r.start, r.end)
                rec.add("service.client.submit", r.start,
                        r.start + r.submit_s, parent)
                # Polls are contiguous bar the sleeps; lay them end to
                # end so self time = request - submit - polls = sleeping.
                t = r.start + r.submit_s
                for poll in r.polls_s:
                    rec.add("service.client.poll", t, t + poll, parent)
                    t += poll
        rec.round_id = -1
        after = self.client.metrics()
        n = len(traced)

        def delta(name: str) -> float:
            return after.get(name, 0) - before.get(name, 0)

        healthz = []
        for _ in range(20):
            t0 = time.perf_counter()
            self.client.health()
            healthz.append(time.perf_counter() - t0)
        replies = [r for _w, _i, rs in traced for r in rs]
        lat = {kind: [(r.end - r.start) for r in replies if r.kind == kind]
               for kind in ("exec", "hit")}
        st = rec.self_times()
        simulate_s = delta("runner.simulate_s") / n
        batch_s = delta("service.batch_s") / n
        values.update(registry_values(delta, n))
        untraced = percentile([w for w, _i, _o in real], 25)
        values.update({
            "epihiper.engine.ticks": float(self.n_days * self.fresh),
            "service.client.submit_ms":
                p50_ms(rec.durations("service.client.submit")),
            "service.client.poll_ms":
                p50_ms(rec.durations("service.client.poll")),
            "service.client.polls_per_request":
                sum(len(r.polls_s) for r in replies) / len(replies),
            "service.client.exec_p50_ms": p50_ms(lat["exec"]),
            "service.client.exec_p90_ms": percentile(lat["exec"], 90) * 1e3,
            "service.client.hit_p50_ms": p50_ms(lat["hit"]),
            "service.api.healthz_ms": p50_ms(healthz),
            "service.queue.wait_s": delta("service.wait_s") / n,
            "service.broker.batch_s": batch_s,
            "service.runner.simulate_s": simulate_s,
            "service.broker.batch_effective":
                float(after.get("service.batch_effective", 0)),
            "service.queue.admitted": delta("service.admitted") / n,
            "service.queue.coalesced": delta("service.coalesced") / n,
            "service.overhead_share":
                1.0 - simulate_s / batch_s if batch_s else 0.0,
            # Client time inside a request not spent in an HTTP call.
            "trace.residual_share":
                st["service.client.request"]
                / sum(r.end - r.start for r in replies),
            "trace.overhead_pct":
                100.0 * (percentile([w for w, _i, _o in traced], 25)
                         - untraced) / untraced,
        })
        bad = [f"traced request {r.body['_tag']} ended {r.state}"
               for r in replies if r.state != "done"]
        return values, bad


WORKLOAD = ServiceMix
