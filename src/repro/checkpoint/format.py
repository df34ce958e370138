"""Deterministic snapshot/restore of in-flight simulation state.

A snapshot is a flat ``{name: ndarray}`` payload — the same shape the CAS
stores for results — capturing everything a
:class:`~repro.epihiper.engine.Simulation` needs to resume bit-identically:

- the per-person state arrays (health, remaining dwell — the engine's
  due tick minus the current tick — scheduled next states, node scaling
  traits) and per-edge state (weights, suppression counts);
- the exact RNG stream position (``bit_generator.state``, with the 128-bit
  PCG64 integers serialised losslessly);
- the transition log accumulated so far, the census/memory histories, and
  the ``engine.*`` work counters;
- intervention state: each intervention's ``fired`` count plus the mutable
  values living in its action's closure cells (timed-release queues,
  suppression handles, new-entrant trackers, compliance samples).

Restore applies a snapshot onto a *freshly prepared* simulation of the
same instance spec: deterministic preparation rebuilds the structure
(models, networks, intervention closures), and the snapshot overwrites the
mutable state — including writing closure cells back via
``cell.cell_contents``.  The contract, enforced by ``tests/checkpoint``:
resume at tick t, run to T, and every output byte (transition log, census,
result payload, RNG stream) equals an uninterrupted run's.

Payloads contain plain numpy arrays only (no object dtype — the CAS
digest hashes raw bytes), with one ``meta`` entry holding the JSON-encoded
scalar state as uint8.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

import numpy as np

from ..epihiper.engine import Simulation
from ..epihiper.interventions import SuppressionHandle
from ..epihiper.npi import _NewEntrants, _TimedReleases
from ..epihiper.output import TransitionRecorder

#: Bumped on any incompatible snapshot-layout change; a mismatched
#: checkpoint is invalid (never misread), and the executor falls back.
FORMAT_VERSION = 1

#: Payload entry holding the JSON scalar state.
META_KEY = "meta"

#: Sentinel for closure values the walker cannot encode; restore leaves
#: the freshly rebuilt value in place (constants, module functions).
_OPAQUE = object()


class CheckpointError(ValueError):
    """A snapshot that cannot be applied (wrong instance, torn layout)."""


# -- lossless JSON for big integers -------------------------------------------


def _ints_to_json(obj: Any) -> Any:
    """Recursively wrap ints as strings (PCG64 state is 128-bit)."""
    if isinstance(obj, dict):
        return {k: _ints_to_json(v) for k, v in obj.items()}
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return {"__int__": str(int(obj))}
    return obj


def _ints_from_json(obj: Any) -> Any:
    """Inverse of :func:`_ints_to_json`."""
    if isinstance(obj, dict):
        if set(obj) == {"__int__"}:
            return int(obj["__int__"])
        return {k: _ints_from_json(v) for k, v in obj.items()}
    return obj


# -- closure-cell encoding -----------------------------------------------------
#
# NPI actions keep their mutable state in closure cells (see repro.epihiper
# .npi): timed-release queues, suppression handles, lazily created
# new-entrant trackers, small state dicts, and captured scalars.  The
# walker encodes exactly that taxonomy; anything else is opaque and left
# to deterministic reconstruction.


def _encode_value(value: Any, arrays: dict[str, np.ndarray],
                  counter: list[int]) -> dict[str, Any]:
    """One closure value -> a JSON node (arrays spill into ``arrays``)."""
    if value is None:
        return {"t": "none"}
    if isinstance(value, bool):
        return {"t": "bool", "v": value}
    if isinstance(value, int):
        return {"t": "int", "v": value}
    if isinstance(value, float):
        return {"t": "float", "v": value}
    if isinstance(value, str):
        return {"t": "str", "v": value}
    if isinstance(value, np.ndarray):
        ref = f"cell:{counter[0]}"
        counter[0] += 1
        arrays[ref] = value.copy()
        return {"t": "arr", "k": ref}
    if isinstance(value, SuppressionHandle):
        ref = f"cell:{counter[0]}"
        counter[0] += 1
        arrays[ref] = value.edge_rows.copy()
        return {"t": "handle", "k": ref, "released": bool(value.released)}
    if isinstance(value, _TimedReleases):
        return {"t": "releases", "due": [
            [int(tick), _encode_value(handle, arrays, counter)]
            for tick, handle in value._due]}
    if isinstance(value, _NewEntrants):
        return {"t": "entrants", "code": int(value.code),
                "prev": _encode_value(value._prev, arrays, counter)}
    if isinstance(value, dict):
        return {"t": "dict", "items": [
            [str(k), _encode_value(v, arrays, counter)]
            for k, v in value.items()]}
    return {"t": "opaque"}


def _decode_value(node: dict[str, Any],
                  payload: Mapping[str, np.ndarray]) -> Any:
    """Inverse of :func:`_encode_value` (``_OPAQUE`` for skipped cells)."""
    kind = node["t"]
    if kind == "none":
        return None
    if kind in ("bool", "int", "float", "str"):
        return node["v"]
    if kind == "arr":
        return payload[node["k"]]
    if kind == "handle":
        return SuppressionHandle(payload[node["k"]],
                                 released=bool(node["released"]))
    if kind == "releases":
        releases = _TimedReleases()
        releases._due = [(int(tick), _decode_value(handle, payload))
                         for tick, handle in node["due"]]
        return releases
    if kind == "entrants":
        # ``_seen`` restarts at row 0 (a superset of the rows since the
        # last poll); ``_prev`` is updated in place, so it gets a copy.
        entrants = _NewEntrants(int(node["code"]))
        prev = _decode_value(node["prev"], payload)
        entrants._prev = None if prev is None else np.array(prev)
        return entrants
    if kind == "dict":
        return {k: _decode_value(v, payload) for k, v in node["items"]}
    return _OPAQUE


# -- snapshot / restore --------------------------------------------------------


def snapshot_simulation(sim: Simulation) -> dict[str, np.ndarray]:
    """Freeze a simulation's full mutable state into a CAS payload."""
    arrays: dict[str, np.ndarray] = {}
    counter = [0]
    ivs = []
    for iv in sim.interventions:
        cells = [_encode_value(cell.cell_contents, arrays, counter)
                 for cell in (iv.action.__closure__ or ())]
        ivs.append({"name": iv.name, "fired": int(iv.fired), "cells": cells})

    log = sim.recorder.finalize()
    meta = {
        "version": FORMAT_VERSION,
        "tick": int(sim.tick),
        "region": sim.net.region_code,
        "n": int(sim.pop.size),
        "n_edges": int(sim.net.n_edges),
        "n_pending": int(sim.sched.n_pending),
        "rng": _ints_to_json(sim.rng.bit_generator.state),
        "total_operations": int(sim.suppressor.total_operations),
        "n_suppressed": int(sim.suppressor.n_suppressed),
        "variables": dict(sim.variables),
        "metrics": sim.metrics.dump("engine."),
        "interventions": ivs,
        "node_traits": sorted(sim.node_traits),
        "edge_traits": sorted(sim.edge_traits),
    }
    if sim._counts_history:
        counts = np.vstack(sim._counts_history)
    else:
        counts = np.empty((0, sim.model.n_states), dtype=np.int64)
    # Copies throughout: the simulation keeps mutating these arrays in
    # place after the snapshot, and the payload must stay frozen until
    # (and after) it is serialised.
    payload: dict[str, np.ndarray] = {
        "health": sim.health.copy(),
        "dwell": sim.sched.remaining(sim.tick),
        "next_state": sim.sched.next_state.copy(),
        "node_sus": sim.node_susceptibility.copy(),
        "node_inf": sim.node_infectivity.copy(),
        "edge_weight": sim.edge_weight.copy(),
        "supp_count": sim.suppressor.count.copy(),
        "log_tick": log.tick,
        "log_pid": log.pid,
        "log_state": log.state,
        "log_infector": log.infector,
        "counts": counts,
        "memory": np.asarray(sim._memory_history, dtype=np.int64),
    }
    for name in meta["node_traits"]:
        payload[f"ntrait:{name}"] = sim.node_traits[name].copy()
    for name in meta["edge_traits"]:
        payload[f"etrait:{name}"] = sim.edge_traits[name].copy()
    payload.update(arrays)
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    payload[META_KEY] = np.frombuffer(blob, dtype=np.uint8).copy()
    return payload


def restore_simulation(sim: Simulation,
                       payload: Mapping[str, np.ndarray]) -> int:
    """Apply a snapshot onto a freshly prepared ``sim``; returns its tick.

    The simulation must have been prepared for the *same instance spec*
    (same assets, model params, seed, intervention stack) — preparation
    rebuilds the deterministic structure, the snapshot overwrites the
    mutable state.  Raises :class:`CheckpointError` on any mismatch.
    """
    try:
        meta = json.loads(bytes(payload[META_KEY]))
    except (KeyError, ValueError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint meta: {exc}") from exc
    if meta.get("version") != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format v{meta.get('version')} != v{FORMAT_VERSION}")
    if (int(meta["n"]) != sim.pop.size
            or int(meta["n_edges"]) != sim.net.n_edges
            or meta["region"] != sim.net.region_code):
        raise CheckpointError(
            f"checkpoint is for another instance "
            f"({meta['region']}, n={meta['n']})")
    ivs_meta = meta["interventions"]
    if len(ivs_meta) != len(sim.interventions):
        raise CheckpointError("intervention stack shape changed")
    for iv, m in zip(sim.interventions, ivs_meta):
        if iv.name != m["name"]:
            raise CheckpointError(
                f"intervention order changed: {iv.name!r} != {m['name']!r}")
        if len(iv.action.__closure__ or ()) != len(m["cells"]):
            raise CheckpointError(
                f"closure layout of {iv.name!r} changed")

    tick = int(meta["tick"])
    try:
        # In-place writes keep the arrays live as batched-lane row views.
        sim.health[...] = payload["health"]
        sim.sched.schedule_remaining(payload["dwell"], tick)
        sim.sched.next_state[...] = payload["next_state"]
        sim.node_susceptibility[...] = payload["node_sus"]
        sim.node_infectivity[...] = payload["node_inf"]
        sim.edge_weight[...] = payload["edge_weight"]
        sim.suppressor.count[...] = payload["supp_count"]
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"state arrays do not apply: {exc}") from exc
    sim._sync_derived()
    sim.sched.n_pending = int(meta["n_pending"])
    sim.suppressor.total_operations = int(meta["total_operations"])
    sim.suppressor.n_suppressed = int(meta["n_suppressed"])
    sim.rng.bit_generator.state = _ints_from_json(meta["rng"])
    sim.variables = {k: float(v) for k, v in meta["variables"].items()}

    recorder = TransitionRecorder()
    recorder.record_chunks(payload["log_tick"], payload["log_pid"],
                           payload["log_state"], payload["log_infector"])
    sim.recorder = recorder
    counts = payload["counts"]
    sim._counts_history = [counts[i] for i in range(counts.shape[0])]
    sim._memory_history = [int(x) for x in payload["memory"]]
    sim.metrics.clear("engine.")
    sim.metrics.merge(meta["metrics"])
    sim.node_traits = {name: payload[f"ntrait:{name}"]
                       for name in meta["node_traits"]}
    sim.edge_traits = {name: payload[f"etrait:{name}"]
                       for name in meta["edge_traits"]}

    for iv, m in zip(sim.interventions, ivs_meta):
        iv.fired = int(m["fired"])
        for cell, node in zip(iv.action.__closure__ or (), m["cells"]):
            value = _decode_value(node, payload)
            if value is not _OPAQUE:
                cell.cell_contents = value

    sim.tick = tick
    return tick
