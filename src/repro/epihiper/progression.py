"""Within-host disease progression (the timed part of the PTTS).

When a person enters a non-terminal state, the next transition is drawn from
the state's outgoing edges — with probabilities stratified by the person's
age group (Table III) — and a dwell time is sampled from the chosen edge's
distribution.  The scheduled transition fires that many ticks later: the
schedulers store the absolute *due tick* (schedule base plus dwell), so
no counter is touched while a person waits, and the remaining dwell is
``due - tick`` whenever it is asked for (a checkpoint's ``dwell`` column).

Both drivers (the solo :class:`~repro.epihiper.engine.Simulation` and the
:class:`~repro.epihiper.batch.BatchedSimulation`) run these kernels over
``(K, N)`` lane stacks; a solo run is one lane.  The per-tick sweep is
:func:`progression_sweep` — one comparison against the tick and one
``flatnonzero`` (:func:`progression_step` is its one-lane face).
Scheduling has two bit-identical implementations: the cross-lane
:func:`schedule_lanes`, a fixed ~20 numpy dispatches whatever the entry
count, and the scalar twin :func:`_schedule_small`, plain Python whose cost
grows per entry.  :func:`schedule_entries` picks by size: measured at K=1
on VA@1e-3 the scalar twin wins up to about ``_SMALL_BATCH`` entries.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .disease import DiseaseModel
from .states import (
    DiscreteDwell,
    FixedDwell,
    NormalDwell,
    inverse_normal_cdf,
    inverse_normal_cdf_scalar,
)


@dataclass(slots=True)
class ProgressionState:
    """Per-person scheduling arrays for pending progressions."""

    #: int32 due tick of the scheduled transition — the sweep run during
    #: tick ``due - 1`` fires it — or 0 when nothing is scheduled.
    due: np.ndarray
    next_state: np.ndarray  #: int8 scheduled destination; -1 = none
    #: persons with due > 0, maintained incrementally at the two mutation
    #: sites so the per-tick memory estimate never re-scans the arrays.
    n_pending: int = 0

    @classmethod
    def empty(cls, n: int) -> "ProgressionState":
        return cls(
            due=np.zeros(n, dtype=np.int32),
            next_state=np.full(n, -1, dtype=np.int8),
        )

    @property
    def dwell(self) -> np.ndarray:
        """The :attr:`due` column itself under its former name, for
        readers that only ask which persons are pending (nonzero) or
        which array is bound; ticks remaining are :meth:`remaining`."""
        return self.due

    def remaining(self, tick: int) -> np.ndarray:
        """Ticks each person still waits at ``tick`` (0 = none pending) —
        what a per-tick countdown would hold; a fresh int32 array."""
        return np.where(self.due > 0, self.due - tick, 0).astype(np.int32)

    def schedule_remaining(self, dwell: np.ndarray, tick: int) -> None:
        """Inverse of :meth:`remaining`: set every due tick in place from
        per-person ticks remaining at ``tick`` (a checkpoint restore)."""
        self.due[...] = np.where(dwell > 0, dwell + tick, 0)


#: Entry batches at or below this size take the scalar scheduling path:
#: its cost grows ~1.7 us per entry while :func:`schedule_lanes` pays
#: ~135 us of numpy dispatches regardless of size, and the two cross at
#: 64-72 entries (mixed or single entered code, K=1 on VA@1e-3).
_SMALL_BATCH: int = 64

#: Plain-python copies of population age-group columns, keyed by array
#: identity.  The scalar scheduler indexes ages with python ints; list
#: indexing skips numpy scalar boxing (~10x per lookup).  The strong
#: reference in the value keeps ``id()`` keys from being recycled.
_AGE_LISTS: dict[int, tuple[np.ndarray, list[int]]] = {}


def _age_list(age_group: np.ndarray) -> list[int]:
    hit = _AGE_LISTS.get(id(age_group))
    if hit is None or hit[0] is not age_group:
        hit = (age_group, age_group.tolist())
        _AGE_LISTS[id(age_group)] = hit
    return hit[1]


def _dwell_key(d):
    """Hashable value identity of a dwell distribution: equal keys draw
    equal values from equal uniforms."""
    if isinstance(d, FixedDwell):
        return ("f", d.days)
    if isinstance(d, NormalDwell):
        return ("n", d.mu, d.sd)
    if isinstance(d, DiscreteDwell):
        return ("d", d.days, d.probs)
    return id(d)


class SchedTables:
    """Padded per-code tables of :func:`schedule_lanes` for K lane models.

    Every per-state choice/dwell lookup is flattened into arrays indexed
    by ``(code, lane, edge, age)`` so one gather serves entries of every
    state at once:

    - ``cum_pad``: ``(n_states, K, n_out_max, n_age)`` cumulative choice
      columns, padded with ``+inf`` (never selected).  Single-edge states
      are all-``inf`` — their choice is forced to edge 0.
    - ``top``: ``(n_states, K, n_age)`` — each state's last cumulative
      value (the inverse-cdf normaliser).
    - ``dst_pad`` / ``dist_id``: ``(n_states, n_out_max)`` destination
      codes and indices into ``dists``, the value-deduplicated dwell
      distributions (lane models must agree on structure and dwell values;
      dedup means e.g. both EXPOSED out-edges' Normal(5, 1) evaluate as
      one batch).
    """

    __slots__ = ("has_out", "cum_pad", "top", "dst_pad", "dist_id",
                 "dists", "n_out_max", "fam", "fixed_days", "mu", "sd",
                 "other_dists")

    def __init__(self, models: list[DiseaseModel]) -> None:
        first = models[0]
        n_states = first.n_states
        k = len(models)
        outs = first.out_edges
        n_out_max = max((len(o[2]) for o in outs.values()), default=1)
        n_age = next((first.out_cum[c].shape[1] for c in outs), 1)
        self.has_out = np.zeros(n_states, dtype=bool)
        self.cum_pad = np.full(
            (n_states, k, n_out_max, n_age), np.inf, dtype=np.float64)
        self.top = np.zeros((n_states, k, n_age), dtype=np.float64)
        self.dst_pad = np.full((n_states, n_out_max), -1, dtype=np.int8)
        self.dist_id = np.zeros((n_states, n_out_max), dtype=np.int64)
        self.dists: list = []
        self.n_out_max = n_out_max
        keymap: dict = {}
        for code, (dsts, _probs, dwells) in outs.items():
            n_out = len(dwells)
            self.has_out[code] = True
            for i, model in enumerate(models):
                cum = model.out_cum[code]
                self.top[code, i] = cum[-1]
                if n_out > 1:
                    self.cum_pad[code, i, :n_out] = cum
            self.dst_pad[code, :n_out] = dsts
            self.dst_pad[code, n_out:] = dsts[-1]
            for e, dw in enumerate(dwells):
                key = _dwell_key(dw)
                if key not in keymap:
                    keymap[key] = len(self.dists)
                    self.dists.append(dw)
                self.dist_id[code, e] = keymap[key]
            self.dist_id[code, n_out:] = self.dist_id[code, n_out - 1]
        # Family split so a whole batch's dwell draws evaluate in a
        # constant number of vectorised passes: fixed is a table lookup,
        # all normals share one CDF inversion (parametrised by gathered
        # mu/sd), anything else (discrete, custom) loops per distinct
        # distribution — family code 2.
        fams, days, mus, sds = [], [], [], []
        self.other_dists: list = []
        for d_id, dw in enumerate(self.dists):
            if isinstance(dw, FixedDwell):
                fams.append(0), days.append(dw.days)
                mus.append(0.0), sds.append(0.0)
            elif isinstance(dw, NormalDwell):
                fams.append(1), days.append(0)
                mus.append(dw.mu), sds.append(dw.sd)
            else:
                fams.append(2), days.append(0)
                mus.append(0.0), sds.append(0.0)
                self.other_dists.append((d_id, dw))
        self.fam = np.asarray(fams, dtype=np.int8)
        self.fixed_days = np.asarray(days, dtype=np.int32)
        self.mu = np.asarray(mus, dtype=np.float64)
        self.sd = np.asarray(sds, dtype=np.float64)


#: One-lane tables per model (~40 us to build, reused by every solo call),
#: held weakly so a dropped model takes its tables with it.
_ONE_LANE_TABLES: "weakref.WeakKeyDictionary[DiseaseModel, SchedTables]" = (
    weakref.WeakKeyDictionary())


def _schedule_small(
    model: DiseaseModel,
    sched: ProgressionState,
    pids: np.ndarray,
    codes: np.ndarray,
    age_group: np.ndarray,
    rng: np.random.Generator,
    tick: int,
) -> None:
    """Scalar twin of :func:`schedule_lanes` for one lane's tiny batches.

    Reproduces its RNG consumption exactly: groups in ascending
    entered-code order (original person order within a group), one
    uniform per person per group, then dwell draws grouped by chosen edge
    in ascending edge order.  Scalar generator calls consume the stream
    like their size-1/size-n array forms, so outputs are bit-identical.
    """
    n_total = pids.shape[0]
    pids_l = pids.tolist()
    codes_l = codes.tolist()
    first_code = codes_l[0]
    if n_total == 1 or all(c == first_code for c in codes_l):
        grouped = ((first_code, pids_l),)
    else:
        order = sorted(range(n_total), key=codes_l.__getitem__)
        grouped = []
        for i in order:
            if grouped and grouped[-1][0] == codes_l[i]:
                grouped[-1][1].append(pids_l[i])
            else:
                grouped.append((codes_l[i], [pids_l[i]]))
    due_arr = sched.due
    next_arr = sched.next_state
    pending = 0
    for code, persons in grouped:
        out = model.out_edges.get(code)
        if out is None:
            for p in persons:
                if due_arr[p] > 0:
                    pending -= 1
                due_arr[p] = 0
                next_arr[p] = -1
            continue
        dwells = out[2]
        dsts = model.out_dsts[code]
        n_out = len(dsts)
        n_g = len(persons)
        # One array draw consumes the stream exactly like n_g scalar
        # draws; the python-list round trip skips numpy scalar boxing.
        us = rng.random(n_g).tolist() if n_g > 1 else [rng.random()]
        if n_out == 1:
            dst = dsts[0]
            for p in persons:
                if due_arr[p] > 0:
                    pending -= 1
                next_arr[p] = dst
            d0 = dwells[0]
            if n_g == 1:
                drawn = (d0.sample_one(rng),)
            else:
                drawn = d0.sample(n_g, rng).tolist()
            for p, d in zip(persons, drawn):
                if d > 0:
                    due_arr[p] = tick + d
                    pending += 1
                else:
                    due_arr[p] = 0
        else:
            cum_age = model.out_cum_age[code]
            ages = _age_list(age_group)
            choices = []
            last = n_out - 1
            for p, u in zip(persons, us):
                if due_arr[p] > 0:
                    pending -= 1
                crow = cum_age[ages[p]]
                u *= crow[last]
                k = 0
                while k < last and u >= crow[k]:
                    k += 1
                choices.append(k)
                next_arr[p] = dsts[k]
            for k in range(n_out):
                members = [i for i, c in enumerate(choices) if c == k]
                if not members:
                    continue
                if len(members) == 1:
                    drawn = (dwells[k].sample_one(rng),)
                else:
                    drawn = dwells[k].sample(len(members), rng).tolist()
                for i, d in zip(members, drawn):
                    if d > 0:
                        due_arr[persons[i]] = tick + d
                        pending += 1
                    else:
                        due_arr[persons[i]] = 0
    sched.n_pending += pending


def schedule_lanes(
    tables: SchedTables,
    scheds: list[ProgressionState],
    due: np.ndarray,
    next_state: np.ndarray,
    lanes: np.ndarray,
    pids: np.ndarray,
    codes: np.ndarray,
    age_group: np.ndarray,
    rngs: list[np.random.Generator],
    tick: int,
) -> None:
    """Schedule the next hop of entries of K lanes in one vectorised pass.

    ``due`` / ``next_state`` are the ``(K, N)`` scheduling stacks whose
    rows are ``scheds[i].due`` / ``.next_state``; entry ``j`` is person
    ``pids[j]`` of lane ``lanes[j]`` entering ``codes[j]`` at ``tick``.

    Exploits the dwell families' one-uniform-per-draw contract: a
    (lane, code) group of ``n`` entries consumes exactly ``2n`` uniforms
    (``n`` edge choices, then ``n`` dwell draws ordered by chosen edge),
    so each group's block is pre-drawn in a single generator call — per
    lane in ascending-code order, the one-lane stream layout — and every
    choice comparison and dwell-value transform then runs vectorised over
    all lanes at once.  Outputs are bit-identical to K one-lane calls.
    """
    k = len(scheds)
    t = tables
    n_states = t.has_out.shape[0]
    n_pop = due.shape[1]
    due_flat = due.reshape(-1)
    next_flat = next_state.reshape(-1)
    m_all = pids.shape[0]
    # (lane, code)-major stable sort: each lane's groups come out in
    # ascending-code order (its stream-consumption order) with original
    # person order preserved inside each group.
    key = lanes * n_states + codes
    if bool((key[1:] >= key[:-1]).all()):
        # Already (lane, code)-grouped — the transmission path always is
        # (one entry code per lane, lanes ascending).
        s_key, s_lane, s_pid, s_code = key, lanes, pids, codes
    else:
        order = np.argsort(key, kind="stable")
        s_key = key[order]
        s_lane = lanes[order]
        s_pid = pids[order]
        s_code = codes[order]
    cuts = np.flatnonzero(s_key[1:] != s_key[:-1]) + 1
    bounds = np.concatenate(([0], cuts, [m_all]))
    g_start = bounds[:-1]
    g_size = np.diff(bounds)
    g_lane = s_lane[g_start]
    g_out = t.has_out[s_code[g_start]]

    # Draw phase: each non-terminal group owns a contiguous 2n slice of
    # the buffer (n choice uniforms, then n dwell uniforms).  Groups are
    # lane-major, so one generator call per lane fills all its slices — a
    # single ``random(out=...)`` over consecutive blocks consumes the
    # stream exactly like a sequence of smaller per-group draws.
    draw_sizes = np.where(g_out, 2 * g_size, 0)
    g_ustart = np.concatenate(([0], np.cumsum(draw_sizes)))
    total_draw = int(g_ustart[-1])
    g_ustart = g_ustart[:-1]
    ubuf = np.empty(total_draw, dtype=np.float64)
    lane_first = np.flatnonzero(
        np.concatenate(([True], g_lane[1:] != g_lane[:-1])))
    ext = np.append(g_ustart[lane_first], total_draw).tolist()
    for j, lane in enumerate(g_lane[lane_first].tolist()):
        lo, hi = ext[j], ext[j + 1]
        if hi > lo:
            rngs[lane].random(out=ubuf[lo:hi])

    # Transform phase: one vectorised pass over every lane and code at
    # once, via the padded (code, lane, edge, age) tables.
    flat_idx = s_lane * n_pop + s_pid
    was = due_flat[flat_idx] > 0
    pend_minus = (np.bincount(s_lane[was], minlength=k)
                  if was.any() else None)
    p_gid = np.repeat(np.arange(g_start.shape[0]), g_size)
    p_out = g_out[p_gid]
    all_out = bool(p_out.all())
    if not all_out:
        # Terminal entries: clear any schedule.
        term = ~p_out
        due_flat[flat_idx[term]] = 0
        next_flat[flat_idx[term]] = -1
        sel = np.flatnonzero(p_out)
        if sel.size:
            s_lane, s_pid, s_code = s_lane[sel], s_pid[sel], s_code[sel]
            flat_idx, p_gid = flat_idx[sel], p_gid[sel]
    pend_plus = None
    if all_out or sel.size:
        # Local position of each person inside its group: its global
        # sorted index minus the group's start (``sel`` IS the global
        # sorted index once terminal entries were filtered out).
        if all_out:
            within = np.arange(m_all, dtype=np.int64) - g_start[p_gid]
        else:
            within = sel - g_start[p_gid]
        ustarts = g_ustart[p_gid]
        u = ubuf[ustarts + within]
        ages = age_group[s_pid]
        u2 = u * t.top[s_code, s_lane, ages]
        # Padded columns are +inf (single-edge states entirely so), so the
        # count-of-crossed-thresholds is the inverse-cdf choice for every
        # state at once.
        cum_cols = t.cum_pad[s_code, s_lane, :, ages]
        choice = (u2[:, None] >= cum_cols).sum(axis=1)
        # Dwells are drawn per chosen edge in ascending-edge order inside
        # each group; a stable sort by (group, choice) ranks persons in
        # exactly that consumption order.  Groups occupy the same
        # contiguous ranges sorted as unsorted (group is the major key),
        # so the stream indices below serve sorted positions too.
        ord2 = np.argsort(p_gid * t.n_out_max + choice, kind="stable")
        dwell_u = np.empty(choice.shape[0], dtype=np.float64)
        dwell_u[ord2] = ubuf[ustarts + g_size[p_gid] + within]
        did = t.dist_id[s_code, choice]
        fam = t.fam[did]
        vals = np.empty(choice.shape[0], dtype=np.int32)
        mk = fam == 0
        if mk.any():
            vals[mk] = t.fixed_days[did[mk]]
        mk = fam == 1
        n_norm = int(mk.sum())
        if n_norm:
            # One CDF inversion for every normal draw, parametrised by
            # gathered mu/sd — elementwise identical to each dist's own
            # values_from_uniforms (small subsets take the bit-identical
            # scalar twin, mirroring its small-batch path's cost profile).
            sub = did[mk]
            u_n = dwell_u[mk]
            if n_norm <= 24:
                mus = t.mu[sub].tolist()
                sds = t.sd[sub].tolist()
                vals[mk] = np.asarray(
                    [max(1, round(m_ + s_ * inverse_normal_cdf_scalar(v)))
                     for m_, s_, v in zip(mus, sds, u_n.tolist())],
                    dtype=np.int32)
            else:
                draws = t.mu[sub] + t.sd[sub] * inverse_normal_cdf(u_n)
                vals[mk] = np.maximum(1, np.rint(draws)).astype(np.int32)
        for d_id, dist in t.other_dists:
            mask = did == d_id
            if mask.any():
                vals[mask] = dist.values_from_uniforms(dwell_u[mask])
        next_flat[flat_idx] = t.dst_pad[s_code, choice]
        pos = vals > 0
        due_flat[flat_idx] = np.where(pos, vals + tick, 0)
        pend_plus = (np.bincount(s_lane[pos], minlength=k)
                     if pos.any() else None)
    if pend_minus is not None or pend_plus is not None:
        for i, sched in enumerate(scheds):
            delta = ((int(pend_plus[i]) if pend_plus is not None else 0)
                     - (int(pend_minus[i]) if pend_minus is not None else 0))
            if delta:
                sched.n_pending += delta


def schedule_entries(
    model: DiseaseModel,
    sched: ProgressionState,
    pids: np.ndarray,
    codes: np.ndarray,
    age_group: np.ndarray,
    rng: np.random.Generator,
    tick: int,
) -> None:
    """Sample and schedule the next transition for persons entering states.

    The one-lane entry point: the scalar twin for small batches,
    :func:`schedule_lanes` at K=1 otherwise (bit-identical either way).

    Args:
        model: the disease model (outgoing edges per state).
        sched: the scheduling arrays, updated in place.
        pids: persons entering a new state this tick.
        codes: the state codes entered (parallel to ``pids``).
        age_group: the full population age-group column.
        rng: the lane's random stream.
        tick: the schedule base — the sweeps already run when the
            persons enter (the current tick, or tick + 1 for entries the
            tick's own sweep fired); a dwell of ``d`` falls due at
            ``tick + d``.
    """
    if pids.size == 0:
        return
    if pids.size <= _SMALL_BATCH:
        _schedule_small(model, sched, pids, codes, age_group, rng, tick)
        return
    tables = _ONE_LANE_TABLES.get(model)
    if tables is None:
        tables = _ONE_LANE_TABLES[model] = SchedTables([model])
    schedule_lanes(tables, [sched], sched.due[None], sched.next_state[None],
                   np.zeros(pids.shape[0], dtype=np.int64),
                   np.asarray(pids, dtype=np.int64), codes, age_group, [rng],
                   tick)


def progression_sweep(
    due: np.ndarray,
    next_state: np.ndarray,
    tick: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One progression tick over ``(K, N)`` lane stacks.

    Fires every schedule due at ``tick`` — the tick the caller is about
    to enter, so the sweep run during tick ``t`` passes ``t + 1`` — and
    clears those schedules.  One comparison and one ``flatnonzero`` over
    the stack, which is row-major, so the outputs are the per-lane
    results concatenated in lane order with each lane's pids ascending.

    Returns:
        ``(sizes, pids, codes, n_hit)``: per-lane fired counts, the
        lane-major fired pids and their scheduled destination codes, and
        the per-lane count of schedules that came due (the caller's
        ``n_pending`` decrement).
    """
    k, n = due.shape
    hit = np.flatnonzero(due == tick)
    if not hit.size:
        none = np.zeros(k, dtype=np.int64)
        return none, hit, next_state[:0, 0], none
    due.reshape(-1)[hit] = 0
    next_flat = next_state.reshape(-1)
    codes = next_flat[hit]
    fire = codes >= 0
    flat = hit[fire]
    codes = codes[fire]
    next_flat[flat] = -1
    lanes, pids = np.divmod(flat, n)
    return (np.bincount(lanes, minlength=k), pids, codes,
            np.bincount(hit // n, minlength=k))


def progression_step(
    sched: ProgressionState,
    tick: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance one lane through the sweep of ``tick``; return (pids, codes)
    firing now.

    The one-lane face of :func:`progression_sweep` (``tick`` is the lane's
    current tick).  The caller must re-enter those persons (recording the
    transition and scheduling their next hop).
    """
    _sizes, pids, codes, n_hit = progression_sweep(
        sched.due[None], sched.next_state[None], tick + 1)
    sched.n_pending -= int(n_hit[0])
    return pids, codes
