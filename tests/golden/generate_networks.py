"""Golden network digests: the synthesised inputs pinned across commits.

``outcomes.json`` pins what the engine emits; this file pins what it is
fed.  For each case of a small frozen matrix, :func:`build_region_network`
is run and every :class:`~repro.synthpop.contacts.ContactNetwork` column is
digested on its own (SHA-256 over dtype, shape and bytes), plus one digest
over every :class:`~repro.synthpop.persons.Population` column, so a change
to contact derivation names the column it moved.

The matrix covers VT, WY, VA, CA and TX at scale 1e-3 under
``DEFAULT_SEED`` and seed 4, plus CA at 3e-3 (thousands of sparse
co-location groups, the sub-location sampling path).

Usage (from the repo root)::

    PYTHONPATH=src python tests/golden/generate_networks.py               # compare
    PYTHONPATH=src python tests/golden/generate_networks.py --regenerate   # rewrite

``--regenerate`` must be justified in CHANGES.md: a new digest means every
region's inputs, and so every simulated trajectory, changed.  The file
records the Python (major.minor) and numpy versions it was generated
under, like ``outcomes.json``; on other versions the comparison is
unverifiable, not green.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

from repro.params import DEFAULT_SEED
from repro.synthpop.contacts import build_region_network

try:
    from .generate import cli
except ImportError:  # run as a script
    from generate import cli

GOLDEN_PATH = Path(__file__).with_name("networks.json")

#: ``(region, scale, seed)`` per case, in file order.
MATRIX: tuple[tuple[str, float, int], ...] = tuple(
    (region, 1e-3, seed)
    for region in ("VT", "WY", "VA", "CA", "TX")
    for seed in (DEFAULT_SEED, 4)
) + (("CA", 3e-3, DEFAULT_SEED),)

#: Network columns digested one by one.
NET_COLUMNS = ("source", "target", "start", "duration", "source_activity",
               "target_activity", "weight", "active")


def _update(h, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr)
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())


def column_digest(arr: np.ndarray) -> str:
    """SHA-256 of one column's dtype, shape and bytes."""
    h = hashlib.sha256()
    _update(h, arr)
    return h.hexdigest()


def case_id(region: str, scale: float, seed: int) -> str:
    return f"{region}/{scale:g}/s{seed}"


def digests(region: str, scale: float, seed: int) -> dict[str, str]:
    """One case's digests: ``net.<column>`` per network column, ``n_nodes``
    and ``population`` (all of its columns, in field order)."""
    pop, net = build_region_network(region, scale=scale, seed=seed)
    out = {f"net.{name}": column_digest(getattr(net, name))
           for name in NET_COLUMNS}
    out["n_nodes"] = str(net.n_nodes)
    h = hashlib.sha256()
    for f in dataclasses.fields(pop):
        value = getattr(pop, f.name)
        if isinstance(value, np.ndarray):
            _update(h, value)
        else:
            h.update(repr(value).encode())
    out["population"] = h.hexdigest()
    return out


def compute() -> dict[str, dict[str, str]]:
    """Every case's digests, recomputed with the code on ``sys.path``."""
    return {case_id(*case): digests(*case) for case in MATRIX}


def main(argv: list[str] | None = None) -> int:
    return cli(argv, GOLDEN_PATH, compute, __doc__.split("\n")[0])


if __name__ == "__main__":
    sys.exit(main())
