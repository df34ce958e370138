"""Cluster hardware models (Table II).

The two machines of the paper: the remote super-computing cluster (Bridges,
Pittsburgh Supercomputing Center) and the home cluster (Rivanna, University
of Virginia), with the allocation sizes, core counts and memory of Table II.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..params import GB, NIGHTLY_WINDOW_HOURS


@dataclass(frozen=True, slots=True)
class ClusterSpec:
    """Static description of one cluster allocation.

    Attributes mirror Table II rows.
    """

    name: str
    n_nodes: int
    cpus_per_node: int
    cores_per_cpu: int
    ram_per_node_bytes: int
    cpu_model: str
    interconnect: str
    filesystem: str

    @property
    def cores_per_node(self) -> int:
        """Usable cores on one node."""
        return self.cpus_per_node * self.cores_per_cpu

    @property
    def total_cores(self) -> int:
        """Cores across the allocation."""
        return self.n_nodes * self.cores_per_node


#: Table II, left column: Bridges HPC Facility allocation.
BRIDGES = ClusterSpec(
    name="bridges",
    n_nodes=720,
    cpus_per_node=2,
    cores_per_cpu=14,
    ram_per_node_bytes=128 * GB,
    cpu_model="Intel Haswell E5-2695 v3",
    interconnect="Intel Omnipath-1",
    filesystem="Lustre",
)

#: Table II, right column: Rivanna HPC Facility allocation.
RIVANNA = ClusterSpec(
    name="rivanna",
    n_nodes=50,
    cpus_per_node=2,
    cores_per_cpu=20,
    ram_per_node_bytes=384 * GB,
    cpu_model="Intel Xeon Gold 6148",
    interconnect="Mellanox ConnectX-5",
    filesystem="Lustre",
)


@dataclass(frozen=True, slots=True)
class AccessWindow:
    """The nightly exclusive window on the remote cluster.

    Section I: "we have had exclusive access to the cluster, with over
    20,000 cores, for 10 hours a day (from 10 pm to 8 am)".
    """

    start_hour: float = 22.0
    duration_hours: float = NIGHTLY_WINDOW_HOURS

    @property
    def end_hour(self) -> float:
        """Window end as an hour-of-day (may exceed 24)."""
        return self.start_hour + self.duration_hours

    @property
    def duration_seconds(self) -> float:
        """Window length in seconds."""
        return self.duration_hours * 3600.0

    def contains(self, hour_of_day: float) -> bool:
        """Whether an hour-of-day (0-24) falls inside the window."""
        h = hour_of_day % 24.0
        s = self.start_hour % 24.0
        e = self.end_hour % 24.0
        if s <= e:
            return s <= h < e
        return h >= s or h < e


NIGHTLY_WINDOW = AccessWindow()
