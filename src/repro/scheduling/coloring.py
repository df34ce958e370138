"""The r-relaxed coloring problem (Section V).

"We are given a graph G(V, E).  Edges represent conflicts, and vertices
represent tasks.  We are given a number r.  The r-relaxed-coloring is to
assign a color to each node in the graph such that if a node v gets color
c[v] then no more than r of its neighbors can get the color c[v]."

r = 1 recovers classical proper coloring (no neighbour may share a colour
beyond the allowance; with r interpreted as "fewer than r same-coloured
neighbours permitted", r = 1 forbids any).  We implement a greedy
first-feasible-colour heuristic, a validator, and the region-decomposition
observation the paper exploits: after splitting databases per region the
conflict graph is a disjoint union of cliques, for which greedy colouring
is optimal (ceil(clique size / r) colours).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import networkx as nx


def validate_relaxed_coloring(
    graph: nx.Graph, colors: dict, r: int
) -> bool:
    """Check the r-relaxed property: every vertex has at most ``r - 1``...

    Following the paper's statement "no more than r of its neighbors can
    get the color c[v]" literally: for every vertex v, the number of
    neighbours sharing v's colour must be <= r, with r = 1 reducing to a
    relaxation where one same-coloured neighbour is tolerated *unless* the
    classical reading is intended.  We adopt the strict classical limit:
    at most ``r - 1`` same-coloured neighbours, so r = 1 is proper coloring
    (matching "If r = 1, we get the classical coloring problem").
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    for v in graph.nodes:
        same = sum(1 for u in graph.neighbors(v) if colors[u] == colors[v])
        if same > r - 1:
            return False
    return True


def greedy_relaxed_coloring(graph: nx.Graph, r: int) -> dict:
    """Greedy r-relaxed coloring: each vertex takes the smallest colour
    that keeps the relaxed property for itself and its neighbours.

    Vertices are processed in decreasing-degree order (the standard greedy
    improvement).  Always returns a valid colouring.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    colors: dict = {}
    order = sorted(graph.nodes, key=lambda v: -graph.degree[v])
    for v in order:
        c = 0
        while True:
            # v may join colour c if it gains at most r-1 same-coloured
            # neighbours AND no already-coloured neighbour is pushed over
            # its own budget.
            same_neighbors = [
                u for u in graph.neighbors(v)
                if u in colors and colors[u] == c
            ]
            ok = len(same_neighbors) <= r - 1
            if ok:
                for u in same_neighbors:
                    u_same = sum(
                        1 for w in graph.neighbors(u)
                        if w in colors and colors[w] == c
                    )
                    if u_same + 1 > r - 1:
                        ok = False
                        break
            if ok:
                colors[v] = c
                break
            c += 1
    return colors


def clique_colors_needed(clique_size: int, r: int) -> int:
    """Optimal colour count for a clique under r-relaxation.

    In a clique every pair conflicts, so a colour class may hold at most r
    vertices (each sees the other r - 1).  Hence ceil(n / r) colours.
    """
    if clique_size < 0 or r < 1:
        raise ValueError("invalid arguments")
    return -(-clique_size // r)


def region_conflict_graph(
    region_sizes: dict[str, int]
) -> nx.Graph:
    """The paper's decomposed conflict graph: one clique per region.

    "There is no edge between the subset, and the graph within each subset
    is a complete graph."  Node labels are ``(region, cell)``.
    """
    import networkx as nx

    g = nx.Graph()
    for region, n in region_sizes.items():
        members = [(region, i) for i in range(n)]
        g.add_nodes_from(members)
        g.add_edges_from(
            (members[i], members[j])
            for i in range(n) for j in range(i + 1, n))
    return g


def colors_to_waves(colors: dict) -> list[list]:
    """Group tasks by colour: each colour class is a schedulable wave."""
    waves: dict[int, list] = {}
    for node, c in colors.items():
        waves.setdefault(c, []).append(node)
    return [waves[c] for c in sorted(waves)]


def schedule_waves_makespan(
    waves: list[list], task_times: dict, *,
    machine_width: int, task_nodes: dict,
) -> float:
    """Makespan when colour classes execute as sequential waves.

    Within a wave tasks are concurrent if they fit the machine width; a
    wave's duration is driven by its tallest tasks packed greedily.
    """
    total = 0.0
    for wave in waves:
        shelf_used = 0
        shelf_height = 0.0
        wave_time = 0.0
        for node in sorted(wave, key=lambda n: -task_times[n]):
            w = task_nodes[node]
            if shelf_used + w > machine_width:
                wave_time += shelf_height
                shelf_used, shelf_height = 0, 0.0
            shelf_used += w
            shelf_height = max(shelf_height, task_times[node])
        wave_time += shelf_height
        total += wave_time
    return total
