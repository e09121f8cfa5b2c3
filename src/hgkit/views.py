"""Read-only graph views over a hypergraph.

Both views compute adjacency on demand from the dual incidence indexes;
they hold a reference to the hypergraph and copy nothing.  Call
:func:`materialize` to freeze a view into a plain weighted edge list
(which carries no metadata).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UnknownNodeError, UnknownVertexError
from .hypercore import Hypergraph, check_id

__all__ = ["BipartiteView", "TwoSectionView", "MaterializedGraph", "materialize"]


class BipartiteView:
    """Incidence graph: vertices and hyperedges as two node classes.

    Node ids 1..n are the vertices, n+1..n+k stand for hyperedges 1..k.
    Vertex node v is adjacent to hyperedge node n+e iff v is a member
    of e.  Weights are not part of this view; incidence edges count 1.
    """

    __slots__ = ("_h",)

    def __init__(self, h: Hypergraph) -> None:
        self._h = h

    @property
    def hypergraph(self) -> Hypergraph:
        return self._h

    @property
    def n_nodes(self) -> int:
        return self._h.nhv + self._h.nhe

    def nodes(self) -> range:
        return range(1, self.n_nodes + 1)

    def is_hyperedge_node(self, node: int) -> bool:
        self._check_node(node)
        return node > self._h.nhv

    def neighbors(self, node: int) -> set[int]:
        """Adjacent node ids; hyperedge neighbors carry the n offset."""
        self._check_node(node)
        h = self._h
        n = h.nhv
        if node <= n:
            return {n + e for e in h._v2he[node - 1]}
        return set(h._he2v[node - n - 1])

    def _check_node(self, node: int) -> None:
        check_id(node, self.n_nodes, UnknownNodeError, "bipartite node")


class TwoSectionView:
    """Clique expansion: vertices are adjacent iff they share a hyperedge.

    The weight of edge (u, v) is the number of hyperedges containing
    both endpoints.  Hyperedges with fewer than two members contribute
    nothing; there are no self loops.
    """

    __slots__ = ("_h",)

    def __init__(self, h: Hypergraph) -> None:
        self._h = h

    @property
    def hypergraph(self) -> Hypergraph:
        return self._h

    @property
    def n_nodes(self) -> int:
        return self._h.nhv

    def nodes(self) -> range:
        return range(1, self.n_nodes + 1)

    def neighbors(self, v: int) -> dict[int, int]:
        """Map of co-member vertex -> number of shared hyperedges."""
        h = self._h
        check_id(v, h.nhv, UnknownVertexError, "vertex")
        counts: dict[int, int] = {}
        for e in h._v2he[v - 1]:
            for u in h._he2v[e - 1]:
                if u != v:
                    counts[u] = counts.get(u, 0) + 1
        return counts


@dataclass
class MaterializedGraph:
    """Frozen weighted simple graph: node count plus a canonical edge list.

    Edges are (u, v, weight) with u < v, sorted ascending, one entry per
    unordered pair.  No metadata survives materialization.
    """

    n_nodes: int
    edges: list[tuple[int, int, float]] = field(default_factory=list)

    def adjacency(self) -> dict[int, dict[int, float]]:
        adj: dict[int, dict[int, float]] = {u: {} for u in range(1, self.n_nodes + 1)}
        for u, v, w in self.edges:
            adj[u][v] = w
            adj[v][u] = w
        return adj


def materialize(view: BipartiteView | TwoSectionView) -> MaterializedGraph:
    """Freeze a view into a MaterializedGraph."""
    if isinstance(view, BipartiteView):
        h = view.hypergraph
        n = h.nhv
        edges = [
            (v, n + e, 1.0)
            for e in h.hyperedges()
            for v in h._he2v[e - 1]
        ]
        edges.sort()
        return MaterializedGraph(n_nodes=view.n_nodes, edges=edges)
    if isinstance(view, TwoSectionView):
        edges = [
            (u, v, float(w))
            for u in view.nodes()
            for v, w in view.neighbors(u).items()
            if u < v
        ]
        edges.sort()
        return MaterializedGraph(n_nodes=view.n_nodes, edges=edges)
    raise TypeError(f"cannot materialize {type(view).__name__}")
