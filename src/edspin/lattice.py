"""Finite graphs, bipartitions, spanning trees and lattice families.

Vertices are the integers ``0..n-1``; every "arbitrarily fixed order" in the
constructions downstream resolves to ascending vertex labels.  Families are
generated so that ``member(n)`` is an initial segment of ``member(n+1)``,
which keeps nesting maps between Fock spaces free of permutation signs.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property


@dataclass(frozen=True)
class Graph:
    """Finite undirected simple graph on vertices ``0..vertex_count-1``."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        norm = []
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = (min(u, v), max(u, v))
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        if self.labels is not None and len(self.labels) != self.vertex_count:
            raise ValueError("labels length mismatch")

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def is_connected(self) -> bool:
        if self.vertex_count == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            for w in self.neighbors[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.vertex_count

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._edge_set

    @cached_property
    def _edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)


@dataclass(frozen=True)
class Bipartition:
    """Two-coloring of a graph; ``part_a`` is the part containing vertex 0."""

    part_a: frozenset[int]
    part_b: frozenset[int]

    def part_of(self, v: int) -> str:
        return "a" if v in self.part_a else "b"

    def b_mask(self) -> int:
        m = 0
        for v in self.part_b:
            m |= 1 << v
        return m

    def imbalance(self) -> int:
        return abs(len(self.part_a) - len(self.part_b))


def bipartition(g: Graph) -> Bipartition | None:
    """BFS two-coloring; ``None`` if an odd cycle exists.

    Vertex 0 is assigned to ``part_a``, removing the A/B swap ambiguity.
    """
    if not g.is_connected:
        raise ValueError("graph not connected")
    color = [-1] * g.vertex_count
    color[0] = 0
    queue = [0]
    while queue:
        u = queue.pop(0)
        for w in g.neighbors[u]:
            if color[w] == -1:
                color[w] = 1 - color[u]
                queue.append(w)
            elif color[w] == color[u]:
                return None
    part_a = frozenset(v for v in range(g.vertex_count) if color[v] == 0)
    part_b = frozenset(v for v in range(g.vertex_count) if color[v] == 1)
    return Bipartition(part_a, part_b)


def normal_spanning_tree(g: Graph, root: int = 0) -> Graph:
    """Depth-first-search spanning tree rooted at ``root``.

    A DFS tree of a connected graph is normal; ties broken by ascending
    neighbor index, so the result is deterministic.
    """
    if not g.is_connected:
        raise ValueError("graph not connected")
    if not 0 <= root < g.vertex_count:
        raise ValueError(f"root {root} out of range")
    seen = {root}
    tree_edges = []
    stack = [(root, iter(g.neighbors[root]))]
    while stack:
        u, it = stack[-1]
        advanced = False
        for w in it:
            if w not in seen:
                seen.add(w)
                tree_edges.append((min(u, w), max(u, w)))
                stack.append((w, iter(g.neighbors[w])))
                advanced = True
                break
        if not advanced:
            stack.pop()
    return Graph(g.vertex_count, tuple(tree_edges))


def relabel(g: Graph, permutation: tuple[int, ...] | list[int]) -> Graph:
    """Isomorphic copy with vertex ``v`` renamed ``permutation[v]``."""
    perm = tuple(permutation)
    if sorted(perm) != list(range(g.vertex_count)):
        raise ValueError("permutation is not a bijection on the vertices")
    edges = tuple((perm[u], perm[v]) for u, v in g.edges)
    return Graph(g.vertex_count, edges)


def sublattice_imbalance(g: Graph) -> int:
    """``||part_a| - |part_b||`` of the unique bipartition."""
    bp = bipartition(g)
    if bp is None:
        raise ValueError("graph is not bipartite")
    return bp.imbalance()


# ---------------------------------------------------------------------------
# graph exchange format: header "vertices N", one "u v" pair per line
# ---------------------------------------------------------------------------

def write_edge_list(g: Graph) -> str:
    lines = [f"vertices {g.vertex_count}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or not lines[0].startswith("vertices"):
        raise ValueError('missing "vertices N" header')
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise ValueError('malformed "vertices N" header') from exc
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line: {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return Graph(n, tuple(edges))


# ---------------------------------------------------------------------------
# lattice families
# ---------------------------------------------------------------------------

GENERATORS = ("chain", "decorated_chain", "star", "bethe_ball", "square", "lieb")


@dataclass(frozen=True)
class LatticeFamily:
    """Nested family of finite graphs; ``member(n)`` grows by appending vertices."""

    generator: str
    z: int | None = None

    def __post_init__(self) -> None:
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        if self.generator == "bethe_ball":
            if self.z is None or self.z < 3 or self.z % 2 == 0:
                raise ValueError("bethe_ball requires odd degree z >= 3")
        elif self.z is not None:
            raise ValueError(f"generator {self.generator!r} takes no degree parameter")

    def member(self, n: int) -> Graph:
        if n < 1:
            raise ValueError("family index n must be >= 1")
        return _GENERATOR_FUNCS[self.generator](self, n)


def path_graph(k: int) -> Graph:
    if k < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(k, tuple((i, i + 1) for i in range(k - 1)))


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph(k, tuple((i, (i + 1) % k) for i in range(k)))


def star_graph(leaves: int) -> Graph:
    """Star S_k: center 0 with ``leaves`` pendant vertices."""
    if leaves < 1:
        raise ValueError("star needs at least one leaf")
    return Graph(leaves + 1, tuple((0, i) for i in range(1, leaves + 1)))


def grid_graph(rows: int, cols: int) -> Graph:
    """rows x cols grid; vertex (i, j) is labeled by its L-shell order.

    Shell ordering (max(i, j), i, j) makes smaller grids initial segments of
    larger ones.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid needs at least one row and one column")
    verts = sorted(((i, j) for i in range(rows) for j in range(cols)),
                   key=lambda p: (max(p), p[0], p[1]))
    idx = {p: k for k, p in enumerate(verts)}
    edges = []
    for i in range(rows):
        for j in range(cols):
            if i + 1 < rows:
                edges.append((idx[(i, j)], idx[(i + 1, j)]))
            if j + 1 < cols:
                edges.append((idx[(i, j)], idx[(i, j + 1)]))
    return Graph(rows * cols, tuple(edges))


def _chain(f: LatticeFamily, n: int) -> Graph:
    return path_graph(2 * n)


def _star(f: LatticeFamily, n: int) -> Graph:
    return star_graph(2 * n - 1)


def _bethe_ball(f: LatticeFamily, n: int) -> Graph:
    z = f.z
    assert z is not None
    edges = []
    shell = [0]
    next_vertex = 1
    for k in range(1, n + 1):
        new_shell = []
        children = z if k == 1 else z - 1
        for parent in shell:
            for _ in range(children):
                edges.append((parent, next_vertex))
                new_shell.append(next_vertex)
                next_vertex += 1
        shell = new_shell
    return Graph(next_vertex, tuple(edges))


def _square(f: LatticeFamily, n: int) -> Graph:
    return grid_graph(2 * n, 2 * n)


def _decorated_chain(f: LatticeFamily, n: int) -> Graph:
    """Chain of 4-vertex cells {v, p, p', m}: two pendants and a bridge per cell.

    Each cell contributes one A-vertex (v) and three B-vertices, so the
    sublattice imbalance is exactly half the vertex count at every n.
    """
    edges = []
    for i in range(n):
        v, p1, p2, m = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
        edges += [(v, p1), (v, p2), (v, m)]
        if i + 1 < n:
            edges.append((m, 4 * (i + 1)))
    return Graph(4 * n, tuple(edges))


def _lieb(f: LatticeFamily, n: int) -> Graph:
    """Lieb-lattice fragment of 2n x 2n cells, each owning its right/up midpoints.

    Per cell: one corner and two midpoint vertices, so midpoints outnumber
    corners 2:1 and the imbalance ratio is exactly 1/3 at every n.  Boundary
    midpoints dangle with degree one.
    """
    side = 2 * n
    cells = sorted(((i, j) for i in range(side) for j in range(side)),
                   key=lambda p: (max(p), p[0], p[1]))
    idx: dict[tuple[int, int, str], int] = {}
    k = 0
    for (i, j) in cells:
        for kind in ("c", "r", "u"):
            idx[(i, j, kind)] = k
            k += 1
    edges = []
    for (i, j) in cells:
        c = idx[(i, j, "c")]
        edges.append((c, idx[(i, j, "r")]))
        edges.append((c, idx[(i, j, "u")]))
        if i + 1 < side:
            edges.append((idx[(i, j, "r")], idx[(i + 1, j, "c")]))
        if j + 1 < side:
            edges.append((idx[(i, j, "u")], idx[(i, j + 1, "c")]))
    return Graph(3 * side * side, tuple(edges))


_GENERATOR_FUNCS = {
    "chain": _chain,
    "star": _star,
    "bethe_ball": _bethe_ball,
    "square": _square,
    "decorated_chain": _decorated_chain,
    "lieb": _lieb,
}


def spin_density_sequence(f: LatticeFamily, n_max: int) -> list[tuple[int, int, int, Fraction]]:
    """Rows ``(n, |graph|, imbalance, s_n)`` with ``s_n = imbalance / (2 |graph|)``."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rows = []
    for n in range(1, n_max + 1):
        g = f.member(n)
        imb = sublattice_imbalance(g)
        rows.append((n, g.vertex_count, imb, Fraction(imb, 2 * g.vertex_count)))
    return rows
