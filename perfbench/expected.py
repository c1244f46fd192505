"""Expected answer sets, computed from the shape definitions alone.

Nothing here imports lintab.  The grid and pyramid closures are closed
formulas; `selfcheck` compares each formula against a brute-force BFS over
edge lists built here from the same shape definitions, on small graphs.
Answer sets are checked against the formulas with a bitmap, so the expected
data stays a few bytes per node pair instead of a set of tuples.
"""

from __future__ import annotations


def grid_closure_size(d: int) -> int:
    """The bidirectional d x d grid is strongly connected for d >= 2, so its
    closure is every ordered pair over d*d nodes, self-pairs included."""
    return d**4 if d >= 2 else 0


def pyramid_id(i: int, j: int) -> int:
    """Row-major id of node (i, j): row i (1-based) holds i nodes."""
    return i * (i - 1) // 2 + j


def pyramid_cone(n: int, i: int, j: int) -> set[int]:
    """Nodes reachable from (i, j) in a depth-n pyramid: (i', j') with
    i' > i and j <= j' <= j + (i' - i)."""
    return {pyramid_id(r, c) for r in range(i + 1, n + 1) for c in range(j, j + (r - i) + 1)}


def all_pairs_check(pairs, n_nodes: int) -> bool:
    """True iff `pairs` holds every ordered pair over nodes 1..n_nodes exactly
    once."""
    seen = bytearray(n_nodes * n_nodes)
    count = 0
    for a, b in pairs:
        if type(a) is not int or type(b) is not int or not (1 <= a <= n_nodes and 1 <= b <= n_nodes):
            return False
        k = (a - 1) * n_nodes + (b - 1)
        if seen[k]:
            return False
        seen[k] = 1
        count += 1
    return count == n_nodes * n_nodes


# -- reference graphs and BFS, used only by selfcheck ---------------------


def _grid_edges(d: int) -> list[tuple[int, int]]:
    out = []
    for r in range(d):
        for c in range(d):
            for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                r2, c2 = r + dr, c + dc
                if 0 <= r2 < d and 0 <= c2 < d:
                    out.append((r * d + c + 1, r2 * d + c2 + 1))
    return out


def _pyramid_edges(n: int) -> list[tuple[int, int]]:
    return [
        (pyramid_id(i, j), pyramid_id(i + 1, j + k))
        for i in range(1, n)
        for j in range(1, i + 1)
        for k in (0, 1)
    ]


def _bfs(edges: list[tuple[int, int]], src: int) -> set[int]:
    adj: dict[int, list[int]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
    seen: set[int] = set()
    frontier = list(adj.get(src, ()))
    while frontier:
        v = frontier.pop()
        if v not in seen:
            seen.add(v)
            frontier.extend(adj.get(v, ()))
    return seen


def selfcheck() -> None:
    """Raise ValueError if a closure formula disagrees with BFS on a small graph."""
    for d in range(1, 6):
        edges = _grid_edges(d)
        pairs = [(a, b) for a in range(1, d * d + 1) for b in _bfs(edges, a)]
        if len(pairs) != grid_closure_size(d) or (d >= 2 and not all_pairs_check(pairs, d * d)):
            raise ValueError(f"grid closure formula disagrees with BFS at depth {d}")
    for n in range(1, 9):
        edges = _pyramid_edges(n)
        for i in range(1, n + 1):
            for j in range(1, i + 1):
                if pyramid_cone(n, i, j) != _bfs(edges, pyramid_id(i, j)):
                    raise ValueError(f"pyramid cone formula disagrees with BFS at ({i},{j}) depth {n}")
