"""Independent BFS oracle for the benchmark.

Levels come from ``scipy.sparse.csgraph.breadth_first_order`` and the
graph's adjacency is rebuilt as a SciPy CSR matrix from the raw arrays the
program was given, so no check here runs code from ``repro``.  A BFS
result passes when

1. its levels equal the oracle's (``-1`` for an unreached vertex);
2. every unreached vertex has parent ``-1``;
3. the root's parent is ``-1`` or the root itself;
4. every other reached vertex has a parent one level above it, joined to
   it by a real edge ``parent -> vertex``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

UNREACHED = -1


class Oracle:
    """Reference BFS over one graph given as CSR ``offsets``/``targets``."""

    def __init__(self, offsets: np.ndarray, targets: np.ndarray):
        offsets = np.asarray(offsets, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        n = offsets.size - 1
        self.num_vertices = n
        #: Edge slots per vertex, duplicates and self-loops included: the
        #: Graph 500 count of edges a search from a vertex traverses.
        self.degrees = np.diff(offsets)
        adj = sp.csr_matrix(
            (np.ones(targets.size, dtype=np.int8), targets.copy(),
             offsets.copy()), shape=(n, n))
        adj.sum_duplicates()
        self.adjacency = adj
        #: Seconds of each SciPy search: the plain single-threaded
        #: baseline the program's searches are reported next to.
        self.bfs_seconds: list[float] = []

    def levels(self, source: int) -> np.ndarray:
        """Hop distance of every vertex from ``source`` (``-1`` when
        unreached)."""
        t0 = perf_counter()
        order, pred = csgraph.breadth_first_order(
            self.adjacency, source, directed=True, return_predecessors=True)
        self.bfs_seconds.append(perf_counter() - t0)
        return levels_from_predecessors(order, pred, source,
                                        self.num_vertices)

    def edges_traversed(self, levels: np.ndarray) -> int:
        """Graph 500 ``m``: edge slots out of every reached vertex."""
        return int(self.degrees[levels != UNREACHED].sum())

    def check(self, source: int, levels: np.ndarray, parents: np.ndarray,
              expected: np.ndarray | None = None) -> list[str]:
        """Every way ``(levels, parents)`` differs from a BFS of
        ``source``; empty when the result is correct."""
        if expected is None:
            expected = self.levels(source)
        return check_tree(self.adjacency, source, levels, parents, expected)


def levels_from_predecessors(order: np.ndarray, pred: np.ndarray,
                             source: int, n: int) -> np.ndarray:
    """Depth of each vertex in a BFS predecessor tree, by pointer doubling.

    ``dist[v]`` counts the hops from ``v`` to ``anc[v]``; each round jumps
    every ancestor pointer twice as far, so a tree of depth ``d`` takes
    ``log2(d)`` rounds.
    """
    reached = np.asarray(order, dtype=np.int64)
    anc = np.full(n, source, dtype=np.int64)
    anc[reached] = pred[reached]
    anc[source] = source
    dist = np.zeros(n, dtype=np.int64)
    dist[reached] = 1
    dist[source] = 0
    while True:
        up = anc[reached]
        if np.all(up == source):
            break
        dist[reached] += dist[up]
        anc[reached] = anc[up]
    levels = np.full(n, UNREACHED, dtype=np.int64)
    levels[reached] = dist[reached]
    return levels


def check_tree(adjacency: sp.csr_matrix, source: int, levels: np.ndarray,
               parents: np.ndarray, expected: np.ndarray) -> list[str]:
    """Rules 1-4 of the module docstring against ``expected`` levels."""
    errors = []
    levels = np.asarray(levels, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    n = expected.size
    if levels.shape != (n,) or parents.shape != (n,):
        return [f"result arrays have shapes {levels.shape}/{parents.shape}, "
                f"want ({n},)"]
    wrong = np.flatnonzero(levels != expected)
    if wrong.size:
        v = int(wrong[0])
        errors.append(f"{wrong.size} levels differ, e.g. vertex {v}: "
                      f"{int(levels[v])} != {int(expected[v])}")
    unreached = expected == UNREACHED
    stray = np.flatnonzero(unreached & (parents != UNREACHED))
    if stray.size:
        errors.append(f"{stray.size} unreached vertices have parents, "
                      f"e.g. vertex {int(stray[0])}")
    if parents[source] not in (UNREACHED, source):
        errors.append(f"root {source} has parent {int(parents[source])}")
    child = np.flatnonzero(~unreached)
    child = child[child != source]
    par = parents[child]
    bad_id = (par < 0) | (par >= n)
    if bad_id.any():
        errors.append(f"{int(bad_id.sum())} reached vertices lack a valid "
                      f"parent, e.g. vertex {int(child[bad_id][0])}")
        child, par = child[~bad_id], par[~bad_id]
    off_level = expected[par] != expected[child] - 1
    if off_level.any():
        errors.append(f"{int(off_level.sum())} parents are not one level "
                      f"up, e.g. vertex {int(child[off_level][0])}")
    if child.size:
        no_edge = np.asarray(adjacency[par, child]).ravel() == 0
        if no_edge.any():
            errors.append(f"{int(no_edge.sum())} parents are not "
                          f"in-neighbours, e.g. vertex "
                          f"{int(child[no_edge][0])}")
    return errors
