"""The oracle accepts correct BFS results and rejects each mutated one.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csgraph

sys.path.insert(0, str(Path(__file__).resolve().parent))
from oracle import UNREACHED, Oracle  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def csr_from_undirected(n: int, edges: list[tuple[int, int]]):
    """CSR arrays with both orientations of every edge."""
    src = np.array([u for u, v in edges] + [v for u, v in edges])
    dst = np.array([v for u, v in edges] + [u for u, v in edges])
    order = np.argsort(src, kind="stable")
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    return offsets, dst[order].astype(np.int64)


def plain_bfs(offsets, targets, source):
    levels = [UNREACHED] * (offsets.size - 1)
    levels[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in targets[offsets[u]:offsets[u + 1]]:
            if levels[v] == UNREACHED:
                levels[v] = levels[u] + 1
                queue.append(v)
    return np.array(levels)


#: 0-1-2-3-4 path, a triangle 1-5-6 hanging off it, and an island 7-8.
EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (6, 2), (7, 8)]
N = 9


@pytest.fixture
def solved():
    oracle = Oracle(*csr_from_undirected(N, EDGES))
    _, pred = csgraph.breadth_first_order(
        oracle.adjacency, 0, directed=True, return_predecessors=True)
    parents = np.where(pred < 0, UNREACHED, pred).astype(np.int64)
    return oracle, oracle.levels(0), parents


def test_correct_result_passes(solved):
    oracle, levels, parents = solved
    assert levels.tolist() == [0, 1, 2, 3, 4, 2, 3, -1, -1]
    assert oracle.check(0, levels, parents) == []


def test_root_may_be_its_own_parent(solved):
    oracle, levels, parents = solved
    parents[0] = 0
    assert oracle.check(0, levels, parents) == []


def test_rejects_level_off_by_one(solved):
    oracle, levels, parents = solved
    levels[3] += 1
    assert any("levels differ" in e for e in oracle.check(0, levels, parents))


def test_rejects_parent_that_is_not_a_neighbour(solved):
    oracle, levels, parents = solved
    # Vertex 3 sits at level 3; vertex 5 is one level up but not adjacent.
    parents[3] = 5
    errors = oracle.check(0, levels, parents)
    assert errors and all("in-neighbours" in e for e in errors)


def test_rejects_parent_two_levels_up(solved):
    oracle, levels, parents = solved
    parents[4] = 2  # vertex 4 is at level 4, vertex 2 at level 2
    assert any("one level up" in e for e in oracle.check(0, levels, parents))


def test_rejects_unreachable_vertex_marked_visited(solved):
    oracle, levels, parents = solved
    levels[7], parents[7] = 5, 4
    errors = oracle.check(0, levels, parents)
    assert any("levels differ" in e for e in errors)
    assert any("unreached vertices have parents" in e for e in errors)


def test_rejects_reached_vertex_without_parent(solved):
    oracle, levels, parents = solved
    parents[2] = UNREACHED
    assert any("lack a valid parent" in e
               for e in oracle.check(0, levels, parents))


@pytest.mark.parametrize("seed", range(5))
def test_levels_match_plain_bfs(seed):
    rng = np.random.default_rng(seed)
    n = 300
    edges = [tuple(e) for e in rng.integers(0, n, size=(420, 2))]
    offsets, targets = csr_from_undirected(n, edges)
    oracle = Oracle(offsets, targets)
    for source in rng.integers(0, n, size=4):
        want = plain_bfs(offsets, targets, int(source))
        got = oracle.levels(int(source))
        assert np.array_equal(got, want)
        assert oracle.edges_traversed(got) == \
            int(np.diff(offsets)[want != UNREACHED].sum())


def test_program_result_passes():
    sys.path.insert(0, str(SRC))
    from repro.bfs.enterprise import enterprise_bfs
    from repro.graph.generators import rmat_graph

    graph = rmat_graph(10, 16, seed=3)
    oracle = Oracle(graph.offsets, graph.targets)
    source = int(np.argmax(oracle.degrees))
    result = enterprise_bfs(graph, source)
    assert oracle.check(source, result.levels, result.parents) == []
    result.parents[result.parents >= 0] = source
    assert oracle.check(source, result.levels, result.parents) != []
