"""The benchmark's four workloads.

Each workload builds its inputs from the seed and repeats whole rounds
until ``seconds`` have passed.  A round sets up (a freshly generated
graph), runs the first search or replay on it, then its warm operations:
a traversal round searches every source once and runs the program's
validator on one of the searches; a serve round replays the trace through
a fresh engine.  Set-ups are spread over the run rather than done in a
row, so that every metric samples the whole run.  Every output is checked
against the SciPy oracle or against the first output of the same
operation, and the simulated figures must repeat exactly.

With a :class:`~spans.Recorder` (the traced run) every step is done
twice, untraced and traced, so the per-layer figures come with the
tracing overhead measured on the same work.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from oracle import UNREACHED, Oracle
from spans import NullRecorder, Recorder

import repro.graph.generators as generators
import repro.serve.dispatcher as serve_dispatcher
import repro.serve.query as serve_query
from repro.bfs.cluster import cluster_enterprise_bfs
from repro.bfs.common import validate_result
from repro.bfs.enterprise import enterprise_bfs
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.loadgen import TraceConfig
from repro.serve.query import Query, QueryKind

RMAT_SCALE = 16
EDGE_FACTOR = 16
ROAD_SIDE = 512
SERVE_SCALE = 14
SERVE_QUERIES = 2048
SERVE_GPUS = 2
CLUSTER_NODES = 4
CLUSTER_GPUS = 2

NULL = NullRecorder()


@dataclass
class Tally:
    """What one run measured and found."""

    #: (source, search seconds) of every untraced warm search.
    searches: list[tuple[int, float]] = field(default_factory=list)
    #: Seconds of timed steps, kind -> list: untraced, and the same steps
    #: traced.
    untraced: dict[str, list[float]] = field(default_factory=dict)
    traced: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Failed checks: the run's outputs are not correct.
    errors: list[str] = field(default_factory=list)
    #: Operations that raised; counted in ``failed``.
    failures: list[str] = field(default_factory=list)
    sim: list[str] = field(default_factory=list)
    #: Median seconds of the oracle's SciPy BFS on the workload's graph.
    scipy_bfs_s: float = 0.0

    def step(self, rec, kind: str, seconds: float) -> None:
        """File ``seconds`` of ``kind`` under traced or untraced."""
        table = self.traced if rec.enabled else self.untraced
        table.setdefault(kind, []).append(seconds)

    def overhead(self, kind: str) -> float:
        """Traced over untraced seconds of the same steps."""
        traced = self.traced.get(kind)
        untraced = self.untraced.get(kind)
        if not traced or not untraced:
            return 0.0
        return statistics.median(traced) / statistics.median(untraced)


@contextmanager
def wrapped(rec, targets):
    """Open a span around each ``(module, attribute, span)`` function,
    where the program looks it up, for the body of a traced step."""
    if not rec.enabled:
        yield
        return
    saved = []
    for module, attr, name in targets:
        original = getattr(module, attr)

        def wrapper(*args, _original=original, _name=name, **kwargs):
            with rec.span(_name):
                return _original(*args, **kwargs)

        setattr(module, attr, wrapper)
        saved.append((module, attr, original))
    try:
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


GRAPH_CALLS = [(generators, "from_edges", "graph.csr")]
SERVE_CALLS = [(serve_dispatcher, "ms_bfs", "serve.msbfs"),
               (serve_query, "derive_parents", "serve.parents")]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def recorders(rec, rnd: int):
    """The untraced and, when tracing, the traced pass of round ``rnd``,
    in alternating order so neither always runs on warm caches."""
    if not rec.enabled:
        return (NULL,)
    return (NULL, rec) if rnd % 2 == 0 else (rec, NULL)


def next_round(tally: Tally, rec, rnd: int) -> int:
    """Close round ``rnd``.  In a traced run the step times of round 0
    are dropped: whichever pass ran first there paid the process's
    first-call costs, which would bias the overhead ratios."""
    if rec.enabled and rnd == 0:
        tally.untraced.clear()
        tally.traced.clear()
    return rnd + 1


# ----------------------------------------------------------------------
# Traversal workloads: rmat-solve, road-solve, rmat-cluster
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Traversal:
    name: str
    #: Span around the search call: "bfs.search" or "cluster.search".
    search_span: str
    #: Build ``incidence_transpose`` in its own span before the traced
    #: first search (only where the first search builds it).
    force_transpose: bool
    #: Sources (see :func:`pick_sources`), each searched once per round;
    #: round ``r`` validates the search of source ``r % sources``.
    sources: int
    #: Set-ups (fresh graph + first search) per round: more where they are
    #: cheap, for a steadier median of a short, noisy first search.
    setups: int = 1

    def build(self, seed: int):
        if self.name == "road-solve":
            return generators.road_mesh(ROAD_SIDE, seed=seed)
        return generators.rmat_graph(RMAT_SCALE, EDGE_FACTOR, seed=seed)

    def first_source(self, oracle: Oracle) -> int:
        """Source of the first search on each fresh graph: the mesh
        centre, or the R-MAT hub, whose searches vary least by seed."""
        if self.name == "road-solve":
            return ROAD_SIDE // 2 * ROAD_SIDE + ROAD_SIDE // 2
        return int(np.argmax(oracle.degrees))

    def search(self, graph, source: int):
        """(BFSResult, simulated figures) of one search."""
        if self.search_span == "cluster.search":
            out = cluster_enterprise_bfs(graph, source, CLUSTER_NODES,
                                         CLUSTER_GPUS)
            return out.result, (out.time_ms, out.teps, out.bytes_exchanged)
        result = enterprise_bfs(graph, source)
        return result, (result.time_ms, result.teps)


def pick_sources(oracle: Oracle, first: int, count: int, rng) -> list[int]:
    """One random source from each of ``count`` equal strata of the first
    source's component, ordered by hop distance from the first source and
    then by falling degree.

    A search's cost depends on its source: on R-MAT mostly on the degree
    (it sets the level of the direction switch), on the mesh on the
    distance from the centre.  Strata give every seed the same mix.
    """
    dist = oracle.levels(first)
    comp = np.flatnonzero(dist != UNREACHED)
    order = comp[np.lexsort((-oracle.degrees[comp], dist[comp]))]
    bounds = np.linspace(0, order.size, count + 1).astype(np.int64)
    return [int(order[rng.integers(lo, hi)])
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def count_search(rec, w: Traversal, result, extra) -> None:
    if w.search_span == "cluster.search":
        rec.count("cluster.levels", len(result.traces))
        rec.count("cluster.bytes_exchanged", extra[2])
        return
    rec.count("bfs.levels", len(result.traces))
    rec.count("bfs.bottomup_levels",
              sum(t.direction == "bottom-up" for t in result.traces))
    rec.count("bfs.edges_checked", sum(t.edges_checked for t in result.traces))


def run_traversal(w: Traversal, seed: int, seconds: float, rec):
    tally = Tally()
    oracle = sources = None
    #: source -> (levels, parents, simulated figures) of its first search.
    seen: dict[int, tuple] = {}

    def checked(source, result, sim):
        """Compare with the first result for ``source``; keep it if new."""
        known = seen.get(source)
        if known is None:
            seen[source] = (result.levels, result.parents, sim)
            return
        if not (np.array_equal(known[0], result.levels)
                and np.array_equal(known[1], result.parents)):
            tally.errors.append(f"source {source}: result differs from its "
                                "first search")
        if known[2] != sim:
            tally.errors.append(f"source {source}: simulated figures "
                                f"{sim} differ from {known[2]}")

    def one(r, kind: str, graph, source: int, validate: bool):
        """One search (+ validation) as a step of ``kind``: returns
        (search seconds, validation seconds), or None when it failed."""
        tally.attempted += 1
        gc.collect()
        try:
            with r.operation(kind):
                t0 = perf_counter()
                if kind == "first_search" and r.enabled \
                        and w.force_transpose:
                    with r.span("graph.transpose"):
                        graph.incidence_transpose  # noqa: B018 - lazy build
                with r.span(w.search_span):
                    result, sim = w.search(graph, source)
                t1 = perf_counter()
                if validate:
                    with r.span("validate"):
                        validate_result(result, graph)
                t2 = perf_counter()
                count_search(r, w, result, sim)
        except Exception as exc:  # a failed operation is counted, not fatal
            tally.failed += 1
            tally.failures.append(f"{kind} from {source}: {exc!r}")
            return None
        checked(source, result, sim)
        return t1 - t0, t2 - t1

    deadline = perf_counter() + seconds
    rnd = 0
    while True:
        for r in recorders(rec, rnd) * w.setups:
            graph = None
            gc.collect()
            with r.operation("setup"), wrapped(r, GRAPH_CALLS):
                t0 = perf_counter()
                with r.span("graph.generate"):
                    graph = w.build(seed)
                tally.step(r, "setup", perf_counter() - t0)
            if oracle is None:
                oracle = Oracle(graph.offsets, graph.targets)
                first = w.first_source(oracle)
                sources = pick_sources(oracle, first, w.sources,
                                       np.random.default_rng([seed, 1]))
            spent = one(r, "first_search", graph, first, False)
            if spent is not None:
                tally.step(r, "first_search", spent[0])
        for k, source in enumerate(sources):
            validate = k == rnd % len(sources)
            for r in recorders(rec, rnd):
                spent = one(r, "op", graph, source, validate)
                if spent is None:
                    continue
                tally.step(r, "search", spent[0])
                if validate:
                    tally.step(r, "solve", sum(spent))
                if r is NULL:
                    tally.searches.append((source, spent[0]))
        rnd = next_round(tally, rec, rnd)
        if perf_counter() >= deadline and rnd >= (2 if rec.enabled else 1):
            break
    rss = peak_rss_mb()

    m = {}
    for source, (levels, parents, sim) in seen.items():
        expected = oracle.levels(source)
        m[source] = oracle.edges_traversed(expected)
        for err in oracle.check(source, levels, parents, expected):
            tally.errors.append(f"source {source}: {err}")
        tally.sim.append(f"sim {w.name} source={source} "
                         f"levels={int(expected.max())} sim_ms={sim[0]!r} "
                         f"gteps={sim[1] / 1e9!r}"
                         + (f" bytes_exchanged={sim[2]}" if len(sim) > 2
                            else ""))

    tally.scipy_bfs_s = statistics.median(oracle.bfs_seconds)
    if rec.enabled:
        return tally, None
    search_s = [s for _, s in tally.searches]
    metrics = {
        "setup_s": statistics.median(tally.untraced["setup"]),
        "first_search_s": statistics.median(tally.untraced["first_search"]),
        "search_mteps": statistics.harmonic_mean(
            [m[src] / s / 1e6 for src, s in tally.searches]),
        "solve_s": statistics.median(tally.untraced["solve"]),
        "serve_qps": len(search_s) / sum(search_s),
        "peak_rss_mb": rss,
    }
    return tally, metrics


# ----------------------------------------------------------------------
# rmat-serve
# ----------------------------------------------------------------------

def serve_trace(graph, seed: int) -> list[Query]:
    """``SERVE_QUERIES`` queries drawn as ``synthetic_trace`` draws them
    (Zipf sources over the degree ranking, uniform targets, Poisson
    arrivals at the default rate), but in exactly the default
    distance/reachability/SP-tree mix, so that every seed asks for the
    same amount of each kind of work."""
    shape = TraceConfig()
    rng = np.random.default_rng([seed, 2])
    n = graph.num_vertices
    by_degree = np.argsort(-graph.out_degrees, kind="stable")
    sources = by_degree[np.minimum(rng.zipf(shape.zipf_a, SERVE_QUERIES),
                                   n) - 1]
    targets = rng.integers(0, n, size=SERVE_QUERIES)
    counts = np.round(np.array(shape.mix) * SERVE_QUERIES).astype(np.int64)
    counts[0] += SERVE_QUERIES - counts.sum()
    kinds = rng.permutation(np.repeat(np.arange(3), counts))
    arrivals = np.cumsum(rng.exponential(1.0 / shape.rate_per_ms,
                                         size=SERVE_QUERIES))
    table = (QueryKind.DISTANCE, QueryKind.REACHABILITY, QueryKind.SPTREE)
    return [Query(kind=table[kinds[i]], source=int(sources[i]),
                  target=-1 if kinds[i] == 2 else int(targets[i]),
                  arrival_ms=float(arrivals[i]), qid=i)
            for i in range(SERVE_QUERIES)]


def answers_digest(results) -> str:
    """Digest of every answer, in query order."""
    digest = hashlib.sha256()
    for res in sorted(results, key=lambda res: res.query.qid):
        digest.update(repr((res.query.qid, res.served_by in
                            ("rejected", "shed"), res.distance,
                            res.reachable)).encode())
        for array in (res.levels, res.parents):
            if array is not None:
                digest.update(array.tobytes())
    return digest.hexdigest()


def check_answers(oracle: Oracle, results, levels_of) -> list[str]:
    errors = []
    for res in results:
        if not res.ok:
            continue
        q = res.query
        levels = levels_of(q.source)
        if q.kind is QueryKind.SPTREE:
            if res.levels is None or res.parents is None:
                errors.append(f"query {q.qid}: no tree")
                continue
            errors += [f"query {q.qid}: {e}" for e in
                       oracle.check(q.source, res.levels, res.parents,
                                    levels)]
            continue
        want = int(levels[q.target])
        if res.reachable != (want != UNREACHED):
            errors.append(f"query {q.qid}: reachable={res.reachable}, "
                          f"want {want != UNREACHED}")
        if q.kind is QueryKind.DISTANCE and res.distance != want:
            errors.append(f"query {q.qid}: distance {res.distance}, "
                          f"want {want}")
    return errors


def run_serve(seed: int, seconds: float, rec):
    tally = Tally()
    config = ServeConfig(num_gpus=SERVE_GPUS)
    oracle = None
    first: dict = {}
    #: Untraced replays: (seconds, queries answered).
    replays: list[tuple[float, int]] = []

    def replay(r, kind: str, engine, trace):
        tally.attempted += len(trace)
        gc.collect()
        with r.operation(kind), wrapped(r, SERVE_CALLS):
            with r.span("serve.replay"):
                t0 = perf_counter()
                for query in trace:
                    engine.submit(query)
                results = engine.drain()
                took = perf_counter() - t0
            stats = engine.stats()
            r.count("serve.waves", stats.dispatch.waves)
            r.count("serve.mean_wave_width", stats.dispatch.mean_wave_width)
            r.count("serve.coalesced", stats.coalesced_queries)
            r.count("serve.cache_hit_rate", stats.cache.hit_rate)
        ok = [res for res in results if res.ok]
        tally.failed += len(results) - len(ok)
        if len(results) != len(trace):
            tally.errors.append(f"{len(results)} answers to {len(trace)} "
                                "queries")
        sim = (stats.makespan_ms, stats.qps, stats.dispatch.waves,
               stats.cache.hits)
        if not first:
            first.update(results=results, digest=answers_digest(results),
                         sim=sim)
        else:
            if answers_digest(results) != first["digest"]:
                tally.errors.append(f"{kind}: answers differ from the "
                                    "first replay")
            if sim != first["sim"]:
                tally.errors.append(f"{kind}: simulated figures {sim} "
                                    f"differ from {first['sim']}")
        return took, len(ok)

    deadline = perf_counter() + seconds
    rnd = 0
    while True:
        for r in recorders(rec, rnd):
            graph = trace = engine = None
            gc.collect()
            with r.operation("setup"), wrapped(r, GRAPH_CALLS):
                t0 = perf_counter()
                with r.span("graph.generate"):
                    graph = generators.rmat_graph(SERVE_SCALE, EDGE_FACTOR,
                                                  seed=seed)
                trace = serve_trace(graph, seed)
                with r.span("serve.engine_init"):
                    engine = ServeEngine(graph, config)
                tally.step(r, "setup", perf_counter() - t0)
            if oracle is None:
                oracle = Oracle(graph.offsets, graph.targets)
            tally.step(r, "first_search",
                       replay(r, "first_search", engine, trace)[0])
        for r in recorders(rec, rnd):
            engine = ServeEngine(graph, config)
            out = replay(r, "op", engine, trace)
            tally.step(r, "replay", out[0])
            if r is NULL:
                replays.append(out)
        rnd = next_round(tally, rec, rnd)
        if perf_counter() >= deadline and rnd >= (2 if rec.enabled else 1):
            break
    rss = peak_rss_mb()

    levels: dict[int, np.ndarray] = {}

    def levels_of(source: int) -> np.ndarray:
        if source not in levels:
            levels[source] = oracle.levels(source)
        return levels[source]

    tally.errors += check_answers(oracle, first["results"], levels_of)
    #: Graph 500 edges of one search from each answered query's source.
    answered_edges = sum(oracle.edges_traversed(levels_of(res.query.source))
                         for res in first["results"] if res.ok)
    makespan, qps, waves, hits = first["sim"]
    tally.sim.append(f"sim rmat-serve makespan_ms={makespan!r} "
                     f"qps={qps!r} waves={waves} cache_hits={hits}")

    tally.scipy_bfs_s = statistics.median(oracle.bfs_seconds)
    if rec.enabled:
        return tally, None
    metrics = {
        "setup_s": statistics.median(tally.untraced["setup"]),
        "first_search_s": statistics.median(tally.untraced["first_search"]),
        "search_mteps": statistics.median(
            answered_edges / took / 1e6 for took, _ in replays),
        "solve_s": statistics.median(took for took, _ in replays),
        "serve_qps": statistics.median(n / took for took, n in replays),
        "peak_rss_mb": rss,
    }
    return tally, metrics


# ----------------------------------------------------------------------
# Per-layer read-out of a traced run
# ----------------------------------------------------------------------

def layer_metrics(rec: Recorder, tally: Tally) -> dict[str, float]:
    op = "op"
    values = {
        "graph.generate_s": rec.self_s("setup", "graph.generate"),
        "graph.csr_s": rec.self_s("setup", "graph.csr"),
        "graph.transpose_s": rec.total_s("first_search", "graph.transpose"),
        "graph.peak_mb": rec.peak_mb("graph"),
        "bfs.search_s": rec.total_s(op, "bfs.search"),
        "bfs.inspect_s": rec.self_s(op, "bfs.inspect"),
        "bfs.scan_s": rec.self_s(op, "bfs.scan"),
        "bfs.classify_s": rec.self_s(op, "bfs.classify"),
        "bfs.expand_s": rec.self_s(op, "bfs.expand"),
        "bfs.unscoped_s": rec.self_s(op, "bfs.search"),
        "bfs.levels": rec.first_count(op, "bfs.levels"),
        "bfs.bottomup_levels": rec.first_count(op, "bfs.bottomup_levels"),
        "bfs.edges_checked": rec.first_count(op, "bfs.edges_checked"),
        "gpu.kernel_cost_s": rec.self_s(op, "gpu.kernel_cost"),
        "gpu.hyperq_s": rec.self_s(op, "gpu.hyperq"),
        "gpu.kernel_cost_calls": rec.first_count(op, "gpu.kernel_cost.calls"),
        "validate.s": rec.self_per_call(op, "validate"),
        "validate.peak_mb": rec.peak_mb("validate"),
        "serve.engine_init_s": rec.total_s("setup", "serve.engine_init"),
        "serve.replay_s": rec.total_s(op, "serve.replay"),
        "serve.batch_s": rec.self_s(op, "serve.batch"),
        "serve.dispatch_s": rec.self_s(op, "serve.dispatch"),
        "serve.msbfs_s": rec.self_s(op, "serve.msbfs"),
        "serve.msbfs_calls": rec.first_count(op, "serve.msbfs.calls"),
        "serve.parents_s": rec.self_s(op, "serve.parents"),
        "serve.parents_calls": rec.first_count(op, "serve.parents.calls"),
        "serve.waves": rec.first_count(op, "serve.waves"),
        "serve.mean_wave_width": rec.first_count(op, "serve.mean_wave_width"),
        "serve.coalesced": rec.first_count(op, "serve.coalesced"),
        "serve.cache_hit_rate": rec.first_count(op, "serve.cache_hit_rate"),
        "cluster.search_s": rec.total_s(op, "cluster.search"),
        "cluster.stage_s": rec.self_s(op, "cluster.stage"),
        "cluster.exchange_s": rec.self_s(op, "cluster.exchange"),
        "fabric.allreduce_s": rec.self_s(op, "fabric.allreduce"),
        "cluster.unscoped_s": rec.self_s(op, "cluster.search"),
        "cluster.levels": rec.first_count(op, "cluster.levels"),
        "cluster.bytes_exchanged": rec.first_count(op,
                                                   "cluster.bytes_exchanged"),
        "cluster.peak_mb": rec.peak_mb("cluster"),
        "baseline.scipy_bfs_s": tally.scipy_bfs_s,
        "overhead.setup_s": tally.overhead("setup"),
        "overhead.first_search_s": tally.overhead("first_search"),
    }
    serving = "replay" in tally.untraced
    values["overhead.search_mteps"] = tally.overhead(
        "replay" if serving else "search")
    values["overhead.solve_s"] = tally.overhead(
        "replay" if serving else "solve")
    values["overhead.serve_qps"] = values["overhead.search_mteps"]
    return values


def measure_memory(rec: Recorder, w: Traversal | None, seed: int) -> None:
    """tracemalloc peaks of graph build, search and validation, each
    measured alone after the timed steps so tracemalloc slows none of
    them."""
    gc.collect()
    with rec.memory("graph"):
        graph = (w.build(seed) if w else
                 generators.rmat_graph(SERVE_SCALE, EDGE_FACTOR, seed=seed))
    if w is None:
        return
    source = int(np.argmax(graph.out_degrees))
    if w.search_span == "cluster.search":
        with rec.memory("cluster"):
            result, _ = w.search(graph, source)
    else:
        result, _ = w.search(graph, source)
    with rec.memory("validate"):
        validate_result(result, graph)


TRAVERSALS = {
    "rmat-solve": Traversal("rmat-solve", "bfs.search",
                            force_transpose=True, sources=16),
    "road-solve": Traversal("road-solve", "bfs.search",
                            force_transpose=False, sources=8, setups=3),
    "rmat-cluster": Traversal("rmat-cluster", "cluster.search",
                              force_transpose=False, sources=16),
}


def run(workload: str, seed: int, seconds: float, traced: bool):
    """(tally, metrics, recorder) of one run of ``workload``."""
    rec = Recorder() if traced else NULL
    w = TRAVERSALS.get(workload)
    if w is None:
        tally, metrics = run_serve(seed, seconds, rec)
    else:
        tally, metrics = run_traversal(w, seed, seconds, rec)
    if traced:
        measure_memory(rec, w, seed)
        metrics = layer_metrics(rec, tally)
    return tally, metrics, rec
