"""The traffic mixes of the daemon benchmark and their request pools.

Every input is generated from the workload seed: the model file (via
`infoflow simulate`), the request pool and the evidence lines. The daemon
sees only those files and lines. Pool lines carry no "id"; the load
generator adds a fresh one per send.
"""

import json
import random

# Every workload runs on the graph `infoflow simulate` draws from this seed,
# the same on every run: `--seed` varies the request lines and the
# connection streams, not the graph, so a run-to-run difference is not a
# difference in graph density (which moves every cost of the pref workloads
# by tens of percent).
GRAPH_SEED = 1
# Read-request pool lines per workload.
POOL_SIZE = 512

# Per-workload constants. `open_rate` is the fixed open-loop offered rate
# (reads/s over all read connections), a fifth to a quarter of the
# closed-loop throughput measured at the commit that introduced the
# benchmark, and at least 100/s where the service allows, so a 15-second
# phase holds 1000 samples (at half, open-loop latency swung with the shared
# machine's capacity by more than any allowed bound); it is deliberately not
# derived from the run's own capacity, which would move with the change
# under test. `trace_topk` adds that many top-k requests to the traced
# replay only.
WORKLOADS = {
    "bank-replay": {
        "topology": "pref",
        "users": 4000,
        "flags": ["--lanes", "auto", "--backend", "bank"],
        "backend": "bank",
        "open_rate": 120.0,
        "trace_limit": 96,
    },
    "analytic-light": {
        "topology": "tree",
        "users": 4000,
        "flags": ["--backend", "auto"],
        "backend": "auto",
        "open_rate": 4000.0,
        "trace_limit": 512,
    },
    "ingest-rebuild": {
        "topology": "pref",
        "users": 1000,
        "flags": ["--ingest", "--epoch-every", "16"],
        "backend": "bank",
        "epoch_every": 16,
        "ingest_rate": 32.0,
        "open_rate": 150.0,
        "trace_limit": 192,
        "trace_topk": 8,
    },
}


def read_model(model_path):
    """Node count and weighted out-adjacency [(dst, p)] of a point-ICM
    model file."""
    with open(model_path) as f:
        header = f.readline().split()
        if header[:1] != ["infoflow-point-icm"]:
            raise ValueError(f"{model_path}: not a point-ICM model")
        nodes = int(f.readline().split()[1])
        f.readline()  # edges <m>
        out = [[] for _ in range(nodes)]
        for line in f:
            parts = line.split()
            if len(parts) >= 3:
                out[int(parts[0])].append((int(parts[1]), float(parts[2])))
    return nodes, out


def expected_paths(nodes, weighted, hops=3):
    """Expected number of live paths of up to `hops` edges leaving each
    node: a cheap stand-in for how far a replay from it spreads (it tracks
    the measured per-source replay cost closely on these graphs)."""
    reach = [0.0] * nodes
    for _ in range(hops):
        reach = [sum(p * (1.0 + reach[u]) for u, p in weighted[v])
                 for v in range(nodes)]
    return reach


def stratified(rng, ranked, count):
    """One node from each of `count` equal slices of `ranked`."""
    step = len(ranked) / count
    return [rng.choice(ranked[int(k * step): int((k + 1) * step)])
            for k in range(count)]


def stratified_sources(name, nodes, weighted, count):
    """`count` sources spread evenly over the middle half of the nodes
    ranked by expected_paths. Drawn once per workload, like the graph, so
    the source set costs the same on every run; `--seed` picks among them."""
    ranked = sorted(range(nodes), key=expected_paths(nodes, weighted).__getitem__)
    return stratified(random.Random(f"{name}:sources"),
                      ranked[nodes // 4: nodes - nodes // 4], count)


def reversed_model(nodes, weighted):
    incoming = [[] for _ in range(nodes)]
    for v in range(nodes):
        for u, p in weighted[v]:
            incoming[u].append((v, p))
    return incoming


def reach_sizes(nodes, out):
    """Nodes reachable from each node (itself included), by DFS."""
    sizes = []
    for v in range(nodes):
        seen, stack = {v}, [v]
        while stack:
            for w in out[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        sizes.append(len(seen))
    return sizes


def _near(rng, out, source, hops=3):
    """A node a short random walk downstream of `source` (or any node)."""
    node = source
    for _ in range(rng.randint(1, hops)):
        if not out[node]:
            break
        node = rng.choice(out[node])
    return node


def _sink(rng, nodes, out, source):
    # Half the sinks sit a few hops downstream, half anywhere: estimates
    # span the whole [0, 1] range instead of collapsing to 0.
    return _near(rng, out, source) if rng.random() < 0.5 else rng.randrange(nodes)


def _sinks(rng, nodes, out, source, count):
    sinks = set()
    while len(sinks) < count:
        sinks.add(_sink(rng, nodes, out, source))
    return sorted(sinks)


def _line(obj):
    return json.dumps(obj, separators=(",", ":"))


def _deal(rng, size, shares):
    """Exactly `size` kinds in the given proportions, shuffled."""
    kinds = []
    for kind, share in shares:
        kinds += [kind] * round(size * share)
    kinds = kinds[:size]
    while len(kinds) < size:
        kinds.append(shares[0][0])
    rng.shuffle(kinds)
    return kinds


def make_pool(name, seed, model_path):
    """The workload's read-request pool: a list of (kind, line)."""
    spec = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    nodes, weighted = read_model(model_path)
    out = [[u for u, _ in edges] for edges in weighted]
    size = POOL_SIZE
    pool = []
    if name == "bank-replay":
        # A 16-node hot pool of sources, so requests share frontiers.
        hot = stratified_sources(name, nodes, weighted, 16)
        for kind in _deal(rng, size, [("flow", 0.4), ("community", 0.2),
                                      ("conditional", 0.2), ("joint", 0.2)]):
            s = rng.choice(hot)
            if kind == "flow":
                obj = {"source": s, "sink": _sink(rng, nodes, out, s)}
            elif kind == "community":
                obj = {"sources": [s], "sinks": _sinks(rng, nodes, out, s, 8)}
            elif kind == "conditional":
                # "g!>g" is rejected: u ~> u always holds.
                g, v = rng.choice(hot), rng.randrange(nodes)
                while v == g:
                    v = rng.randrange(nodes)
                obj = {"source": s, "sink": _sink(rng, nodes, out, s),
                       "given": f"{g}!>{v}"}
            else:
                # Two flows on the same pair are rejected as duplicates.
                t = _sink(rng, nodes, out, s)
                s2, t2 = s, t
                while (s2, t2) == (s, t):
                    s2 = rng.choice(hot)
                    t2 = _sink(rng, nodes, out, s2)
                obj = {"flows": f"{s}>{t} {s2}>{t2}"}
            pool.append((kind, _line(obj)))
    elif name in ("analytic-light", "ingest-rebuild"):
        share = 0.7 if name == "analytic-light" else 0.6
        if name == "ingest-rebuild":
            sources = stratified_sources(name, nodes, weighted, 64)
        else:
            # On a random tree most nodes reach a handful of others; the
            # sources are the nodes whose subtree holds 1/64 to 1/16 of the
            # graph, so each answer walks a comparable, bounded subtree.
            sizes = reach_sizes(nodes, out)
            sources = [v for v in range(nodes)
                       if nodes <= sizes[v] * 64 and sizes[v] * 16 <= nodes]
        for kind in _deal(rng, size, [("flow", share),
                                      ("community", 1.0 - share)]):
            s = rng.choice(sources)
            if kind == "flow":
                obj = {"source": s, "sink": _sink(rng, nodes, out, s)}
            else:
                obj = {"sources": [s], "sinks": _sinks(rng, nodes, out, s, 8)}
            pool.append((kind, _line(obj)))
    else:
        raise KeyError(name)
    return pool


def topk_lines(seed, model_path, count):
    """`count` community-restricted top-k requests ({"topk":3} over 32
    nodes), which build an ad-hoc reverse-reachable sketch set each. Their
    cost follows how much of the graph reaches the community, so members
    are stratified over all nodes ranked by expected incoming paths."""
    rng = random.Random(f"topk:{seed}")
    nodes, weighted = read_model(model_path)
    ranked = sorted(range(nodes), key=expected_paths(
        nodes, reversed_model(nodes, weighted)).__getitem__)
    return [_line({"topk": 3, "community": sorted(stratified(rng, ranked, 32))})
            for _ in range(count)]


def make_ingest_pool(evidence_path):
    """One {"ingest": ...} line per attributed-evidence object line."""
    lines = []
    with open(evidence_path) as f:
        for raw in f:
            raw = raw.rstrip("\n")
            if "|" not in raw:
                continue  # header lines
            lines.append(_line({"ingest": raw}))
    if not lines:
        raise ValueError(f"{evidence_path}: no evidence lines")
    return lines
