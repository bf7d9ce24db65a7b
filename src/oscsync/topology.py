"""Flow-network certificates and closed-form verdicts for special shapes.

A sign witness has a physical reading: its entries are edge currents on the
restorative edges, and the vertex potentials they generate are G_r x.  The
local rules a current/potential assignment must obey (A1: potentials are
net outgoing currents, A2: dissipative endpoints are equipotential, A3:
currents run down the potential drop) hold exactly when the vector is a
witness, so a nontrivial distribution exists iff the interconnection is
not universally synchronizing.

For unions that are paths, cycles, or trees the universal verdict has a
closed form in terms of which vertices the restorative (and dissipative)
edges touch; these fast paths are cross-validated against the general test
elsewhere in the suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import exactlin, graphs, structural
from .graphs import Edge, Interconnection, incidence, is_connected


@dataclass(frozen=True)
class TopologyClass:
    """Shape of a connected graph.

    ``kind`` is one of "path", "cycle", "tree" (non-path trees only), or
    "general".  ``leaves`` lists the degree-one vertices for paths and
    trees.  ``order`` is a vertex relabeling realizing the canonical
    shape: traversal order for paths and cycles, a parent-before-child
    order for trees, the identity otherwise.
    """

    kind: str
    leaves: tuple[int, ...]
    order: tuple[int, ...]


@dataclass(frozen=True)
class Distribution:
    """Edge currents and vertex potentials.

    Currents live on the restorative edges of the reduced interconnection,
    in edge order, with the fixed k < l orientation: a positive value flows
    from the smaller-labeled vertex to the larger.  Dissipative edges carry
    no current.  Negating a current reverses its direction, so signed
    values lose no generality.
    """

    currents: tuple[Fraction, ...]
    potentials: tuple[Fraction, ...]

    @property
    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.currents)


@dataclass(frozen=True)
class DistributionCheck:
    """Outcome of checking a distribution against the local rules."""

    ok: bool
    trivial: bool
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def _degrees(q: int, edges: Sequence[Edge]) -> list[int]:
    deg = [0] * (q + 1)
    for k, l in edges:
        deg[k] += 1
        deg[l] += 1
    return deg


def _adjacency(q: int, edges: Sequence[Edge]) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in range(1, q + 1)}
    for k, l in edges:
        adj[k].append(l)
        adj[l].append(k)
    for v in adj:
        adj[v].sort()
    return adj


def classify(q: int, union_edges: Sequence[Edge]) -> TopologyClass:
    """Classify a connected graph as path, cycle, tree, or general.

    Paths and cycles are recognized up to relabeling; ``order`` returns
    the relabeling.  Non-path trees are "tree"; anything else "general".
    Raises ValueError when the graph is disconnected.
    """
    edges = graphs.normalize_edges(q, union_edges)
    if not is_connected(q, edges):
        raise ValueError("cannot classify a disconnected graph")
    deg = _degrees(q, edges)
    adj = _adjacency(q, edges)
    m = len(edges)
    identity = tuple(range(1, q + 1))

    if m == q - 1 and max(deg[1:]) <= 2:
        ends = [v for v in range(1, q + 1) if deg[v] == 1]
        order = [min(ends)] if q >= 2 else [1]
        prev = 0
        while len(order) < q:
            nxt = next(u for u in adj[order[-1]] if u != prev)
            prev = order[-1]
            order.append(nxt)
        return TopologyClass(kind="path", leaves=tuple(sorted(ends)), order=tuple(order))

    if m == q and all(d == 2 for d in deg[1:]):
        order = [1, adj[1][0]]
        while len(order) < q:
            nxt = next(u for u in adj[order[-1]] if u != order[-2])
            order.append(nxt)
        return TopologyClass(kind="cycle", leaves=(), order=tuple(order))

    if m == q - 1:
        leaves = tuple(v for v in range(1, q + 1) if deg[v] == 1)
        parent: dict[int, int | None] = {1: None}
        order = [1]
        queue = [1]
        while queue:
            v = queue.pop(0)
            for u in adj[v]:
                if u not in parent:
                    parent[u] = v
                    order.append(u)
                    queue.append(u)
        return TopologyClass(kind="tree", leaves=leaves, order=tuple(order))

    return TopologyClass(kind="general", leaves=(), order=identity)


def _touched(edges: Sequence[Edge]) -> set[int]:
    return {v for e in edges for v in e}


def _require_kind(ic: Interconnection, kind: str) -> TopologyClass:
    topo = classify(ic.q, ic.union_edges)
    if topo.kind != kind:
        raise ValueError(f"union graph is a {topo.kind}, not a {kind}")
    return topo


def path_sss(ic: Interconnection) -> bool:
    """Universal verdict for interconnections whose union graph is a path:
    true iff some vertex touches no restorative edge.

    The closed form characterizes universality among inputs that pass
    ``is_ss``; it coincides with the general test on all-dissipative and
    all-restorative labelings too.  Raises ValueError for non-paths.
    """
    ric = graphs.reduce(ic)
    _require_kind(ric, "path")
    return len(_touched(ric.restorative_edges)) < ric.q


def cycle_sss(ic: Interconnection) -> bool:
    """Universal verdict for interconnections whose union graph is a cycle:
    true iff some vertex touches no restorative edge, or else every vertex
    touches a dissipative edge and q/2 is odd.

    When restorative and dissipative edges both touch every vertex of a
    cycle the two families must alternate, forcing q to be even; that is
    asserted, not assumed.  Raises ValueError for non-cycles.
    """
    ric = graphs.reduce(ic)
    _require_kind(ric, "cycle")
    if len(_touched(ric.restorative_edges)) < ric.q:
        return True
    if len(_touched(ric.dissipative_edges)) < ric.q:
        return False
    assert ric.q % 2 == 0, "full double cover of a cycle forces an even vertex count"
    return (ric.q // 2) % 2 == 1


def tree_sss_sufficient(ic: Interconnection) -> bool | None:
    """Sufficient test for interconnections whose union graph is a tree:
    True when at most one leaf touches a restorative edge, None when the
    condition fails (the test is one-sided, so nothing follows).

    Raises ValueError when the union graph is not a tree (paths included:
    a path is a tree with exactly two leaves).
    """
    ric = graphs.reduce(ic)
    topo = classify(ric.q, ric.union_edges)
    if topo.kind not in ("path", "tree"):
        raise ValueError(f"union graph is a {topo.kind}, not a tree")
    touched = _touched(ric.restorative_edges)
    restorative_leaves = [v for v in topo.leaves if v in touched]
    if len(restorative_leaves) <= 1:
        return True
    return None


def find_distribution(
    ic: Interconnection, budget: int = 14, jobs: int = 1
) -> Distribution | None:
    """Nontrivial distribution for the reduced interconnection, or None.

    Reinterprets the sign witness of the universality test: currents are
    the witness entries, potentials their image under the restorative
    incidence matrix.  Returns None exactly when the interconnection is
    universally synchronizing.  Raises ValueError for non-SS input and
    BudgetExceededError like the universality test.  ``jobs`` is accepted
    for compatibility and has no effect.
    """
    ric = graphs.reduce(ic)
    ssv = structural.is_ss(ric)
    if not ssv.is_ss:
        raise ValueError(f"distributions are defined for SS interconnections ({ssv.reason})")
    verdict = structural.is_sss(ric, budget=budget, jobs=jobs)
    if verdict.is_sss:
        return None
    assert verdict.witness is not None
    currents = tuple(Fraction(v) for v in verdict.witness.x)
    gr = incidence(ric.q, ric.restorative_edges).tolist()
    potentials = tuple(exactlin.matvec(gr, list(currents)))
    return Distribution(currents=currents, potentials=potentials)


def verify_distribution(ic: Interconnection, dist: Distribution) -> DistributionCheck:
    """Exact check of the local rules for a distribution.

    Verifies, over the rationals: A1 (each potential equals the vertex's
    net outgoing current), A2 (dissipative endpoints equipotential), A3
    (each current's sign matches its potential drop, zero iff endpoints
    equipotential), and the zero-sum of potentials.  Raises ValueError on
    shape mismatch with the reduced interconnection.
    """
    ric = graphs.reduce(ic)
    currents = [Fraction(v) for v in dist.currents]
    potentials = [Fraction(v) for v in dist.potentials]
    if len(currents) != ric.p_r:
        raise ValueError(
            f"distribution has {len(currents)} currents but the reduced "
            f"interconnection has {ric.p_r} restorative edges"
        )
    if len(potentials) != ric.q:
        raise ValueError(
            f"distribution has {len(potentials)} potentials for {ric.q} vertices"
        )
    failures: list[str] = []
    gr = incidence(ric.q, ric.restorative_edges).tolist()
    expected = exactlin.matvec(gr, currents)
    if any(p != e for p, e in zip(potentials, expected)):
        failures.append("A1")
    if any(potentials[k - 1] != potentials[l - 1] for k, l in ric.dissipative_edges):
        failures.append("A2")
    for c, (k, l) in zip(currents, ric.restorative_edges):
        drop = potentials[k - 1] - potentials[l - 1]
        if ((c > 0) - (c < 0)) != ((drop > 0) - (drop < 0)):
            failures.append("A3")
            break
    if sum(potentials, Fraction(0)) != 0:
        failures.append("zero-sum")
    return DistributionCheck(
        ok=not failures,
        trivial=all(c == 0 for c in currents),
        failures=tuple(failures),
    )
