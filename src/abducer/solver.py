"""Minimum-weight explanation search as directed Steiner trees.

The search graph has one node per event, causal edges weighted ln(1/p),
isa edges weighted zero, and node weights ln(1/prior) on disorders (applied
only when comparing candidate roots).  The k lightest arborescences rooted
at a disorder and covering the observations are enumerated best-first with
a Dreyfus-Wagner style dynamic program over terminal bitmasks plus
Lawler partitioning (re-solving with forced/forbidden edge sets), and each
candidate tree is kept only if its scenario passes the canonical validity
check.

The enumeration is lazy (``_CandidateStream`` argues each step): every
heap entry but a tree waits under a lower bound on the weight of its
trees and is opened only when that reaches the top, and the stream stops
once the top is past the k-th accepted weight.  One base DP serves every
root: a root waits under its weight there, and its tree is extracted only
when it is popped.  A Lawler child first waits under its parent's weight,
then under a sharper bound from the base DP's distances to each
terminal, or is dropped when that bound shows it holds no tree.  Children
that provably hold no tree are never created, and an extension child
whose forced edge leaves the parent tree needs no DP: its optimum is the
parent tree plus that edge.

The taxonomy enters the search as an ordered table of tree rules: a
popped tree that breaks one is never yielded, and its first offending
edge splits its subspace into children that hold every tree the rule
keeps.  The clean rule drops trees that leave an observation uncovered
(only the culprit and link endpoints participate) or end in an isa leaf
that adds nothing to their scenario; an isa edge whose head has no
out-edge that could make it clean is dead, and the base DP and every
subspace forbid it up front.  The shadow rule drops trees that hold a
shadowed link (``scenario.shadow_table``) out of an event they enter
by isa; those out of a root's own isa ancestors, and out of the events
that no causal link enters, are forbidden in every subspace of that
root.  The validity check stays on every tree, because a link can still
be preempted in one scenario and not in another; ``explain`` hands it
the tree's own BFS order of links, which certifies nearly every valid
tree without a search.

The DP keeps one distance dict and one backpointer dict per terminal
subset, and a node enters them only when some relaxation reaches it, so
components unrelated to the terminals are never touched.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import namedtuple
from typing import Iterable, Iterator

from .errors import InconsistentConstraintsError, TooManyTerminalsError, UnknownEventError
from .kb import CausalNetwork, EventId, multi_roots, reachable
from .scenario import (
    WEIGHT_TIE_TOL,
    RankedExplanation,
    Scenario,
    check_query,
    is_valid_scenario,
    log_weight,
    order_and_rank,
    participants,
    raw_probability,
    shadow_table,
)

MAX_TERMINALS = 20

EdgeKey = tuple[str, str]


class WeightedSearchGraph:
    """The weights the DP reads, over event ids; an edge is its
    ``(src, dst)`` key.  Which edges are causal and where they lead is
    the network's to say (``CausalNetwork.successors`` and ``is_link``).

    ``weight`` maps the causal keys to their given weights and the isa keys
    to zero.  ``in_edges[v]`` lists v's in-edges as ``(weight, src, key)``,
    lightest first, ties broken by source."""

    __slots__ = ("node_set", "node_weight", "weight", "in_edges")

    def __init__(
        self,
        nodes: Iterable[str],
        causal: dict[EdgeKey, float],
        isa: Iterable[EdgeKey],
        node_weight: dict[str, float],
    ):
        self.node_set = frozenset(nodes)
        self.node_weight = dict(node_weight)
        self.weight = {**causal, **dict.fromkeys(isa, 0.0)}
        ins: dict[str, list[tuple[float, str, EdgeKey]]] = {}
        for e in sorted((w, k[0], k) for k, w in self.weight.items()):
            ins.setdefault(e[2][1], []).append(e)
        self.in_edges = {v: tuple(es) for v, es in ins.items()}


def build_search_graph(net: CausalNetwork) -> WeightedSearchGraph:
    """Causal edges ln(1/p), isa edges 0, disorder node weights ln(1/prior)."""
    causal = {(l.cause, l.effect): math.log(1.0 / l.cond_prob) for l in net.causal}
    isa = [(l.child, l.parent) for l in net.isa]
    node_weight = {
        n.id: math.log(1.0 / n.prior)
        for n in net.events
        if n.is_disorder and n.prior is not None
    }
    return WeightedSearchGraph((n.id for n in net.events), causal, isa, node_weight)


SteinerTree = namedtuple("SteinerTree", "root edges terminals total_weight")
SteinerTree.__doc__ = """An arborescence; its edges are ``(src, dst)`` keys in
root-down BFS order, the format ``steiner_dp`` takes its constraints in."""


class DPTable:
    """One Steiner DP: its constraints, and once ``_run_dp`` has filled it,
    one distance dict and one backpointer dict per terminal bitmask.

    Each forced chain is contracted into its top: ``super_of`` maps the
    chain's other members to it, and every other node is its own super
    node.  A super node's in-edges are filtered from the graph's on first
    use: forbidden edges and edges from its own component are dropped, and
    only the first (lightest) edge from each super source is kept.
    ``dist[mask][v]`` is v's weight over the terminal nodes in mask, and
    ``backs[mask][v]`` is None for a base entry, the submask s of a merge
    of s and mask ^ s, or ``(next, key)`` for an edge.
    """

    __slots__ = (
        "g", "forbidden", "super_of", "term_nodes", "forced_edges", "terminals",
        "in_adj", "dist", "backs", "relaxations",
    )

    def __init__(self, g, forbidden, super_of, term_nodes, forced_edges, terminals):
        self.g = g
        self.forbidden = forbidden
        self.super_of = super_of
        self.term_nodes = term_nodes
        self.forced_edges = forced_edges
        self.terminals = terminals
        self.in_adj: dict[str, list[tuple[float, str, EdgeKey]]] = {}
        self.dist: dict[int, dict[str, float]] = {}
        self.backs: dict[int, dict[str, object]] = {}
        self.relaxations = 0

    @property
    def entry_count(self) -> int:
        return sum(map(len, self.backs.values()))

    def touched_nodes(self) -> frozenset[str]:
        return frozenset().union(*self.backs.values())

    def in_edges(self, v: str) -> list[tuple[float, str, EdgeKey]]:
        """(weight, super source, key) for the edges into super node v."""
        adj = self.in_adj.get(v)
        if adj is None:
            adj = self.in_adj[v] = []
            seen = {v}
            for w, src, k in self.g.in_edges.get(v, ()):
                su = self.super_of.get(src, src)
                if su not in seen and k not in self.forbidden:
                    seen.add(su)
                    adj.append((w, su, k))
        return adj


class SolveStats:
    """Aggregated instrumentation across the DP runs of one query."""

    __slots__ = ("dp_runs", "relaxations", "table_entries", "touched_nodes")

    def __init__(self) -> None:
        self.dp_runs = 0
        self.relaxations = 0
        self.table_entries = 0
        self.touched_nodes: set[str] = set()

    def absorb(self, table: DPTable) -> None:
        self.dp_runs += 1
        self.relaxations += table.relaxations
        self.table_entries += table.entry_count
        self.touched_nodes |= table.touched_nodes()


def _build_problem(
    g: WeightedSearchGraph,
    root: str,
    terminals: tuple[str, ...],
    forced_keys: frozenset[EdgeKey],
    forbidden_keys: frozenset[EdgeKey],
) -> DPTable | None:
    """The unfilled table of a constrained instance, or None when the forced
    edges give a node two parents, enter the root or close a cycle."""
    forced_edges = tuple(sorted(forced_keys))

    head_of: dict[str, str] = {}
    for src, dst in forced_edges:
        if dst in head_of:
            return None
        head_of[dst] = src
    if root in head_of:
        return None
    # Each chain's top is found once: a walk stops at the first node whose
    # top is known and hands that top to every node it crossed.
    super_of: dict[str, str] = {}
    for v in head_of:
        path = []
        on_path = set()
        u = v
        while u in head_of and u not in super_of:
            if u in on_path:
                return None
            path.append(u)
            on_path.add(u)
            u = head_of[u]
        top = super_of.get(u, u)
        for w in path:
            super_of[w] = top

    # The root's own bit costs nothing (its base entry is zero), so it is no
    # terminal node; every forced prefix contracts into it.
    term_nodes = {super_of.get(t, t) for t in terminals} | set(super_of.values())
    term_nodes.discard(root)
    return DPTable(g, forbidden_keys, super_of, tuple(sorted(term_nodes)), forced_edges, terminals)


def _run_dp(table: DPTable) -> None:
    """Fill the bitmask DP: the single-terminal masks, then, if some node
    lies in all of them, every other mask in increasing order.  Otherwise
    no node reaches every terminal node, so no tree exists, and no other
    mask is filled: a query that nothing explains never pays 3^t."""
    terms = table.term_nodes
    nt = len(terms)
    dists, backs_by_mask = table.dist, table.backs
    for i, t in enumerate(terms):
        dists[1 << i] = dist = {t: 0.0}
        backs_by_mask[1 << i] = backs = {t: None}
        table.relaxations += _settle(table, dist, backs)
    if nt > 1 and not set(dists[1]).intersection(*(dists[1 << i] for i in range(1, nt))):
        return

    inf = math.inf
    relaxations = 0
    for mask in range(3, 1 << nt):
        if mask & (mask - 1) == 0:
            continue
        dists[mask] = dist = {}
        backs_by_mask[mask] = backs = {}
        low = mask & -mask
        s1 = (mask - 1) & mask
        while s1 > 0:
            if s1 & low:
                d1, d2 = dists[s1], dists[mask ^ s1]
                relaxations += len(d1)
                for v, w1 in d1.items():
                    w2 = d2.get(v)
                    if w2 is None:
                        continue
                    cand = w1 + w2
                    if cand < dist.get(v, inf):
                        dist[v] = cand
                        backs[v] = s1
            s1 = (s1 - 1) & mask
        relaxations += _settle(table, dist, backs)
    table.relaxations += relaxations


def _settle(table: DPTable, dist: dict[str, float], backs: dict[str, object]) -> int:
    """Extend one mask's entries along in-edges, lightest first; returns
    the number of edges relaxed."""
    in_adj, in_edges = table.in_adj, table.in_edges
    inf = math.inf
    relaxations = 0
    heap = [(w, v) for v, w in dist.items()]
    heapq.heapify(heap)
    while heap:
        d, v = heapq.heappop(heap)
        # No weight is negative, so v is popped at dist[v] only once.
        if d > dist[v]:
            continue
        es = in_adj.get(v)
        if es is None:
            es = in_edges(v)
        relaxations += len(es)
        for w, u, k in es:
            nd = d + w
            if nd < dist.get(u, inf):
                dist[u] = nd
                backs[u] = (v, k)
                heapq.heappush(heap, (nd, u))
    return relaxations


def _canonicalize(
    g: WeightedSearchGraph, root: str, keys: Iterable[EdgeKey], terminals: Iterable[str]
) -> tuple[tuple[EdgeKey, ...], float]:
    """Extract a deterministic arborescence from a traced key set."""
    out: dict[str, list[EdgeKey]] = {}
    for k in sorted(set(keys)):
        out.setdefault(k[0], []).append(k)
    visited = {root}
    queue = [root]
    chosen: list[EdgeKey] = []
    for v in queue:
        for k in out.get(v, ()):
            if k[1] not in visited:
                visited.add(k[1])
                chosen.append(k)
                queue.append(k[1])
    missing = set(terminals) - visited
    if missing:
        raise AssertionError(f"tree misses terminals {sorted(missing)}")
    weight = 0.0
    for k in sorted(chosen):
        weight += g.weight[k]
    return tuple(chosen), weight


def _extract(table: DPTable, root: str) -> SteinerTree | None:
    # A root is never the head of a forced edge, so it is its own super node.
    full = (1 << len(table.term_nodes)) - 1
    acc: set[EdgeKey] = set(table.forced_edges)
    if full:
        if root not in table.dist.get(full, ()):
            return None
        todo = [(root, full)]
        while todo:
            node, mask = todo.pop()
            back = table.backs[mask][node]
            if type(back) is int:
                todo += (node, back), (node, mask ^ back)
            elif back is not None:
                acc.add(back[1])
                todo.append((back[0], mask))
    edges, weight = _canonicalize(table.g, root, acc, table.terminals)
    return SteinerTree(root, edges, frozenset(table.terminals), weight)


def _check_terminal_count(terms: tuple[str, ...]) -> None:
    if len(terms) > MAX_TERMINALS:
        raise TooManyTerminalsError(f"{len(terms)} terminals exceed {MAX_TERMINALS}")


def steiner_dp(
    g: WeightedSearchGraph,
    root: str,
    terminals: Iterable[str],
    forced: Iterable[EdgeKey] = (),
    forbidden: Iterable[EdgeKey] = (),
) -> tuple[SteinerTree | None, DPTable]:
    """Minimum arborescence rooted at root covering the terminals.

    ``forced`` edges must appear in the tree (realized by contracting them),
    ``forbidden`` edges must not; both are given as ``(src, dst)`` tuples,
    the format of ``SteinerTree.edges``.
    Returns (None, table) when no tree exists.
    """
    term_set = frozenset(terminals)
    terms = tuple(sorted(term_set))
    if root not in g.node_set:
        raise UnknownEventError(f"unknown event: {root}")
    if not term_set <= g.node_set:
        t = next(t for t in terms if t not in g.node_set)
        raise UnknownEventError(f"unknown event: {t}")
    _check_terminal_count(terms)
    forced_keys = frozenset(forced)
    forbidden_keys = frozenset(forbidden)
    if not (g.weight.keys() >= forced_keys and forced_keys.isdisjoint(forbidden_keys)):
        for k in sorted(forced_keys):
            if k not in g.weight:
                raise InconsistentConstraintsError(f"forced edge {k[0]}->{k[1]} not in graph")
            if k in forbidden_keys:
                raise InconsistentConstraintsError(f"edge {k[0]}->{k[1]} both forced and forbidden")

    table = _build_problem(g, root, terms, forced_keys, forbidden_keys)
    if table is None:
        return None, DPTable(g, forbidden_keys, {}, (), (), terms)
    _run_dp(table)
    return _extract(table, root), table


def tree_to_scenario(net: CausalNetwork, tree: SteinerTree) -> Scenario:
    """Drop the edges that are isa links of net; the others become the
    scenario's causations.

    The shape is not checked here: ``is_valid_scenario`` rejects an effect
    caused twice, a caused culprit, a link that cannot attach and a
    non-link.
    """
    return Scenario.make(tree.root, [k for k in tree.edges if k[1] not in net.parents_of(k[0])])


class _CandidateStream:
    """Best-first Lawler enumeration of candidate trees over several roots.

    The stream weighs edges by its search graph and asks the network which
    are causal and where they lead.  It yields (weight, root, tree) with
    weight = root node weight + tree weight, in non-decreasing order, and
    stops once the top key of its heap is past ``bound`` (infinite until
    the caller lowers it): every tree a heap entry holds weighs at least
    its key, so no tree it skips is within the bound.  Emitted trees are
    partitioned away by two kinds of subproblem: excluding one tree edge
    (forcing the preceding prefix), and strict extensions (forcing the
    whole tree plus one further causal edge, earlier-ordered extension
    edges forbidden).  The second kind makes the stream cover non-minimal
    candidates, whose extra branches explain nothing but are still
    legitimate scenarios.

    Every heap entry but a tree waits unopened under a key ``(lb, tag)``:
    lb bounds the weight of its trees from below, less ``WEIGHT_TIE_TOL``
    so that float rounding never lets a tree overtake an entry that could
    tie with it, and the negative tag sorts before every tree key
    ``(w, len(edges), edges, root)``.  So an entry is opened (and its tree
    pushed under its real key) before any tree it could precede, the yield
    order is that of opening every entry eagerly, an entry may be re-keyed
    under any sharper bound, and one bounded past the stop is never
    opened.  A root r waits keyed ``(w(r) + d_r, -3)``, d_r its full-mask
    weight in the base DP that every root shares (a root that DP does not
    reach is never pushed); only a popped root has its tree extracted and
    banned(r) (below) computed.  A rule or exclusion child waits keyed
    ``(lb, -2)``, lb its parent's weight; every extension child waits
    keyed ``(lb + w(f), -1)``, f its forced edge, and is built when popped.

    A ``-2`` child that reaches the top is bounded once (``_lower_bound``),
    then re-keyed ``(b, -1)`` if its bound b exceeds lb, dropped if b is
    infinite, and solved otherwise; a child keyed ``-1`` is solved when
    popped.  The bound needs the child's forced edges F to hang from its
    root r: every source of F is r or a head of F.  Let N = {r} + heads(F).
    Every tree of the child holds F, which joins N to r, and for each
    terminal t outside N a path from r to t; after its last node a in N,
    that path leaves N by an edge (a, z) outside the forbidden set, with z
    outside N, and goes on to t without F, whose edges all end in N.  The
    edges of F and of each such path are disjoint, and no weight is
    negative, so the tree weighs at least
    w(r) + w(F) + max_t min_(a,z) [w(a, z) + d_t(z)], with d_t(z) z's
    distance to t in the graph less its dead edges (below), which the base
    DP's single-terminal masks hold.  A terminal with no such exit leaves
    the child empty, and the bound infinite.  Children whose forced edges
    do not hang from the root keep their parent's weight.

    The extension child of a yielded tree T of (F, X) for the i-th edge f
    of ``_extension_edges(r)`` holds T, i and X, shared with its siblings
    and not copied, so a yielded tree costs O(|ext|) however many children
    it defers.  When popped, ``_solve_child`` builds its sets:
    F' = keys(T) + f and X' = X + (ext[:i] - keys(T)).  It is never
    bounded.  If f's source is r or a head of T, T + f is an arborescence
    that covers the terminals and avoids X', and every tree holding the
    forced T + f weighs at least that, so the key is its weight; it is
    built by ``_canonicalize``, in which the DP's extraction ends, with the
    DP's edge order and weight bits (the DP would trace no edge beyond the
    forced ones), and no DP runs.  Otherwise f's source lies outside T, so
    F' does not hang from r and its bound would be minus infinity.  An
    extension edge whose head is in T would give a node two parents, so
    its child is never created; X' still forbids it to later siblings.

    Before a popped tree T of subproblem (F, X) is yielded it meets
    ``_rules``, an ordered table of tree rules.  A rule looks at T alone
    and returns None or a split: an edge e of T and an ordered list of
    fixes (A_i, B_i), keys to force and to forbid besides e, where T
    satisfies no fix (it lacks a key of A_i or holds one of B_i) and each
    fix forbids a key of every earlier fix's A_i.  The first rule that
    splits T drops it and defers, under ``(w(T) - WEIGHT_TIE_TOL, -2)``
    and so bounded when popped, (F, X + e) unless e is forced, and
    (F + e + A_i, X + B_i) for each fix whose A_i misses X and whose B_i
    misses F.

    The split is exact.  The children lie inside (F, X) and are disjoint:
    the first forbids e, the others force it, and of two fixes the later
    forbids a key the earlier forces.  A tree of (F, X) without e lies in
    the first child, and one with e that satisfies a fix lies in that
    fix's child (a skipped fix holds no tree of (F, X)).  So the trees
    dropped are those that hold e and satisfy no fix, T among them.  Since
    T is one, every child adds a key it lacks, and splits terminate.  A
    rule then needs one claim of its own: no tree it drops is needed.  The
    only trees a yielded tree's own children leave out are its supersets
    by isa edges alone, which end in an isa leaf that the clean rule
    splits, so the stream yields each tree that passes every rule once, in
    the order and with the weight that the rule-free stream yields it.

    The clean rule (``_unclean_edge``): every isa edge's head has an
    out-edge in the tree, and a terminal entered by an isa edge has a causal
    one.  Its e = c->x is the first isa edge, in T's BFS order, that breaks
    this; x's qualifying out-edges g_1, g_2, ... lead to ``effects_of(x)``
    if x is a terminal and to ``successors(x)`` if not, and the fixes are
    ({g_i}, {g_1 .. g_i-1}).  A dropped tree gives x no qualifying
    out-edge, so either x is an observation it does not cover, and the tree
    is never an explanation, or x is a non-terminal isa leaf, and removing e
    leaves a tree with the same scenario and weight.  An isa edge c->x is
    dead (``_dead``) when x has no qualifying out-edge in the graph: the
    rule splits every tree holding it with no fix, into (F, X + e) alone.
    That split is made up front: the base DP and every subspace forbid the
    dead edges, so no popped tree holds one.  Two clean trees can still map
    to one scenario when isa routes join (an isa diamond), which is why
    ``explain`` keeps its ``seen`` set.

    The shadow rule is the method ``shadowed(r, x)``: the causal edges out
    of x that no tree rooted at r may hold where x is never a maximal
    participant.  It reads r's ``scenario.shadow_table``, built once per
    query from ``reach(r)`` and climb passes that the query's roots share.
    Where x is a proper isa ancestor of r, or an event other than r that no
    causal link enters, that is every tree, so these edges, ``_banned(r)``,
    are forbidden in every subspace of r: a popped root whose base tree
    uses one defers the child (F = {}, X = banned(r)) under its own key
    instead, and every child keeps its parent's forbidden keys.  Elsewhere
    the rule holds for the trees that enter x by an isa edge, which
    ``_shadowed_edge`` enforces: its e = x->y is the first causal edge, in
    T's BFS order, whose source T enters by isa and which
    ``shadowed(r, x)`` names, and its one fix forbids x's isa in-edges.  A
    dropped tree holds e and enters x by isa, so it is never valid.  Where
    e would be banned it never fires.

    A yielded tree's children that provably hold no tree are never
    deferred (``_partition``): the exclusion child of an edge that every
    tree of the subspace holds (``_pinned``), and an extension child
    whose forced edge's source has every in-edge forbidden.  Only empty
    children vanish, so the yield order is unchanged; a causal chain
    runs one DP.
    """

    def __init__(
        self,
        net: CausalNetwork,
        roots: Iterable[str],
        terminals: Iterable[str],
        stats: SolveStats | None = None,
    ):
        self.net = net
        self.g = g = build_search_graph(net)
        self._reach: dict[str, frozenset[str]] = {}
        self._shadow: dict[str, dict[str, frozenset[EdgeKey]]] = {}
        self._passes: dict[str, dict[str, set[str]]] = {}
        self.bound = math.inf
        self.terminals = tuple(sorted(set(terminals)))
        _check_terminal_count(self.terminals)
        self._term_set = frozenset(self.terminals)
        self.stats = stats
        self._counter = itertools.count()
        self._heap: list[tuple] = []
        self._ext_cache: dict[str, tuple[EdgeKey, ...]] = {}
        self._dead = self._dead_edges()
        self._base = base = DPTable(g, self._dead, {}, self.terminals, (), self.terminals)
        _run_dp(base)
        if self.stats is not None:
            self.stats.absorb(base)
        # Each terminal's mask holds every node's distance to it.
        self._dist = [base.dist[1 << i] for i in range(len(self.terminals))]
        tops = base.dist.get((1 << len(self.terminals)) - 1, {})
        for r in sorted(set(roots)):
            w = tops.get(r) if self.terminals else 0.0
            if w is not None:
                lb = self._root_weight(r) + w - WEIGHT_TIE_TOL
                heapq.heappush(self._heap, ((lb, -3), next(self._counter), r, None, None, None))

    def _root_weight(self, root: str) -> float:
        return self.g.node_weight.get(root, 0.0)

    def _dead_edges(self) -> frozenset[EdgeKey]:
        """The isa edges that the clean rule splits with no fix."""
        net, terms = self.net, self._term_set
        return frozenset(
            (c, x) for c, x in net.isa if not (net.effects_of if x in terms else net.successors)(x)
        )

    def _open(self, lb: float, root: str) -> None:
        """Push root's base tree, or defer (F = {}, X = banned(root))."""
        tree = _extract(self._base, root)
        forbidden = self._banned(root) | self._dead
        if forbidden.isdisjoint(tree.edges):
            self._push(root, frozenset(), forbidden, tree)
        else:
            self._defer(lb, root, frozenset(), forbidden)

    def reach(self, root: str) -> frozenset[str]:
        """The events root reaches, walked once per query."""
        got = self._reach.get(root)
        if got is None:
            got = self._reach[root] = reachable(self.net, root)
        return got

    def shadowed(self, root: str, x: str) -> frozenset[EdgeKey]:
        """The shadow rule: the causal edges out of x that no tree rooted at
        root holds where x is never a maximal participant.  The culprit is
        always maximal, so none of root's own; all of x's when no attach
        point below root specializes x."""
        if x == root:
            return frozenset()
        table = self._shadow.get(root)
        if table is None:
            table = self._shadow[root] = shadow_table(self.net, root, self.reach(root), self._passes)
        got = table.get(x)
        return got if got is not None else frozenset((x, y) for y in self.net.effects_of(x))

    def _banned(self, root: str) -> frozenset[EdgeKey]:
        """The rule edges that every subspace of root forbids: those out of
        the events root reaches, other than root, that are on its isa
        climb or that no causal link enters."""
        climb, causes_of = self.net.isa_star(root), self.net.causes_of
        banned = [x for x in self.reach(root) if x != root and (x in climb or not causes_of(x))]
        return frozenset().union(*(self.shadowed(root, x) for x in banned))

    def _extension_edges(self, root: str) -> tuple[EdgeKey, ...]:
        """The causal edges whose source root reaches, in key order."""
        cached = self._ext_cache.get(root)
        if cached is None:
            keys = sorted((v, w) for v in self.reach(root) for w in self.net.effects_of(v))
            cached = self._ext_cache[root] = tuple(keys)
        return cached

    def _push(self, root: str, forced: frozenset, forbidden: frozenset, tree: SteinerTree) -> None:
        w = self._root_weight(root) + tree.total_weight
        key = (w, len(tree.edges), tree.edges, root)
        heapq.heappush(self._heap, (key, next(self._counter), root, forced, forbidden, tree))

    def _defer(self, lb: float, root: str, forced, forbidden: frozenset, parent=None) -> None:
        """Push a child unsolved: keyed -2 until it is bounded, or -1 for an
        extension child, whose forced slot holds its edge's index."""
        tag = -2 if parent is None else -1
        heapq.heappush(self._heap, ((lb, tag), next(self._counter), root, forced, forbidden, parent))

    def _lower_bound(self, root: str, forced: frozenset, forbidden: frozenset) -> float:
        """A lower bound on the weight of every tree of (forced, forbidden):
        infinite when it holds none, and minus infinity when the forced
        edges do not hang from root (see the class docstring)."""
        inside = {dst for _, dst in forced}
        inside.add(root)
        for src, _ in forced:
            if src not in inside:
                return -math.inf
        weight, successors = self.g.weight, self.net.successors
        exits = [
            (weight[a, z], z)
            for a in inside
            for z in successors(a)
            if z not in inside and (a, z) not in forbidden
        ]
        far = 0.0
        for t, dist in zip(self.terminals, self._dist):
            if t not in inside:
                near = math.inf
                for w, z in exits:
                    d = dist.get(z)
                    if d is not None and w + d < near:
                        near = w + d
                far = max(far, near)
        return self._root_weight(root) + math.fsum([weight[k] for k in forced]) + far - WEIGHT_TIE_TOL

    def _solve_child(self, root: str, forced, forbidden: frozenset, parent) -> None:
        """Solve a popped child; an extension child's sets are built here."""
        if parent is not None:
            ext, keys = self._extension_edges(root), frozenset(parent.edges)
            f = ext[forced]
            forbidden = forbidden.union(k for k in ext[:forced] if k not in keys)
            forced = keys | {f}
            if f[0] == root or any(k[1] == f[0] for k in parent.edges):
                edges, w = _canonicalize(self.g, root, forced, self.terminals)
                self._push(root, forced, forbidden, SteinerTree(root, edges, self._term_set, w))
                return
        child, table = steiner_dp(self.g, root, self.terminals, forced, forbidden)
        if self.stats is not None:
            self.stats.absorb(table)
        if child is not None:
            self._push(root, forced, forbidden, child)

    def _unclean_edge(self, root: str, tree: SteinerTree) -> tuple[EdgeKey, list] | None:
        """The clean rule's split of tree, or None (see the class docstring)."""
        net, terms = self.net, self._term_set
        isa = [k for k in tree.edges if not net.is_link(*k)]
        srcs = {k[0] for k in tree.edges}
        causes = {k[0] for k in tree.edges if k not in isa}
        for e in isa:
            x = e[1]
            if x not in (causes if x in terms else srcs):
                outs = [(x, y) for y in (net.effects_of if x in terms else net.successors)(x)]
                return e, [((g,), outs[:i]) for i, g in enumerate(outs)]
        return None

    def _shadowed_edge(self, root: str, tree: SteinerTree) -> tuple[EdgeKey, list] | None:
        """The shadow rule's split of tree, or None (see the class docstring)."""
        is_link = self.net.is_link
        entered = {k[1] for k in tree.edges if not is_link(*k)}
        for e in tree.edges:
            x = e[0]
            if x in entered and is_link(*e) and e in self.shadowed(root, x):
                return e, [((), [k for _, _, k in self.g.in_edges[x] if not is_link(*k)])]
        return None

    _rules = (_unclean_edge, _shadowed_edge)

    def __iter__(self) -> Iterator[tuple[float, str, SteinerTree]]:
        while self._heap and self._heap[0][0][0] <= self.bound:
            key, _, root, forced, forbidden, tree = heapq.heappop(self._heap)
            if key[1] == -3:
                self._open(key[0], root)
                continue
            if key[1] == -2:
                lb = self._lower_bound(root, forced, forbidden)
                if lb > key[0]:
                    if lb < math.inf:
                        entry = ((lb, -1), next(self._counter), root, forced, forbidden, None)
                        heapq.heappush(self._heap, entry)
                    continue
            if key[1] < 0:
                self._solve_child(root, forced, forbidden, tree)
                continue
            lb = key[0] - WEIGHT_TIE_TOL
            for rule in self._rules:
                split = rule(self, root, tree)
                if split is not None:
                    break
            if split is None:
                yield key[0], root, tree
                self._partition(lb, root, forced, forbidden, tree)
                continue
            e, fixes = split
            if e not in forced:
                self._defer(lb, root, forced, forbidden | {e})
            for more_forced, more_forbidden in fixes:
                if forbidden.isdisjoint(more_forced) and forced.isdisjoint(more_forbidden):
                    self._defer(lb, root, forced.union((e,), more_forced), forbidden.union(more_forbidden))

    def _pinned(self, tree: SteinerTree, forced: frozenset, forbidden: frozenset) -> set[EdgeKey]:
        """Edges of tree that every tree of (forced, forbidden) holds.

        Every tree of the subspace holds the terminals and the ends of the
        forced edges.  If it holds a node v whose only in-edge outside
        ``forbidden`` is v's edge in tree, it holds that edge and so the
        edge's source.  A reverse walk of tree's BFS order meets v's
        out-edges before its in-edge.
        """
        in_edges = self.g.in_edges
        needed = set(self._term_set).union(*forced)
        pinned: set[EdgeKey] = set()
        for e in reversed(tree.edges):
            if e[1] in needed and sum(k not in forbidden for _, _, k in in_edges[e[1]]) == 1:
                pinned.add(e)
                needed.add(e[0])
        return pinned

    def _partition(self, lb: float, root: str, forced: frozenset, forbidden: frozenset, tree: SteinerTree) -> None:
        """Defer a yielded tree's Lawler children, less the empty ones named
        in the class docstring.  ``sup_forbidden`` also takes the tree's
        edges, but they enter heads, so the in-edge test never reads them."""
        pinned = self._pinned(tree, forced, forbidden)
        prefix = set(forced)
        for e in tree.edges:
            if e in forced:
                continue
            if e not in pinned:
                self._defer(lb, root, frozenset(prefix), forbidden | {e})
            prefix.add(e)

        heads = {root} | {k[1] for k in tree.edges}
        sup_forbidden = set(forbidden)
        weight, in_edges = self.g.weight, self.g.in_edges
        for i, f in enumerate(self._extension_edges(root)):
            s = f[0]
            if f[1] not in heads and f not in forbidden and (
                s in heads or not sup_forbidden.issuperset(k for _, _, k in in_edges.get(s, ()))
            ):
                self._defer(lb + weight[f], root, i, forbidden, tree)
            sup_forbidden.add(f)


def explain(
    net: CausalNetwork,
    observations: Iterable[EventId],
    k: int = 1,
    multi: bool = False,
    stats: SolveStats | None = None,
) -> list[RankedExplanation]:
    """The k most probable explanations of the observations.

    Single mode roots the search at each disorder; multi mode explains
    through the distinguished root, as ``kb.multi_roots`` and the oracle
    take it.  Shadowed links are never offered.  Once k explanations are accepted,
    the stream stops past the k-th lightest of their weights (plus
    ``WEIGHT_TIE_TOL``), so no root or child bounded past it is opened.
    Fewer than k results are returned when fewer explanations exist.
    """
    obs = check_query(net, observations, k)
    work, roots = multi_roots(net) if multi else (net, net.disorders)
    if not roots:
        return []

    found: list[tuple[Scenario, float, float]] = []
    seen: set[Scenario] = set()
    stream = _CandidateStream(work, roots, obs, stats)
    for _, _, tree in stream:
        scenario = tree_to_scenario(work, tree)
        # Clean trees can still share a scenario: two isa routes from one
        # participant to one link's cause give two trees, one scenario.
        if scenario in seen:
            continue
        seen.add(scenario)
        # A clean tree covers every observation (see _CandidateStream).
        if not obs <= participants(work, scenario):
            raise AssertionError(f"{scenario!r} misses an observation")
        order = [e for e in tree.edges if e in scenario.causations]
        if is_valid_scenario(work, scenario, order):
            found.append(
                (scenario, log_weight(work, scenario), raw_probability(work, scenario))
            )
            if len(found) >= k:
                stream.bound = sorted(t[1] for t in found)[k - 1] + WEIGHT_TIE_TOL
    return order_and_rank(found)[:k]
