"""Seeded workload generator for the xswap benchmark.

Every workload is a pure function of its seed: the same seed gives a
byte-identical event stream, offer book and reference. The generator
keeps an exact mirror of the service's live book. At each `clear` it
consumes precisely the offers that `swap::decompose_offers` matches
(every arc inside a strongly connected component of two or more
parties), so no stream carries a stale `expire`, and it records the
reference the correctness check compares against: for each clearing
point, the sorted (parties, transfers, leaders) of every component it
must produce. Leaders are the minimum feedback vertex set size, which
the library computes exactly for components this small.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

GROUP_CHAINS = ("xchain", "ychain", "zchain")
RING_CHAINS = ("achain", "bchain", "cchain", "dchain")

Offer = tuple  # (from, to, chain, asset)
Component = tuple  # (parties, transfers, leaders)


@dataclass
class Workload:
    """One generated input: the serve stream, and a batch book of every
    component the stream clears. Parties are renamed per clearing point
    in the book (`name.k`), so components of different clears stay
    disjoint and the book's reference is the stream's, flattened."""
    lines: list[str] = field(default_factory=list)
    # clearing point -> sorted components it must produce
    reference: list[list[Component]] = field(default_factory=list)
    final_unmatched: int = 0
    book: list[str] = field(default_factory=list)
    book_reference: list[Component] = field(default_factory=list)

    @property
    def events(self) -> int:
        return len(self.lines)

    def stream_text(self) -> str:
        return "".join(line + "\n" for line in self.lines)

    def book_text(self) -> str:
        return "".join(line + "\n" for line in self.book)


def offer_line(verb: str, offer: Offer) -> str:
    return f"{verb} {offer[0]} {offer[1]} {offer[2]} {offer[3]}"


def book_line(offer: Offer, point: int) -> str:
    """An offer matched at clearing point `point`, as a batch book line."""
    a, b, chain, asset = offer
    return f"{a}.{point} {b}.{point} {chain} {asset}"


def strongly_connected(nodes: list[str], arcs: list[tuple[str, str]]):
    """Tarjan's algorithm (iterative); returns a list of vertex sets."""
    adj: dict[str, list[str]] = {v: [] for v in nodes}
    for u, v in arcs:
        adj[u].append(v)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    comps: list[set[str]] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def acyclic(nodes: set[str], arcs: list[tuple[str, str]]) -> bool:
    indeg = {v: 0 for v in nodes}
    out: dict[str, list[str]] = {v: [] for v in nodes}
    for u, v in arcs:
        if u in nodes and v in nodes:
            out[u].append(v)
            indeg[v] += 1
    ready = [v for v in nodes if indeg[v] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return seen == len(nodes)


def min_fvs_size(nodes: list[str], arcs: list[tuple[str, str]]) -> int:
    """Minimum feedback vertex set size by subset enumeration (the
    components generated here have at most 16 parties and tiny FVS)."""
    for k in range(len(nodes) + 1):
        for removed in itertools.combinations(nodes, k):
            if acyclic(set(nodes) - set(removed), arcs):
                return k
    raise AssertionError("unreachable: removing every vertex is acyclic")


def matched_components(live: dict[str, Offer]):
    """Mirror of decompose_offers: returns (components, matched keys)."""
    nodes: dict[str, None] = {}
    arcs = []
    for o in live.values():
        nodes.setdefault(o[0])
        nodes.setdefault(o[1])
        arcs.append((o[0], o[1]))
    comp_of = {}
    big = []
    for comp in strongly_connected(list(nodes), arcs):
        if len(comp) >= 2:
            for v in comp:
                comp_of[v] = len(big)
            big.append(comp)
    members: list[list[str]] = [[] for _ in big]
    for key, o in live.items():
        c = comp_of.get(o[0])
        if c is not None and comp_of.get(o[1]) == c:
            members[c].append(key)
    comps = []
    for comp, keys in zip(big, members):
        comp_arcs = [(live[k][0], live[k][1]) for k in keys]
        comps.append((len(comp), len(keys),
                      min_fvs_size(sorted(comp), comp_arcs)))
    return sorted(comps), [k for keys in members for k in keys]


def grouped_stream(seed: int, *, groups: int, size: int, events: int,
                   clear_every: int, expire_p: float = 0.25,
                   intra_p: float = 0.85) -> Workload:
    """Grouped universe: `groups` groups of `size` parties, ~intra_p of
    offers inside a group, the rest forward-only bridges to the next
    group (never cyclic), 3 shared chain names, and a `clear` every
    clear_every events. A share expire_p of the offer events are exact
    expires of a random live offer, spread evenly between the adds so
    the live book grows the same way for every seed. Ends with a
    clear."""
    rng = random.Random(seed)
    live: dict[str, Offer] = {}
    wl = Workload()
    next_clear = clear_every
    expire_credit = 0.0
    while len(wl.lines) < events:
        if len(wl.lines) + 1 >= next_clear or len(wl.lines) + 1 == events:
            comps, matched = matched_components(live)
            for key in matched:
                wl.book.append(book_line(live.pop(key), len(wl.reference)))
            wl.lines.append("clear")
            wl.reference.append(comps)
            wl.book_reference.extend(comps)
            next_clear = len(wl.lines) + clear_every
            continue
        if live and expire_credit >= 1.0:
            expire_credit -= 1.0
            key = rng.choice(list(live))
            wl.lines.append(offer_line("expire", live.pop(key)))
            continue
        g = rng.randrange(groups)
        if rng.random() < intra_p or g + 1 == groups:
            a, b = rng.sample(range(size), 2)
            src, dst = f"G{g}P{a}", f"G{g}P{b}"
        else:
            src = f"G{g}P{rng.randrange(size)}"
            dst = f"G{g + 1}P{rng.randrange(size)}"
        offer = (src, dst, rng.choice(GROUP_CHAINS),
                 f"coin:TOK:{1 + rng.randrange(4)}")
        key = " ".join(offer)
        if key in live:
            continue  # duplicate of a live offer: redraw, emit nothing
        live[key] = offer
        wl.lines.append(offer_line("add", offer))
        expire_credit += expire_p / (1.0 - expire_p)
    wl.final_unmatched = len(live)
    wl.book_reference.sort()
    return wl


# One block of ring_book components: 17 rings whose sizes follow a
# geometric tail from 3 to 16 parties, and 3 complete digraphs (15%).
RING_BLOCK = ([("ring", n) for n in
               (3, 3, 3, 3, 4, 4, 4, 5, 5, 6, 6, 7, 8, 9, 11, 13, 16)] +
              [("complete", 4), ("complete", 4), ("complete", 5)])


def ring_book(seed: int, *, events: int, clear_every: int) -> Workload:
    """Strongly connected components of skewed size: rings of 3..16
    parties and complete digraphs on 4..5 parties (multi-leader FVS),
    every arc on one of 4 shared chain names. Components come in
    shuffled blocks of RING_BLOCK, so every seed has the same mix. The
    stream sends each component's offers in shuffled order and a `clear`
    after every clear_every whole components; whole blocks are added
    until the stream holds at least `events` lines. Ends with a clear."""
    rng = random.Random(seed)
    wl = Workload()
    pending: list[Component] = []
    pending_offers: list[Offer] = []
    block: list[tuple[str, int]] = []
    c = 0
    while wl.events < events or block:
        if not block:
            block = list(RING_BLOCK)
            rng.shuffle(block)
        kind, n = block.pop()
        if kind == "complete":
            pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
            comp = (n, len(pairs), n - 1)
        else:
            pairs = [(i, (i + 1) % n) for i in range(n)]
            comp = (n, n, 1)
        offers = [(f"C{c}P{a}", f"C{c}P{b}", rng.choice(RING_CHAINS),
                   f"coin:TOK:{1 + rng.randrange(100)}") for a, b in pairs]
        rng.shuffle(offers)
        wl.lines.extend(offer_line("add", o) for o in offers)
        pending_offers.extend(offers)
        pending.append(comp)
        wl.book_reference.append(comp)
        c += 1
        if len(pending) >= clear_every or not block and wl.events >= events:
            wl.book.extend(book_line(o, len(wl.reference))
                           for o in pending_offers)
            wl.lines.append("clear")
            wl.reference.append(sorted(pending))
            pending, pending_offers = [], []
    wl.book_reference.sort()
    return wl
