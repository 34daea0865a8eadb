"""Muller automata over powerset alphabets with symbolic propositional guards.

A letter of the alphabet is a subset of the automaton's action signature.
Transitions carry guards, which are the ``sigcat`` formulas without ``X`` and
``U`` (an automaton rejects any other); a transition exists for every letter
satisfying the guard.  All semantic work (products, reducts, homomorphism
checks, acceptance, emptiness) happens on the guard semantics -- bitmasks
indexed by letters -- never on guard syntax.

Letter-set semantics lives here.  ``boolean_mask`` is the one evaluator of
``!``, ``&`` and ``|`` over bitmasks; ``guard_mask`` runs it on atom columns.
``MullerAutomaton.moves`` turns an automaton's transitions into masks once
and caches them; the searches read it and ``edge_masks`` merges it.
``product`` masks its factors' transitions itself, because it needs their
guards and their global order.

``product`` builds the full categorical product over every state tuple.
Emptiness of an intersection never needs it: ``find_accepted_lasso`` takes
the factors themselves and explores their product on the fly, from the
initial state tuples only.  A path-based SCC search accepts a partial SCC as
soon as a closing cycle puts the states of its nodes into every factor's
family, and tests every other SCC when it completes; it stops at the first
live set.  The witness prefix keeps to nodes the search has expanded (its
DFS path and that SCC), and the edge cache keeps one letter per edge (the
lowest enabling one), not its letter mask.
``accepts`` runs the same search on the automaton and the lasso's own
one-run automaton.

Final-state families come in several closed forms; each unfolds itself into
a disjunction of "hit these state sets / stay within this state set"
constraints, which is what acceptance and emptiness search on.  Membership
of a candidate infinity set is read off its unfolding over that set.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .sigcat import (
    FALSE,
    TRUE,
    ActionSignature,
    And,
    Atom,
    Formula,
    Next,
    Not,
    Or,
    SignatureMorphism,
    Until,
    land,
    lnot,
    lor,
    ordered_actions,
    translate,
)

# ---------------------------------------------------------------------------
# Guards

# a guard is a formula, so the guard constructors are the formula constructors
g_atom, g_not, g_and = Atom, lnot, land


def guard_atoms(g: Formula) -> frozenset[str]:
    """The actions a guard mentions; temporal operators raise ValueError."""
    if isinstance(g, (Next, Until)):
        raise ValueError("temporal operators are not allowed in guards")
    if isinstance(g, Atom):
        return frozenset({g.action})
    if isinstance(g, Not):
        return guard_atoms(g.sub)
    if isinstance(g, (And, Or)):
        return frozenset().union(*map(guard_atoms, g.subs))
    raise TypeError(g)


# Letters of a signature with n actions are indexed 0 .. 2^n - 1; bit i of a
# letter index says whether action number i (in ordered_actions order) is in
# the letter.  A guard's semantics is the bitmask over all letter indices.


@lru_cache(maxsize=None)
def atom_column(n_actions: int, i: int) -> int:
    """Bitmask over 2^n letter indices whose i-th action bit is set."""
    mask = ((1 << (1 << i)) - 1) << (1 << i)  # 2^i zeros then 2^i ones
    for k in range(i + 1, n_actions):
        mask |= mask << (1 << k)  # repeat the first 2^k letters once more
    return mask


def full_mask(sig: ActionSignature) -> int:
    return (1 << (1 << len(sig.actions))) - 1


def boolean_mask(h: Formula, leaf, full: int) -> int:
    """The bitmask of a ``Not``/``And``/``Or`` combination, given ``leaf(h)``,
    the mask of every other subformula, and ``full``, the mask of true."""
    if isinstance(h, Not):
        return full ^ boolean_mask(h.sub, leaf, full)
    if isinstance(h, And):
        m = full
        for s in h.subs:
            m &= boolean_mask(s, leaf, full)
        return m
    if isinstance(h, Or):
        m = 0
        for s in h.subs:
            m |= boolean_mask(s, leaf, full)
        return m
    return leaf(h)


def guard_mask(g: Formula, sig: ActionSignature) -> int:
    """Semantics of a guard: one bit per letter of the signature."""
    actions = ordered_actions(sig)
    index = {a: i for i, a in enumerate(actions)}

    def atom(h: Formula) -> int:
        if not isinstance(h, Atom):
            raise TypeError(h)
        if h.action not in index:
            raise ValueError(f"guard atom {h.action!r} outside signature")
        return atom_column(len(actions), index[h.action])

    return boolean_mask(g, atom, full_mask(sig))


def bit_positions(mask: int):
    """Positions of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def letter_at(index: int, sig: ActionSignature) -> frozenset[str]:
    actions = ordered_actions(sig)
    return frozenset(a for i, a in enumerate(actions) if index & (1 << i))


def mask_to_guard(mask: int, sig: ActionSignature) -> Formula:
    """Synthesize a guard with the given semantics by Shannon expansion on
    the highest action: the mask's lower half is the letters without that
    action and its upper half the letters with it; equal halves drop the
    action.  The empty mask is ``false`` and the full one ``true``."""
    actions = ordered_actions(sig)

    def expand(m: int, n: int) -> Formula:
        if m == 0:
            return FALSE
        if m == (1 << (1 << n)) - 1:
            return TRUE
        half = 1 << (n - 1)
        low, high = m & ((1 << half) - 1), m >> half
        if low == high:
            return expand(low, n - 1)
        x = Atom(actions[n - 1])
        return lor(land(Not(x), expand(low, n - 1)), land(x, expand(high, n - 1)))

    return expand(mask, len(actions))


# ---------------------------------------------------------------------------
# Final-state families

# A "requirement disjunct" is a pair (hits, withins): the candidate infinity
# set must intersect every set in `hits` and stay inside every set in
# `withins`.  A family unfolds over a state set into a disjunction of such
# constraints, each hit-set a subset of that state set; a non-empty subset
# meets some disjunct exactly when it is a member.


@dataclass(frozen=True)
class FinalFamily:
    def contains(self, s) -> bool:
        """Is the state set a member?  It is when it is non-empty and meets
        some disjunct of the family unfolded over it."""
        s = frozenset(s)
        return bool(s) and any(
            all(hits) and all(s <= w for w in withins) for hits, withins in self.dnf(s)
        )

    def dnf(self, states: frozenset):
        raise NotImplementedError

    def check_states(self, states: frozenset) -> None:
        """Raise ``ValueError`` when the family names a state outside
        ``states``; a family that names none has nothing to check."""


@dataclass(frozen=True)
class Explicit(FinalFamily):
    """An explicit list of final-state sets; members must be non-empty."""

    sets: frozenset[frozenset]

    def __post_init__(self):
        object.__setattr__(self, "sets", frozenset(frozenset(s) for s in self.sets))
        if any(not s for s in self.sets):
            raise ValueError("final-state sets must be non-empty")

    def check_states(self, states):
        _known(frozenset().union(*self.sets), states)

    def dnf(self, states):
        out = []
        for member in sorted(self.sets, key=_set_key):
            if member <= states:
                out.append((tuple(frozenset({q}) for q in sorted(member, key=_key)), (member,)))
        return out


@dataclass(frozen=True)
class AllNonempty(FinalFamily):
    """Every non-empty state set is final."""

    def dnf(self, states):
        return [((), ())]


@dataclass(frozen=True)
class ImpliesFamily(FinalFamily):
    """Non-empty sets that contain `required` whenever they contain `trigger`."""

    trigger: object
    required: object

    def dnf(self, states):
        avoid = frozenset(q for q in states if q != self.trigger)
        hit = frozenset({self.required}) & states
        return [((), (avoid,)), ((hit,), ())]

    def check_states(self, states):
        _known(frozenset({self.trigger, self.required}), states)


@dataclass(frozen=True)
class GenBuchi(FinalFamily):
    """Non-empty sets intersecting every one of the listed state sets."""

    sets: tuple[frozenset, ...]

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in self.sets))

    def dnf(self, states):
        return [(tuple(f & states for f in self.sets), ())]

    def check_states(self, states):
        _known(frozenset().union(*self.sets), states)


@dataclass(frozen=True)
class ProductFamily(FinalFamily):
    """Sets whose projection to every component belongs to that component's family.

    Components are addressed by position in tuple-shaped states.
    """

    parts: tuple[tuple[int, FinalFamily], ...]

    def dnf(self, states):
        disjuncts = [((), ())]
        for i, fam in self.parts:
            comp_states = frozenset(q[i] for q in states)
            lifted = []
            for hits, withins in fam.dnf(comp_states):
                lh = tuple(frozenset(q for q in states if q[i] in t) for t in hits)
                lw = tuple(frozenset(q for q in states if q[i] in t) for t in withins)
                lifted.append((lh, lw))
            disjuncts = [
                (h1 + h2, w1 + w2)
                for h1, w1 in disjuncts
                for h2, w2 in lifted
            ]
        return disjuncts

    def check_states(self, states):
        for i, fam in self.parts:
            if not all(isinstance(q, tuple) and 0 <= i < len(q) for q in states):
                raise ValueError(f"product component {i!r} is not a position of every state")
            fam.check_states(frozenset(q[i] for q in states))


def _known(named: frozenset, states: frozenset) -> None:
    if not named <= states:
        raise ValueError(f"final family names unknown states {sorted(named - states, key=_key)}")


def _key(x):
    return repr(x)


def _set_key(s):
    return tuple(sorted(map(_key, s)))


def explicit_members(family: FinalFamily, states: frozenset) -> frozenset[frozenset]:
    """Enumerate the family over subsets of `states` (cross-check conversion)."""
    if len(states) > 16:
        raise ValueError("explicit enumeration limited to small state sets")
    members = []
    items = sorted(states, key=_key)
    for r in range(1, len(items) + 1):
        for combo in itertools.combinations(items, r):
            s = frozenset(combo)
            if family.contains(s):
                members.append(s)
    return frozenset(members)


# ---------------------------------------------------------------------------
# Automata and lasso traces


@dataclass(frozen=True)
class MullerAutomaton:
    signature: ActionSignature
    states: frozenset
    transitions: tuple[tuple[object, Formula, object], ...]
    initial: frozenset
    final: FinalFamily

    def __post_init__(self):
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "initial", frozenset(self.initial))
        object.__setattr__(self, "transitions", tuple(self.transitions))
        if not self.initial <= self.states:
            raise ValueError("initial states must be states")
        for src, g, dst in self.transitions:
            if src not in self.states or dst not in self.states:
                raise ValueError(f"transition endpoint outside states: {src!r} -> {dst!r}")
            stray = guard_atoms(g) - self.signature.actions
            if stray:
                raise ValueError(f"guard atoms outside signature: {sorted(stray)}")

    @cached_property
    def moves(self) -> dict[object, list[tuple[object, int]]]:
        """Satisfiable transitions as letter masks: state -> [(dst, mask)], in
        transition order; a run of transitions carrying one guard object
        shares one mask."""
        out: dict[object, list[tuple[object, int]]] = {}
        guard = mask = None
        for src, g, dst in self.transitions:
            if g is not guard:
                guard, mask = g, guard_mask(g, self.signature)
            if mask:
                out.setdefault(src, []).append((dst, mask))
        return out

    def edge_masks(self) -> dict[tuple[object, object], int]:
        """Satisfiable semantic edges: (src, dst) -> letter bitmask (merged, non-zero)."""
        masks: dict[tuple[object, object], int] = {}
        for src, out in self.moves.items():
            for dst, m in out:
                masks[src, dst] = masks.get((src, dst), 0) | m
        return masks


@dataclass(frozen=True)
class LassoTrace:
    """An ultimately periodic trace: ``prefix . cycle^omega``."""

    signature: ActionSignature
    prefix: tuple[frozenset[str], ...]
    cycle: tuple[frozenset[str], ...]

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(frozenset(l) for l in self.prefix))
        object.__setattr__(self, "cycle", tuple(frozenset(l) for l in self.cycle))
        if not self.cycle:
            raise ValueError("lasso cycle must be non-empty")
        for letter in self.prefix + self.cycle:
            stray = letter - self.signature.actions
            if stray:
                raise ValueError(f"letter outside signature: {sorted(stray)}")

    def __len__(self) -> int:
        """Number of distinct positions (prefix plus one cycle)."""
        return len(self.prefix) + len(self.cycle)

    def letter(self, pos: int) -> frozenset[str]:
        if pos < len(self.prefix):
            return self.prefix[pos]
        return self.cycle[(pos - len(self.prefix)) % len(self.cycle)]

    def next_pos(self, pos: int) -> int:
        """Successor among the canonical positions 0 .. len(self)-1."""
        if pos + 1 < len(self):
            return pos + 1
        return len(self.prefix)

    def rename(self, sigma: SignatureMorphism) -> "LassoTrace":
        """Image trace under a signature morphism (letters mapped forward)."""
        if sigma.source != self.signature:
            raise ValueError("signature mismatch")
        m = sigma.mapping
        return LassoTrace(
            sigma.target,
            tuple(frozenset(m[a] for a in l) for l in self.prefix),
            tuple(frozenset(m[a] for a in l) for l in self.cycle),
        )

    def reduct(self, sigma: SignatureMorphism) -> "LassoTrace":
        """Reduct along ``sigma: A -> A'`` of a trace over A': each letter
        mapped back to its preimage."""
        if sigma.target != self.signature:
            raise ValueError("signature mismatch")
        return LassoTrace(
            sigma.source,
            tuple(map(sigma.inverse_image, self.prefix)),
            tuple(map(sigma.inverse_image, self.cycle)),
        )


# ---------------------------------------------------------------------------
# Shared liveness search
#
# Acceptance and emptiness both ask: does some node set D reachable from the
# roots, strongly connected with at least one edge, project onto a set of
# states that the final family accepts?  One path-based SCC search (Gabow's
# two stacks, the root stack of Couvreur, "On-the-fly verification of linear
# temporal logic", FM 1999) runs from the roots.  Each open root carries the
# states that the nodes of its partial SCC project to, one set per factor.
# When a back edge or a self-loop closes a cycle there, merging open roots,
# and one of those sets grows, the partial SCC is tested against the
# product family by its own definition, each factor's family on its set:
# a partial SCC is strongly connected, so a member is a live set, and the
# search stops at once.  This early test sees every hit-only family, and
# within-sets that the whole partial SCC keeps to.  Every other live set is
# found when its SCC completes: the family is unfolded into hit/within
# disjuncts over the SCC's states; for each disjunct the SCC is restricted to
# the within-sets, and the SCCs of the restriction, found by the same
# search, are tested against the hit-sets.  Maximal SCCs suffice: hits are
# monotone under supersets and every live candidate lies inside a maximal
# SCC of the restriction.  Nodes are visited in successor order from the
# roots in the given order; nothing else is sorted.


def _sccs(roots, succ, parts=()):
    """The strongly connected sets with a cycle that a path-based search
    from the given roots finds, as ``(nodes, path, complete)``.

    Each completed SCC with at least one edge is yielded with
    ``complete`` true.  With ``parts``, the ``(i, family)`` pairs of a
    product family, a partial SCC is yielded with ``complete`` false as soon
    as a closing cycle puts the states of its nodes, at every position
    ``i``, into ``family``.  ``nodes`` lists the set in DFS order from its
    root; ``path`` leads from a search root to that root, which ends it.
    """
    pos = {}  # open node -> its index on ``stack``; a done node -> -1
    stack = []  # the open nodes, in DFS order
    opened = []  # open roots: [stack index, work depth, state sets, cyclic]
    work = []  # the DFS path, with each node's successor iterator

    def push(node):
        pos[node] = len(stack)
        stack.append(node)
        opened.append([pos[node], len(work), [{node[i]} for i, _ in parts], False])
        work.append((node, iter(succ(node))))

    for root in roots:
        if root in pos:
            continue
        push(root)
        while work:
            node, it = work[-1]
            for nxt in it:
                at = pos.get(nxt)
                if at is None:
                    push(nxt)
                    break
                if at < 0:
                    continue
                # merge the open roots above nxt into the one holding it
                start, depth, sets, cyclic = opened.pop()
                grown = False
                while start > at:
                    start, depth, below, cyclic = opened.pop()
                    for mine, keep in zip(sets, below):
                        if not mine <= keep:
                            keep |= mine
                            grown = True
                    sets = below
                opened.append([start, depth, sets, True])
                changed = grown or not cyclic
                if changed and parts and all(fam.contains(s) for s, (_, fam) in zip(sets, parts)):
                    yield stack[start:], [n for n, _ in work[: depth + 1]], False
            else:
                work.pop()
                if opened[-1][0] == pos[node]:
                    start, depth, _, cyclic = opened.pop()
                    comp = stack[start:]
                    del stack[start:]
                    for n in comp:
                        pos[n] = -1
                    if cyclic:
                        yield comp, [n for n, _ in work] + [node], True


def _first_live_set(roots, succ, family):
    """The first live set the search from the roots finds, or None.

    Returns ``(path, scc, live, hits)``: ``path`` leads from a root to the
    DFS root of ``scc``, the strongly connected set holding ``live``, and
    ``hits`` are the hit-sets of the disjunct that ``live`` meets.
    """
    for scc, path, complete in _sccs(roots, succ, family.parts):
        disjuncts = family.dnf(frozenset(scc))
        if not complete:
            live = frozenset(scc)
            hits = next(h for h, ws in disjuncts if all(h) and all(live <= w for w in ws))
            return path, scc, scc, hits
        for hits, withins in disjuncts:
            region = [n for n in scc if all(n in w for w in withins)]
            if len(region) == len(scc):
                subs = [scc]
            else:
                inside = set(region)
                subs = (sub for sub, _, _ in _sccs(region, lambda n: [m for m in succ(n) if m in inside]))
            for sub in subs:
                if all(any(n in t for n in sub) for t in hits):
                    return path, scc, sub, hits
    return None


def _shortest_path(seeds, succ, inside, goal):
    """A shortest path from one of the seeds to a node meeting goal, through
    nodes of ``inside`` only (the seeds themselves need not be inside)."""
    prev = dict.fromkeys(seeds)
    queue = deque(prev)
    while queue:
        node = queue.popleft()
        if goal(node):
            path = [node]
            while prev[path[-1]] is not None:
                path.append(prev[path[-1]])
            return path[::-1]
        for nxt in succ(node):
            if nxt in inside and nxt not in prev:
                prev[nxt] = node
                queue.append(nxt)
    raise AssertionError("goal unreachable")


def _lasso_nodes(roots, path, scc, live, hits, succ):
    """The node paths of a lasso's prefix and cycle through a live set found
    by the search.

    The prefix is a shortest path from a root into the live set through the
    nodes of the DFS path and of the SCC, so it expands no node but roots.
    The cycle is a closed walk inside the live set from there, through one
    node of each hit-set: each leg is a shortest path of at least one edge
    to a node meeting a hit-set not met yet, and the last leg returns.
    """
    live = set(live)
    prefix = _shortest_path(roots, succ, set(path).union(scc), live.__contains__)
    start = prefix[-1]

    def leg(goal):
        src = walk[-1]
        walk.extend(_shortest_path([n for n in succ(src) if n in live], succ, live, goal))

    walk = [start]
    pending = [t for t in hits if start not in t]
    while pending:
        leg(lambda n: any(n in t for t in pending))
        pending = [t for t in pending if walk[-1] not in t]
    leg(lambda n: n == start)
    return prefix, walk


# ---------------------------------------------------------------------------
# Operations


def accepts(a: MullerAutomaton, t: LassoTrace) -> bool:
    """Does the automaton accept the ultimately periodic trace?

    The trace is an automaton too: one state per lasso position, whose one
    transition reads that position's letter, as a full cube, to the next
    position.  It accepts the trace alone, so ``a`` accepts the trace
    exactly when the two accept a common lasso."""
    if t.signature != a.signature:
        raise ValueError("trace signature differs from automaton signature")
    actions = ordered_actions(t.signature)
    steps = [
        (i, land(*(Atom(x) if x in t.letter(i) else Not(Atom(x)) for x in actions)), t.next_pos(i))
        for i in range(len(t))
    ]
    run = MullerAutomaton(t.signature, frozenset(range(len(t))), steps, frozenset({0}), AllNonempty())
    return find_accepted_lasso(a, run) is not None


def is_empty(a: MullerAutomaton) -> bool:
    """True iff the automaton accepts no trace."""
    return find_accepted_lasso(a) is None


def find_accepted_lasso(*automata: MullerAutomaton) -> LassoTrace | None:
    """Some lasso that every given automaton accepts, or None if there is none.

    The automata share one signature; a single automaton is the one-factor
    case.  The search runs on their synchronous product without building it:
    nodes are the state tuples reached from the initial tuples (the only
    nodes sorted, by ``repr``), and a node's edges are computed once, by
    ANDing the masks of the factors' transitions, in the order of ``product``
    (lexicographic over each factor's transitions from its state).  The edge
    cache keeps only each destination's lowest enabling letter index, the
    letter the witness uses, not the mask.

    The search (``_sccs``) tests a partial SCC against the factors'
    families as soon as a closing cycle adds states to it, and a completed
    SCC against the ``ProductFamily`` unfolded over it; it stops at the
    first live set.  The witness prefix is a shortest path from a root into
    the live set through the nodes of the DFS path and of that SCC, which
    are expanded already; its cycle passes through one node of each hit-set
    of the disjunct met.  It is the witness the search returns on
    ``product(automata)``.
    """
    sig = automata[0].signature
    if any(a.signature != sig for a in automata):
        raise ValueError("product factors must share a signature")
    moves = [a.moves for a in automata]
    full = full_mask(sig)
    edges: dict[tuple, dict[tuple, int]] = {}  # node -> {dst: lowest letter index}

    def succ(node):
        e = edges.get(node)
        if e is None:
            # extend partial destination tuples one factor at a time; a
            # prefix whose mask is already empty is dropped
            partial = [((), full)]
            for out, q in zip(moves, node):
                partial = [
                    (dst + (d,), m & em)
                    for dst, m in partial
                    for d, em in out.get(q, ())
                    if m & em
                ]
            e = edges[node] = {}
            for dst, m in partial:
                low = (m & -m).bit_length() - 1
                if low < e.get(dst, low + 1):
                    e[dst] = low
        return e

    roots = sorted(itertools.product(*(a.initial for a in automata)), key=_key)
    family = ProductFamily(tuple(enumerate(a.final for a in automata)))
    found = _first_live_set(roots, succ, family)
    if found is None:
        return None
    prefix, cycle = _lasso_nodes(roots, *found, succ)

    def letters(nodes):
        return tuple(letter_at(edges[src][dst], sig) for src, dst in zip(nodes, nodes[1:]))

    return LassoTrace(sig, letters(prefix), letters(cycle))


def reduct(a: MullerAutomaton, sigma: SignatureMorphism) -> MullerAutomaton:
    """Alphabet reduct along ``sigma: A -> A'`` of an automaton over A'.

    A letter over A enables a reduct transition iff it is the sigma-preimage
    of some letter over A' enabling the original transition.
    """
    if a.signature != sigma.target:
        raise ValueError("automaton signature must be the morphism target")
    src_sig = sigma.source
    src_actions = ordered_actions(src_sig)
    tgt_pos = {x: j for j, x in enumerate(ordered_actions(sigma.target))}
    bit_of = [(1 << i, 1 << tgt_pos[sigma(x)]) for i, x in enumerate(src_actions)]
    # preimage of each target letter, as a source letter index
    pre = []
    for idx in range(1 << len(tgt_pos)):
        letter = 0
        for src_bit, tgt_bit in bit_of:
            if idx & tgt_bit:
                letter |= src_bit
        pre.append(letter)
    transitions = []
    for (src, dst), m in sorted(a.edge_masks().items(), key=lambda e: _key(e[0])):
        proj = 0
        for b in bit_positions(m):
            proj |= 1 << pre[b]
        transitions.append((src, mask_to_guard(proj, src_sig), dst))
    return MullerAutomaton(src_sig, a.states, tuple(transitions), a.initial, a.final)


def cofree_expansion(a: MullerAutomaton, sigma: SignatureMorphism) -> MullerAutomaton:
    """Right adjoint to the reduct: re-express an automaton over the larger signature.

    A letter over A' enables an expanded transition iff its sigma-preimage
    enables the original one; syntactically this is the guard's translation.
    """
    if a.signature != sigma.source:
        raise ValueError("automaton signature must be the morphism source")
    transitions = tuple((src, translate(g, sigma), dst) for src, g, dst in a.transitions)
    return MullerAutomaton(sigma.target, a.states, transitions, a.initial, a.final)


def product(automata, signature: ActionSignature | None = None) -> MullerAutomaton:
    """Product over a common signature; accepts the intersection of the languages.

    The empty product is the one-state automaton with a true self-loop that
    accepts every trace (over the given signature, empty by default).
    """
    automata = list(automata)
    if not automata:
        sig = signature if signature is not None else ActionSignature(frozenset())
        q = "*"
        return MullerAutomaton(sig, frozenset({q}), ((q, TRUE, q),), frozenset({q}), AllNonempty())
    sig = automata[0].signature
    for a in automata[1:]:
        if a.signature != sig:
            raise ValueError("product factors must share a signature")
    states = frozenset(itertools.product(*[sorted(a.states, key=_key) for a in automata]))
    initial = frozenset(itertools.product(*[sorted(a.initial, key=_key) for a in automata]))
    annotated = [
        [(src, g, dst, guard_mask(g, sig)) for src, g, dst in a.transitions]
        for a in automata
    ]
    transitions = []
    for combo in itertools.product(*annotated):
        m = full_mask(sig)
        for _, _, _, em in combo:
            m &= em
            if not m:
                break
        if not m:
            continue
        src = tuple(e[0] for e in combo)
        dst = tuple(e[2] for e in combo)
        transitions.append((src, land(*(e[1] for e in combo)), dst))
    final = ProductFamily(tuple((i, a.final) for i, a in enumerate(automata)))
    return MullerAutomaton(sig, states, tuple(transitions), initial, final)


def check_homomorphism(h: dict, a1: MullerAutomaton, a2: MullerAutomaton) -> bool:
    """Is the state map a homomorphism a1 -> a2 over the common signature?

    Transitions are compared semantically: every letter enabling a source
    transition must enable some target transition between the image states.
    Final families are compared by enumerating subsets of a1's states.
    """
    if a1.signature != a2.signature:
        raise ValueError("homomorphism requires a common signature")
    if set(h) != set(a1.states):
        raise ValueError("state map must be total on the source states")
    if any(v not in a2.states for v in h.values()):
        return False
    if not frozenset(h[q] for q in a1.initial) <= a2.initial:
        return False
    m2 = a2.edge_masks()
    for (src, dst), m in a1.edge_masks().items():
        if m & ~m2.get((h[src], h[dst]), 0):
            return False
    for s in explicit_members(a1.final, a1.states):
        if not a2.final.contains(frozenset(h[q] for q in s)):
            return False
    return True


def automaton_isomorphism(a1: MullerAutomaton, a2: MullerAutomaton):
    """A state bijection that is a semantic isomorphism, or None.

    Backtracking over bijections, pruned by initial-state membership and
    edge-mask profiles; guards and families are compared semantically.
    """
    if a1.signature != a2.signature or len(a1.states) != len(a2.states):
        return None
    if len(a1.initial) != len(a2.initial):
        return None
    m1, m2 = a1.edge_masks(), a2.edge_masks()

    def profile(a, masks, q):
        outs = sorted(m for (s, _), m in masks.items() if s == q)
        ins = sorted(m for (_, d), m in masks.items() if d == q)
        return (q in a.initial, outs, ins)

    p1 = {q: profile(a1, m1, q) for q in a1.states}
    p2 = {q: profile(a2, m2, q) for q in a2.states}
    order = sorted(a1.states, key=_key)

    def compatible(assign):
        for (s, d), m in m1.items():
            if s in assign and d in assign:
                if m != m2.get((assign[s], assign[d]), 0):
                    return False
        return True

    def extend(i, assign, used):
        if i == len(order):
            image_edges = {(assign[s], assign[d]) for (s, d) in m1}
            if set(m2) != image_edges:
                return None
            back = {v: k for k, v in assign.items()}
            for s in explicit_members(a1.final, a1.states):
                if not a2.final.contains(frozenset(assign[q] for q in s)):
                    return None
            for s in explicit_members(a2.final, a2.states):
                if not a1.final.contains(frozenset(back[q] for q in s)):
                    return None
            return dict(assign)
        q = order[i]
        for cand in sorted(a2.states - used, key=_key):
            if p1[q] != p2[cand]:
                continue
            assign[q] = cand
            if compatible(assign):
                res = extend(i + 1, assign, used | {cand})
                if res is not None:
                    return res
            del assign[q]
        return None

    return extend(0, {}, frozenset())
