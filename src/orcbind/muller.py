"""Muller automata over powerset alphabets with symbolic propositional guards.

A letter of the alphabet is a subset of the automaton's action signature.
Transitions carry guards, which are the ``sigcat`` formulas without ``X`` and
``U``; a transition exists for every letter satisfying the guard.  The
constructor only normalizes shapes: ``cli.automaton_from_json`` vets a
decoded automaton with ``check_automaton``, and every other is well formed
by construction, as ``translate`` and ``ltl.to_automaton`` refuse stray
atoms.  All semantic work (products, reducts, acceptance, emptiness) happens
on the guard semantics, never on guard syntax.

A guard's semantics, its letter set, is a tuple of cubes, the literal
conjunctions of its disjunctive normal form: the Boolean algebra of cubes of
D'Antoni and Veanes ("The power of symbolic automata and transducers", CAV
2017).  A cube ``(pos, neg)`` is two masks over the signature's actions, the
actions its letters hold and those they lack.  Two cubes meet in ``(pos |
pos', neg | neg')``, and a cube with ``pos & neg`` is empty and dropped, so
the empty tuple is the empty set.  Every guard ``orcbind`` builds is one
cube or a short disjunction of them: the tableau's transitions carry literal
conjunctions, ``product`` conjoins and ``cofree_expansion`` renames.  A
guard read from a file can have an exponential normal form (``(a1 | b1) &
... & (ak | bk)`` has 2^k cubes), so ``guard_mask`` refuses one past
``MAX_CUBES`` cubes with ``InputError``.  A letter is the mask of its
actions, so the lowest letter of a cube is its ``pos``, and the lowest of a
union its least ``pos``.  ``guard_mask``, ``mask_to_guard`` and
``edge_masks`` keep the names they had when a letter set was a bitmask over
all 2^n letters.  That bitmask semantics is now the reference in
``tests/oracles.py``, which the tests check the cubes against.

Some names stay only because the benchmark binds them: its tracer wraps
``reduct``, ``mask_to_guard``, ``edge_masks`` and ``is_empty`` by name, and
its network families build guards with ``g_atom``, ``g_not`` and ``g_and``.
No command calls the first four; ``reduct`` serves ``arn.observed_automaton``,
the tests' semantics of a point.

``MullerAutomaton.moves`` puts each distinct guard of an automaton in normal
form once and flattens its transitions into ``(dst, pos, neg)`` triples; the
searches read it and ``edge_masks`` merges it.  ``product`` normalizes its
factors' guards itself, because it needs them and their global order.

``product`` builds the full categorical product over every state tuple.
Emptiness of an intersection never needs it: ``find_accepted_lasso`` takes
the factors themselves and explores their product on the fly, from the
initial state tuples only.  A path-based SCC search accepts a partial SCC as
soon as a closing cycle puts the states of its nodes into every factor's
family, and tests every other SCC when it completes; it stops at the first
live set.  The witness prefix keeps to nodes the search has expanded (its
DFS path and that SCC), and the edge cache keeps one letter per edge (the
lowest enabling one), not its letter set.

Final-state families come in several closed forms; each unfolds itself into
a disjunction of "hit these state sets / stay within this state set"
constraints, which is what acceptance and emptiness search on.  Membership
of a candidate infinity set is read off its unfolding over that set.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from . import InputError
from .sigcat import (
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


# Bit i of a cube's masks, and of a letter, stands for action number i in
# ordered_actions order.

MAX_CUBES = 4096


def _cap(cubes):
    if len(cubes) > MAX_CUBES:
        raise InputError(f"guard has more than {MAX_CUBES} cubes in disjunctive normal form")
    return cubes


def _meet(xs, ys) -> tuple[tuple[int, int], ...]:
    """The cubes of the intersection of two letter sets, each once."""
    out = {}
    for p, n in xs:
        for q, m in ys:
            if not (pq := p | q) & (nm := n | m):
                out[pq, nm] = None
        _cap(out)
    return tuple(out)


def guard_mask(g: Formula, sig: ActionSignature) -> tuple[tuple[int, int], ...]:
    """Semantics of a guard: the cubes of its disjunctive normal form, empty
    exactly when no letter satisfies it.  Negations are pushed to the atoms;
    a guard past ``MAX_CUBES`` cubes raises ``InputError``."""
    bit = {a: 1 << i for i, a in enumerate(ordered_actions(sig))}

    def dnf(h: Formula, neg: bool):
        if isinstance(h, Atom):
            if h.action not in bit:
                raise ValueError(f"guard atom {h.action!r} outside signature")
            return ((0, bit[h.action]),) if neg else ((bit[h.action], 0),)
        if isinstance(h, Not):
            return dnf(h.sub, not neg)
        if not isinstance(h, (And, Or)):
            raise TypeError(h)
        parts = [dnf(s, neg) for s in h.subs]
        if isinstance(h, Or) == neg:  # a conjunction, or a negated disjunction
            out = ((0, 0),)
            for part in parts:
                out = _meet(out, part)
            return out
        return _cap(tuple(dict.fromkeys(itertools.chain.from_iterable(parts))))

    return dnf(g, False)


def letter_at(index: int, sig: ActionSignature) -> frozenset[str]:
    actions = ordered_actions(sig)
    return frozenset(a for i, a in enumerate(actions) if index & (1 << i))


def mask_to_guard(cubes, sig: ActionSignature) -> Formula:
    """A guard with the given letter set: the disjunction of its cubes'
    literal conjunctions.  No cube is ``false``, a cube of no literal
    ``true``."""
    actions = ordered_actions(sig)
    return lor(
        *(
            land(*(Atom(a) if p >> i & 1 else Not(Atom(a)) for i, a in enumerate(actions) if (p | n) >> i & 1))
            for p, n in cubes
        )
    )


# ---------------------------------------------------------------------------
# Final-state families

# A "requirement disjunct" is a pair (hits, withins): the candidate infinity
# set must intersect every set in `hits` and stay inside every set in
# `withins`.  A family unfolds over a state set into a disjunction of such
# constraints, each hit-set a non-empty subset of that state set (a disjunct
# with an empty hit-set meets no set, so it is left out); a non-empty subset
# meets some disjunct exactly when it is a member.


@dataclass(frozen=True)
class FinalFamily:
    def contains(self, s) -> bool:
        """Is the state set a member?  It is when it is non-empty and meets
        some disjunct of the family unfolded over it."""
        s = frozenset(s)
        return bool(s) and any(all(s <= w for w in withins) for _, withins in self.dnf(s))

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
        if self.required not in states:
            return [((), (avoid,))]
        return [((), (avoid,)), ((frozenset({self.required}),), ())]

    def check_states(self, states):
        _known(frozenset({self.trigger, self.required}), states)


@dataclass(frozen=True)
class GenBuchi(FinalFamily):
    """Non-empty sets intersecting every one of the listed state sets."""

    sets: tuple[frozenset, ...]

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in self.sets))

    def dnf(self, states):
        hits = tuple(f & states for f in self.sets)
        return [(hits, ())] if all(hits) else []

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

    @cached_property
    def moves(self) -> dict[object, list[tuple[object, int, int]]]:
        """Satisfiable transitions as cubes: state -> [(dst, pos, neg)], one
        triple per cube of each transition's guard, in transition order;
        equal guards share one normal form."""
        out: dict[object, list[tuple[object, int, int]]] = {}
        normal: dict[Formula, tuple] = {}
        for src, g, dst in self.transitions:
            cubes = normal.get(g)
            if cubes is None:
                cubes = normal[g] = guard_mask(g, self.signature)
            if cubes:
                out.setdefault(src, []).extend((dst, p, n) for p, n in cubes)
        return out

    def edge_masks(self) -> dict[tuple[object, object], tuple[tuple[int, int], ...]]:
        """Satisfiable semantic edges: (src, dst) -> the cubes of every
        transition between them, each once."""
        edges: dict[tuple[object, object], dict] = {}
        for src, out in self.moves.items():
            for dst, p, n in out:
                edges.setdefault((src, dst), {})[p, n] = None
        return {e: tuple(cubes) for e, cubes in edges.items()}


def check_automaton(aut: MullerAutomaton) -> None:
    """Raise ValueError for stray initial states, endpoints or guards, in that order."""
    if not aut.initial <= aut.states:
        raise ValueError("initial states must be states")
    checked = set()
    for src, g, dst in aut.transitions:
        if src not in aut.states or dst not in aut.states:
            raise ValueError(f"transition endpoint outside states: {src!r} -> {dst!r}")
        if g not in checked and (stray := guard_atoms(g) - aut.signature.actions):
            raise ValueError(f"guard atoms outside signature: {sorted(stray)}")
        checked.add(g)


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
            hits = next(h for h, ws in disjuncts if all(live <= w for w in ws))
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


def is_empty(a: MullerAutomaton) -> bool:
    """True iff the automaton accepts no trace."""
    return find_accepted_lasso(a) is None


def find_accepted_lasso(*automata: MullerAutomaton) -> LassoTrace | None:
    """Some lasso that every given automaton accepts, or None if there is none.

    The automata share one signature; a single automaton is the one-factor
    case.  The search runs on their synchronous product without building it:
    nodes are the state tuples reached from the initial tuples (the only
    nodes sorted, by ``repr``), and a node's edges are computed once, by
    meeting the cubes of the factors' transitions, in the order of
    ``product`` (lexicographic over each factor's transitions from its
    state).  The edge cache keeps only each destination's lowest enabling
    letter, the least ``pos`` of its cubes, which the witness uses.

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
    edges: dict[tuple, dict[tuple, int]] = {}  # node -> {dst: lowest letter}

    def succ(node):
        e = edges.get(node)
        if e is None:
            # extend partial destination tuples one factor at a time; a
            # prefix whose cube is already empty is dropped
            partial = [((), 0, 0)]
            for out, q in zip(moves, node):
                partial = [
                    (dst + (d,), pp, nn)
                    for dst, p, n in partial
                    for d, ep, en in out.get(q, ())
                    if not (pp := p | ep) & (nn := n | en)
                ]
            e = edges[node] = {}
            for dst, p, _ in partial:
                if p < e.get(dst, p + 1):
                    e[dst] = p
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
    of some letter over A' enabling the original transition.  The preimages
    of a cube's letters are the letters that hold, or lack, all of each
    fibre: the fibre of an action the cube holds is in, that of one it
    lacks out, and a free fibre of two or more actions splits the cube in
    two, one with it all in and one with it all out.
    """
    if a.signature != sigma.target:
        raise ValueError("automaton signature must be the morphism target")
    src_sig = sigma.source
    tgt_bit = {x: 1 << j for j, x in enumerate(ordered_actions(sigma.target))}
    fibres: dict[int, int] = {}  # target action bit -> its preimage, as a mask
    for i, x in enumerate(ordered_actions(src_sig)):
        b = tgt_bit[sigma(x)]
        fibres[b] = fibres.get(b, 0) | 1 << i

    def preimage(p, n):
        out = [(0, 0)]
        for b, f in fibres.items():
            if p & b:
                out = [(q | f, m) for q, m in out]
            elif n & b:
                out = [(q, m | f) for q, m in out]
            elif f & (f - 1):
                out = [c for q, m in out for c in ((q | f, m), (q, m | f))]
        return out

    transitions = []
    for (src, dst), cubes in sorted(a.edge_masks().items(), key=lambda e: _key(e[0])):
        pre = dict.fromkeys(c for p, n in cubes for c in preimage(p, n))
        transitions.append((src, mask_to_guard(pre, src_sig), dst))
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
        cubes = ((0, 0),)
        for *_, c in combo:
            cubes = _meet(cubes, c)
            if not cubes:
                break
        if not cubes:
            continue
        src = tuple(e[0] for e in combo)
        dst = tuple(e[2] for e in combo)
        transitions.append((src, land(*(e[1] for e in combo)), dst))
    final = ProductFamily(tuple((i, a.final) for i, a in enumerate(automata)))
    return MullerAutomaton(sig, states, tuple(transitions), initial, final)
