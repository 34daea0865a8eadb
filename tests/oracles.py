"""Independent oracles the tests check production code against.

Everything here deliberately avoids the production algorithms: guards are
evaluated by naive recursion on letters, final-family membership by each
family's own definition (no hit/within unfolding), acceptance is decided
by explicit run search over the unrolled product graph (no SCC refinement),
emptiness by bounded witness-lasso search per final set, and one more
emptiness route goes through a textbook Muller-to-Buchi conversion.  The
LTL tableau is built over truth assignments, densely by testing every pair
of them, or from the initial ones by bitmask columns.
The bounded pexpr oracles decide one enumerated state at a time, and run
programs with a functional interpreter that copies the state on every
assignment.

Letter sets have a reference semantics here: a bitmask of 2^n bits over
the letters of a signature of n actions, one bit per letter.  ``orcbind``
holds a letter set as a tuple of cubes; the tests compare the cubes, and
every semantic comparison of automata (homomorphisms, isomorphisms,
on-the-nose equality of ARN labels, ARN morphisms), with these bitmasks.

The last sections hold what only the tests need of the library's own
algorithms: signature and morphism shorthands, the universal property of
colimits, program positions, acceptance of one lasso by the product search,
and the worked example's clauses and query, read once from
``examples/data``.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import cache
from pathlib import Path

from orcbind import cli
from orcbind.muller import (
    AllNonempty,
    Explicit,
    GenBuchi,
    ImpliesFamily,
    LassoTrace,
    MullerAutomaton,
    ProductFamily,
    find_accepted_lasso,
)
from orcbind.pexpr import (
    Assign,
    Fails,
    Holds,
    If,
    Inconclusive,
    OutOfFuel,
    Seq,
    Skip,
    Terminated,
    While,
    children,
    enumerate_states,
    eval_aexp,
    eval_condition,
    idents,
    subterm_at,
)
from orcbind.sigcat import (
    FALSE,
    TRUE,
    ActionSignature,
    And,
    Atom,
    Next,
    Not,
    Or,
    SignatureMorphism,
    Until,
    land,
    lor,
    ordered_actions,
)


def eval_guard(g, letter: frozenset) -> bool:
    if isinstance(g, Atom):
        return g.action in letter
    if isinstance(g, Not):
        return not eval_guard(g.sub, letter)
    if isinstance(g, And):
        return all(eval_guard(s, letter) for s in g.subs)
    if isinstance(g, Or):
        return any(eval_guard(s, letter) for s in g.subs)
    raise TypeError(g)


# ---------------------------------------------------------------------------
# Letter sets as bitmasks
#
# Letters of a signature with n actions are indexed 0 .. 2^n - 1; bit i of a
# letter index says whether action number i (in ordered_actions order) is in
# the letter.  A letter set is the bitmask over all letter indices.


def atom_column(n_actions: int, i: int) -> int:
    """Bitmask over 2^n letter indices whose i-th action bit is set."""
    mask = ((1 << (1 << i)) - 1) << (1 << i)  # 2^i zeros then 2^i ones
    for k in range(i + 1, n_actions):
        mask |= mask << (1 << k)  # repeat the first 2^k letters once more
    return mask


def full_mask(sig) -> int:
    return (1 << (1 << len(sig.actions))) - 1


def boolean_mask(h, leaf, full: int) -> int:
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


def guard_bitmask(g, sig) -> int:
    """The letter set of a guard, one bit per letter of the signature."""
    index = {a: i for i, a in enumerate(ordered_actions(sig))}

    def atom(h):
        if not isinstance(h, Atom):
            raise TypeError(h)
        return atom_column(len(index), index[h.action])

    return boolean_mask(g, atom, full_mask(sig))


def bit_positions(mask: int):
    """Positions of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def cubes_bitmask(cubes, sig) -> int:
    """The bitmask of a tuple of ``(pos, neg)`` cubes, letter by letter."""
    return sum(
        1 << i
        for i in range(1 << len(sig.actions))
        if any(i & p == p and not i & n for p, n in cubes)
    )


def bitmask_to_guard(mask: int, sig):
    """A guard with the given letter set, by Shannon expansion on the highest
    action: the mask's lower half is the letters without that action and its
    upper half the letters with it; equal halves drop the action.  The empty
    mask is ``false`` and the full one ``true``."""
    actions = ordered_actions(sig)

    def expand(m: int, n: int):
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


def edge_bitmasks(a: MullerAutomaton) -> dict:
    """Satisfiable edges of an automaton: (src, dst) -> the bitmask of every
    letter enabling some transition between them."""
    masks = {}
    for src, g, dst in a.transitions:
        m = guard_bitmask(g, a.signature)
        if m:
            masks[src, dst] = masks.get((src, dst), 0) | m
    return masks


def reduct_bitmasks(a: MullerAutomaton, sigma) -> dict:
    """``edge_bitmasks`` of the reduct of ``a`` along ``sigma: A -> A'``: a
    letter over A is enabled on an edge iff it is the sigma-preimage of some
    letter over A' enabled there."""
    src_actions = ordered_actions(sigma.source)
    tgt_pos = {x: j for j, x in enumerate(ordered_actions(sigma.target))}
    bit_of = [(1 << i, 1 << tgt_pos[sigma(x)]) for i, x in enumerate(src_actions)]
    pre = [sum(s for s, t in bit_of if idx & t) for idx in range(1 << len(tgt_pos))]
    return {
        edge: sum({1 << pre[b] for b in bit_positions(m)}) for edge, m in edge_bitmasks(a).items()
    }


def all_letters(sig):
    actions = ordered_actions(sig)
    for r in range(len(actions) + 1):
        for combo in itertools.combinations(actions, r):
            yield frozenset(combo)


def family_member(f, s) -> bool:
    """Is the state set a member of the final family?"""
    s = frozenset(s)
    if not s:
        return False
    if isinstance(f, Explicit):
        return s in f.sets
    if isinstance(f, AllNonempty):
        return True
    if isinstance(f, ImpliesFamily):
        return f.trigger not in s or f.required in s
    if isinstance(f, GenBuchi):
        return all(s & g for g in f.sets)
    if isinstance(f, ProductFamily):
        return all(family_member(g, {q[i] for q in s}) for i, g in f.parts)
    raise TypeError(f)


def _final_sets(a: MullerAutomaton):
    states = sorted(a.states, key=repr)
    return frozenset(
        frozenset(combo)
        for r in range(1, len(states) + 1)
        for combo in itertools.combinations(states, r)
        if family_member(a.final, combo)
    )


def accepts_by_run_search(a: MullerAutomaton, t: LassoTrace) -> bool:
    """Brute-force run enumeration on the unrolled lasso graph.

    A successful run exists iff, for some final set F, a path from an initial
    node reaches a node with state in F from which a cycle returns to that
    very node visiting exactly the states of F.  The cycle search tracks the
    subset of F visited so far, which bounds the run length.
    """
    size = len(t)
    letters = [t.letter(i) for i in range(size)]

    def successors(state, pos):
        letter = letters[pos]
        nxt = t.next_pos(pos)
        for src, g, dst in a.transitions:
            if src == state and eval_guard(g, letter):
                yield dst, nxt

    # all reachable lasso-graph nodes
    reach = set()
    queue = deque((q, 0) for q in a.initial)
    reach.update(queue)
    while queue:
        state, pos = queue.popleft()
        for node in successors(state, pos):
            if node not in reach:
                reach.add(node)
                queue.append(node)

    for final in _final_sets(a):
        anchors = [(q, p) for q, p in reach if q in final]
        for anchor in anchors:
            start = (anchor, frozenset({anchor[0]}))
            seen = {start}
            stack = [start]
            while stack:
                (state, pos), visited = stack.pop()
                for nstate, npos in successors(state, pos):
                    if nstate not in final:
                        continue
                    nvisited = visited | {nstate}
                    node = ((nstate, npos), nvisited)
                    if (nstate, npos) == anchor and nvisited == final:
                        return True
                    if node not in seen:
                        seen.add(node)
                        stack.append(node)
    return False


def emptiness_by_lasso_search(a: MullerAutomaton):
    """Bounded search for an accepted witness lasso, one final set at a time.

    Returns a witness LassoTrace or None.  Completeness for ultimately
    periodic witnesses follows from tracking (state, visited-subset) pairs,
    which caps the prefix at |Q| steps and the cycle at |F| * 2^|F| segments.
    """
    letters = list(all_letters(a.signature))

    def moves(state):
        for src, g, dst in a.transitions:
            if src != state:
                continue
            for letter in letters:
                if eval_guard(g, letter):
                    yield letter, dst

    # shortest letter paths from the initial states
    parent = {}
    queue = deque()
    for q in sorted(a.initial, key=repr):
        if q not in parent:
            parent[q] = None
            queue.append(q)
    order = []
    while queue:
        state = queue.popleft()
        order.append(state)
        for letter, dst in moves(state):
            if dst not in parent:
                parent[dst] = (state, letter)
                queue.append(dst)

    def prefix_to(state):
        path = []
        while parent[state] is not None:
            prev, letter = parent[state]
            path.append(letter)
            state = prev
        return tuple(reversed(path))

    for final in sorted(_final_sets(a), key=repr):
        for anchor in sorted(final, key=repr):
            if anchor not in parent:
                continue
            start = (anchor, frozenset({anchor}))
            back = {start: None}
            stack = [start]
            goal = None
            while stack and goal is None:
                node = stack.pop()
                state, visited = node
                for letter, dst in moves(state):
                    if dst not in final:
                        continue
                    nxt = (dst, visited | {dst})
                    if dst == anchor and nxt[1] == final:
                        back[("goal", letter)] = node
                        goal = ("goal", letter)
                        break
                    if nxt not in back:
                        back[nxt] = (node, letter)
                        stack.append(nxt)
            if goal is None:
                continue
            cycle = [goal[1]]
            node = back[goal]
            while back[node] is not None:
                node, letter = back[node]
                cycle.append(letter)
            cycle.reverse()
            return LassoTrace(a.signature, prefix_to(anchor), tuple(cycle))
    return None


def is_empty_by_lasso_search(a: MullerAutomaton) -> bool:
    return emptiness_by_lasso_search(a) is None


# ---------------------------------------------------------------------------
# Muller -> Buchi (explicit families only), then Buchi emptiness


def muller_to_buchi(a: MullerAutomaton):
    """Classic conversion: guess a final set F, then cycle through F while
    collecting visited states; accepting whenever the collection resets.

    Returns (states, initial, accepting, moves) with letter-level moves.
    """
    finals = sorted(_final_sets(a), key=repr)
    letters = list(all_letters(a.signature))

    def delta(state, letter):
        return [dst for src, g, dst in a.transitions if src == state and eval_guard(g, letter)]

    states = {("main", q) for q in a.states}
    moves = {}
    accepting = set()
    initial = {("main", q) for q in a.initial}

    for q in a.states:
        for letter in letters:
            targets = set()
            for dst in delta(q, letter):
                targets.add(("main", dst))
                for fi, final in enumerate(finals):
                    if dst in final:
                        targets.add(("gad", fi, dst, frozenset()))
            moves[("main", q), letter] = targets

    for fi, final in enumerate(finals):
        for q in final:
            for seen in map(frozenset, _subsets(final)):
                state = ("gad", fi, q, seen)
                states.add(state)
                if seen == frozenset():
                    pass
                for letter in letters:
                    targets = set()
                    for dst in delta(q, letter):
                        if dst not in final:
                            continue
                        nseen = seen | {dst}
                        if nseen == final:
                            nseen = frozenset()
                        targets.add(("gad", fi, dst, nseen))
                    moves[state, letter] = targets
                if seen == frozenset():
                    accepting.add(state)
    return states, initial, accepting, moves, letters


def _subsets(s):
    items = sorted(s, key=repr)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def buchi_is_empty(buchi) -> bool:
    """A Buchi automaton is non-empty iff some reachable accepting state lies
    on a (non-trivial) cycle."""
    states, initial, accepting, moves, letters = buchi

    def succ(state):
        out = set()
        for letter in letters:
            out |= moves.get((state, letter), set())
        return out

    reach = set(initial)
    queue = deque(initial)
    while queue:
        state = queue.popleft()
        for nxt in succ(state):
            if nxt not in reach:
                reach.add(nxt)
                queue.append(nxt)

    for acc in reach & accepting:
        seen = set()
        queue = deque(succ(acc))
        seen.update(queue)
        while queue:
            state = queue.popleft()
            if state == acc:
                return False
            for nxt in succ(state):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return True


def is_empty_by_buchi(a: MullerAutomaton) -> bool:
    return buchi_is_empty(muller_to_buchi(a))


# ---------------------------------------------------------------------------
# Semantic comparisons of automata and networks


def explicit_members(family, states: frozenset) -> frozenset[frozenset]:
    """Enumerate the family over subsets of `states` (cross-check conversion)."""
    if len(states) > 16:
        raise ValueError("explicit enumeration limited to small state sets")
    members = []
    items = sorted(states, key=repr)
    for r in range(1, len(items) + 1):
        for combo in itertools.combinations(items, r):
            s = frozenset(combo)
            if family.contains(s):
                members.append(s)
    return frozenset(members)


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
    m2 = edge_bitmasks(a2)
    for (src, dst), m in edge_bitmasks(a1).items():
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
    m1, m2 = edge_bitmasks(a1), edge_bitmasks(a2)

    def profile(a, masks, q):
        outs = sorted(m for (s, _), m in masks.items() if s == q)
        ins = sorted(m for (_, d), m in masks.items() if d == q)
        return (q in a.initial, outs, ins)

    p1 = {q: profile(a1, m1, q) for q in a1.states}
    p2 = {q: profile(a2, m2, q) for q in a2.states}
    order = sorted(a1.states, key=repr)

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
        for cand in sorted(a2.states - used, key=repr):
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


def automata_equal(a1: MullerAutomaton, a2: MullerAutomaton) -> bool:
    """On-the-nose equality with semantic guard comparison."""
    return (
        a1.signature == a2.signature
        and a1.states == a2.states
        and a1.initial == a2.initial
        and a1.final == a2.final
        and edge_bitmasks(a1) == edge_bitmasks(a2)
    )


def check_morphism(theta) -> tuple[str, ...]:
    """Every violated condition of an ``arn.ArnMorphism``, with its location."""
    issues = []
    n1, n2 = theta.source, theta.target
    pm, em, mm = theta.point_map, theta.edge_map, theta.msg_map
    inc1, inc2 = n1.incidence_of, n2.incidence_of

    if set(pm) != set(n1.points):
        issues.append("point map must be total on the source points")
    if set(em) != set(inc1):
        issues.append("edge map must be total on the source hyperedges")
    if any(y not in n2.points for y in pm.values()):
        issues.append("point map image outside target points")
    if any(f not in inc2 for f in em.values()):
        issues.append("edge map image outside target hyperedges")
    if issues:
        return tuple(issues)

    if len(set(pm.values())) != len(pm):
        issues.append("point map is not injective")
    if len(set(em.values())) != len(em):
        issues.append("edge map is not injective")

    procs1, procs2 = n1.process_of, n2.process_of
    conns1, conns2 = n1.connection_of, n2.connection_of
    for p in sorted(procs1):
        if em[p] not in procs2:
            issues.append(f"edge {p}: computation hyperedge mapped to a non-process edge")
    for c in sorted(conns1):
        if em[c] not in conns2:
            issues.append(f"edge {c}: communication hyperedge mapped to a non-connection edge")

    for e, xs in sorted(inc1.items()):
        image = frozenset(pm[x] for x in xs)
        if image != inc2[em[e]] & frozenset(pm.values()) or not image <= inc2[em[e]]:
            # homomorphism condition: x in gamma_e iff theta(x) in gamma_theta(e)
            for x in sorted(n1.points):
                if (x in xs) != (pm[x] in inc2[em[e]]):
                    issues.append(f"incidence not preserved at point {x}, edge {e}")

    comp_incident = {x for p in procs1 for x in inc1.get(p, frozenset())}
    for x in sorted(n1.points):
        port1 = n1.port_of[x]
        port2 = n2.port_of.get(pm[x])
        mu = mm.get(x)
        if mu is None or set(mu) != set(port1.messages):
            issues.append(f"point {x}: message injection must be total on the port messages")
            continue
        if len(set(mu.values())) != len(mu):
            issues.append(f"point {x}: message injection is not injective")
        if port2 is None:
            continue
        for m in sorted(port1.published):
            if mu[m] not in port2.published:
                issues.append(f"point {x}: published message {m} not mapped to a published message")
        for m in sorted(port1.delivered):
            if mu[m] not in port2.delivered:
                issues.append(f"point {x}: delivered message {m} not mapped to a delivered message")
        if x in comp_incident:
            if any(m != v for m, v in mu.items()):
                issues.append(f"point {x}: computation-incident point must carry the identity injection")

    for p, proc in sorted(procs1.items()):
        target_proc = procs2.get(em[p])
        if target_proc is None:
            continue
        if proc.port_of != target_proc.port_of:
            issues.append(f"process {p}: labels not preserved on the nose")
        elif not automata_equal(proc.automaton, target_proc.automaton):
            issues.append(f"process {p}: automaton not preserved on the nose")

    for c, conn in sorted(conns1.items()):
        target_conn = conns2.get(em[c])
        if target_conn is None:
            continue
        if conn.messages != target_conn.messages:
            issues.append(f"connection {c}: channel messages not preserved")
            continue
        if not automata_equal(conn.automaton, target_conn.automaton):
            issues.append(f"connection {c}: channel automaton not preserved")
        att1 = conn.attachment_of
        att2 = target_conn.attachment_of
        for x in sorted(inc1.get(c, frozenset())):
            mu1 = att1.get(x, {})
            mu2 = att2.get(pm[x], {})
            mux = mm.get(x, {})
            if set(mu1) != set(mu2):
                issues.append(f"connection {c} at {x}: attachment domains differ after mapping")
                continue
            for m in sorted(mu1):
                if mux.get(mu1[m]) != mu2[m]:
                    issues.append(f"connection {c} at {x}: attachment triangle does not commute on {m}")

    return tuple(issues)


# ---------------------------------------------------------------------------
# LTL tableaux over truth assignments


def subformulas(f):
    """The subformulas of f, each once, in depth-first order from f."""
    seen = []

    def walk(h):
        if h in seen:
            return
        seen.append(h)
        if isinstance(h, (Not, Next)):
            walk(h.sub)
        elif isinstance(h, (And, Or)):
            for s in h.subs:
                walk(s)
        elif isinstance(h, Until):
            walk(h.lhs)
            walk(h.rhs)

    walk(f)
    return seen


def dense_tableau(f, sig) -> MullerAutomaton:
    """The tableau of a formula over every truth assignment to its elementary
    subformulas, with a transition for every pair that passes the Next step
    and the one-step unrolling of each Until, tested by recursive truth
    evaluation.  Assignments are listed in itertools.product order over the
    elementary subformulas in ``subformulas`` order, and each state is named
    by its position in that list."""
    subs = subformulas(f)
    elementary = [h for h in subs if isinstance(h, (Atom, Next, Until))]
    untils = [h for h in subs if isinstance(h, Until)]

    assignments = []
    for bits in itertools.product((False, True), repeat=len(elementary)):
        assignments.append(frozenset(h for h, b in zip(elementary, bits) if b))

    def truth(h, state: frozenset) -> bool:
        if isinstance(h, (Atom, Next, Until)):
            return h in state
        if isinstance(h, Not):
            return not truth(h.sub, state)
        if isinstance(h, And):
            return all(truth(s, state) for s in h.subs)
        if isinstance(h, Or):
            return any(truth(s, state) for s in h.subs)
        raise TypeError(h)

    def guard_of(state: frozenset):
        lits = []
        for h in elementary:
            if isinstance(h, Atom):
                lits.append(h if h in state else Not(h))
        return land(*lits)

    index = {s: i for i, s in enumerate(assignments)}
    transitions = []
    for s in assignments:
        g = guard_of(s)
        for s2 in assignments:
            ok = True
            for h in elementary:
                if isinstance(h, Next) and truth(h, s) != truth(h.sub, s2):
                    ok = False
                    break
                if isinstance(h, Until):
                    unrolled = truth(h.rhs, s) or (truth(h.lhs, s) and truth(h, s2))
                    if truth(h, s) != unrolled:
                        ok = False
                        break
            if ok:
                transitions.append((index[s], g, index[s2]))

    initial = frozenset(index[s] for s in assignments if truth(f, s))
    fairness = tuple(
        frozenset(index[s] for s in assignments if not truth(u, s) or truth(u.rhs, s))
        for u in untils
    )
    return MullerAutomaton(
        sig, frozenset(index.values()), tuple(transitions), initial, GenBuchi(fairness)
    )


def assignment_tableau(f, sig) -> MullerAutomaton:
    """The part of ``dense_tableau`` reachable from its initial states, built
    from those states by bitmask columns, one bit per truth assignment.

    With k elementary subformulas, assignment i makes elementary[j] true iff
    bit k-1-j of i is set, so counting i up lists the assignments in the
    dense order.  Each state turns the Next step and the one-step unrolling
    of its Untils into one (mask, value) requirement over its successor's
    Next-argument and Until bits, or none when an Until contradicts its own
    unrolling; its successors are the assignments that meet it."""
    elementary = [h for h in subformulas(f) if isinstance(h, (Atom, Next, Until))]
    nexts = [h for h in elementary if isinstance(h, Next)]
    untils = [h for h in elementary if isinstance(h, Until)]
    k = len(elementary)
    full = (1 << (1 << k)) - 1
    columns = {h: atom_column(k, k - 1 - j) for j, h in enumerate(elementary)}

    def column(h):
        return boolean_mask(h, columns.__getitem__, full)

    ahead = [column(h.sub) for h in nexts] + [columns[u] for u in untils]
    steps = [(columns[h], None, None) for h in nexts] + [
        (columns[u], column(u.lhs), column(u.rhs)) for u in untils
    ]

    def successors(i):
        meet = full
        for b, (c, lhs, rhs) in enumerate(steps):
            now = c >> i & 1
            if lhs is not None and rhs >> i & 1:  # the Until is fulfilled now
                if not now:
                    return []
            elif lhs is None or lhs >> i & 1:  # it holds now iff it holds next
                meet &= ahead[b] if now else full ^ ahead[b]
            elif now:
                return []
        return list(bit_positions(meet))

    initial = list(bit_positions(column(f)))
    succ = {}
    frontier = list(initial)
    while frontier:
        i = frontier.pop()
        if i not in succ:
            succ[i] = successors(i)
            frontier.extend(succ[i])
    order = sorted(succ)
    atoms = [(k - 1 - j, h) for j, h in enumerate(elementary) if isinstance(h, Atom)]
    transitions = []
    for i in order:
        g = land(*(a if i >> b & 1 else Not(a) for b, a in atoms))
        transitions.extend((i, g, j) for j in succ[i])
    fairness = tuple(
        frozenset(i for i in order if ((full ^ columns[u]) | column(u.rhs)) >> i & 1)
        for u in untils
    )
    return MullerAutomaton(
        sig, frozenset(order), tuple(transitions), frozenset(initial), GenBuchi(fairness)
    )


# ---------------------------------------------------------------------------
# Colimit by naive equivalence closure


def colimit_classes_by_closure(diagram):
    """Partition of the disjoint union, computed by pairwise class merging to
    a fixpoint; no union-find involved."""
    classes = [frozenset({(i, a)}) for i, sig in diagram.nodes.items() for a in sorted(sig.actions)]
    pairs = []
    for (i, j), f in diagram.arrows.items():
        for a, b in f.mapping.items():
            pairs.append(((i, a), (j, b)))
    changed = True
    while changed:
        changed = False
        for x, y in pairs:
            cx = next(c for c in classes if x in c)
            cy = next(c for c in classes if y in c)
            if cx != cy:
                classes.remove(cx)
                classes.remove(cy)
                classes.append(cx | cy)
                changed = True
    return frozenset(classes)


def colimit_classes_of_cocone(diagram, cocone):
    """Partition induced by a cocone's legs (elements with equal images)."""
    by_symbol = {}
    for i, sig in diagram.nodes.items():
        leg = cocone.leg(i)
        for a in sorted(sig.actions):
            by_symbol.setdefault(leg(a), set()).add((i, a))
    return frozenset(frozenset(v) for v in by_symbol.values())


def interpret_functionally(t, state, fuel: int = 10000):
    """Big-step evaluation of a ground term that never mutates a state."""

    def run(term, st, fuel):
        if isinstance(term, Skip):
            return st, fuel
        if isinstance(term, Assign):
            return {**st, term.target: eval_aexp(term.expr, st)}, fuel
        if isinstance(term, Seq):
            out = run(term.first, st, fuel)
            return None if out is None else run(term.second, *out)
        if isinstance(term, If):
            return run(term.then if eval_condition(term.cond, st) else term.orelse, st, fuel)
        if isinstance(term, While):
            while eval_condition(term.cond, st):
                if fuel <= 0:
                    return None
                out = run(term.body, st, fuel - 1)
                if out is None:
                    return None
                st, fuel = out
            return st, fuel
        raise TypeError(term)

    out = run(t, dict(state), fuel)
    return OutOfFuel() if out is None else Terminated(out[0])


def check_by_interpretation(t, s, bounds, fuel: int = 10000):
    """Partial correctness over the box, one interpreter run per pre-state."""
    sub = subterm_at(t, s.position)
    names = idents(t) | idents(s.pre) | idents(s.post)
    checked = fuel_outs = 0
    for state in enumerate_states(names, bounds):
        if not eval_condition(s.pre, state):
            continue
        checked += 1
        result = interpret_functionally(sub, state, fuel)
        if isinstance(result, OutOfFuel):
            fuel_outs += 1
        elif not eval_condition(s.post, result.state):
            return Fails(state)
    return Inconclusive(fuel_outs) if fuel_outs else Holds(checked)


def entails_by_enumeration(c1, c2, bounds) -> bool:
    """Every in-bounds state satisfying c1 satisfies c2, state by state."""
    return all(
        eval_condition(c2, state)
        for state in enumerate_states(idents(c1) | idents(c2), bounds)
        if eval_condition(c1, state)
    )


# ---------------------------------------------------------------------------
# Signatures and morphisms


def signature(*actions: str) -> ActionSignature:
    return ActionSignature(frozenset(actions))


def identity(sig: ActionSignature) -> SignatureMorphism:
    return SignatureMorphism(sig, sig, {a: a for a in sig.actions})


def compose(f: SignatureMorphism, g: SignatureMorphism) -> SignatureMorphism:
    """Pointwise composition ``f ; g`` (first f, then g)."""
    if f.target != g.source:
        raise ValueError("endpoint mismatch: target of first != source of second")
    return SignatureMorphism(f.source, g.target, {a: g.mapping[b] for a, b in f.mapping.items()})


def commutes_over(cocone, diagram) -> bool:
    """True iff for every arrow f: i -> j, leg_i = f ; leg_j."""
    return all(cocone.leg(i) == compose(f, cocone.leg(j)) for (i, j), f in diagram.arrows.items())


def mediating_morphisms(diagram, colim, other):
    """All morphisms ``colim.apex -> other.apex`` commuting with every leg.

    Exhaustive search over all functions; intended for small instances, where
    it witnesses the universal property (exactly one result for a colimit and
    a commuting cocone).
    """
    dom = ordered_actions(colim.apex)
    cod = ordered_actions(other.apex)
    found = []
    for images in itertools.product(cod, repeat=len(dom)):
        cand = SignatureMorphism(colim.apex, other.apex, dict(zip(dom, images)))
        if all(compose(colim.leg(i), cand) == other.leg(i) for i in diagram.nodes):
            found.append(cand)
    return found


# ---------------------------------------------------------------------------
# Program positions


def positions(t):
    """All program positions of a term, in preorder."""
    out = [()]
    for i, kid in enumerate(children(t)):
        out.extend((i,) + p for p in positions(kid))
    return out


# ---------------------------------------------------------------------------
# Acceptance of one lasso


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


# ---------------------------------------------------------------------------
# The worked example, read with the CLI's loaders once: the repository and
# the query are frozen values, so every test may share them.

DATA = Path(__file__).resolve().parent.parent / "examples" / "data"


@cache
def repository():
    """The journey-planning repository of ``examples/data``."""
    return cli.load_repository(DATA / "services.repo.json")


@cache
def traveller_query():
    """The traveller query of ``examples/data``."""
    return cli.load_query(DATA / "traveller.query.json")


def example_clause(name: str):
    return repository().clause(name)
