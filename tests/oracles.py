"""Independent oracles the tests check production code against.

Everything here deliberately avoids the production algorithms: guards are
evaluated by naive recursion on letters (no bitmasks), final-family
membership by each family's own definition (no hit/within unfolding),
acceptance is decided
by explicit run search over the unrolled product graph (no SCC refinement),
emptiness by bounded witness-lasso search per final set, and one more
emptiness route goes through a textbook Muller-to-Buchi conversion.  The
LTL tableau is built over truth assignments, densely by testing every pair
of them, or from the initial ones by bitmask columns.
The bounded pexpr oracles decide one enumerated state at a time, and run
programs with a functional interpreter that copies the state on every
assignment.
"""

from __future__ import annotations

import itertools
from collections import deque

from orcbind.muller import (
    AllNonempty,
    Explicit,
    GenBuchi,
    ImpliesFamily,
    LassoTrace,
    MullerAutomaton,
    ProductFamily,
    atom_column,
    bit_positions,
    boolean_mask,
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
    condition_idents,
    enumerate_states,
    eval_aexp,
    eval_condition,
    subterm_at,
    term_idents,
)
from orcbind.sigcat import And, Atom, Next, Not, Or, Until, land, ordered_actions


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


def check_by_interpretation(t, s, bounds=None, fuel: int = 10000):
    """Partial correctness over the box, one interpreter run per pre-state."""
    bounds = {} if bounds is None else bounds
    sub = subterm_at(t, s.position)
    idents = term_idents(t) | condition_idents(s.pre) | condition_idents(s.post) | set(bounds)
    checked = fuel_outs = 0
    for state in enumerate_states(idents, bounds):
        if not eval_condition(s.pre, state):
            continue
        checked += 1
        result = interpret_functionally(sub, state, fuel)
        if isinstance(result, OutOfFuel):
            fuel_outs += 1
        elif not eval_condition(s.post, result.state):
            return Fails(state)
    return Inconclusive(fuel_outs) if fuel_outs else Holds(checked)


def entails_by_enumeration(c1, c2, bounds=None) -> bool:
    """Every in-bounds state satisfying c1 satisfies c2, state by state."""
    bounds = {} if bounds is None else bounds
    idents = condition_idents(c1) | condition_idents(c2) | set(bounds)
    return all(
        eval_condition(c2, state)
        for state in enumerate_states(idents, bounds)
        if eval_condition(c1, state)
    )
