"""Linear temporal logic over action signatures.

Formulas live over a signature of actions; a model is an infinite trace of
action subsets, represented here by ultimately periodic lassos.  Conjunction
and disjunction range over finite formula sets, so ``true`` is the empty
conjunction and ``false`` the empty disjunction; ``F f`` abbreviates
``true U f`` and ``G f`` abbreviates ``!(true U !f)``.

The surface grammar used throughout files and the command line:

    atoms        m!   m?   x.m!   bare names for opaque actions
    operators    !  &  |  ->  X  U  F  G      constants: true false
    precedence   unary  >  U  >  &  >  |  >  ->
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .sigcat import ActionSignature, SignatureMorphism
from .muller import (
    GAtom,
    GenBuchi,
    Guard,
    GAnd,
    GNot,
    GOr,
    LassoTrace,
    MullerAutomaton,
    _atom_column,
    find_accepted_lasso,
    g_and,
    g_atom,
    g_not,
    g_or,
)


@dataclass(frozen=True)
class LtlFormula:
    pass


@dataclass(frozen=True)
class Atom(LtlFormula):
    action: str


@dataclass(frozen=True)
class Not(LtlFormula):
    sub: LtlFormula


@dataclass(frozen=True)
class And(LtlFormula):
    subs: frozenset[LtlFormula]


@dataclass(frozen=True)
class Or(LtlFormula):
    subs: frozenset[LtlFormula]


@dataclass(frozen=True)
class Next(LtlFormula):
    sub: LtlFormula


@dataclass(frozen=True)
class Until(LtlFormula):
    lhs: LtlFormula
    rhs: LtlFormula


TRUE = And(frozenset())
FALSE = Or(frozenset())


def lnot(f: LtlFormula) -> LtlFormula:
    if isinstance(f, Not):
        return f.sub
    if f == TRUE:
        return FALSE
    if f == FALSE:
        return TRUE
    return Not(f)


def land(*fs: LtlFormula) -> LtlFormula:
    flat = set()
    for f in fs:
        if isinstance(f, And):
            flat |= f.subs
        else:
            flat.add(f)
    if FALSE in flat:
        return FALSE
    flat.discard(TRUE)
    if len(flat) == 1:
        return next(iter(flat))
    return And(frozenset(flat))


def lor(*fs: LtlFormula) -> LtlFormula:
    flat = set()
    for f in fs:
        if isinstance(f, Or):
            flat |= f.subs
        else:
            flat.add(f)
    if TRUE in flat:
        return TRUE
    flat.discard(FALSE)
    if len(flat) == 1:
        return next(iter(flat))
    return Or(frozenset(flat))


def implies(f: LtlFormula, g: LtlFormula) -> LtlFormula:
    return lor(lnot(f), g)


def eventually(f: LtlFormula) -> LtlFormula:
    return Until(TRUE, f)


def always(f: LtlFormula) -> LtlFormula:
    return lnot(Until(TRUE, lnot(f)))


def atoms_of(f: LtlFormula) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset({f.action})
    if isinstance(f, (Not, Next)):
        return atoms_of(f.sub)
    if isinstance(f, (And, Or)):
        out = frozenset()
        for s in f.subs:
            out |= atoms_of(s)
        return out
    if isinstance(f, Until):
        return atoms_of(f.lhs) | atoms_of(f.rhs)
    raise TypeError(f)


def translate(f: LtlFormula, sigma: SignatureMorphism) -> LtlFormula:
    """Rename the atoms of a formula along a signature morphism."""
    mapping = sigma.mapping
    missing = atoms_of(f) - set(mapping)
    if missing:
        raise ValueError(f"formula atoms outside the morphism source: {sorted(missing)}")

    def go(h):
        if isinstance(h, Atom):
            return Atom(mapping[h.action])
        if isinstance(h, Not):
            return Not(go(h.sub))
        if isinstance(h, Next):
            return Next(go(h.sub))
        if isinstance(h, And):
            return And(frozenset(go(s) for s in h.subs))
        if isinstance(h, Or):
            return Or(frozenset(go(s) for s in h.subs))
        if isinstance(h, Until):
            return Until(go(h.lhs), go(h.rhs))
        raise TypeError(h)

    return go(f)


# ---------------------------------------------------------------------------
# Lasso semantics


def sat_lasso(t: LassoTrace, f: LtlFormula) -> bool:
    """Structural satisfaction of a formula on an ultimately periodic trace."""
    memo: dict[tuple[LtlFormula, int], bool] = {}
    size = len(t)

    def sat(h: LtlFormula, pos: int) -> bool:
        key = (h, pos)
        if key in memo:
            return memo[key]
        if isinstance(h, Atom):
            res = h.action in t.letter(pos)
        elif isinstance(h, Not):
            res = not sat(h.sub, pos)
        elif isinstance(h, And):
            res = all(sat(s, pos) for s in h.subs)
        elif isinstance(h, Or):
            res = any(sat(s, pos) for s in h.subs)
        elif isinstance(h, Next):
            res = sat(h.sub, t.next_pos(pos))
        elif isinstance(h, Until):
            # scan the finitely many distinct suffixes reachable from pos
            res = False
            j = pos
            for _ in range(size + 1):
                if sat(h.rhs, j):
                    res = True
                    break
                if not sat(h.lhs, j):
                    break
                j = t.next_pos(j)
        else:
            raise TypeError(h)
        memo[key] = res
        return res

    return sat(f, 0)


# ---------------------------------------------------------------------------
# Formula -> automaton (reachable tableau)
#
# States are truth assignments to the "elementary" subformulas (atoms, Next,
# Until); the truth of composite subformulas is derived.  With k elementary
# subformulas, assignment i makes elementary[j] true iff bit k-1-j of i is
# set, so counting i up lists the assignments in itertools.product order.
# Each subformula's truth over all 2^k assignments is one bitmask column
# (laid out like a guard's letter mask), computed once.
#
# The Next step and the one-step unrolling of Until constrain the successor
# only through the truth of the Next arguments and of the Untils there, so
# each state turns them into one requirement: a (mask, value) over those
# bits.  Its successors are the assignments that meet it, in index order,
# which fixes the order of the emptiness search and so its witnesses; a
# state whose Until contradicts its own unrolling has none.  Only
# the states reachable from the initial assignments are built, each with its
# transitions, and a generalized-Buchi family per Until subformula, over
# those states, rules out postponing eventualities forever.


def _subformulas(f: LtlFormula):
    seen = []

    def walk(h):
        if h in seen:
            return
        seen.append(h)
        if isinstance(h, (Not, Next)):
            walk(h.sub)
        elif isinstance(h, (And, Or)):
            for s in sorted(h.subs, key=repr):
                walk(s)
        elif isinstance(h, Until):
            walk(h.lhs)
            walk(h.rhs)

    walk(f)
    return seen


def _indices(mask: int) -> list[int]:
    """Positions of the set bits of a mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def to_automaton(f: LtlFormula, sig: ActionSignature | None = None) -> MullerAutomaton:
    """An automaton accepting exactly the traces that satisfy the formula."""
    if sig is None:
        sig = ActionSignature(atoms_of(f))
    stray = atoms_of(f) - sig.actions
    if stray:
        raise ValueError(f"formula atoms outside signature: {sorted(stray)}")

    elementary = [h for h in _subformulas(f) if isinstance(h, (Atom, Next, Until))]
    nexts = [h for h in elementary if isinstance(h, Next)]
    untils = [h for h in elementary if isinstance(h, Until)]
    k = len(elementary)
    full = (1 << (1 << k)) - 1
    columns = {h: _atom_column(k, k - 1 - j) for j, h in enumerate(elementary)}

    def column(h: LtlFormula) -> int:
        c = columns.get(h)
        if c is None:
            if isinstance(h, Not):
                c = full ^ column(h.sub)
            elif isinstance(h, And):
                c = full
                for s in h.subs:
                    c &= column(s)
            elif isinstance(h, Or):
                c = 0
                for s in h.subs:
                    c |= column(s)
            else:
                raise TypeError(h)
            columns[h] = c
        return c

    # the successor's truths a step constrains: one requirement bit each
    ahead = [column(h.sub) for h in nexts] + [columns[u] for u in untils]
    steps = [(columns[h], None, None) for h in nexts] + [
        (columns[u], column(u.lhs), column(u.rhs)) for u in untils
    ]

    def requirement(i: int):
        """The (mask, value) successors of assignment i must meet, or None."""
        mask = value = 0
        for b, (c, lhs, rhs) in enumerate(steps):
            now = c >> i & 1
            if lhs is None:  # X g holds now iff g holds next
                mask |= 1 << b
                value |= now << b
            elif rhs >> i & 1:  # the Until is fulfilled now
                if not now:
                    return None
            elif lhs >> i & 1:  # the Until holds now iff it holds next
                mask |= 1 << b
                value |= now << b
            elif now:
                return None
        return mask, value

    successors: dict[tuple[int, int], list[int]] = {}

    def successors_of(req) -> list[int]:
        out = successors.get(req)
        if out is None:
            mask, value = req
            meet = full
            for b, c in enumerate(ahead):
                if mask >> b & 1:
                    meet &= c if value >> b & 1 else full ^ c
            out = successors[req] = _indices(meet)
        return out

    initial = _indices(column(f))
    succ: dict[int, list[int]] = {}
    frontier = list(initial)
    reached = set(initial)
    while frontier:
        i = frontier.pop()
        req = requirement(i)
        succ[i] = [] if req is None else successors_of(req)
        for j in succ[i]:
            if j not in reached:
                reached.add(j)
                frontier.append(j)

    order = sorted(succ)
    states = {
        i: frozenset(h for j, h in enumerate(elementary) if i >> (k - 1 - j) & 1) for i in order
    }
    atoms = [(k - 1 - j, h.action) for j, h in enumerate(elementary) if isinstance(h, Atom)]
    transitions = []
    for i in order:
        g = g_and(*(g_atom(a) if i >> b & 1 else g_not(g_atom(a)) for b, a in atoms))
        transitions.extend((states[i], g, states[j]) for j in succ[i])
    fairness = []
    for u in untils:
        fair = (full ^ columns[u]) | column(u.rhs)
        fairness.append(frozenset(states[i] for i in order if fair >> i & 1))
    return MullerAutomaton(
        sig,
        frozenset(states.values()),
        tuple(transitions),
        frozenset(states[i] for i in initial),
        GenBuchi(tuple(fairness)),
    )


def counterexample(a: MullerAutomaton, f: LtlFormula) -> LassoTrace | None:
    """An accepted trace violating the formula, or None when every accepted
    trace satisfies it.

    One emptiness search of the product with the automaton of the negated
    formula, explored on the fly, decides the verdict and yields the witness;
    Muller complementation is never needed.
    """
    stray = atoms_of(f) - a.signature.actions
    if stray:
        raise ValueError(f"formula atoms outside automaton signature: {sorted(stray)}")
    return find_accepted_lasso(a, to_automaton(lnot(f), a.signature))


def holds(a: MullerAutomaton, f: LtlFormula) -> bool:
    """Does every trace accepted by the automaton satisfy the formula?"""
    return counterexample(a, f) is None


def satisfiable(f: LtlFormula, sig: ActionSignature | None = None) -> LassoTrace | None:
    """A lasso satisfying the formula, or None."""
    return find_accepted_lasso(to_automaton(f, sig))


def valid(f: LtlFormula, sig: ActionSignature | None = None) -> bool:
    if sig is None:
        sig = ActionSignature(atoms_of(f))
    return satisfiable(lnot(f), sig) is None


def entails(f1: LtlFormula, f2: LtlFormula, sig: ActionSignature | None = None) -> bool:
    """Semantic consequence: every trace satisfying f1 satisfies f2."""
    if sig is None:
        sig = ActionSignature(atoms_of(f1) | atoms_of(f2))
    return satisfiable(land(f1, lnot(f2)), sig) is None


# ---------------------------------------------------------------------------
# Surface syntax

_TOKEN = re.compile(
    r"\s*(?:(?P<lpar>\()|(?P<rpar>\))|(?P<arrow>->)|(?P<amp>&)|(?P<bar>\|)"
    r"|(?P<bang>!)|(?P<name>[A-Za-z_][A-Za-z0-9_.]*[!?]?))"
)

_UNARY = {"X", "F", "G"}
_RESERVED = {"true", "false", "U"} | _UNARY


class FormulaSyntaxError(ValueError):
    pass


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise FormulaSyntaxError(f"cannot tokenize formula at: {text[pos:]!r}")
            break
        pos = m.end()
        kind = m.lastgroup
        tokens.append((kind, m.group(kind)))
    tokens.append(("end", ""))
    return tokens


def parse_formula(text: str) -> LtlFormula:
    tokens = _tokenize(text)
    idx = 0

    def peek():
        return tokens[idx]

    def take(kind=None):
        nonlocal idx
        tok = tokens[idx]
        if kind and tok[0] != kind:
            raise FormulaSyntaxError(f"expected {kind}, found {tok[1]!r}")
        idx += 1
        return tok

    def parse_imp():
        left = parse_or()
        if peek()[0] == "arrow":
            take()
            return implies(left, parse_imp())
        return left

    def parse_or():
        parts = [parse_and()]
        while peek()[0] == "bar":
            take()
            parts.append(parse_and())
        return lor(*parts) if len(parts) > 1 else parts[0]

    def parse_and():
        parts = [parse_until()]
        while peek()[0] == "amp":
            take()
            parts.append(parse_until())
        return land(*parts) if len(parts) > 1 else parts[0]

    def parse_until():
        left = parse_unary()
        if peek() == ("name", "U"):
            take()
            return Until(left, parse_until())
        return left

    def parse_unary():
        kind, value = peek()
        if kind == "bang":
            take()
            return lnot(parse_unary())
        if kind == "name" and value in _UNARY:
            take()
            sub = parse_unary()
            if value == "X":
                return Next(sub)
            if value == "F":
                return eventually(sub)
            return always(sub)
        if kind == "name" and value == "true":
            take()
            return TRUE
        if kind == "name" and value == "false":
            take()
            return FALSE
        if kind == "name":
            take()
            return Atom(value)
        if kind == "lpar":
            take()
            inner = parse_imp()
            take("rpar")
            return inner
        raise FormulaSyntaxError(f"unexpected token {value!r}")

    result = parse_imp()
    take("end")
    return result


_PREC_OR, _PREC_AND, _PREC_UNTIL, _PREC_UNARY = 1, 2, 3, 4


def render_formula(f: LtlFormula) -> str:
    def render(h, prec):
        if isinstance(h, Atom):
            return h.action
        if h == TRUE:
            return "true"
        if h == FALSE:
            return "false"
        if isinstance(h, Not):
            inner = h.sub
            if isinstance(inner, Until) and inner.lhs == TRUE and isinstance(inner.rhs, Not):
                return "G " + render(inner.rhs.sub, _PREC_UNARY)
            return "!" + render(inner, _PREC_UNARY)
        if isinstance(h, Next):
            return "X " + render(h.sub, _PREC_UNARY)
        if isinstance(h, Until):
            if h.lhs == TRUE:
                return "F " + render(h.rhs, _PREC_UNARY)
            body = render(h.lhs, _PREC_UNARY) + " U " + render(h.rhs, _PREC_UNTIL - 1)
            return "(" + body + ")" if prec >= _PREC_UNTIL else body
        if isinstance(h, And):
            parts = sorted(render(s, _PREC_AND) for s in h.subs)
            body = " & ".join(parts)
            return "(" + body + ")" if prec >= _PREC_AND else body
        if isinstance(h, Or):
            parts = sorted(render(s, _PREC_OR) for s in h.subs)
            body = " | ".join(parts)
            return "(" + body + ")" if prec >= _PREC_OR else body
        raise TypeError(h)

    return render(f, 0)


def formula_to_guard(f: LtlFormula) -> Guard:
    """Propositional formulas double as transition guards; temporal operators are rejected."""
    if isinstance(f, Atom):
        return GAtom(f.action)
    if isinstance(f, Not):
        return g_not(formula_to_guard(f.sub))
    if isinstance(f, And):
        return g_and(*(formula_to_guard(s) for s in f.subs))
    if isinstance(f, Or):
        return g_or(*(formula_to_guard(s) for s in f.subs))
    raise ValueError("temporal operators are not allowed in guards")


def guard_to_formula(g: Guard) -> LtlFormula:
    if isinstance(g, GAtom):
        return Atom(g.action)
    if isinstance(g, GNot):
        return lnot(guard_to_formula(g.sub))
    if isinstance(g, GAnd):
        return land(*(guard_to_formula(s) for s in g.subs))
    if isinstance(g, GOr):
        return lor(*(guard_to_formula(s) for s in g.subs))
    raise TypeError(g)


def parse_guard(text: str) -> Guard:
    return formula_to_guard(parse_formula(text))


def render_guard(g: Guard) -> str:
    return render_formula(guard_to_formula(g))


def render_lasso(t: LassoTrace) -> str:
    def letter(l):
        return "{" + ",".join(sorted(l)) + "}"

    prefix = " ".join(letter(l) for l in t.prefix)
    cycle = " ".join(letter(l) for l in t.cycle)
    return (prefix + " " if prefix else "") + "(" + cycle + ")^w"
