"""Linear temporal logic over action signatures.

Formulas live over a signature of actions; a model is an infinite trace of
action subsets, represented here by ultimately periodic lassos.  The syntax
tree, ``lnot``/``land``/``lor`` and ``atoms_of`` are those of the
sentences of ``sigcat``, shared with transition guards, which are the
formulas without ``X`` and ``U``; guards are read and written with the same
``parse_formula`` and ``render_formula``.  ``F f`` abbreviates ``true U f``
and ``G f`` abbreviates ``!(true U !f)``.

The surface grammar used throughout files and the command line:

    atoms        m!   m?   x.m!   bare names for opaque actions
    operators    !  &  |  ->  X  U  F  G      constants: true false
    precedence   unary  >  U  >  &  >  |  >  ->
                 U and -> associate to the right; a run of & or of | is
                 one conjunction or disjunction

``_BINARY`` is the one precedence table: ``parse_formula`` reads by it and
``render_formula`` brackets by it.
"""

from __future__ import annotations

import re
from collections import deque

from . import InputError, Operator, Tokens
from .muller import GenBuchi, LassoTrace, MullerAutomaton, find_accepted_lasso
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
    Until,
    atoms_of,
    land,
    lnot,
    lor,
)


def implies(f: Formula, g: Formula) -> Formula:
    return lor(lnot(f), g)


def eventually(f: Formula) -> Formula:
    return Until(TRUE, f)


def always(f: Formula) -> Formula:
    return lnot(Until(TRUE, lnot(f)))


# ---------------------------------------------------------------------------
# Lasso semantics


def sat_lasso(t: LassoTrace, f: Formula) -> bool:
    """Structural satisfaction of a formula on an ultimately periodic trace."""
    memo: dict[tuple[Formula, int], bool] = {}
    size = len(t)

    def sat(h: Formula, pos: int) -> bool:
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
# Formula -> automaton (obligation tableau)
#
# A state is a pair (obligations, fulfilled): the formulas that must hold
# from its position on, and the Untils that the transition entering it did
# not postpone.  The initial state is ({f}, every Until).  A state's
# transitions come from expanding its obligations, as Gerth, Peled, Vardi
# and Wolper do ("Simple on-the-fly automatic verification of linear
# temporal logic", PSTV 1995).  A branch of the expansion takes each
# obligation apart:
#
#   a, !a          a literal of the transition's guard
#   X g, !X g      g, resp. !g, is an obligation of the next state
#   g & h, !(g|h)  both parts, negated under the negation
#   g | h, !(g&h)  one branch per part, negated under the negation
#   g U h          h (fulfilled), or g and X(g U h) (postponed)
#   !(g U h)       !h and !g, or !h and X !(g U h)
#
# A branch that holds some h together with lnot(h), among the formulas it
# has expanded or has still to expand, is dropped; so is a successor whose
# obligations have no branch left, and the initial state when f has none.
# Each branch gives one transition, whose guard is the conjunction of its
# literals, to the state of its next obligations and of the Untils it did
# not postpone; equal (guard, successor) pairs give one.  The
# generalized-Buchi family has one set per Until that some state postpones,
# the states whose fulfilled part holds it, so that no eventuality is
# postponed forever: acceptance on the entering transition (Couvreur, FM
# 1999), kept on the state it enters.  (An Until that no state postpones
# would add the set of all states.)
#
# Within one call, formulas are numbered in the order they are met, and an
# obligation set is expanded in that order; states are numbered in the
# order they are found.  So the automaton does not depend on the hash seed,
# and branches are sets of small ints.  The choices of each formula, the
# expansion of each obligation set and each guard are computed once per
# call.


def _choices(h: Formula):
    """The ways to expand one obligation, or None for a literal: a list of
    alternatives, each ``(now, next, postponed)``, the formulas to expand at
    this position, the obligations of the next one and the Untils
    postponed."""
    neg = isinstance(h, Not)
    g = h.sub if neg else h
    if isinstance(g, Atom):
        return None
    if neg and isinstance(g, Not):
        return [((g.sub,), (), ())]
    if isinstance(g, Next):
        return [((), (lnot(g.sub) if neg else g.sub,), ())]
    if isinstance(g, (And, Or)):
        parts = tuple(map(lnot, g.subs)) if neg else g.subs
        if isinstance(g, And) != neg:  # a conjunction, after De Morgan
            return [(parts, (), ())]
        return [((s,), (), ()) for s in parts]
    if isinstance(g, Until):
        if neg:
            return [((lnot(g.rhs), lnot(g.lhs)), (), ()), ((lnot(g.rhs),), (h,), ())]
        return [((g.rhs,), (), ()), ((g.lhs,), (g,), (g,))]
    raise TypeError(h)


def to_automaton(f: Formula, sig: ActionSignature | None = None) -> MullerAutomaton:
    """An automaton accepting exactly the traces that satisfy the formula."""
    if sig is None:
        sig = ActionSignature(atoms_of(f))
    stray = atoms_of(f) - sig.actions
    if stray:
        raise ValueError(f"formula atoms outside signature: {sorted(stray)}")

    number: dict[Formula, int] = {}
    formula: list[Formula] = []
    negation: dict[int, int] = {}
    choices: dict[int, list | None] = {}

    def intern(h: Formula) -> int:
        i = number.get(h)
        if i is None:
            i = number[h] = len(formula)
            formula.append(h)
        return i

    def neg(i: int) -> int:
        if i not in negation:
            negation[i] = intern(lnot(formula[i]))
        return negation[i]

    def choices_of(i: int):
        if i not in choices:
            alternatives = _choices(formula[i])
            choices[i] = alternatives and [
                (
                    tuple((intern(s), neg(intern(s))) for s in now),
                    frozenset(map(intern, ahead)),
                    frozenset(map(intern, later)),
                )
                for now, ahead, later in alternatives
            ]
        return choices[i]

    def branches(obligations: frozenset) -> list:
        """The branches of an obligation set, in order, as ``(literals,
        next, postponed)``; contradictory branches are dropped."""
        todo = tuple(sorted(obligations))
        if any(neg(i) in obligations for i in todo):
            return []
        out = []
        stack = [(todo, frozenset(), frozenset(), frozenset(), frozenset())]
        while stack:
            todo, now, literals, nxt, postponed = stack.pop()
            if not todo:
                out.append((literals, nxt, postponed))
                continue
            i, rest = todo[0], todo[1:]
            if i in now:
                stack.append((rest, now, literals, nxt, postponed))
                continue
            now = now | {i}
            alternatives = choices_of(i)
            if alternatives is None:
                stack.append((rest, now, literals | {i}, nxt, postponed))
                continue
            grown = []
            for adds, ahead, later in alternatives:
                pending = rest
                for j, nj in adds:
                    if nj in now or nj in pending or formula[j] == FALSE:
                        break
                    pending += (j,)
                else:
                    grown.append((pending, now, literals, nxt | ahead, postponed | later))
            stack.extend(reversed(grown))
        return out

    guards: dict[frozenset, Formula] = {}
    expansions: dict[frozenset, list] = {}

    def expand(obligations: frozenset) -> list:
        """The distinct (guard, next, postponed) triples of the branches."""
        out = expansions.get(obligations)
        if out is None:
            out = []
            for literals, nxt, postponed in branches(obligations):
                guard = guards.get(literals)
                if guard is None:
                    guard = guards[literals] = land(*(formula[i] for i in literals))
                out.append((guard, nxt, postponed))
            out = expansions[obligations] = list(dict.fromkeys(out))
        return out

    # a state is keyed by its obligations and the Untils it postponed, the
    # complement of its fulfilled part
    start = (frozenset({intern(f)}), frozenset())
    state: dict[tuple, int] = {}
    queue = deque()
    if expand(start[0]):
        state[start] = 0
        queue.append(start)
    transitions = []
    while queue:
        obligations, _ = src = queue.popleft()
        for guard, nxt, postponed in expand(obligations):
            if not expand(nxt):
                continue
            dst = (nxt, postponed)
            if dst not in state:
                state[dst] = len(state)
                queue.append(dst)
            transitions.append((state[src], guard, state[dst]))
    untils = sorted(frozenset().union(*(p for _, p in state)))
    fairness = tuple(frozenset(i for (_, p), i in state.items() if u not in p) for u in untils)
    initial = frozenset({0}) if state else frozenset()
    return MullerAutomaton(
        sig, frozenset(state.values()), tuple(transitions), initial, GenBuchi(fairness)
    )


def counterexample(a: MullerAutomaton, f: Formula) -> LassoTrace | None:
    """An accepted trace violating the formula, or None when every accepted
    trace satisfies it.

    One emptiness search of the product with the automaton of the negated
    formula, explored on the fly, decides the verdict and yields the witness;
    Muller complementation is never needed.
    """
    return find_accepted_lasso(a, to_automaton(lnot(f), a.signature))


def holds(a: MullerAutomaton, f: Formula) -> bool:
    """Does every trace accepted by the automaton satisfy the formula?"""
    return counterexample(a, f) is None


def satisfiable(f: Formula, sig: ActionSignature | None = None) -> LassoTrace | None:
    """A lasso satisfying the formula, or None."""
    return find_accepted_lasso(to_automaton(f, sig))


def valid(f: Formula, sig: ActionSignature | None = None) -> bool:
    if sig is None:
        sig = ActionSignature(atoms_of(f))
    return satisfiable(lnot(f), sig) is None


def entails(f1: Formula, f2: Formula, sig: ActionSignature | None = None) -> bool:
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

# The precedence table, read by parse_formula and render_formula.  The unary
# operators bind tighter than every binary one.
_BINARY = {
    "->": Operator(1, "right", implies),
    "|": Operator(2, "flat", lor),
    "&": Operator(3, "flat", land),
    "U": Operator(4, "right", Until),
}
_UNARY = {"!": lnot, "X": Next, "F": eventually, "G": always}
_UNARY_OPERAND = 1 + max(op.precedence for op in _BINARY.values())
_CONSTANTS = {"true": TRUE, "false": FALSE}


class FormulaSyntaxError(InputError):
    pass


def _operand(tokens: Tokens) -> Formula:
    kind, value = tokens.take()
    if value in _UNARY:
        return _UNARY[value](tokens.nested(_operand))
    if kind == "name":
        return _CONSTANTS[value] if value in _CONSTANTS else Atom(value)
    if kind == "lpar":
        inner = tokens.nested(Tokens.climb, _BINARY, _operand)
        tokens.take(")")
        return inner
    tokens.index -= 1  # the error is at the token just taken
    raise tokens.expected("formula")


def parse_formula(text: str) -> Formula:
    return Tokens(_TOKEN, text, FormulaSyntaxError).whole(Tokens.climb, _BINARY, _operand)


def render_formula(f: Formula) -> str:
    def render(h, lowest):
        if isinstance(h, Atom):
            return h.action
        if h == TRUE:
            return "true"
        if h == FALSE:
            return "false"
        if isinstance(h, Not):
            inner = h.sub
            if isinstance(inner, Until) and inner.lhs == TRUE and isinstance(inner.rhs, Not):
                return "G " + render(inner.rhs.sub, _UNARY_OPERAND)
            return "!" + render(inner, _UNARY_OPERAND)
        if isinstance(h, Next):
            return "X " + render(h.sub, _UNARY_OPERAND)
        if isinstance(h, Until):
            if h.lhs == TRUE:
                return "F " + render(h.rhs, _UNARY_OPERAND)
            op = _BINARY["U"]
            return op.bracket(render(h.lhs, op.left) + " U " + render(h.rhs, op.right), lowest)
        if isinstance(h, (And, Or)):
            symbol = "&" if isinstance(h, And) else "|"
            op = _BINARY[symbol]
            return op.bracket(f" {symbol} ".join(sorted(render(s, op.left) for s in h.subs)), lowest)
        raise TypeError(h)

    return render(f, 0)


def render_lasso(t: LassoTrace) -> str:
    def letter(l):
        return "{" + ",".join(sorted(l)) + "}"

    prefix = " ".join(letter(l) for l in t.prefix)
    cycle = " ".join(letter(l) for l in t.cycle)
    return (prefix + " " if prefix else "") + "(" + cycle + ")^w"
