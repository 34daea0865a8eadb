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
"""

from __future__ import annotations

import re

from . import InputError
from .muller import (
    GenBuchi,
    LassoTrace,
    MullerAutomaton,
    atom_column,
    bit_positions,
    boolean_mask,
    find_accepted_lasso,
)
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
# Formula -> automaton (reachable tableau)
#
# States are truth assignments to the "elementary" subformulas (atoms, Next,
# Until); the truth of composite subformulas is derived.  With k elementary
# subformulas, assignment i makes elementary[j] true iff bit k-1-j of i is
# set, so counting i up lists the assignments in itertools.product order.
# A state is named by its assignment index i.
# Each subformula's truth over all 2^k assignments is one bitmask column,
# laid out like a guard's letter mask: the elementary columns are muller's
# atom columns, and muller's ``boolean_mask`` combines them into the column
# of any composite subformula.
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


def _subformulas(f: Formula):
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


def to_automaton(f: Formula, sig: ActionSignature | None = None) -> MullerAutomaton:
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
    columns = {h: atom_column(k, k - 1 - j) for j, h in enumerate(elementary)}

    def column(h: Formula) -> int:
        return boolean_mask(h, columns.__getitem__, full)

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
            out = successors[req] = list(bit_positions(meet))
        return out

    initial = list(bit_positions(column(f)))
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
    atoms = [(k - 1 - j, Atom(h.action)) for j, h in enumerate(elementary) if isinstance(h, Atom)]
    transitions = []
    for i in order:
        g = land(*(a if i >> b & 1 else Not(a) for b, a in atoms))
        transitions.extend((i, g, j) for j in succ[i])
    fairness = []
    for u in untils:
        fair = (full ^ columns[u]) | column(u.rhs)
        fairness.append(frozenset(i for i in order if fair >> i & 1))
    return MullerAutomaton(
        sig, frozenset(order), tuple(transitions), frozenset(initial), GenBuchi(tuple(fairness))
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

_UNARY = {"X", "F", "G"}


class FormulaSyntaxError(InputError):
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


def parse_formula(text: str) -> Formula:
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


def render_formula(f: Formula) -> str:
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


def render_lasso(t: LassoTrace) -> str:
    def letter(l):
        return "{" + ",".join(sorted(l)) + "}"

    prefix = " ".join(letter(l) for l in t.prefix)
    cycle = " ".join(letter(l) for l in t.cycle)
    return (prefix + " " if prefix else "") + "(" + cycle + ")^w"
