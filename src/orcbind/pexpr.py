"""While-language program expressions as orchestrations.

Terms are built from skip, assignment, sequencing, selection and iteration,
plus program variables standing for statements still to be discovered.
Specifications are Hoare triples addressed at term positions; the Hoare
rules become clause schemas; correctness checking is a bounded semantic
oracle over integer states with an explicit fuel budget, so verdicts about
loops are three-valued.  The states form a box: every identifier ranges
over one ``lo..hi`` range (``BOUNDS`` unless the caller gives another).

Surface syntax, operators loosest first:

    programs     p ; p   over   skip   x := e   if C then p else p endif
                 while C do p done
    conditions   C | C   C & C   !C   over   e = e   e <= e   e < e   true
                 false; Iverson brackets around a comparison are optional,
                 [x = q * y + r], and parentheses may enclose any condition
    expressions  e + e   e - e   e * e   over   identifiers and integers;
                 a minus right before an integer makes a negative literal
    specs        (PRE, POST), two conditions, read by ``parse_spec``

``+`` and ``-`` share one level.  ``;``, ``+``, ``-`` and ``*`` associate
to the left.  Programs have no brackets, so a right-nested sequence reads
back left-nested: the same program.  A ``(`` that opens a comparison, as in
``(q + 1) * y <= r``, is read as one when it does not close a condition.
One table per category (``_AEXP_OPERATORS``, ``_CONDITION_OPERATORS``,
``_PROGRAM_OPERATORS``) gives the binary operators' precedence to the
parsers and, for expressions and conditions, to the renderers.

Positions are 0-indexed sequences of program-child indices; the empty
position is the root.  Conditions never count as children.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from functools import partial, reduce

from . import FrozenMap, InputError, Operator, Tokens
from .engine import Clause, OrchestrationScheme

# ---------------------------------------------------------------------------
# Arithmetic expressions


@dataclass(frozen=True)
class AExp:
    pass


@dataclass(frozen=True)
class Lit(AExp):
    value: int


@dataclass(frozen=True)
class Ident(AExp):
    name: str


@dataclass(frozen=True)
class BinOp(AExp):
    op: str  # + - *
    lhs: AExp
    rhs: AExp


_AEXP_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def eval_aexp(e: AExp, state: dict[str, int]) -> int:
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Ident):
        return state[e.name]
    if isinstance(e, BinOp):
        return _AEXP_OPS[e.op](eval_aexp(e.lhs, state), eval_aexp(e.rhs, state))
    raise TypeError(e)


# ---------------------------------------------------------------------------
# Conditions (state predicates; comparisons are the Iverson-bracketed atoms)


@dataclass(frozen=True)
class Condition:
    pass


@dataclass(frozen=True)
class Compare(Condition):
    op: str  # = <= <
    lhs: AExp
    rhs: AExp


@dataclass(frozen=True)
class CNot(Condition):
    sub: Condition


@dataclass(frozen=True)
class CAnd(Condition):
    subs: tuple[Condition, ...]


@dataclass(frozen=True)
class COr(Condition):
    subs: tuple[Condition, ...]


C_TRUE = CAnd(())
C_FALSE = COr(())


def c_not(c):
    if isinstance(c, CNot):
        return c.sub
    if c == C_TRUE:
        return C_FALSE
    if c == C_FALSE:
        return C_TRUE
    return CNot(c)


def _connective(cls, unit, zero, cs):
    """``cls`` over ``cs``: nested ``cls`` operands are flattened in written
    order (no sorting, no deduplication, so printed programs keep the user's
    order), ``unit`` operands dropped, and any ``zero`` absorbs the whole."""
    flat = []
    for c in cs:
        if isinstance(c, cls):
            flat.extend(c.subs)
        elif c == zero:
            return zero
        else:
            flat.append(c)
    flat = [c for c in flat if c != unit]
    return flat[0] if len(flat) == 1 else cls(tuple(flat))


def c_and(*cs):
    return _connective(CAnd, C_TRUE, C_FALSE, cs)


def c_or(*cs):
    return _connective(COr, C_FALSE, C_TRUE, cs)


_COMPARE_OPS = {"=": operator.eq, "<=": operator.le, "<": operator.lt}


def eval_condition(c: Condition, state: dict[str, int]) -> bool:
    if isinstance(c, Compare):
        return _COMPARE_OPS[c.op](eval_aexp(c.lhs, state), eval_aexp(c.rhs, state))
    if isinstance(c, CNot):
        return not eval_condition(c.sub, state)
    if isinstance(c, CAnd):
        return all(eval_condition(s, state) for s in c.subs)
    if isinstance(c, COr):
        return any(eval_condition(s, state) for s in c.subs)
    raise TypeError(c)


# ---------------------------------------------------------------------------
# Program terms


@dataclass(frozen=True)
class PTerm:
    def render(self) -> str:
        return render_program(self)


@dataclass(frozen=True)
class Skip(PTerm):
    pass


@dataclass(frozen=True)
class Assign(PTerm):
    target: str
    expr: AExp


@dataclass(frozen=True)
class Seq(PTerm):
    first: PTerm
    second: PTerm


@dataclass(frozen=True)
class If(PTerm):
    cond: Condition
    then: PTerm
    orelse: PTerm


@dataclass(frozen=True)
class While(PTerm):
    cond: Condition
    body: PTerm


@dataclass(frozen=True)
class PVar(PTerm):
    name: str


SKIP = Skip()

Position = tuple[int, ...]

ROOT: Position = ()


def children(t: PTerm) -> tuple[PTerm, ...]:
    if isinstance(t, Seq):
        return (t.first, t.second)
    if isinstance(t, If):
        return (t.then, t.orelse)
    if isinstance(t, While):
        return (t.body,)
    return ()


def subterm_at(t: PTerm, pos: Position) -> PTerm:
    cur = t
    for i in pos:
        kids = children(cur)
        if not 0 <= i < len(kids):
            raise IndexError(f"position {pos} invalid in term")
        cur = kids[i]
    return cur


def replace_at(t: PTerm, pos: Position, repl: PTerm) -> PTerm:
    if not pos:
        return repl
    i, rest = pos[0], pos[1:]
    kids = children(t)
    if not 0 <= i < len(kids):
        raise IndexError(f"position {pos} invalid in term")
    new_kid = replace_at(kids[i], rest, repl)
    if isinstance(t, Seq):
        return Seq(new_kid if i == 0 else t.first, new_kid if i == 1 else t.second)
    if isinstance(t, If):
        return If(t.cond, new_kid if i == 0 else t.then, new_kid if i == 1 else t.orelse)
    if isinstance(t, While):
        return While(t.cond, new_kid)
    raise TypeError(t)


def pvars(t: PTerm) -> frozenset[str]:
    if isinstance(t, PVar):
        return frozenset({t.name})
    out = frozenset()
    for kid in children(t):
        out |= pvars(kid)
    return out


def is_ground_term(t: PTerm) -> bool:
    return not pvars(t)


# ---------------------------------------------------------------------------
# Identifiers, substitutions and morphisms


def idents(x) -> frozenset[str]:
    """The identifiers of an expression, a condition or a program."""
    if isinstance(x, (Lit, Skip, PVar)):
        return frozenset()
    if isinstance(x, Ident):
        return frozenset({x.name})
    if isinstance(x, (BinOp, Compare)):
        return idents(x.lhs) | idents(x.rhs)
    if isinstance(x, CNot):
        return idents(x.sub)
    if isinstance(x, (CAnd, COr)):
        return frozenset().union(*map(idents, x.subs))
    if isinstance(x, Assign):
        return idents(x.expr) | {x.target}
    if isinstance(x, Seq):
        return idents(x.first) | idents(x.second)
    if isinstance(x, If):
        return idents(x.cond) | idents(x.then) | idents(x.orelse)
    if isinstance(x, While):
        return idents(x.cond) | idents(x.body)
    raise TypeError(x)


def subst(x, name: str, repl: AExp):
    """An expression or a condition with the identifier ``name`` replaced by
    ``repl`` (e.g. the hole of an assignment-schema shape)."""
    if isinstance(x, Lit):
        return x
    if isinstance(x, Ident):
        return repl if x.name == name else x
    if isinstance(x, BinOp):
        return BinOp(x.op, subst(x.lhs, name, repl), subst(x.rhs, name, repl))
    if isinstance(x, Compare):
        return Compare(x.op, subst(x.lhs, name, repl), subst(x.rhs, name, repl))
    if isinstance(x, CNot):
        return CNot(subst(x.sub, name, repl))
    if isinstance(x, CAnd):
        return CAnd(tuple(subst(s, name, repl) for s in x.subs))
    if isinstance(x, COr):
        return COr(tuple(subst(s, name, repl) for s in x.subs))
    raise TypeError(x)


def apply_subst(t: PTerm, sigma: dict[str, PTerm]) -> PTerm:
    if isinstance(t, PVar):
        return sigma.get(t.name, t)
    if isinstance(t, Seq):
        return Seq(apply_subst(t.first, sigma), apply_subst(t.second, sigma))
    if isinstance(t, If):
        return If(t.cond, apply_subst(t.then, sigma), apply_subst(t.orelse, sigma))
    if isinstance(t, While):
        return While(t.cond, apply_subst(t.body, sigma))
    return t


@dataclass(frozen=True)
class PMorphism:
    """A substitution plus a position: the instantiated source term sits at
    that position inside the target term.

    The substitution is total on the source's program variables; bindings of
    a variable to itself are left implicit.
    """

    source: PTerm
    target: PTerm
    subst: FrozenMap[str, PTerm]
    position: Position = ROOT

    def __post_init__(self):
        object.__setattr__(self, "subst", FrozenMap({v: t for v, t in self.subst.items() if t != PVar(v)}))
        object.__setattr__(self, "position", tuple(self.position))
        if apply_subst(self.source, self.subst) != subterm_at(self.target, self.position):
            raise ValueError("substituted source does not match the target subterm")

    def render(self) -> str:
        parts = [f"{v} -> {render_program(t)}" for v, t in self.subst.items()]
        at = ".".join(map(str, self.position)) if self.position else "e"
        return "{" + "; ".join(parts) + f" @{at}" + "}"


def identity_pmorphism(t: PTerm) -> PMorphism:
    return PMorphism(t, t, {})


def compose_pmorphisms(m1: PMorphism, m2: PMorphism) -> PMorphism:
    """Substitutions composed (restricted to the source's variables),
    positions concatenated target-first."""
    if m1.target != m2.source:
        raise ValueError("endpoint mismatch in morphism composition")
    s1, s2 = m1.subst, m2.subst
    composed = {
        v: apply_subst(apply_subst(PVar(v), s1), s2) for v in sorted(pvars(m1.source))
    }
    return PMorphism(m1.source, m2.target, composed, m2.position + m1.position)


@dataclass(frozen=True)
class PSpec:
    """A pre/post pair addressed at a position of the carrier term."""

    position: Position
    pre: Condition
    post: Condition

    def __post_init__(self):
        object.__setattr__(self, "position", tuple(self.position))

    def render(self) -> str:
        at = ".".join(map(str, self.position)) if self.position else "e"
        return f"<@{at} : {render_condition(self.pre)}, {render_condition(self.post)}>"


def translate_pspec(m: PMorphism, s: PSpec) -> PSpec:
    """Image spec: position shifted under the morphism's position; conditions
    are closed state predicates, so substitution leaves them unchanged."""
    subterm_at(m.source, s.position)
    return PSpec(m.position + s.position, s.pre, s.post)


# ---------------------------------------------------------------------------
# Interpreter and bounded oracles

# The default box (every identifier ranges over lo..hi) and loop fuel.
BOUNDS = (0, 8)
FUEL = 10000


@dataclass(frozen=True)
class Terminated:
    state: FrozenMap[str, int]

    def __post_init__(self):
        object.__setattr__(self, "state", FrozenMap(self.state))


@dataclass(frozen=True)
class OutOfFuel:
    pass


def _run(term: PTerm, state: dict[str, int], fuel: int) -> int | None:
    """Run a ground term, updating ``state`` in place; returns the fuel left,
    or None when a loop runs out of it."""
    if isinstance(term, Assign):
        state[term.target] = eval_aexp(term.expr, state)
    elif isinstance(term, Seq):
        fuel = _run(term.first, state, fuel)
        return None if fuel is None else _run(term.second, state, fuel)
    elif isinstance(term, If):
        return _run(term.then if eval_condition(term.cond, state) else term.orelse, state, fuel)
    elif isinstance(term, While):
        while eval_condition(term.cond, state):
            if fuel <= 0:
                return None
            fuel = _run(term.body, state, fuel - 1)
            if fuel is None:
                return None
    elif not isinstance(term, Skip):
        raise TypeError(term)
    return fuel


def interpret(t: PTerm, state: dict[str, int], fuel: int = FUEL):
    """Big-step evaluation over integer states; fuel decrements per loop
    iteration.  Groundness is checked once, then ``_run`` walks the term on
    a copy of the state."""
    if not is_ground_term(t):
        raise ValueError("cannot interpret a term with program variables")
    state = dict(state)
    if _run(t, state, fuel) is None:
        return OutOfFuel()
    return Terminated(state)


def enumerate_states(names, bounds: tuple[int, int]):
    """Every state of the box: each identifier ranges over ``lo..hi``, and
    states come in lexicographic order of the sorted identifiers."""
    names = sorted(names)
    lo, hi = bounds
    for combo in itertools.product(range(lo, hi + 1), repeat=len(names)):
        yield dict(zip(names, combo))


def _box(names, bounds: tuple[int, int]):
    """The box in ``enumerate_states`` order, without its states: per
    identifier, its range and how many consecutive states share each value;
    and the number of states."""
    names = sorted(names)
    values = range(bounds[0], bounds[1] + 1)
    n = len(values)
    box = {name: (values, n**i) for i, name in enumerate(reversed(names))}
    return box, n ** len(names)


def _column(x, box):
    """The values of an expression, or the truth values of a condition, over
    the box, as a lazy iterator."""
    if isinstance(x, Lit):
        return itertools.repeat(x.value)
    if isinstance(x, Ident):
        values, run = box[x.name]
        if run == 1:
            return itertools.cycle(values)
        runs = map(itertools.repeat, itertools.cycle(values), itertools.repeat(run))
        return itertools.chain.from_iterable(runs)
    if isinstance(x, BinOp):
        return map(_AEXP_OPS[x.op], _column(x.lhs, box), _column(x.rhs, box))
    if isinstance(x, Compare):
        return map(_COMPARE_OPS[x.op], _column(x.lhs, box), _column(x.rhs, box))
    if isinstance(x, CNot):
        return map(operator.not_, _column(x.sub, box))
    if isinstance(x, (CAnd, COr)):
        if not x.subs:
            return itertools.repeat(isinstance(x, CAnd))
        combine = operator.and_ if isinstance(x, CAnd) else operator.or_
        return reduce(partial(map, combine), [_column(s, box) for s in x.subs])
    raise TypeError(x)


def _conjuncts(c: Condition) -> frozenset[Condition]:
    return frozenset(c.subs if isinstance(c, CAnd) else (c,))


@dataclass(frozen=True)
class Holds:
    states_checked: int = 0


@dataclass(frozen=True)
class Fails:
    state: FrozenMap[str, int]

    def __post_init__(self):
        object.__setattr__(self, "state", FrozenMap(self.state))


@dataclass(frozen=True)
class Inconclusive:
    out_of_fuel_states: int = 0


def check_ground_property(t: PTerm, s: PSpec, bounds: tuple[int, int] = BOUNDS, fuel: int = FUEL):
    """Partial-correctness check of a spec over all in-bounds states.

    Terminated runs from pre-states must satisfy the post-condition; a run
    that exhausts fuel downgrades a would-be Holds to Inconclusive.  The
    states are those of ``enumerate_states``; groundness is checked once,
    and each pre-state costs one ``_run`` of the addressed subterm.
    """
    if not is_ground_term(t):
        raise ValueError("property checking needs a ground term")
    sub = subterm_at(t, s.position)
    names = idents(t) | idents(s.pre) | idents(s.post)
    checked = 0
    fuel_outs = 0
    for state in enumerate_states(names, bounds):
        if not eval_condition(s.pre, state):
            continue
        checked += 1
        final = dict(state)
        if _run(sub, final, fuel) is None:
            fuel_outs += 1
        elif not eval_condition(s.post, final):
            return Fails(state)
    if fuel_outs:
        return Inconclusive(fuel_outs)
    return Holds(checked)


def entails_conditions(c1: Condition, c2: Condition, bounds: tuple[int, int] = BOUNDS) -> bool:
    """Bounded semantic consequence: every in-bounds state satisfying c1 satisfies c2.

    Decided without the box when c1 is false or every conjunct of c2 is a
    conjunct of c1, which entails under any box.  Otherwise both conditions
    are evaluated as lazy columns over the box, one entry per state of
    ``enumerate_states`` (``_box``, ``_column``), and the check
    stops at the first state satisfying c1 and not c2.
    """
    if c1 == C_FALSE or _conjuncts(c2) <= _conjuncts(c1):
        return True
    box, size = _box(idents(c1) | idents(c2), bounds)
    counterexamples = map(operator.gt, _column(c1, box), _column(c2, box))
    return not any(itertools.islice(counterexamples, size))


# ---------------------------------------------------------------------------
# Hoare module schemas

P0, P1 = PVar("p0"), PVar("p1")


def hoare_module(kind: str, params: dict) -> Clause:
    """The clause schema of one Hoare rule, instantiated with the caller's
    conditions and (for assignments) the ``shape`` predicate, whose hole is
    the identifier ``v``: ``x := e`` has pre ``shape[e/v]`` and post
    ``shape[x/v]``.

    Program variables are always ``p0`` and ``p1``, so equal calls give equal
    clauses; binding renames them apart from the query's variables.
    """
    if kind == "skip":
        rho = params["pre"]
        return Clause("skip", SKIP, PSpec(ROOT, rho, rho), ())
    if kind == "assign":
        target, expr, shape = params["target"], params["expr"], params["shape"]
        pre = subst(shape, "v", expr)
        post = subst(shape, "v", Ident(target))
        return Clause("assign", Assign(target, expr), PSpec(ROOT, pre, post), ())
    if kind == "seq":
        rho, mid, rho2 = params["pre"], params["mid"], params["post"]
        orc = Seq(P0, P1)
        return Clause(
            "seq",
            orc,
            PSpec(ROOT, rho, rho2),
            (PSpec((0,), rho, mid), PSpec((1,), mid, rho2)),
        )
    if kind == "if":
        cond, rho, rho2 = params["cond"], params["pre"], params["post"]
        orc = If(cond, P0, P1)
        return Clause(
            "if",
            orc,
            PSpec(ROOT, rho, rho2),
            (PSpec((0,), c_and(rho, cond), rho2), PSpec((1,), c_and(rho, c_not(cond)), rho2)),
        )
    if kind == "while":
        cond, rho = params["cond"], params["invariant"]
        orc = While(cond, P0)
        return Clause(
            "while",
            orc,
            PSpec(ROOT, rho, c_and(rho, c_not(cond))),
            (PSpec((0,), c_and(rho, cond), rho),),
        )
    raise ValueError(f"unknown module kind {kind!r}")


# ---------------------------------------------------------------------------
# The scheme


class PexprScheme(OrchestrationScheme):
    """Program expressions as orchestrations; specs are positioned Hoare pairs.

    Entailment and property checks are bounded semantic checks; verdicts are
    only as strong as the configured bounds and fuel.  ``spec_entails`` and
    ``is_trivial`` decide by ``entails_conditions`` (syntactic consequence,
    else columns over the box), ``check_property`` by
    ``check_ground_property`` (one run per pre-state).  ``bounds`` is the
    box, one ``(lo, hi)`` range for every identifier.
    """

    compose_morphisms = staticmethod(compose_pmorphisms)
    identity_morphism = staticmethod(identity_pmorphism)
    translate_spec = staticmethod(translate_pspec)
    is_ground = staticmethod(is_ground_term)

    def __init__(self, bounds: tuple[int, int] = BOUNDS, fuel: int = FUEL):
        self.bounds = bounds
        self.fuel = fuel

    def check_property(self, orc, spec):
        verdict = check_ground_property(orc, spec, self.bounds, self.fuel)
        if isinstance(verdict, Inconclusive):
            return None
        return isinstance(verdict, Holds)

    def spec_entails(self, orc, provided, required):
        if provided.position != required.position:
            return False
        return entails_conditions(required.pre, provided.pre, self.bounds) and entails_conditions(
            provided.post, required.post, self.bounds
        )

    def is_trivial(self, orc, spec):
        # conservative: only a skip-shaped residue with pre entailing post
        return subterm_at(orc, spec.position) == SKIP and entails_conditions(spec.pre, spec.post, self.bounds)

    def candidate_unifiers(self, q_orc, q_spec, c_orc, c_provides, hint):
        """Bind the clause term at the query spec's position.

        The addressed subterm must be a program variable; the clause provides
        its triple at its own root.
        """
        sub = subterm_at(q_orc, q_spec.position)
        if not isinstance(sub, PVar) or c_provides.position != ROOT:
            return []
        # freshen clause variables that would clash with the query's
        clash = pvars(c_orc) & pvars(q_orc)
        rename = {}
        taken = set(pvars(c_orc) | pvars(q_orc))
        for v in sorted(clash):
            i = 1
            while f"{v}_{i}" in taken:
                i += 1
            rename[v] = PVar(f"{v}_{i}")
            taken.add(f"{v}_{i}")
        variant = apply_subst(c_orc, rename)
        glued = replace_at(q_orc, q_spec.position, variant)
        theta1 = PMorphism(q_orc, glued, {sub.name: variant})
        theta2 = PMorphism(c_orc, glued, rename, q_spec.position)
        return [(theta1, theta2)]


# ---------------------------------------------------------------------------
# Surface syntax

_TOKEN = re.compile(
    r"\s*(?:(?P<assign>:=)|(?P<compare><=|<|=)|(?P<semi>;)|(?P<comma>,)"
    r"|(?P<lbrack>\[)|(?P<rbrack>\])|(?P<lpar>\()|(?P<rpar>\))"
    r"|(?P<plus>\+)|(?P<minus>-)|(?P<star>\*)|(?P<amp>&)|(?P<bar>\|)|(?P<bang>!)"
    r"|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*))"
)

_KEYWORDS = {"skip", "if", "then", "else", "endif", "while", "do", "done", "true", "false"}

# The precedence tables; negation binds tighter than every condition operator.
_AEXP_OPERATORS = {
    "+": Operator(1, "left", partial(BinOp, "+")),
    "-": Operator(1, "left", partial(BinOp, "-")),
    "*": Operator(2, "left", partial(BinOp, "*")),
}
_CONDITION_OPERATORS = {"|": Operator(1, "flat", c_or), "&": Operator(2, "flat", c_and)}
_NEGATED = 1 + max(op.precedence for op in _CONDITION_OPERATORS.values())
_PROGRAM_OPERATORS = {";": Operator(1, "left", Seq)}
_CONDITION_CONSTANTS = {"true": C_TRUE, "false": C_FALSE}


class ProgramSyntaxError(InputError):
    pass


def _aexp(tokens: Tokens) -> AExp:
    return tokens.climb(_AEXP_OPERATORS, _aexp_operand)


def _aexp_operand(tokens: Tokens) -> AExp:
    kind, value = tokens.peek()
    if kind == "minus" and tokens.peek(1)[0] == "int":
        tokens.take()
        return Lit(-int(tokens.take()[1]))
    if kind not in ("int", "name", "lpar") or value in _KEYWORDS:
        raise tokens.expected("expression")
    tokens.take()
    if kind == "int":
        return Lit(int(value))
    if kind == "name":
        return Ident(value)
    node = tokens.nested(_aexp)
    tokens.take(")")
    return node


def _comparison(tokens: Tokens) -> Compare:
    lhs = _aexp(tokens)
    kind, value = tokens.peek()
    if kind != "compare":
        raise tokens.expected("comparison operator")
    tokens.take()
    return Compare(value, lhs, _aexp(tokens))


def _condition(tokens: Tokens) -> Condition:
    return tokens.climb(_CONDITION_OPERATORS, _condition_operand)


def _bracketed_condition(tokens: Tokens) -> Condition:
    tokens.take("(")
    node = tokens.nested(_condition)
    tokens.take(")")
    return node


def _condition_operand(tokens: Tokens) -> Condition:
    kind, value = tokens.peek()
    if kind == "lpar":  # a bracketed condition, else a comparison
        return tokens.first_of(_bracketed_condition, _comparison)
    if kind == "lbrack":
        tokens.take()
        node = tokens.nested(_comparison)
        tokens.take("]")
        return node
    if kind == "bang":
        tokens.take()
        return c_not(tokens.nested(_condition_operand))
    if value in _CONDITION_CONSTANTS:
        tokens.take()
        return _CONDITION_CONSTANTS[value]
    return _comparison(tokens)


def _parse(text: str, read):
    return Tokens(_TOKEN, text, ProgramSyntaxError).whole(read)


def parse_program(text: str, pvar_names=()) -> PTerm:
    """A program; a name in ``pvar_names`` that is not assigned to is a
    program variable."""
    pvar_names = frozenset(pvar_names)

    def program(tokens: Tokens) -> PTerm:
        return tokens.climb(_PROGRAM_OPERATORS, statement)

    def statement(tokens: Tokens) -> PTerm:
        kind, value = tokens.peek()
        if kind != "name" or value in _KEYWORDS - {"skip", "if", "while"}:
            raise tokens.expected("statement")
        tokens.take()
        if value == "skip":
            return SKIP
        if value == "if":
            cond = _condition(tokens)
            tokens.take("then")
            then = tokens.nested(program)
            tokens.take("else")
            orelse = tokens.nested(program)
            tokens.take("endif")
            return If(cond, then, orelse)
        if value == "while":
            cond = _condition(tokens)
            tokens.take("do")
            body = tokens.nested(program)
            tokens.take("done")
            return While(cond, body)
        if value in pvar_names and tokens.peek()[0] != "assign":
            return PVar(value)
        tokens.take(":=")
        return Assign(value, _aexp(tokens))

    return _parse(text, program)


def parse_condition(text: str) -> Condition:
    return _parse(text, _condition)


def parse_aexp(text: str) -> AExp:
    return _parse(text, _aexp)


def parse_spec(text: str) -> PSpec:
    """The spec ``(PRE, POST)`` at the root."""

    def pair(tokens: Tokens) -> PSpec:
        tokens.take("(")
        pre = _condition(tokens)
        tokens.take(",")
        post = _condition(tokens)
        tokens.take(")")
        return PSpec(ROOT, pre, post)

    return _parse(text, pair)


def render_aexp(e: AExp, prec: int = 0) -> str:
    """``prec`` is the least precedence an operator may have to stand
    unbracketed: 0 at the top."""
    if isinstance(e, Lit):
        return str(e.value)
    if isinstance(e, Ident):
        return e.name
    if isinstance(e, BinOp):
        op = _AEXP_OPERATORS[e.op]
        return op.bracket(f"{render_aexp(e.lhs, op.left)} {e.op} {render_aexp(e.rhs, op.right)}", prec)
    raise TypeError(e)


def render_condition(c: Condition, prec: int = 0, plain: bool = False) -> str:
    """Comparisons in brackets; ``plain`` (program contexts) drops the
    brackets and parenthesizes a negated comparison instead.  ``prec`` is as
    for ``render_aexp``."""
    if c == C_TRUE:
        return "true"
    if c == C_FALSE:
        return "false"
    if isinstance(c, Compare):
        body = f"{render_aexp(c.lhs)} {c.op} {render_aexp(c.rhs)}"
        return body if plain else f"[{body}]"
    if isinstance(c, CNot):
        if plain and isinstance(c.sub, Compare):
            return f"!({render_condition(c.sub, plain=True)})"
        return "!" + render_condition(c.sub, _NEGATED, plain)
    if isinstance(c, (CAnd, COr)):
        symbol = "&" if isinstance(c, CAnd) else "|"
        op = _CONDITION_OPERATORS[symbol]
        return op.bracket(f" {symbol} ".join(render_condition(s, op.left, plain) for s in c.subs), prec)
    raise TypeError(c)


def render_program(t: PTerm) -> str:
    if isinstance(t, Skip):
        return "skip"
    if isinstance(t, Assign):
        return f"{t.target} := {render_aexp(t.expr)}"
    if isinstance(t, Seq):
        return render_program(t.first) + " ; " + render_program(t.second)
    if isinstance(t, If):
        return (
            f"if {render_condition(t.cond, plain=True)} then {render_program(t.then)} "
            f"else {render_program(t.orelse)} endif"
        )
    if isinstance(t, While):
        return f"while {render_condition(t.cond, plain=True)} do {render_program(t.body)} done"
    if isinstance(t, PVar):
        return t.name
    raise TypeError(t)
