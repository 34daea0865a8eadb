"""While-language program expressions as orchestrations.

Terms are built from skip, assignment, sequencing, selection and iteration,
plus program variables standing for statements still to be discovered.
Specifications are Hoare triples addressed at term positions; the Hoare
rules become clause schemas; correctness checking is a bounded semantic
oracle over integer states with an explicit fuel budget, so verdicts about
loops are three-valued.  The states form a box: every identifier ranges
over one ``lo..hi`` range (``BOUNDS`` unless the caller gives another).
Each check compiles its conditions and program once into Python functions
(``_compile``) and runs them on every state of the box.

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

import ast
import itertools
import re
from dataclasses import dataclass
from functools import partial

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


def _statements(t: PTerm) -> list[PTerm]:
    """The statements of a ``Seq`` chain in order, none of them a ``Seq``,
    read with a stack: a chain of any length costs no recursion."""
    stack, out = [t], []
    while stack:
        t = stack.pop()
        if isinstance(t, Seq):
            stack += (t.second, t.first)
        else:
            out.append(t)
    return out


def pvars(t: PTerm) -> frozenset[str]:
    if isinstance(t, PVar):
        return frozenset({t.name})
    kids = _statements(t) if isinstance(t, Seq) else children(t)
    return frozenset().union(*map(pvars, kids))


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
        return frozenset().union(*map(idents, _statements(x)))
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
    if isinstance(x, (CAnd, COr)):
        return type(x)(tuple(subst(s, name, repl) for s in x.subs))
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
    composed = {v: apply_subst(apply_subst(PVar(v), s1), s2) for v in sorted(pvars(m1.source))}
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


# Python's nodes for the expression and comparison operators.
_AST_OPERATORS = {"+": ast.Add, "-": ast.Sub, "*": ast.Mult, "=": ast.Eq, "<=": ast.LtE, "<": ast.Lt}


def _node(kind, *fields, **named):
    """A node of the ``ast`` class ``kind``, placed at line 1, column 0."""
    return kind(*fields, **named, lineno=1, col_offset=0)


def _compile(names, conditions=(), program=None, unbound=()):
    """Conditions, and a ground program, as Python functions: one ``ast.Module``
    over the identifiers ``names``, compiled in one call.  ``names[i]`` is the
    parameter ``vi``.  A condition's function returns a bool; the program's,
    ``run``, also takes the fuel and returns the final values, or None when a
    loop runs out of fuel.  Each ``while`` is a function of its own that
    spends one unit of fuel per iteration: CPython nests at most 20 loops in
    one function.  The ``unbound`` identifiers start as None, and reading one
    before it is assigned raises ``KeyError(i)``."""
    state = [f"v{i}" for i in range(len(names))]
    var, loops = dict(zip(names, state)), []

    def name(id_, ctx=ast.Load):
        return _node(ast.Name, id_, ctx())

    def const(value):
        return _node(ast.Constant, value)

    def compare(lhs, op, rhs):
        return _node(ast.Compare, lhs, [op()], [rhs])

    def give_up_if(test):
        return _node(ast.If, test, [_node(ast.Return, const(None))], [])

    def function(id_, body, params):
        args = [_node(ast.arg, p) for p in params]
        arguments = ast.arguments(posonlyargs=[], args=args, kwonlyargs=[], kw_defaults=[], defaults=[])
        return _node(ast.FunctionDef, name=id_, args=arguments, body=body, decorator_list=[], type_params=[])

    def expression(x):
        if isinstance(x, Lit):
            return const(x.value)
        if isinstance(x, Ident):
            if x.name not in unbound:
                return name(var[x.name])
            missing = _node(ast.Subscript, _node(ast.Dict, [], []), const(names.index(x.name)), ast.Load())
            return _node(ast.IfExp, compare(name(var[x.name]), ast.IsNot, const(None)), name(var[x.name]), missing)
        if isinstance(x, BinOp):
            return _node(ast.BinOp, expression(x.lhs), _AST_OPERATORS[x.op](), expression(x.rhs))
        if isinstance(x, Compare):
            return compare(expression(x.lhs), _AST_OPERATORS[x.op], expression(x.rhs))
        if isinstance(x, CNot):
            return _node(ast.UnaryOp, ast.Not(), expression(x.sub))
        if isinstance(x, (CAnd, COr)):
            if len(x.subs) < 2:
                return expression(x.subs[0]) if x.subs else const(isinstance(x, CAnd))
            return _node(ast.BoolOp, ast.And() if isinstance(x, CAnd) else ast.Or(), list(map(expression, x.subs)))
        raise TypeError(x)

    def values(ctx=ast.Load):  # the state and the fuel left
        return _node(ast.Tuple, [name(v, ctx) for v in state + ["fuel"]], ctx())

    def loop(w: While) -> list:  # if (r := loopK(v0, .., fuel)) is None: return None; v0, .., fuel = r
        spend = [give_up_if(compare(name("fuel"), ast.LtE, const(0)))]
        spend.append(_node(ast.AugAssign, name("fuel", ast.Store), ast.Sub(), const(1)))
        body = [_node(ast.While, expression(w.cond), spend + block(w.body), []), _node(ast.Return, values())]
        loops.append(function(f"loop{len(loops)}", body, state + ["fuel"]))
        call = _node(ast.NamedExpr, name("r", ast.Store), _node(ast.Call, name(loops[-1].name), values().elts, []))
        return [give_up_if(compare(call, ast.Is, const(None))), _node(ast.Assign, [values(ast.Store)], name("r"))]

    def block(t: PTerm) -> list:
        out = []
        for s in _statements(t):
            if isinstance(s, Assign):
                out.append(_node(ast.Assign, [name(var[s.target], ast.Store)], expression(s.expr)))
            elif isinstance(s, If):
                out.append(_node(ast.If, expression(s.cond), block(s.then) or [_node(ast.Pass)], block(s.orelse)))
            elif isinstance(s, While):
                out += loop(s)
            elif not isinstance(s, Skip):
                raise TypeError(s)
        return out

    defs = [function(f"c{i}", [_node(ast.Return, expression(c))], state) for i, c in enumerate(conditions)]
    if program is not None:
        result = _node(ast.Return, _node(ast.Tuple, [name(v) for v in state], ast.Load()))
        defs.append(function("run", block(program) + [result], state + ["fuel"]))
    namespace = {"__builtins__": {}}
    exec(compile(ast.Module(defs + loops, type_ignores=[]), "<pexpr>", "exec"), namespace)
    return [namespace[f"c{i}"] for i in range(len(conditions))], namespace.get("run")


def interpret(t: PTerm, state: dict[str, int], fuel: int = FUEL):
    """Big-step evaluation over integer states; fuel decrements per loop
    iteration.  Groundness is checked once, then the compiled program runs
    once.  An identifier the state lacks must be assigned before it is
    read, or ``KeyError`` names it."""
    if not is_ground_term(t):
        raise ValueError("cannot interpret a term with program variables")
    names = sorted(idents(t))
    _, run = _compile(names, program=t, unbound=set(names) - state.keys())
    try:
        final = run(*map(state.get, names), fuel)
    except KeyError as e:  # the index of an identifier read before it is bound
        raise KeyError(names[e.args[0]]) from None
    if final is None:
        return OutOfFuel()
    return Terminated({**state, **{k: v for k, v in zip(names, final) if v is not None}})


def enumerate_states(names, bounds: tuple[int, int]):
    """Every state of the box, as the tuple of its values in the order of the
    sorted identifiers: each identifier ranges over ``lo..hi``, and states
    come in lexicographic order."""
    lo, hi = bounds
    return itertools.product(range(lo, hi + 1), repeat=len(names))


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
    states are those of ``enumerate_states``, and the witness of a Fails is
    the first failing one.  Groundness is checked once, the pre- and
    post-condition and the addressed subterm are compiled once
    (``_compile``), and the compiled code runs on every state.
    """
    if not is_ground_term(t):
        raise ValueError("property checking needs a ground term")
    names = sorted(idents(t) | idents(s.pre) | idents(s.post))
    (pre, post), run = _compile(names, (s.pre, s.post), subterm_at(t, s.position))
    checked = fuel_outs = 0
    for state in enumerate_states(names, bounds):
        if not pre(*state):
            continue
        checked += 1
        final = run(*state, fuel)
        if final is None:
            fuel_outs += 1
        elif not post(*final):
            return Fails(dict(zip(names, state)))
    if fuel_outs:
        return Inconclusive(fuel_outs)
    return Holds(checked)


def entails_conditions(c1: Condition, c2: Condition, bounds: tuple[int, int] = BOUNDS) -> bool:
    """Bounded semantic consequence: every in-bounds state satisfying c1 satisfies c2.

    Decided without the box when c1 is false or every conjunct of c2 is a
    conjunct of c1, which entails under any box.  Otherwise ``c1 & !c2`` is
    compiled once (``_compile``) and runs on the states of the box, in the
    order of ``enumerate_states``, up to the first that satisfies it.
    """
    if c1 == C_FALSE or _conjuncts(c2) <= _conjuncts(c1):
        return True
    names = sorted(idents(c1) | idents(c2))
    (counterexample,), _ = _compile(names, [CAnd((c1, CNot(c2)))])
    lo, hi = bounds
    return not any(itertools.starmap(counterexample, itertools.product(range(lo, hi + 1), repeat=len(names))))


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
        requires = (PSpec((0,), rho, mid), PSpec((1,), mid, rho2))
        return Clause("seq", Seq(P0, P1), PSpec(ROOT, rho, rho2), requires)
    if kind == "if":
        cond, rho, rho2 = params["cond"], params["pre"], params["post"]
        requires = (PSpec((0,), c_and(rho, cond), rho2), PSpec((1,), c_and(rho, c_not(cond)), rho2))
        return Clause("if", If(cond, P0, P1), PSpec(ROOT, rho, rho2), requires)
    if kind == "while":
        cond, rho = params["cond"], params["invariant"]
        provides = PSpec(ROOT, rho, c_and(rho, c_not(cond)))
        return Clause("while", While(cond, P0), provides, (PSpec((0,), c_and(rho, cond), rho),))
    raise ValueError(f"unknown module kind {kind!r}")


# ---------------------------------------------------------------------------
# The scheme


class PexprScheme(OrchestrationScheme):
    """Program expressions as orchestrations; specs are positioned Hoare pairs.

    Entailment and property checks are bounded semantic checks; verdicts are
    only as strong as the configured bounds and ``FUEL``.  ``spec_entails`` and
    ``is_trivial`` decide by ``entails_conditions`` (syntactic consequence,
    else code compiled once per check, run over the box), ``check_property``
    by ``check_ground_property`` (one compiled run per pre-state).
    ``bounds`` is the box, one ``(lo, hi)`` range for every identifier.
    """

    compose_morphisms = staticmethod(compose_pmorphisms)
    identity_morphism = staticmethod(identity_pmorphism)
    translate_spec = staticmethod(translate_pspec)
    is_ground = staticmethod(is_ground_term)

    def __init__(self, bounds: tuple[int, int] = BOUNDS):
        self.bounds = bounds

    def check_property(self, orc, spec):
        verdict = check_ground_property(orc, spec, self.bounds)
        if isinstance(verdict, Inconclusive):
            return None
        return isinstance(verdict, Holds)

    def spec_entails(self, orc, provided, required):
        if provided.position != required.position:
            return False
        pre, post = (required.pre, provided.pre), (provided.post, required.post)
        return entails_conditions(*pre, self.bounds) and entails_conditions(*post, self.bounds)

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
        rename, taken = {}, set(pvars(c_orc) | pvars(q_orc))
        for v in sorted(pvars(c_orc) & pvars(q_orc)):
            fresh = next(f"{v}_{i}" for i in itertools.count(1) if f"{v}_{i}" not in taken)
            rename[v] = PVar(fresh)
            taken.add(fresh)
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
