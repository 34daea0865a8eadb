"""Scheme-generic logic programming: clauses, queries, unification, resolution.

A scheme supplies the eight operations resolution needs: composition and
identities of morphisms, spec translation along morphisms, a groundness
test, one three-valued property check on ground orchestrations (holds,
refuted, or undecided by a bounded check), an entailment check between
translated specs, a triviality test for specs, and a binder that proposes
candidate unifier cospans.  Everything here is parametric in the scheme; the
two concrete schemes live with their domain modules.

``solve`` uses six of the eight operations, ``solve_scripted`` the same six
but ``is_trivial``.  ``is_ground`` and ``check_property`` serve only
``check_solution`` and ``check_clause_correctness``.  ``unresolved`` decides
which specs of a query are left: a search's selection, the report of a
search without answers and the check after a replay all read it, so a
replay is an answer exactly when a search would take it for one.

Morphism objects are scheme-specific but must expose ``source`` and
``target`` orchestrations.  Orchestrations, morphisms and specs render
themselves (``render()``); no scheme operation is needed for that.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from . import InputError


class OrchestrationScheme(ABC):
    """The operations a scheme must supply to drive unification and resolution."""

    @abstractmethod
    def compose_morphisms(self, m1, m2):
        """Sequential composition (first m1, then m2)."""

    @abstractmethod
    def identity_morphism(self, orc):
        ...

    @abstractmethod
    def translate_spec(self, m, spec):
        """Image of a spec over source(m) along m."""

    @abstractmethod
    def is_ground(self, orc) -> bool:
        ...

    @abstractmethod
    def check_property(self, orc, spec) -> bool | None:
        """Does the spec hold of the ground orchestration?

        True if it holds, False if it is refuted, None if a bounded check
        could decide neither.
        """

    @abstractmethod
    def spec_entails(self, orc, provided, required) -> bool:
        """Over a common orchestration: does the provided spec guarantee the
        required one in every ground instance?"""

    @abstractmethod
    def is_trivial(self, orc, spec) -> bool:
        """Specs whose translation into any ground orchestration is a property."""

    @abstractmethod
    def candidate_unifiers(self, q_orc, q_spec, c_orc, c_provides, hint):
        """Cospans (theta1, theta2) from query and clause orchestrations into a
        common one, aligning q_spec with c_provides.  Entailment is NOT yet
        checked here; `unify` filters.

        The two legs of a cospan share one target, which `unify` checks, and
        the clause is renamed apart from the query first, so that no name of
        the clause clashes with one of the query."""


@dataclass(frozen=True)
class Clause:
    """A service module: orchestration, provides-interface, requires-interface."""

    name: str
    orc: object
    provides: object
    requires: tuple
    hints: tuple = ()  # scheme-specific, hashable; an ARN hint is a correspondence FrozenMap


@dataclass(frozen=True)
class Query:
    """A client application: orchestration plus a requires-interface."""

    orc: object
    requires: tuple


@dataclass(frozen=True)
class Unifier:
    """A cospan under which the translated provides entails the translated requires."""

    theta1: object
    theta2: object

    @property
    def apex(self):
        return self.theta1.target


@dataclass(frozen=True)
class Step:
    clause_name: str
    selected: object
    unifier: Unifier
    derived: Query


@dataclass(frozen=True)
class Answer:
    """A successful derivation: its steps, the composed computed morphism, and
    the final orchestration reached."""

    steps: tuple[Step, ...]
    composed: object
    final: object


@dataclass(frozen=True)
class Repository:
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        names = [c.name for c in self.clauses]
        if len(names) != len(set(names)):
            raise InputError("clause names must be unique")

    def clause(self, name: str) -> Clause:
        for c in self.clauses:
            if c.name == name:
                return c
        raise InputError(f"no such clause: {name!r}")


class DerivationFailed(ValueError):
    """A scripted derivation step that no unifier binds: a negative answer,
    not unusable input."""


@dataclass(frozen=True)
class NoCounterexample:
    """Bounded search found nothing; not a proof of correctness."""

    checked: int = 0


@dataclass(frozen=True)
class Counterexample:
    morphism: object


def unify(scheme: OrchestrationScheme, q_orc, q_spec, clause: Clause, hint=None):
    """All unifiers of a required spec with a clause's provides-interface.

    Every returned cospan passes the scheme's entailment check: the clause's
    translated provides-spec entails the query's translated required spec.
    A candidate whose legs have different targets breaks the scheme's
    contract and raises ``ValueError``.
    """
    unifiers = []
    for theta1, theta2 in scheme.candidate_unifiers(
        q_orc, q_spec, clause.orc, clause.provides, hint
    ):
        if theta1.target is not theta2.target and theta1.target != theta2.target:
            raise ValueError(f"candidate unifier of {clause.name!r} has legs into different targets")
        required = scheme.translate_spec(theta1, q_spec)
        provided = scheme.translate_spec(theta2, clause.provides)
        if scheme.spec_entails(theta1.target, provided, required):
            unifiers.append(Unifier(theta1, theta2))
    return unifiers


def resolve(scheme: OrchestrationScheme, query: Query, clause: Clause, selected, u: Unifier) -> Query:
    """Derived query: the selected spec is replaced by the clause's requires,
    everything translated onto the cospan apex."""
    if selected not in query.requires:
        raise ValueError("selected spec is not in the query's requires-interface")
    derived = []
    dropped = False
    for s in query.requires:
        if s == selected and not dropped:
            dropped = True
            continue
        derived.append(scheme.translate_spec(u.theta1, s))
    derived.extend(scheme.translate_spec(u.theta2, r) for r in clause.requires)
    deduped = []
    for s in derived:
        if s not in deduped:
            deduped.append(s)
    return Query(u.apex, tuple(deduped))


@dataclass(frozen=True)
class SearchEnd:
    """How a search ended, and the deepest derivation it explored.

    ``status`` is ``"stopped"`` when it found ``max_answers`` answers,
    ``"cut"`` when it left ``cut`` derivations unfinished at depth
    ``max_depth``, and ``"exhausted"`` when it explored its whole tree.
    ``steps`` lead to ``query``, the query the deepest derivation got stuck
    on, for reporting failed searches."""

    status: str
    cut: int
    max_depth: int
    steps: tuple
    query: Query


def unresolved(scheme: OrchestrationScheme, query: Query):
    """The query's specs that are not trivial, in requires order, decided
    one at a time as they are drawn; a derivation is an answer when none is
    left."""
    return (s for s in query.requires if not scheme.is_trivial(query.orc, s))


# The limits of a search, unless the caller gives others.
MAX_DEPTH = 8
MAX_ANSWERS = 10


def solve(
    scheme: OrchestrationScheme,
    query: Query,
    repository: Repository,
    max_depth: int = MAX_DEPTH,
    max_answers: int = MAX_ANSWERS,
):
    """Depth-first resolution until all requires-specs are trivial.

    Clauses are tried in repository order, hints in declaration order with
    the scheme heuristic last; the first non-trivial spec (in requires order)
    is always the one resolved.  Deterministic for identical inputs.

    Returns ``(answers, end)``: the answers found, and the ``SearchEnd``
    that says how the search ended.
    """
    answers: list[Answer] = []
    best_partial = {"depth": -1, "steps": (), "query": query}
    cut = 0

    def search(q: Query, steps, composed, depth):
        nonlocal cut
        if len(answers) >= max_answers:
            return
        if depth > best_partial["depth"]:
            best_partial.update(depth=depth, steps=tuple(steps), query=q)
        selected = next(unresolved(scheme, q), None)
        if selected is None:
            answers.append(Answer(tuple(steps), composed, q.orc))
            return
        if depth >= max_depth:
            cut += 1
            return
        for clause in repository.clauses:
            seen = []
            # always also try the scheme's own heuristic, last
            for hint in (*clause.hints, None):
                for u in unify(scheme, q.orc, selected, clause, hint):
                    if u in seen:
                        continue
                    seen.append(u)
                    derived = resolve(scheme, q, clause, selected, u)
                    step = Step(clause.name, selected, u, derived)
                    search(
                        derived,
                        steps + [step],
                        scheme.compose_morphisms(composed, u.theta1),
                        depth + 1,
                    )
                    if len(answers) >= max_answers:
                        return

    search(query, [], scheme.identity_morphism(query.orc), 0)
    status = "stopped" if len(answers) >= max_answers else "cut" if cut else "exhausted"
    return answers, SearchEnd(status, cut, max_depth, best_partial["steps"], best_partial["query"])


def solve_scripted(scheme: OrchestrationScheme, query: Query, steps):
    """Replay an explicit derivation of ``(clause, spec_index, hint)`` steps:
    resolve the spec at that index of the current query with the clause,
    taking the first unifier the hint yields.

    Returns the Answer and the final query; the steps may leave specs
    ``unresolved``, which the caller asks of that query.  A spec index the current
    query lacks raises ``InputError``; the first step no unifier binds raises
    ``DerivationFailed``.
    """
    q = query
    trail = []
    composed = scheme.identity_morphism(query.orc)
    for i, (clause, spec_index, hint) in enumerate(steps, start=1):
        if not 0 <= spec_index < len(q.requires):
            raise InputError(f"step {i}: spec index {spec_index} out of range")
        selected = q.requires[spec_index]
        unifiers = unify(scheme, q.orc, selected, clause, hint)
        if not unifiers:
            raise DerivationFailed(
                f"step {i}: no unifier of {selected.render()} "
                f"with clause {clause.name!r} (refinement entailment failed)"
            )
        u = unifiers[0]
        q = resolve(scheme, q, clause, selected, u)
        trail.append(Step(clause.name, selected, u, q))
        composed = scheme.compose_morphisms(composed, u.theta1)
    return Answer(tuple(trail), composed, q.orc), q


def check_solution(scheme: OrchestrationScheme, query: Query, psi, model_pool=None) -> bool:
    """Is the morphism a solution to the query?

    For a ground target this is exact: every translated spec must be a
    property.  Otherwise the check is bounded to the supplied pool of models
    (morphisms from the target into ground orchestrations); an empty pool
    cannot demonstrate that the target has models, so the verdict is False.
    A property check that cannot decide counts against the solution.
    """
    translated = [scheme.translate_spec(psi, s) for s in query.requires]
    target = psi.target
    if scheme.is_ground(target):
        return all(scheme.check_property(target, s) is True for s in translated)
    if not model_pool:
        return False
    for delta in model_pool:
        for s in translated:
            if scheme.check_property(delta.target, scheme.translate_spec(delta, s)) is not True:
                return False
    return True


def check_clause_correctness(scheme: OrchestrationScheme, clause: Clause, grounding_pool):
    """Bounded counterexample search for clause correctness over a pool of
    ground instantiations.  NoCounterexample is not a proof."""
    checked = 0
    for delta in grounding_pool:
        checked += 1
        grc = delta.target
        requires_ok = all(
            scheme.check_property(grc, scheme.translate_spec(delta, r)) is True
            for r in clause.requires
        )
        if not requires_ok:
            continue
        provided = scheme.translate_spec(delta, clause.provides)
        if scheme.check_property(grc, provided) is False:
            return Counterexample(delta)
    return NoCounterexample(checked)
