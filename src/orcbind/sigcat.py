"""Finite action signatures, signature morphisms, colimits of finite diagrams,
and the sentences over a signature.

An action signature is a finite set of action symbols.  Symbols may be opaque,
or carry the structure ``[qualifier.]message{!|?}`` where ``!`` marks a
publication and ``?`` a delivery.  Colimits are computed by union-find
quotienting of the disjoint union of node actions.  Morphisms, diagrams and
cocones hold their maps as ``FrozenMap``s, which iterate in key order.  No
command composes morphisms, so composition, identities and the search for
mediating morphisms are in ``tests/oracles.py``, where the tests check the
colimit's universal property with them.  A channel's attachment to a port,
a partial map, is the span of total morphisms ``arn.diagram_of`` builds.

Sentences are formulas over a signature's actions, built from atoms, ``!``,
``&``, ``|``, ``X`` and ``U``, and translated along signature morphisms by
renaming their atoms.  One syntax tree serves both uses: LTL specs (``ltl``)
and transition guards (``muller``), which are the formulas without ``X`` and
``U``.  Conjunction and disjunction hold their operands flattened,
deduplicated and sorted by ``repr``, so equal formulas are equal objects, and
neither their ``repr`` nor anything ordered by it depends on string hashing.
``true`` is the empty conjunction and ``false`` the empty disjunction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import FrozenMap


@dataclass(frozen=True)
class ActionSignature:
    """A finite set of action symbols."""

    actions: frozenset[str]

    def __post_init__(self):
        if not isinstance(self.actions, frozenset):
            object.__setattr__(self, "actions", frozenset(self.actions))
        for a in self.actions:
            if not a:
                raise ValueError("empty action symbol")

    def __len__(self) -> int:
        return len(self.actions)


@lru_cache(maxsize=None)
def ordered_actions(sig: ActionSignature) -> tuple[str, ...]:
    """Deterministic enumeration order of a signature's actions."""
    return tuple(sorted(sig.actions))


@dataclass(frozen=True)
class SignatureMorphism:
    """A total function between the action sets of two signatures."""

    source: ActionSignature
    target: ActionSignature
    mapping: FrozenMap[str, str]

    def __post_init__(self):
        object.__setattr__(self, "mapping", FrozenMap(self.mapping))
        if set(self.mapping) != self.source.actions:
            raise ValueError("morphism must be defined on exactly the source actions")
        extra = set(self.mapping.values()) - self.target.actions
        if extra:
            raise ValueError(f"morphism image outside target: {sorted(extra)}")

    def __call__(self, action: str) -> str:
        return self.mapping[action]

    def inverse_image(self, letter: frozenset[str]) -> frozenset[str]:
        """Preimage of a subset of target actions."""
        return frozenset(a for a, b in self.mapping.items() if b in letter)


@dataclass(frozen=True)
class FiniteDiagram:
    """A finite diagram of signatures: labelled nodes plus at most one arrow per ordered node pair."""

    nodes: FrozenMap[str, ActionSignature]
    arrows: FrozenMap[tuple[str, str], SignatureMorphism]

    def __post_init__(self):
        object.__setattr__(self, "nodes", FrozenMap(self.nodes))
        object.__setattr__(self, "arrows", FrozenMap(self.arrows))
        for (i, j), f in self.arrows.items():
            if i not in self.nodes or j not in self.nodes:
                raise ValueError(f"arrow endpoint missing: {i} -> {j}")
            if f.source != self.nodes[i] or f.target != self.nodes[j]:
                raise ValueError(f"arrow {i} -> {j} does not match node signatures")


@dataclass(frozen=True)
class Cocone:
    """A signature together with one leg per diagram node."""

    apex: ActionSignature
    legs: FrozenMap[str, SignatureMorphism]

    def __post_init__(self):
        object.__setattr__(self, "legs", FrozenMap(self.legs))
        for leg in self.legs.values():
            if leg.target != self.apex:
                raise ValueError("cocone leg does not land in the apex")

    def leg(self, node_id: str) -> SignatureMorphism:
        return self.legs[node_id]


def colimit(diagram: FiniteDiagram) -> Cocone:
    """Colimiting cocone of a finite diagram of signatures.

    The apex is the disjoint union of node actions quotiented by the smallest
    equivalence with ``(i, a) ~ (j, f(a))`` for every arrow ``f: i -> j``.
    Apex symbols are named after the lexicographically least (node-id, action)
    pair of each class, qualified by the node id only on name clashes.
    """
    elements = sorted((i, a) for i, sig in diagram.nodes.items() for a in sig.actions)
    linked = {e: [] for e in elements}
    for (i, j), f in diagram.arrows.items():
        for a, b in f.mapping.items():
            linked[i, a].append((j, b))
            linked[j, b].append((i, a))

    # walked in sorted order, each class is reached first at its least element
    rep_of, reps = {}, []
    for e in elements:
        if e not in rep_of:
            rep_of[e], todo = e, [e]
            reps.append(e)
            while todo:
                for other in linked[todo.pop()]:
                    if other not in rep_of:
                        rep_of[other] = e
                        todo.append(other)

    action_counts: dict[str, int] = {}
    for _, action in reps:
        action_counts[action] = action_counts.get(action, 0) + 1
    symbol_of = {
        rep: (rep[1] if action_counts[rep[1]] == 1 else f"{rep[0]}:{rep[1]}")
        for rep in reps
    }

    apex = ActionSignature(frozenset(symbol_of.values()))
    legs = {}
    for i, sig in diagram.nodes.items():
        legs[i] = SignatureMorphism(sig, apex, {a: symbol_of[rep_of[i, a]] for a in sig.actions})
    return Cocone(apex, legs)


# ---------------------------------------------------------------------------
# Sentences


@dataclass(frozen=True)
class Formula:
    pass


# The formula classes write their own reprs, which must equal the text the
# dataclass repr would give: ``land`` and ``lor`` order operands by that text,
# and the order shows in every rendered formula.  The generated repr runs
# behind a recursion guard and costs several times as much.


@dataclass(frozen=True, repr=False)
class Atom(Formula):
    action: str

    def __repr__(self):
        return f"Atom(action={self.action!r})"


@dataclass(frozen=True, repr=False)
class Not(Formula):
    sub: Formula

    def __repr__(self):
        return f"Not(sub={self.sub!r})"


@dataclass(frozen=True, repr=False)
class And(Formula):
    subs: tuple[Formula, ...]

    def __repr__(self):
        return f"And(subs={self.subs!r})"


@dataclass(frozen=True, repr=False)
class Or(Formula):
    subs: tuple[Formula, ...]

    def __repr__(self):
        return f"Or(subs={self.subs!r})"


@dataclass(frozen=True, repr=False)
class Next(Formula):
    sub: Formula

    def __repr__(self):
        return f"Next(sub={self.sub!r})"


@dataclass(frozen=True, repr=False)
class Until(Formula):
    lhs: Formula
    rhs: Formula

    def __repr__(self):
        return f"Until(lhs={self.lhs!r}, rhs={self.rhs!r})"


TRUE = And(())
FALSE = Or(())


def lnot(f: Formula) -> Formula:
    if isinstance(f, Not):
        return f.sub
    if f == TRUE:
        return FALSE
    if f == FALSE:
        return TRUE
    return Not(f)


def _connective(cls, unit: Formula, zero: Formula, fs) -> Formula:
    flat = set()
    for f in fs:
        if isinstance(f, cls):
            flat.update(f.subs)
        else:
            flat.add(f)
    if zero in flat:
        return zero
    flat.discard(unit)
    if len(flat) == 1:
        return flat.pop()
    return cls(tuple(sorted(flat, key=repr)))


def land(*fs: Formula) -> Formula:
    return _connective(And, TRUE, FALSE, fs)


def lor(*fs: Formula) -> Formula:
    return _connective(Or, FALSE, TRUE, fs)


def atoms_of(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset({f.action})
    if isinstance(f, (Not, Next)):
        return atoms_of(f.sub)
    if isinstance(f, (And, Or)):
        return frozenset().union(*map(atoms_of, f.subs))
    if isinstance(f, Until):
        return atoms_of(f.lhs) | atoms_of(f.rhs)
    raise TypeError(f)


def translate(f: Formula, sigma: SignatureMorphism) -> Formula:
    """Rename the atoms of a formula along a signature morphism."""
    mapping = sigma.mapping

    def go(h):
        if isinstance(h, Atom):
            if h.action not in mapping:
                raise ValueError(f"formula atoms outside the morphism source: {sorted(atoms_of(f) - set(mapping))}")
            return Atom(mapping[h.action])
        if isinstance(h, Not):
            return lnot(go(h.sub))
        if isinstance(h, Next):
            return Next(go(h.sub))
        if isinstance(h, And):
            return land(*map(go, h.subs))
        if isinstance(h, Or):
            return lor(*map(go, h.subs))
        if isinstance(h, Until):
            return Until(go(h.lhs), go(h.rhs))
        raise TypeError(h)

    return go(f)
