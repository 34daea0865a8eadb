"""Finite action signatures, signature morphisms, colimits of finite diagrams,
and the sentences over a signature.

An action signature is a finite set of action symbols.  Symbols may be opaque,
or carry the structure ``[qualifier.]message{!|?}`` where ``!`` marks a
publication and ``?`` a delivery.  Colimits are computed by union-find
quotienting of the disjoint union of node actions.

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

import itertools
from dataclasses import dataclass
from functools import lru_cache


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

    def __contains__(self, action: str) -> bool:
        return action in self.actions

    def __len__(self) -> int:
        return len(self.actions)

    def __or__(self, other: "ActionSignature") -> "ActionSignature":
        return ActionSignature(self.actions | other.actions)


def signature(*actions: str) -> ActionSignature:
    return ActionSignature(frozenset(actions))


@lru_cache(maxsize=None)
def ordered_actions(sig: ActionSignature) -> tuple[str, ...]:
    """Deterministic enumeration order of a signature's actions."""
    return tuple(sorted(sig.actions))


@dataclass(frozen=True)
class SignatureMorphism:
    """A total function between the action sets of two signatures."""

    source: ActionSignature
    target: ActionSignature
    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        mapping = dict(self.pairs)
        if set(mapping) != self.source.actions:
            raise ValueError("morphism must be defined on exactly the source actions")
        extra = set(mapping.values()) - self.target.actions
        if extra:
            raise ValueError(f"morphism image outside target: {sorted(extra)}")
        object.__setattr__(self, "pairs", tuple(sorted(mapping.items())))

    @classmethod
    def make(cls, source, target, mapping) -> "SignatureMorphism":
        return cls(source, target, tuple(dict(mapping).items()))

    @property
    def mapping(self) -> dict[str, str]:
        return dict(self.pairs)

    def __call__(self, action: str) -> str:
        for a, b in self.pairs:
            if a == action:
                return b
        raise KeyError(action)

    def inverse_image(self, letter: frozenset[str]) -> frozenset[str]:
        """Preimage of a subset of target actions."""
        return frozenset(a for a, b in self.pairs if b in letter)


def identity(sig: ActionSignature) -> SignatureMorphism:
    return SignatureMorphism.make(sig, sig, {a: a for a in sig.actions})


def compose(f: SignatureMorphism, g: SignatureMorphism) -> SignatureMorphism:
    """Pointwise composition ``f ; g`` (first f, then g)."""
    if f.target != g.source:
        raise ValueError("endpoint mismatch: target of first != source of second")
    gm = g.mapping
    return SignatureMorphism.make(f.source, g.target, {a: gm[b] for a, b in f.pairs})


@dataclass(frozen=True)
class PartialSignatureMorphism:
    """A partial function on actions, injective on its domain.

    The domain is kept explicit: membership in the domain is itself
    meaningful (an unattached channel action has no port counterpart).
    """

    source: ActionSignature
    target: ActionSignature
    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        mapping = dict(self.pairs)
        missing = set(mapping) - self.source.actions
        if missing:
            raise ValueError(f"domain outside source: {sorted(missing)}")
        extra = set(mapping.values()) - self.target.actions
        if extra:
            raise ValueError(f"image outside target: {sorted(extra)}")
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("partial morphism must be injective on its domain")
        object.__setattr__(self, "pairs", tuple(sorted(mapping.items())))

    @classmethod
    def make(cls, source, target, mapping) -> "PartialSignatureMorphism":
        return cls(source, target, tuple(dict(mapping).items()))

    @property
    def mapping(self) -> dict[str, str]:
        return dict(self.pairs)

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(a for a, _ in self.pairs)


@dataclass(frozen=True)
class FiniteDiagram:
    """A finite diagram of signatures: labelled nodes plus at most one arrow per ordered node pair."""

    nodes: tuple[tuple[str, ActionSignature], ...]
    arrows: tuple[tuple[str, str, SignatureMorphism], ...]

    def __post_init__(self):
        node_map = dict(self.nodes)
        if len(node_map) != len(self.nodes):
            raise ValueError("duplicate node ids")
        seen = set()
        for i, j, f in self.arrows:
            if i not in node_map or j not in node_map:
                raise ValueError(f"arrow endpoint missing: {i} -> {j}")
            if (i, j) in seen:
                raise ValueError(f"duplicate arrow {i} -> {j}")
            seen.add((i, j))
            if f.source != node_map[i] or f.target != node_map[j]:
                raise ValueError(f"arrow {i} -> {j} does not match node signatures")
        object.__setattr__(self, "nodes", tuple(sorted(node_map.items())))
        object.__setattr__(self, "arrows", tuple(sorted(self.arrows, key=lambda a: (a[0], a[1]))))

    @classmethod
    def make(cls, nodes, arrows) -> "FiniteDiagram":
        return cls(
            tuple(dict(nodes).items()),
            tuple((i, j, f) for (i, j), f in dict(arrows).items()),
        )

    @property
    def node_map(self) -> dict[str, ActionSignature]:
        return dict(self.nodes)


@dataclass(frozen=True)
class Cocone:
    """A signature together with one leg per diagram node."""

    apex: ActionSignature
    legs: tuple[tuple[str, SignatureMorphism], ...]

    def __post_init__(self):
        for _, leg in self.legs:
            if leg.target != self.apex:
                raise ValueError("cocone leg does not land in the apex")
        object.__setattr__(self, "legs", tuple(sorted(dict(self.legs).items())))

    @classmethod
    def make(cls, apex, legs) -> "Cocone":
        return cls(apex, tuple(dict(legs).items()))

    def leg(self, node_id: str) -> SignatureMorphism:
        for i, f in self.legs:
            if i == node_id:
                return f
        raise KeyError(node_id)

    def commutes_over(self, diagram: FiniteDiagram) -> bool:
        """True iff for every arrow f: i -> j, leg_i = f ; leg_j."""
        return all(self.leg(i) == compose(f, self.leg(j)) for i, j, f in diagram.arrows)


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            # deterministic: smaller key becomes the root
            lo, hi = (rx, ry) if rx <= ry else (ry, rx)
            self.parent[hi] = lo


def colimit(diagram: FiniteDiagram) -> Cocone:
    """Colimiting cocone of a finite diagram of signatures.

    The apex is the disjoint union of node actions quotiented by the smallest
    equivalence with ``(i, a) ~ (j, f(a))`` for every arrow ``f: i -> j``.
    Apex symbols are named after the lexicographically least (node-id, action)
    pair of each class, qualified by the node id only on name clashes.
    """
    elements = [(i, a) for i, sig in diagram.nodes for a in ordered_actions(sig)]
    uf = _UnionFind(elements)
    for i, j, f in diagram.arrows:
        for a, b in f.pairs:
            uf.union((i, a), (j, b))

    classes: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for e in elements:
        classes.setdefault(uf.find(e), []).append(e)

    reps = sorted(classes)
    action_counts: dict[str, int] = {}
    for _, action in reps:
        action_counts[action] = action_counts.get(action, 0) + 1
    symbol_of = {
        rep: (rep[1] if action_counts[rep[1]] == 1 else f"{rep[0]}:{rep[1]}")
        for rep in reps
    }

    apex = ActionSignature(frozenset(symbol_of.values()))
    legs = {}
    for i, sig in diagram.nodes:
        legs[i] = SignatureMorphism.make(
            sig, apex, {a: symbol_of[uf.find((i, a))] for a in sig.actions}
        )
    return Cocone.make(apex, legs)


def mediating_morphisms(diagram: FiniteDiagram, colim: Cocone, other: Cocone):
    """All morphisms ``colim.apex -> other.apex`` commuting with every leg.

    Exhaustive search over all functions; intended for small instances, where
    it witnesses the universal property (exactly one result for a colimit and
    a commuting cocone).
    """
    dom = ordered_actions(colim.apex)
    cod = ordered_actions(other.apex)
    found = []
    for images in itertools.product(cod, repeat=len(dom)):
        cand = SignatureMorphism.make(colim.apex, other.apex, dict(zip(dom, images)))
        if all(compose(colim.leg(i), cand) == other.leg(i) for i, _ in diagram.nodes):
            found.append(cand)
    return found


# ---------------------------------------------------------------------------
# Sentences


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Atom(Formula):
    action: str


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    subs: tuple[Formula, ...]


@dataclass(frozen=True)
class Or(Formula):
    subs: tuple[Formula, ...]


@dataclass(frozen=True)
class Next(Formula):
    sub: Formula


@dataclass(frozen=True)
class Until(Formula):
    lhs: Formula
    rhs: Formula


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
    missing = atoms_of(f) - set(mapping)
    if missing:
        raise ValueError(f"formula atoms outside the morphism source: {sorted(missing)}")

    def go(h):
        if isinstance(h, Atom):
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
