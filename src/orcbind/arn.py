"""Asynchronous relational networks.

A network is an edge-bipartite hypergraph: points labelled with ports,
computation hyperedges labelled with processes, communication hyperedges
labelled with connections.  The behaviour a ground network exhibits at a
point is the reduct, to that point's actions, of the product of the cofree
expansions of every hyperedge automaton in the point's dependency
subnetwork (``observed_automaton``, the semantics and the tests' oracle).
A spec at a point is checked without building that automaton: its negated
formula is lifted along the point's leg to the apex instead, and one
on-the-fly search of the product with the hyperedges' expansions decides
it (``counterexample``).

Networks, their labels and their morphisms hold every map as a
``FrozenMap``, which iterates in key order, so equal networks render alike.
Constructors only normalize shapes; all well-formedness conditions are
reported by :func:`validate` so that hand-written network files can be
checked rather than rejected mid-parse.  Whether a check's input is fit is
decided here too: ``counterexample`` and ``observed_automaton`` raise
``orcbind.InputError`` for an ill-formed network, an unknown point, a network
that is not ground, or a formula over actions outside the point's port; the
CLI maps it to exit code 2.  ``check_spec`` is the spec part of that test,
which the CLI also runs on every spec of a query and of a repository.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import FrozenMap, InputError, ltl
from .engine import OrchestrationScheme
from .muller import (
    LassoTrace,
    MullerAutomaton,
    cofree_expansion,
    find_accepted_lasso,
    product,
    reduct,
)
from .sigcat import (
    ActionSignature,
    Cocone,
    FiniteDiagram,
    Formula,
    PartialSignatureMorphism,
    SignatureMorphism,
    colimit,
    translate,
)

# ---------------------------------------------------------------------------
# Ports, processes, connections


@dataclass(frozen=True)
class Port:
    """Disjoint sets of published and delivered messages."""

    published: frozenset[str]
    delivered: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "published", frozenset(self.published))
        object.__setattr__(self, "delivered", frozenset(self.delivered))

    @property
    def messages(self) -> frozenset[str]:
        return self.published | self.delivered

    def actions(self) -> ActionSignature:
        return ActionSignature(
            frozenset(f"{m}!" for m in self.published)
            | frozenset(f"{m}?" for m in self.delivered)
        )


def qualified_signature(ports: dict[str, Port]) -> ActionSignature:
    """Coproduct of point-port signatures with point-qualified action names ``x.m!``."""
    actions = set()
    for x, port in ports.items():
        for m in port.published:
            actions.add(f"{x}.{m}!")
        for m in port.delivered:
            actions.add(f"{x}.{m}?")
    return ActionSignature(frozenset(actions))


def point_injection(x: str, port: Port, target: ActionSignature) -> SignatureMorphism:
    """Port actions into a qualified signature: ``m!`` to ``x.m!``."""
    mapping = {a: f"{x}.{a}" for a in port.actions().actions}
    return SignatureMorphism(port.actions(), target, mapping)


@dataclass(frozen=True)
class Process:
    """Interaction points labelled with ports, plus a behaviour automaton over
    the point-qualified coproduct of the port actions."""

    port_of: FrozenMap[str, Port]
    automaton: MullerAutomaton

    def __post_init__(self):
        object.__setattr__(self, "port_of", FrozenMap(self.port_of))

    @property
    def points(self) -> frozenset[str]:
        return frozenset(self.port_of)

    def signature(self) -> ActionSignature:
        return qualified_signature(self.port_of)


Process.make = Process  # the benchmark's network families build through this name


@dataclass(frozen=True)
class Connection:
    """A channel (message set plus automaton over ``m!``/``m?``) attached to
    ports through partial injections from channel messages to port messages."""

    messages: frozenset[str]
    automaton: MullerAutomaton
    attachment_of: FrozenMap[str, FrozenMap[str, str]]

    def __post_init__(self):
        object.__setattr__(self, "messages", frozenset(self.messages))
        object.__setattr__(
            self, "attachment_of", FrozenMap({x: FrozenMap(mu) for x, mu in self.attachment_of.items()})
        )

    def signature(self) -> ActionSignature:
        return ActionSignature(
            frozenset(f"{m}!" for m in self.messages) | frozenset(f"{m}?" for m in self.messages)
        )

    def action_attachment(self, x: str, port: Port) -> PartialSignatureMorphism:
        """Partial translation of channel actions into the port's actions:
        ``m!`` maps when the image is published there, ``m?`` when delivered."""
        mu = self.attachment_of.get(x, {})
        mapping = {}
        for m, pm in mu.items():
            if pm in port.published:
                mapping[f"{m}!"] = f"{pm}!"
            elif pm in port.delivered:
                mapping[f"{m}?"] = f"{pm}?"
        return PartialSignatureMorphism(self.signature(), port.actions(), mapping)


# ---------------------------------------------------------------------------
# Networks


@dataclass(frozen=True)
class Arn:
    """A network: its points are the keys of ``port_of``."""

    port_of: FrozenMap[str, Port]
    process_of: FrozenMap[str, Process]
    connection_of: FrozenMap[str, Connection]
    incidence_of: FrozenMap[str, frozenset[str]]

    def __post_init__(self):
        object.__setattr__(self, "port_of", FrozenMap(self.port_of))
        object.__setattr__(self, "process_of", FrozenMap(self.process_of))
        object.__setattr__(self, "connection_of", FrozenMap(self.connection_of))
        object.__setattr__(
            self, "incidence_of", FrozenMap({e: frozenset(xs) for e, xs in self.incidence_of.items()})
        )

    @property
    def points(self) -> frozenset[str]:
        return frozenset(self.port_of)

    def edges_at(self, x: str) -> list[str]:
        return sorted(e for e, xs in self.incidence_of.items() if x in xs)

    def render(self) -> str:
        return "net{" + ",".join(sorted(self.points)) + "}"


Arn.make = Arn  # the benchmark's network families build through this name


@dataclass(frozen=True)
class ArnSpec:
    """A temporal sentence placed at a point, over that point's port actions."""

    point: str
    formula: Formula

    def render(self) -> str:
        return f"<{self.point} : {ltl.render_formula(self.formula)}>"


def validate(n: Arn) -> tuple[str, ...]:
    """Every violated well-formedness condition, with its location."""
    issues = []
    ports = n.port_of
    procs = n.process_of
    conns = n.connection_of
    inc = n.incidence_of

    for x, port in sorted(ports.items()):
        overlap = port.published & port.delivered
        if overlap:
            issues.append(f"port {x}: published/delivered overlap on {sorted(overlap)}")

    edge_names = set(procs) | set(conns)
    if set(inc) != edge_names:
        issues.append("incidence: edge names must be exactly the processes and connections")
    if set(procs) & set(conns):
        issues.append("edges: process and connection names must be disjoint")

    for e, xs in sorted(inc.items()):
        if not xs:
            issues.append(f"edge {e}: incidence set is empty")
        stray = xs - n.points
        if stray:
            issues.append(f"edge {e}: incident with unknown points {sorted(stray)}")

    for e1, e2 in itertools.combinations(sorted(inc), 2):
        if inc[e1] & inc[e2]:
            both_proc = e1 in procs and e2 in procs
            both_conn = e1 in conns and e2 in conns
            if both_proc or both_conn:
                issues.append(f"edges {e1}, {e2}: adjacent hyperedges of the same kind")

    covered = set()
    for xs in inc.values():
        covered |= xs
    for x in sorted(n.points - covered):
        issues.append(f"point {x}: incident with no hyperedge")

    for p, proc in sorted(procs.items()):
        xs = inc.get(p, frozenset())
        if proc.points != xs:
            issues.append(f"process {p}: labelled points {sorted(proc.points)} differ from incidence {sorted(xs)}")
        for x in sorted(proc.points & n.points):
            if proc.port_of.get(x) != ports[x]:
                issues.append(f"process {p}: port label at {x} differs from the network's")
        if proc.automaton.signature != proc.signature():
            issues.append(f"process {p}: automaton signature is not the coproduct of its port actions")

    for c, conn in sorted(conns.items()):
        xs = inc.get(c, frozenset())
        att = conn.attachment_of
        stray = set(att) - xs
        if stray:
            issues.append(f"connection {c}: attachments at non-incident points {sorted(stray)}")
        if conn.automaton.signature != conn.signature():
            issues.append(f"connection {c}: channel automaton signature must be the message actions")
        seen_domains = {}
        for x in sorted(xs):
            mu = att.get(x, {})
            extra = set(mu) - conn.messages
            if extra:
                issues.append(f"connection {c} at {x}: attachment domain outside channel messages {sorted(extra)}")
            if len(set(mu.values())) != len(mu):
                issues.append(f"connection {c} at {x}: attachment is not injective")
            if x in ports:
                bad = [pm for pm in mu.values() if pm not in ports[x].messages]
                if bad:
                    issues.append(f"connection {c} at {x}: attachment image outside the port {sorted(bad)}")
            seen_domains[x] = set(mu)
        coverage = set().union(*seen_domains.values()) if seen_domains else set()
        if coverage != set(conn.messages):
            missing = sorted(set(conn.messages) - coverage)
            issues.append(f"connection {c}: messages not covered by any attachment {missing}")
        # well-pairing: a message published at x must be delivered at some y != x,
        # and vice versa
        for x in sorted(xs):
            if x not in ports:
                continue
            mu = att.get(x, {})
            for m, pm in sorted(mu.items()):
                if pm not in ports[x].messages:
                    continue
                want = "delivered" if pm in ports[x].published else "published"
                paired = any(
                    y != x
                    and m in att.get(y, {})
                    and y in ports
                    and att[y][m] in (ports[y].delivered if want == "delivered" else ports[y].published)
                    for y in xs
                )
                if not paired:
                    issues.append(
                        f"connection {c}: message {m} at {x} has no {want} counterpart at another point"
                    )
        if len(xs) == 2:
            for x in sorted(xs):
                if set(att.get(x, {})) != set(conn.messages):
                    issues.append(f"connection {c}: binary connection attachment at {x} must be total")

    return tuple(issues)


def classify_points(n: Arn):
    """Partition into (requires, provides, internal) points.

    Points incident only with communication edges are requires-points, only
    with computation edges provides-points, with both internal.  Isolated
    points (rejected by the validator, but classifiable) count as internal.
    """
    requires, provides, internal = set(), set(), set()
    procs = n.process_of
    for x in n.points:
        kinds = {("P" if e in procs else "C") for e in n.edges_at(x)}
        if kinds == {"C"}:
            requires.add(x)
        elif kinds == {"P"}:
            provides.add(x)
        else:
            internal.add(x)
    return frozenset(requires), frozenset(provides), frozenset(internal)


def is_ground(n: Arn) -> bool:
    requires, _, _ = classify_points(n)
    return not requires


def subnet_at(n: Arn, x: str) -> Arn:
    """The full sub-network induced by x and the points x depends on.

    Dependency follows paths that begin with a computation hyperedge; the
    induced sub-network keeps every hyperedge all of whose points survive.
    """
    if x not in n.points:
        raise KeyError(x)
    inc = n.incidence_of
    procs = n.process_of
    reached = {x}
    frontier = [x]
    first = True
    while frontier:
        next_frontier = []
        for y in frontier:
            for e in n.edges_at(y):
                if first and e not in procs:
                    continue
                for z in inc[e]:
                    if z not in reached:
                        reached.add(z)
                        next_frontier.append(z)
        frontier = next_frontier
        first = False
    keep_edges = {e for e, xs in inc.items() if xs <= reached}
    return Arn(
        {y: n.port_of[y] for y in reached},
        {p: proc for p, proc in n.process_of.items() if p in keep_edges},
        {c: conn for c, conn in n.connection_of.items() if c in keep_edges},
        {e: inc[e] for e in keep_edges},
    )


# ---------------------------------------------------------------------------
# Signature of a network and observed behaviour

_PT, _EDGE, _SPAN = "pt:", "e:", "sp:"


def diagram_of(n: Arn) -> FiniteDiagram:
    """Nodes for points, hyperedges and attachment spans; arrows inject port
    actions into process signatures and relate spans to channels and ports."""
    nodes = {}
    arrows = {}
    ports = n.port_of
    for x in sorted(n.points):
        nodes[_PT + x] = ports[x].actions()
    for p, proc in n.process_of.items():
        pid = _EDGE + p
        nodes[pid] = proc.signature()
        for x in sorted(proc.points):
            arrows[(_PT + x, pid)] = point_injection(x, ports[x], nodes[pid])
    for c, conn in n.connection_of.items():
        cid = _EDGE + c
        nodes[cid] = conn.signature()
        for x in sorted(n.incidence_of.get(c, frozenset())):
            sid = f"{_SPAN}{c}:{x}"
            att = conn.action_attachment(x, ports[x])
            dom_sig = ActionSignature(att.domain)
            nodes[sid] = dom_sig
            arrows[(sid, cid)] = SignatureMorphism(dom_sig, nodes[cid], {a: a for a in att.domain})
            arrows[(sid, _PT + x)] = SignatureMorphism(dom_sig, nodes[_PT + x], att.mapping)
    return FiniteDiagram(nodes, arrows)


def signature_of(n: Arn) -> Cocone:
    """The colimiting cocone over the network's diagram."""
    return colimit(diagram_of(n))


def _apex_parts(n: Arn, x: str):
    """The cofree expansions to the apex of every hyperedge automaton of the
    dependency subnetwork of x, in hyperedge name order, and x's leg.

    Raises InputError unless the network is well-formed, has the point x and
    is ground, checked in that order."""
    issues = validate(n)
    if issues:
        raise InputError("network is not well-formed: " + "; ".join(issues))
    if x not in n.points:
        raise InputError(f"no such point: {x}")
    requires, _, _ = classify_points(n)
    if requires:
        raise InputError(f"network is not ground, it has requires-points: {sorted(requires)}")
    sub = subnet_at(n, x)
    cocone = signature_of(sub)
    parts = []
    for e in sorted(set(sub.process_of) | set(sub.connection_of)):
        aut = sub.process_of[e].automaton if e in sub.process_of else sub.connection_of[e].automaton
        parts.append(cofree_expansion(aut, cocone.leg(_EDGE + e)))
    return parts, cocone.leg(_PT + x)


def observed_automaton(n: Arn, x: str) -> MullerAutomaton:
    """Behaviour of a ground network at one of its points.

    Product of the cofree expansions of every hyperedge automaton of the
    dependency subnetwork, reducted to the point's own actions.  Hyperedges
    enter the product in name order, so reconstruction is deterministic; the
    result is canonical only up to isomorphism, so callers compare
    semantically.  This is the semantics; checking a spec never builds it
    (see :func:`counterexample`), and tests use it as the oracle.
    """
    parts, leg = _apex_parts(n, x)
    return reduct(product(parts, signature=leg.target), leg)


def check_spec(n: Arn, spec: ArnSpec) -> None:
    """Raise InputError unless the spec is at a point of the network and its
    formula uses only the actions of that point's port."""
    if spec.point not in n.points:
        raise InputError(f"no such point: {spec.point}")
    stray = ltl.atoms_of(spec.formula) - n.port_of[spec.point].actions().actions
    if stray:
        raise InputError(f"formula uses actions outside the port at {spec.point}: {sorted(stray)}")


def counterexample(n: Arn, spec: ArnSpec) -> LassoTrace | None:
    """A trace observed at the spec's point that violates its formula, or
    None when the spec is a property of the network.

    The formula is lifted to the apex instead of reducting the network's
    product to the point: reduct and cofree expansion are adjoint, so the
    observed automaton meets the negated formula's automaton exactly when
    the hyperedges' expansions meet its cofree expansion along the point's
    leg.  One on-the-fly search of that product decides, and the witness
    over the apex maps back along the leg.

    Raises InputError as ``_apex_parts`` does, and then as ``check_spec``.
    """
    parts, leg = _apex_parts(n, spec.point)
    check_spec(n, spec)
    negated = cofree_expansion(ltl.to_automaton(ltl.lnot(spec.formula), leg.source), leg)
    witness = find_accepted_lasso(*parts, negated)
    return None if witness is None else witness.reduct(leg)


def is_property(n: Arn, spec: ArnSpec) -> bool:
    """Does every trace observed at the spec's point satisfy its formula?"""
    return counterexample(n, spec) is None


# ---------------------------------------------------------------------------
# Morphisms


@dataclass(frozen=True)
class ArnMorphism:
    """An injective hypergraph homomorphism with per-point polarity-preserving
    message injections; labels are preserved as dictated by edge kinds.
    The tests check these conditions with ``check_morphism`` of
    ``tests/oracles.py``."""

    source: Arn
    target: Arn
    point_map: FrozenMap[str, str]
    edge_map: FrozenMap[str, str]
    msg_map: FrozenMap[str, FrozenMap[str, str]]

    def __post_init__(self):
        object.__setattr__(self, "point_map", FrozenMap(self.point_map))
        object.__setattr__(self, "edge_map", FrozenMap(self.edge_map))
        object.__setattr__(self, "msg_map", FrozenMap({x: FrozenMap(m) for x, m in self.msg_map.items()}))

    def render(self) -> str:
        moved_points = [f"{x}->{y}" for x, y in self.point_map.items() if x != y]
        moved_msgs = []
        for x, mu in self.msg_map.items():
            changed = [f"{a}->{b}" for a, b in mu.items() if a != b]
            if changed:
                moved_msgs.append(f"{x}[" + " ".join(changed) + "]")
        inside = "; ".join(filter(None, [" ".join(moved_points), " ".join(moved_msgs)]))
        return "{" + (inside if inside else "id") + "}"

    def action_morphism(self, x: str) -> SignatureMorphism:
        """Port-action morphism at a source point: ``m!`` to ``theta(m)!``."""
        port1 = self.source.port_of[x]
        port2 = self.target.port_of[self.point_map[x]]
        mu = self.msg_map[x]
        mapping = {}
        for m in port1.published:
            mapping[f"{m}!"] = f"{mu[m]}!"
        for m in port1.delivered:
            mapping[f"{m}?"] = f"{mu[m]}?"
        return SignatureMorphism(port1.actions(), port2.actions(), mapping)


def identity_morphism(n: Arn) -> ArnMorphism:
    return ArnMorphism(
        n,
        n,
        {x: x for x in n.points},
        {e: e for e in n.incidence_of},
        {x: {m: m for m in n.port_of[x].messages} for x in n.points},
    )


def compose_morphisms(t1: ArnMorphism, t2: ArnMorphism) -> ArnMorphism:
    if t1.target != t2.source:
        raise ValueError("endpoint mismatch in morphism composition")
    pm1, pm2 = t1.point_map, t2.point_map
    em1, em2 = t1.edge_map, t2.edge_map
    mm1, mm2 = t1.msg_map, t2.msg_map
    return ArnMorphism(
        t1.source,
        t2.target,
        {x: pm2[y] for x, y in pm1.items()},
        {e: em2[f] for e, f in em1.items()},
        {x: {m: mm2[pm1[x]][v] for m, v in mu.items()} for x, mu in mm1.items()},
    )


def translate_spec(theta: ArnMorphism, spec: ArnSpec) -> ArnSpec:
    if spec.point not in theta.source.points:
        raise KeyError(spec.point)
    return ArnSpec(
        theta.point_map[spec.point],
        translate(spec.formula, theta.action_morphism(spec.point)),
    )


# ---------------------------------------------------------------------------
# Binding: gluing a clause network onto a query network


def is_correspondence(corr, port1: Port, port2: Port) -> bool:
    """Does corr map the messages of port1 injectively into those of port2,
    published onto published and delivered onto delivered?"""
    return (
        set(corr) == port1.messages
        and len(set(corr.values())) == len(corr)
        and all(corr[m] in port2.published for m in port1.published)
        and all(corr[m] in port2.delivered for m in port1.delivered)
    )


def _fresh_names(names, taken) -> dict[str, str]:
    """Each name to itself or, when taken, to the first ``name~i`` (i = 1, 2,
    ...) that is neither taken, one of the names, nor chosen earlier, in
    name order."""
    avoid = set(taken) | set(names)
    fresh = {}
    for name in sorted(names):
        new, i = name, 0
        while name in taken and new in avoid:
            i += 1
            new = f"{name}~{i}"
        avoid.add(new)
        fresh[name] = new
    return fresh


def rename_apart(net: Arn, taken_points, taken_edges):
    """A variant of a network whose points and hyperedges avoid the taken
    names, with its point and edge maps: (variant, point_map, edge_map).

    Every colliding name is renamed; process labels keep their point names,
    so a variant with a renamed computation-incident point is ill-formed.
    """
    rp = _fresh_names(net.points, taken_points)
    re_ = _fresh_names(net.incidence_of, taken_edges)
    variant = Arn(
        {rp[x]: port for x, port in net.port_of.items()},
        {re_[p]: proc for p, proc in net.process_of.items()},
        {
            re_[c]: Connection(conn.messages, conn.automaton, {rp[x]: mu for x, mu in conn.attachment_of.items()})
            for c, conn in net.connection_of.items()
        },
        {re_[e]: frozenset(rp[x] for x in xs) for e, xs in net.incidence_of.items()},
    )
    return variant, rp, re_


def glue(query_net: Arn, x1: str, clause_net: Arn, x2: str, corr: dict[str, str]):
    """Fuse a requires-point of the query with a provides-point of the clause
    along a correspondence of their messages (``is_correspondence``).

    The clause is renamed apart from the query's other points and its
    hyperedges first.  Returns (glued, theta1, theta2), or None when corr is
    no correspondence, x1 or x2 is of the wrong kind, a clause point that is
    not a requires-point is taken, or the glued network is ill-formed.
    """
    if not is_correspondence(corr, query_net.port_of[x1], clause_net.port_of[x2]):
        return None
    q_requires, _, _ = classify_points(query_net)
    c_requires, c_provides, _ = classify_points(clause_net)
    if x1 not in q_requires or x2 not in c_provides:
        return None
    remaining_points = query_net.points - {x1}
    if (clause_net.points - c_requires) & remaining_points:
        return None  # process labels pin computation-incident points

    variant, point_map, edge_map = rename_apart(clause_net, remaining_points, query_net.incidence_of)
    vx2 = point_map[x2]
    subst = lambda x: vx2 if x == x1 else x
    new_connections = {}
    for c, conn in query_net.connection_of.items():
        att = conn.attachment_of
        if x1 in att:
            new_att = {subst(x): mu for x, mu in att.items() if x != x1}
            new_att[vx2] = {m: corr[pm] for m, pm in att[x1].items()}
            new_connections[c] = Connection(conn.messages, conn.automaton, new_att)
        else:
            new_connections[c] = conn
    new_connections.update(variant.connection_of)

    glued_ports = {subst(x): port for x, port in query_net.port_of.items() if x != x1}
    glued_ports.update(variant.port_of)
    glued = Arn(
        glued_ports,
        {**query_net.process_of, **variant.process_of},
        new_connections,
        {
            **{e: frozenset(subst(x) for x in xs) for e, xs in query_net.incidence_of.items()},
            **variant.incidence_of,
        },
    )
    if validate(glued):
        return None

    identity = lambda n: {x: {m: m for m in port.messages} for x, port in n.port_of.items()}
    theta1 = ArnMorphism(
        query_net,
        glued,
        {x: subst(x) for x in query_net.points},
        {e: e for e in query_net.incidence_of},
        {**identity(query_net), x1: corr},
    )
    theta2 = ArnMorphism(clause_net, glued, point_map, edge_map, identity(clause_net))
    return glued, theta1, theta2


# ---------------------------------------------------------------------------
# The scheme


class ArnScheme(OrchestrationScheme):
    """Networks as orchestrations; specs are temporal sentences at points.

    An instance tables its LTL decisions, as in tabled resolution (Chen and
    Warren, "Tabled evaluation with delaying for general logic programs",
    JACM 1996): an entailment is decided once per provided formula, required
    formula and port signature, a triviality once per formula and port
    signature.  Both are pure functions of those arguments, so the table
    changes no verdict; make one instance per search, so that a table lives
    for one search only."""

    compose_morphisms = staticmethod(compose_morphisms)
    identity_morphism = staticmethod(identity_morphism)
    translate_spec = staticmethod(translate_spec)
    is_ground = staticmethod(is_ground)
    check_property = staticmethod(is_property)

    def __init__(self):
        self._entails: dict = {}
        self._valid: dict = {}

    def spec_entails(self, orc, provided, required):
        if provided.point != required.point:
            return False
        key = (provided.formula, required.formula, orc.port_of[provided.point].actions())
        if key not in self._entails:
            self._entails[key] = ltl.entails(*key)
        return self._entails[key]

    def is_trivial(self, orc, spec):
        key = (spec.formula, orc.port_of[spec.point].actions())
        if key not in self._valid:
            self._valid[key] = ltl.valid(*key)
        return self._valid[key]

    def candidate_unifiers(self, q_orc, q_spec, c_orc, c_provides, hint):
        """The one gluing along the hint, a correspondence of message names,
        or, without a hint, along the identity on the query port's names."""
        x1, x2 = q_spec.point, c_provides.point
        if x1 not in q_orc.points or x2 not in c_orc.points:
            return []
        corr = hint if hint is not None else {m: m for m in q_orc.port_of[x1].messages}
        result = glue(q_orc, x1, c_orc, x2, corr)
        return [] if result is None else [result[1:]]
