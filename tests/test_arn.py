import dataclasses
import itertools
import random
from functools import cache

import pytest
from hypothesis import given, strategies as st

from orcbind import InputError
from orcbind import arn, ltl, sigcat, travel
from orcbind.arn import (
    Arn,
    ArnMorphism,
    ArnSpec,
    Connection,
    Port,
    Process,
    classify_points,
    compose_morphisms,
    counterexample,
    diagram_of,
    glue,
    identity_morphism,
    is_correspondence,
    is_ground,
    is_property,
    observed_automaton,
    qualified_signature,
    rename_apart,
    signature_of,
    subnet_at,
    translate_spec,
    validate,
)
from orcbind.muller import (
    AllNonempty,
    Explicit,
    LassoTrace,
    MullerAutomaton,
    cofree_expansion,
    find_accepted_lasso,
    reduct,
)
from orcbind.sigcat import TRUE, SignatureMorphism

from oracles import (
    accepts,
    all_letters,
    automaton_isomorphism,
    check_morphism,
    colimit_classes_by_closure,
    colimit_classes_of_cocone,
    commutes_over,
)


# ---------------------------------------------------------------------------
# Validation


def test_journey_planner_network_is_valid():
    assert validate(travel.journey_planner_net()) == ()
    assert validate(travel.journey_planner_ground_net()) == ()
    assert validate(travel.traveller_net()) == ()


def _jp_connection(n, **changes):
    return {"connection_of": {"C": dataclasses.replace(n.connection_of["C"], **changes)}}


def _jp_attached(n, x, mu):
    return _jp_connection(n, attachment_of={**n.connection_of["C"].attachment_of, x: mu})


@pytest.mark.parametrize(
    "change, message",
    [
        (
            lambda n: {"incidence_of": {**n.incidence_of, "X": {"R1"}}},
            "incidence: edge names must be exactly the processes and connections",
        ),
        (
            lambda n: {"process_of": {**n.process_of, "C": n.process_of["JP"]}},
            "edges: process and connection names must be disjoint",
        ),
        (lambda n: {"incidence_of": {**n.incidence_of, "C": set()}}, "edge C: incidence set is empty"),
        (
            lambda n: {"incidence_of": {**n.incidence_of, "C": n.incidence_of["C"] | {"Z"}}},
            "edge C: incident with unknown points ['Z']",
        ),
        (
            lambda n: {"incidence_of": {**n.incidence_of, "JP": {"JP1"}}},
            "process JP: labelled points ['JP1', 'JP2'] differ from incidence ['JP1']",
        ),
        (
            lambda n: {"port_of": {**n.port_of, "JP1": Port({"directions", "extra"}, {"planJourney"})}},
            "process JP: port label at JP1 differs from the network's",
        ),
        (
            lambda n: {"process_of": {"JP": Process(n.process_of["JP"].port_of, travel.channel_automaton({"g"}))}},
            "process JP: automaton signature is not the coproduct of its port actions",
        ),
        (
            lambda n: _jp_attached(n, "JP1", {}),
            "connection C: attachments at non-incident points ['JP1']",
        ),
        (
            lambda n: _jp_connection(n, automaton=travel.channel_automaton({"g"})),
            "connection C: channel automaton signature must be the message actions",
        ),
        (
            lambda n: _jp_attached(n, "R1", {"g": "getRoutes", "q": "routes"}),
            "connection C at R1: attachment domain outside channel messages ['q']",
        ),
        (
            lambda n: _jp_attached(n, "R1", {"g": "getRoutes", "r": "getRoutes"}),
            "connection C at R1: attachment is not injective",
        ),
        (
            lambda n: _jp_attached(n, "R1", {"g": "getRoutes", "r": "nothing"}),
            "connection C at R1: attachment image outside the port ['nothing']",
        ),
        (
            lambda n: _jp_connection(n, messages=set("grtu"), automaton=travel.channel_automaton(set("grtu"))),
            "connection C: messages not covered by any attachment ['u']",
        ),
    ],
    ids=[
        "edge-names",
        "edge-kinds-overlap",
        "empty-incidence",
        "unknown-point",
        "process-points",
        "process-port-label",
        "process-automaton",
        "stray-attachment",
        "channel-automaton",
        "attachment-domain",
        "attachment-injective",
        "attachment-image",
        "coverage",
    ],
)
def test_every_validate_message_is_produced(change, message):
    net = travel.journey_planner_net()
    assert message in validate(dataclasses.replace(net, **change(net)))


def test_missing_attachment_breaks_coverage_and_pairing():
    net = travel.journey_planner_net()
    conn = net.connection_of["C"]
    att = {x: dict(mu) for x, mu in conn.attachment_of.items()}
    del att["R1"]["g"]
    broken = Arn(
        net.port_of,
        net.process_of,
        {"C": Connection(conn.messages, conn.automaton, att)},
        net.incidence_of,
    )
    issues = validate(broken)
    assert any("g" in i and ("counterpart" in i or "covered" in i) for i in issues)


def test_overlapping_port_polarity_is_reported():
    bad_port = Port(frozenset({"planJourney"}), frozenset({"planJourney"}))
    ports = {"X": bad_port}
    aut = MullerAutomaton(
        qualified_signature(ports), frozenset({"s"}), (("s", TRUE, "s"),), frozenset({"s"}), AllNonempty()
    )
    net = Arn(ports, {"P": Process(ports, aut)}, {}, {"P": {"X"}})
    issues = validate(net)
    assert any("overlap" in i for i in issues)


def test_adjacent_same_kind_edges_are_reported():
    ports = {"X": travel.PORT_MS1}
    aut = MullerAutomaton(
        qualified_signature(ports), frozenset({"s"}), (("s", TRUE, "s"),), frozenset({"s"}), AllNonempty()
    )
    proc = Process(ports, aut)
    net = Arn(ports, {"P1": proc, "P2": proc}, {}, {"P1": {"X"}, "P2": {"X"}})
    assert any("same kind" in i for i in validate(net))


def test_isolated_points_are_rejected_but_classified_internal():
    ports = {"X": travel.PORT_MS1, "LONE": travel.PORT_TS1}
    aut = MullerAutomaton(
        qualified_signature({"X": travel.PORT_MS1}),
        frozenset({"s"}),
        (("s", TRUE, "s"),),
        frozenset({"s"}),
        AllNonempty(),
    )
    net = Arn(ports, {"P": Process({"X": travel.PORT_MS1}, aut)}, {}, {"P": {"X"}})
    assert any("no hyperedge" in i for i in validate(net))
    _, _, internal = classify_points(net)
    assert "LONE" in internal


def test_binary_connections_must_have_total_attachments():
    net = travel.traveller_net()
    conn = net.connection_of["CT"]
    att = {x: dict(mu) for x, mu in conn.attachment_of.items()}
    del att["R1"]["r"]
    broken = Arn(
        net.port_of,
        net.process_of,
        {"CT": Connection(conn.messages, conn.automaton, att)},
        net.incidence_of,
    )
    assert any("total" in i for i in validate(broken))


# ---------------------------------------------------------------------------
# Point classification and subnets


def test_classification_of_the_corpus_networks():
    req, prov, internal = classify_points(travel.journey_planner_net())
    assert req == {"R1", "R2"}
    assert prov == {"JP1"}
    assert internal == {"JP2"}
    assert is_ground(travel.journey_planner_ground_net())
    assert not is_ground(travel.traveller_net())


def test_subnet_at_ms1_is_the_ms_process_alone():
    gnet = travel.journey_planner_ground_net()
    sub = subnet_at(gnet, "MS1")
    assert sub.points == {"MS1"}
    assert set(sub.incidence_of) == {"MS"}


def test_subnet_at_jp1_is_the_whole_network():
    gnet = travel.journey_planner_ground_net()
    sub = subnet_at(gnet, "JP1")
    assert sub == gnet


def test_subnet_is_idempotent():
    gnet = travel.journey_planner_ground_net()
    for x in gnet.points:
        sub = subnet_at(gnet, x)
        assert subnet_at(sub, x) == sub


def test_subnet_of_single_process_net_is_itself():
    net = travel.ms_net()
    assert subnet_at(net, "MS1") == net


# ---------------------------------------------------------------------------
# Signatures of networks


def test_signature_of_single_process_net_matches_port():
    net = travel.ms_net()
    cocone = signature_of(net)
    leg = cocone.leg("pt:MS1")
    assert len(cocone.apex) == len(travel.PORT_MS1.actions())
    assert set(leg.mapping.values()) == set(cocone.apex.actions)


def test_network_colimit_matches_closure_oracle():
    d = diagram_of(travel.journey_planner_ground_net())
    cocone = signature_of(travel.journey_planner_ground_net())
    assert commutes_over(cocone, d)
    assert colimit_classes_of_cocone(d, cocone) == colimit_classes_by_closure(d)


def test_network_colimit_identifies_shared_deliveries():
    gnet = travel.journey_planner_ground_net()
    cocone = signature_of(gnet)
    # routes? is delivered simultaneously to JP2 and TS1 through the channel
    assert cocone.leg("pt:JP2")("routes?") == cocone.leg("pt:TS1")("routes?")
    assert cocone.leg("pt:JP2")("routes?") == cocone.leg("e:C")("r?")
    # publications stay distinct from deliveries
    assert cocone.leg("pt:MS1")("routes!") != cocone.leg("pt:JP2")("routes?")
    # apex size: 8 classes for this network
    assert len(cocone.apex) == 8


# ---------------------------------------------------------------------------
# Observed behaviour


def test_observed_at_ms1_is_the_reduct_of_the_ms_automaton():
    gnet = travel.journey_planner_ground_net()
    obs = observed_automaton(gnet, "MS1")
    ms = travel.ms_process()
    inj = SignatureMorphism(
        travel.PORT_MS1.actions(),
        ms.signature(),
        {a: f"MS1.{a}" for a in travel.PORT_MS1.actions().actions},
    )
    direct = reduct(
        cofree_expansion_identity(ms.automaton), _restrict(inj, ms.automaton.signature)
    )
    assert automaton_isomorphism(obs, direct) is not None


def cofree_expansion_identity(a):
    return a


def _restrict(inj, sig):
    return SignatureMorphism(inj.source, sig, inj.mapping)


def test_observed_of_single_process_single_port_net():
    ports = {"X": Port(frozenset({"out"}), frozenset({"inn"}))}
    f = ltl.parse_formula("G(inn? -> F out!)")
    qualified = sigcat.translate(
        f,
        SignatureMorphism(
            ports["X"].actions(), qualified_signature(ports), {"inn?": "X.inn?", "out!": "X.out!"}
        ),
    )
    aut = ltl.to_automaton(qualified, qualified_signature(ports))
    net = Arn(ports, {"P": Process(ports, aut)}, {}, {"P": {"X"}})
    obs = observed_automaton(net, "X")
    assert ltl.holds(obs, f)
    assert not ltl.holds(obs, ltl.parse_formula("G !inn?"))
    # language agrees with the raw automaton modulo renaming
    rnd = random.Random(3)
    letters = list(all_letters(ports["X"].actions()))
    for _ in range(25):
        p = tuple(rnd.choice(letters) for _ in range(rnd.randint(0, 2)))
        c = tuple(rnd.choice(letters) for _ in range(rnd.randint(1, 2)))
        t = LassoTrace(ports["X"].actions(), p, c)
        qual = LassoTrace(
            qualified_signature(ports),
            tuple(frozenset(f"X.{a}" for a in l) for l in p),
            tuple(frozenset(f"X.{a}" for a in l) for l in c),
        )
        assert accepts(obs, t) == accepts(aut, qual)


def test_observed_at_jp1_satisfies_the_provides_formula():
    gnet = travel.journey_planner_ground_net()
    obs = observed_automaton(gnet, "JP1")
    assert ltl.holds(obs, travel.RHO_JP)
    # and its witnesses really are joint behaviours: sample a few accepted
    # lassos and check them against the formula
    w = find_accepted_lasso(obs)
    assert w is not None and ltl.sat_lasso(w, travel.RHO_JP)


def test_observed_at_jp1_projects_the_jp_behaviour():
    # whatever the network can do at JP1 is in particular something the JP
    # process alone could do there (the other components only constrain it)
    gnet = travel.journey_planner_ground_net()
    obs = observed_automaton(gnet, "JP1")
    jp = travel.jp_process()
    inj = SignatureMorphism(
        travel.PORT_JP1.actions(),
        jp.signature(),
        {a: f"JP1.{a}" for a in travel.PORT_JP1.actions().actions},
    )
    jp_alone = reduct(jp.automaton, inj)
    w = find_accepted_lasso(obs)
    assert w is not None and accepts(jp_alone, w)


def test_channel_product_delivers_without_delay():
    lam_c = travel.channel_automaton({"g", "r", "t"})
    assert ltl.holds(lam_c, ltl.parse_formula("G(g! -> F g?)"))
    assert ltl.holds(lam_c, ltl.parse_formula("G(t! -> F t?)"))
    assert not ltl.holds(lam_c, ltl.parse_formula("G !g!"))


def test_observed_behaviour_stable_under_edge_renaming():
    gnet = travel.journey_planner_ground_net()
    renamed = Arn(
        gnet.port_of,
        {"ZP": gnet.process_of["JP"], "MS": gnet.process_of["MS"], "TS": gnet.process_of["TS"]},
        {"A": gnet.connection_of["C"]},
        {
            "ZP": gnet.incidence_of["JP"],
            "MS": gnet.incidence_of["MS"],
            "TS": gnet.incidence_of["TS"],
            "A": gnet.incidence_of["C"],
        },
    )
    assert validate(renamed) == ()
    obs1 = observed_automaton(gnet, "MS1")
    obs2 = observed_automaton(renamed, "MS1")
    assert automaton_isomorphism(obs1, obs2) is not None
    # large product: compare semantically through the property and witnesses
    big = observed_automaton(renamed, "JP1")
    assert ltl.holds(big, travel.RHO_JP)
    w = find_accepted_lasso(big)
    assert accepts(observed_automaton(gnet, "JP1"), w)


def test_is_property_examples():
    gnet = travel.journey_planner_ground_net()
    assert is_property(gnet, ArnSpec("MS1", travel.RHO_MS))
    assert is_property(gnet, ArnSpec("TS1", travel.RHO_TS))
    assert is_property(gnet, ArnSpec("MS1", ltl.TRUE))
    assert not is_property(gnet, ArnSpec("MS1", ltl.FALSE))


def test_false_is_a_property_exactly_of_dead_points():
    ports = {"X": Port(frozenset({"out"}), frozenset())}
    dead = MullerAutomaton(
        qualified_signature(ports),
        frozenset({"s"}),
        (("s", TRUE, "s"),),
        frozenset({"s"}),
        Explicit(frozenset()),
    )
    net = Arn(ports, {"P": Process(ports, dead)}, {}, {"P": {"X"}})
    assert is_property(net, ArnSpec("X", ltl.FALSE))


def test_observed_requires_ground_network():
    with pytest.raises(ValueError):
        observed_automaton(travel.journey_planner_net(), "JP1")


# ---------------------------------------------------------------------------
# Morphisms


def _jp_into_ground_morphism():
    return compose_morphisms(
        identity_morphism(travel.journey_planner_net()),
        _jp_embedding(),
    )


def _jp_embedding():
    src = travel.journey_planner_net()
    dst = travel.journey_planner_ground_net()
    return _morphism(
        src,
        dst,
        {"JP1": "JP1", "JP2": "JP2", "R1": "MS1", "R2": "TS1"},
        {"JP": "JP", "C": "C"},
    )


def _morphism(src, dst, point_map, edge_map):
    from orcbind.arn import ArnMorphism

    msg_maps = {x: {m: m for m in src.port_of[x].messages} for x in src.points}
    return ArnMorphism(src, dst, point_map, edge_map, msg_maps)


def test_identity_morphism_checks_out():
    assert check_morphism(identity_morphism(travel.journey_planner_ground_net())) == ()


def test_embedding_into_the_ground_net_checks_out():
    assert check_morphism(_jp_embedding()) == ()


def test_non_commuting_attachment_is_reported():
    src = travel.journey_planner_net()
    dst = travel.journey_planner_ground_net()
    theta = _jp_embedding()
    msg_maps = {x: dict(mu) for x, mu in theta.msg_map.items()}
    msg_maps["R1"]["routes"] = "getRoutes"  # breaks polarity and the triangle
    from orcbind.arn import ArnMorphism

    broken = ArnMorphism(src, dst, theta.point_map, theta.edge_map, msg_maps)
    issues = check_morphism(broken)
    assert issues


def test_point_renaming_must_not_touch_process_labels():
    src = travel.ms_net()
    dst = travel.journey_planner_ground_net()
    theta = _morphism(src, dst, {"MS1": "TS1"}, {"MS": "TS"})
    assert check_morphism(theta)  # TS's process differs from MS's


def test_translate_spec_identity_and_functoriality():
    gnet = travel.journey_planner_ground_net()
    spec = ArnSpec("MS1", travel.RHO_MS)
    assert translate_spec(identity_morphism(gnet), spec) == spec

    result = glue(
        travel.traveller_net(),
        "R1",
        travel.journey_planner_net(),
        "JP1",
        {"getRoute": "planJourney", "route": "directions"},
    )
    assert result is not None
    glued, theta1, theta2 = result
    assert check_morphism(theta1) == ()
    assert check_morphism(theta2) == ()
    spec_t = ArnSpec("R1", travel.RHO_T1)
    assert translate_spec(theta1, spec_t) == ArnSpec("JP1", travel.RHO_JP)

    # functoriality along a second gluing
    result2 = glue(glued, "R1", travel.ms_net(), "MS1", {"getRoutes": "getRoutes", "routes": "routes"})
    assert result2 is not None
    _, delta1, _ = result2
    composed = compose_morphisms(theta1, delta1)
    s = ArnSpec("R1", travel.RHO_T1)
    assert translate_spec(composed, s) == translate_spec(delta1, translate_spec(theta1, s))


def test_rename_apart_renames_every_colliding_name():
    clause = travel.journey_planner_net()
    net, point_map, edge_map = rename_apart(clause, {"R1"}, {"C"})
    assert "R1" not in net.points
    assert "C" not in net.incidence_of
    identity = {x: {m: m for m in port.messages} for x, port in clause.port_of.items()}
    assert check_morphism(ArnMorphism(clause, net, point_map, edge_map, identity)) == ()
    assert validate(net) == ()
    # a process point is renamed too, so its process label no longer fits
    net, point_map, _ = rename_apart(clause, {"JP1", "JP1~1"}, set())
    assert point_map == {"JP1": "JP1~2", "JP2": "JP2", "R1": "R1", "R2": "R2"}
    assert any("process JP" in issue for issue in validate(net))


_MESSAGES = ("a", "b", "c", "d")


@st.composite
def _ports(draw):
    messages = draw(st.lists(st.sampled_from(_MESSAGES), unique=True, max_size=4))
    k = draw(st.integers(0, len(messages)))
    return Port(frozenset(messages[:k]), frozenset(messages[k:]))


@given(_ports(), _ports(), st.data())
def test_is_correspondence_agrees_with_enumeration(port1, port2, data):
    # every one-to-one map from port1's messages into port2's that keeps polarity
    ms = sorted(port1.messages)
    correspondences = [
        dict(zip(ms, image))
        for image in itertools.permutations(sorted(port2.messages), len(ms))
        if all((m in port1.published) == (v in port2.published) for m, v in zip(ms, image))
    ]
    maps = [st.dictionaries(st.sampled_from(_MESSAGES), st.sampled_from(_MESSAGES), max_size=4)]
    if port2.messages:  # total on port1's messages, into port2's
        maps.append(st.fixed_dictionaries({m: st.sampled_from(sorted(port2.messages)) for m in ms}))
    if correspondences:
        maps.append(st.sampled_from(correspondences))
    corr = data.draw(st.one_of(maps))
    assert is_correspondence(corr, port1, port2) == (corr in correspondences)


def _permissive_process(ports):
    aut = MullerAutomaton(
        qualified_signature(ports), frozenset({"s"}), (("s", TRUE, "s"),), frozenset({"s"}), AllNonempty()
    )
    return Process(ports, aut)


def _client():
    """A process at Q talks over the channel C to the requires-point R."""
    ports = {"Q": Port({"b", "c"}, {"a"}), "R": Port({"a"}, {"b", "c"})}
    ident = {m: m for m in "abc"}
    return Arn(
        ports,
        {"QP": _permissive_process({"Q": ports["Q"]})},
        {"C": travel.connection({"a", "b", "c"}, {"Q": ident, "R": ident})},
        {"QP": {"Q"}, "C": {"Q", "R"}},
    )


def _provider(x):
    """One process providing at the point x."""
    ports = {x: Port({"v", "x"}, {"w", "y", "z"})}
    return Arn(ports, {"PP": _permissive_process(ports)}, {}, {"PP": {x}})


_CORR = {"a": "x", "b": "y", "c": "z"}


@pytest.mark.parametrize("x2", ["P", "R"])
def test_glue_fuses_along_a_correspondence(x2):
    # the clause point may take the name of the fused query point
    glued, theta1, theta2 = glue(_client(), "R", _provider(x2), x2, _CORR)
    assert validate(glued) == ()
    assert check_morphism(theta1) == () and check_morphism(theta2) == ()
    assert glued.connection_of["C"].attachment_of[x2] == _CORR


@pytest.mark.parametrize(
    "x1, clause, x2, corr",
    [
        ("Q", _provider("P"), "P", {"a": "y", "b": "x", "c": "v"}),
        ("R", travel.journey_planner_net(), "JP2", {"a": "getRoutes", "b": "routes", "c": "timetables"}),
        ("R", _provider("P"), "P", {"a": "x", "b": "y"}),
        ("R", _provider("P"), "P", {**_CORR, "d": "w"}),
        ("R", _provider("P"), "P", {"a": "x", "b": "y", "c": "y"}),
        ("R", _provider("P"), "P", {"a": "w", "b": "y", "c": "z"}),
        ("R", _provider("P"), "P", {"a": "x", "b": "v", "c": "z"}),
        ("R", _provider("Q"), "Q", _CORR),
    ],
    ids=[
        "x1-not-requires",
        "x2-not-provides",
        "missing-key",
        "extra-key",
        "not-injective",
        "published-to-delivered",
        "delivered-to-published",
        "process-point-taken",
    ],
)
def test_glue_rejects(x1, clause, x2, corr, monkeypatch):
    def unreachable(net):
        raise AssertionError("rejected only after gluing")

    monkeypatch.setattr(arn, "validate", unreachable)
    assert glue(_client(), x1, clause, x2, corr) is None


def test_property_preservation_along_ground_morphisms():
    # corpus instance: the MS subnet embeds into the full ground network
    src = travel.ms_net()
    dst = travel.journey_planner_ground_net()
    theta = _morphism(src, dst, {"MS1": "MS1"}, {"MS": "MS"})
    assert check_morphism(theta) == ()
    spec = ArnSpec("MS1", travel.RHO_MS)
    assert is_property(src, spec)
    assert is_property(dst, translate_spec(theta, spec))


def _random_ground_pair(rnd):
    """A small ground net plus its extension with one more process wired in."""
    out_m, in_m = "req", "rsp"
    port_x = Port(frozenset({out_m}), frozenset({in_m}))
    ports = {"X": port_x}
    depth = rnd.randint(1, 2)
    f = _random_pointed_formula(rnd, port_x, depth)
    qualified = sigcat.translate(
        f,
        SignatureMorphism(
            port_x.actions(), qualified_signature(ports), {a: f"X.{a}" for a in port_x.actions().actions}
        ),
    )
    aut = ltl.to_automaton(qualified, qualified_signature(ports))
    proc = Process(ports, aut)
    g1 = Arn(ports, {"P": proc}, {}, {"P": {"X"}})

    port_y = Port(frozenset({"back"}), frozenset({"fwd"}))
    ports_y = {"Y": port_y}
    perm = MullerAutomaton(
        qualified_signature(ports_y),
        frozenset({"s"}),
        (("s", TRUE, "s"),),
        frozenset({"s"}),
        AllNonempty(),
    )
    conn = travel.connection(
        {"m1", "m2"}, {"X": {"m1": out_m, "m2": in_m}, "Y": {"m1": "fwd", "m2": "back"}}
    )
    g2 = Arn(
        {"X": port_x, "Y": port_y},
        {"P": proc, "Q": Process(ports_y, perm)},
        {"c": conn},
        {"P": {"X"}, "Q": {"Y"}, "c": {"X", "Y"}},
    )
    theta = _morphism(g1, g2, {"X": "X"}, {"P": "P"})
    return g1, g2, theta, f


def _random_pointed_formula(rnd, port, depth):
    atoms = sorted(port.actions().actions)
    def go(d):
        if d == 0 or rnd.random() < 0.4:
            return rnd.choice([ltl.Atom(atoms[0]), ltl.Atom(atoms[-1]), ltl.TRUE])
        op = rnd.choice(["not", "and", "or", "always", "eventually"])
        if op == "not":
            return ltl.lnot(go(d - 1))
        if op == "and":
            return ltl.land(go(d - 1), go(d - 1))
        if op == "or":
            return ltl.lor(go(d - 1), go(d - 1))
        if op == "always":
            return ltl.always(go(d - 1))
        return ltl.eventually(go(d - 1))
    return go(depth)


def test_property_preservation_on_random_small_networks():
    rnd = random.Random(71)
    preserved = 0
    for _ in range(12):
        g1, g2, theta, f = _random_ground_pair(rnd)
        assert validate(g1) == () and validate(g2) == ()
        assert is_ground(g1) and is_ground(g2)
        assert check_morphism(theta) == ()
        spec = ArnSpec("X", f)
        if not is_property(g1, spec):
            continue
        preserved += 1
        assert is_property(g2, translate_spec(theta, spec))
    assert preserved >= 4


# ---------------------------------------------------------------------------
# The lifted check against the eager observed automaton


def _agrees_with_the_observed_automaton(net, point, f, observed):
    lifted = counterexample(net, ArnSpec(point, f))
    assert (lifted is None) == (ltl.counterexample(observed, f) is None)
    if lifted is not None:
        assert not ltl.sat_lasso(lifted, f)
        assert accepts(observed, lifted)


@given(st.integers(0, 2**32 - 1))
def test_lifted_check_matches_the_oracle_on_random_small_networks(seed):
    rnd = random.Random(seed)
    g1, g2, _, f = _random_ground_pair(rnd)
    # f is the process's own formula, so it holds; the other one may fail
    other = _random_pointed_formula(rnd, g1.port_of["X"], 2)
    for net in (g1, g2):
        observed = observed_automaton(net, "X")
        for spec in (f, other):
            _agrees_with_the_observed_automaton(net, "X", spec, observed)


@cache
def _journey_planner_observed(point):
    return observed_automaton(travel.journey_planner_ground_net(), point)


@given(st.sampled_from(("JP1", "MS1", "TS1")), st.integers(0, 2**32 - 1))
def test_lifted_check_matches_the_oracle_on_the_journey_planner(point, seed):
    gnet = travel.journey_planner_ground_net()
    f = _random_pointed_formula(random.Random(seed), gnet.port_of[point], 3)
    _agrees_with_the_observed_automaton(gnet, point, f, _journey_planner_observed(point))


# ---------------------------------------------------------------------------
# Inputs unfit for a check


def _with_isolated_point(net):
    ports = {**net.port_of, "Z": Port(frozenset({"z"}), frozenset())}
    return Arn(ports, net.process_of, net.connection_of, net.incidence_of)


@pytest.mark.parametrize(
    "net, spec, message",
    [
        (
            _with_isolated_point(travel.ms_net()),
            ArnSpec("MS1", ltl.TRUE),
            "network is not well-formed: point Z: incident with no hyperedge",
        ),
        (travel.ms_net(), ArnSpec("NOPE", ltl.TRUE), "no such point: NOPE"),
        (
            travel.journey_planner_net(),
            ArnSpec("JP1", ltl.TRUE),
            "network is not ground, it has requires-points: ['R1', 'R2']",
        ),
        (
            travel.ms_net(),
            ArnSpec("MS1", ltl.parse_formula("G nosuch!")),
            "formula uses actions outside the port at MS1: ['nosuch!']",
        ),
    ],
)
def test_counterexample_rejects_unfit_input(net, spec, message):
    with pytest.raises(InputError) as e:
        counterexample(net, spec)
    assert isinstance(e.value, ValueError)
    assert str(e.value) == message


# ---------------------------------------------------------------------------
# Networks are frozen values


def _reversed(m):
    return dict(reversed(list(m.items())))


def test_networks_and_morphisms_built_in_any_order_are_equal_values():
    net = travel.journey_planner_ground_net()
    again = Arn(
        _reversed(net.port_of), _reversed(net.process_of), _reversed(net.connection_of), _reversed(net.incidence_of)
    )
    assert again == net and hash(again) == hash(net)
    theta = identity_morphism(net)
    msg_map = {x: _reversed(mu) for x, mu in _reversed(theta.msg_map).items()}
    again_theta = ArnMorphism(again, again, _reversed(theta.point_map), _reversed(theta.edge_map), msg_map)
    assert again_theta == theta and hash(again_theta) == hash(theta)
    assert list(again_theta.msg_map) == sorted(net.points)


def test_a_network_cannot_be_changed_through_its_maps():
    net = travel.journey_planner_net()
    with pytest.raises(TypeError):
        net.port_of["R1"] = travel.PORT_MS1
    with pytest.raises(TypeError):
        net.connection_of["C"].attachment_of["R1"]["g"] = "routes"
    assert net == travel.journey_planner_net()
