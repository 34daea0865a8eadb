import random
from functools import cache

import pytest
from hypothesis import given, strategies as st

from orcbind import InputError
from orcbind import ltl, sigcat, travel
from orcbind.arn import (
    Arn,
    ArnMorphism,
    ArnSpec,
    Connection,
    Port,
    Process,
    automata_equal,
    check_morphism,
    classify_points,
    compose_morphisms,
    counterexample,
    diagram_of,
    glue,
    identity_morphism,
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
    accepts,
    automaton_isomorphism,
    cofree_expansion,
    find_accepted_lasso,
    reduct,
)
from orcbind.sigcat import TRUE, SignatureMorphism, signature

from oracles import all_letters, colimit_classes_by_closure, colimit_classes_of_cocone


# ---------------------------------------------------------------------------
# Validation


def test_journey_planner_network_is_valid():
    assert validate(travel.journey_planner_net()) == ()
    assert validate(travel.journey_planner_ground_net()) == ()
    assert validate(travel.traveller_net()) == ()


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
    assert cocone.commutes_over(d)
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


def test_rename_apart_refuses_to_rename_process_points():
    clause = travel.journey_planner_net()
    assert rename_apart(clause, {"JP1"}, set()) is None
    variant = rename_apart(clause, {"R1"}, {"C"})
    assert variant is not None
    net, theta = variant
    assert "R1" not in net.points
    assert "C" not in net.incidence_of
    assert check_morphism(theta) == ()
    assert validate(net) == ()


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
