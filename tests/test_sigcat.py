import copy
import itertools
import pickle
import random

import pytest

from orcbind import FrozenMap
from orcbind.sigcat import (
    ActionSignature,
    Cocone,
    FiniteDiagram,
    PartialSignatureMorphism,
    SignatureMorphism,
    colimit,
    compose,
    identity,
    mediating_morphisms,
    signature,
)

from oracles import colimit_classes_by_closure, colimit_classes_of_cocone


def morph(src, dst, **mapping):
    return SignatureMorphism(src, dst, mapping)


def test_compose_identity_neutral():
    a = signature("x", "y")
    b = signature("u", "v")
    f = morph(a, b, x="u", y="v")
    assert compose(identity(a), f) == f
    assert compose(f, identity(b)) == f


def test_compose_pointwise():
    a, b, c = signature("a"), signature("x"), signature("y")
    f = morph(a, b, a="x")
    g = morph(b, c, x="y")
    assert compose(f, g)("a") == "y"


def test_compose_associative():
    sigs = [signature("a", "b"), signature("c", "d"), signature("e"), signature("f", "g")]
    f = morph(sigs[0], sigs[1], a="c", b="d")
    g = morph(sigs[1], sigs[2], c="e", d="e")
    h = morph(sigs[2], sigs[3], e="f")
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_compose_endpoint_mismatch():
    a, b = signature("a"), signature("b")
    f = morph(a, b, a="b")
    with pytest.raises(ValueError):
        compose(f, f)


def test_morphism_domain_and_image_checked():
    a, b = signature("a"), signature("b")
    with pytest.raises(ValueError):
        SignatureMorphism(a, b, {})
    with pytest.raises(ValueError):
        SignatureMorphism(a, b, {"a": "zzz"})


def test_partial_morphism_requires_injectivity():
    a, b = signature("m!", "m?"), signature("n!")
    PartialSignatureMorphism(a, b, {"m!": "n!"})
    with pytest.raises(ValueError):
        PartialSignatureMorphism(a, b, {"m!": "n!", "m?": "n!"})


def test_colimit_of_single_node_is_identity_like():
    a = signature("p", "q")
    d = FiniteDiagram({"n": a}, {})
    cocone = colimit(d)
    assert cocone.apex == a
    assert cocone.leg("n") == identity(a)


def test_colimit_of_disjoint_nodes_is_coproduct():
    d = FiniteDiagram({"n1": signature("m!"), "n2": signature("m?")}, {})
    cocone = colimit(d)
    assert len(cocone.apex) == 2
    images = {cocone.leg("n1")("m!"), cocone.leg("n2")("m?")}
    assert len(images) == 2


def test_colimit_name_clash_gets_qualified():
    # two unrelated nodes exporting the same action name must stay distinct
    d = FiniteDiagram({"n1": signature("m!"), "n2": signature("m!")}, {})
    cocone = colimit(d)
    assert len(cocone.apex) == 2


def _connection_diagram():
    """The three-port connection of the journey-planner example."""
    chan = signature("g!", "g?", "r!", "r?", "t!", "t?")
    jp2 = signature("getRoutes!", "routes?", "timetables?")
    r1 = signature("getRoutes?", "routes!")
    r2 = signature("routes?", "timetables!")
    sp_jp2 = signature("g!", "r?", "t?")
    sp_r1 = signature("g?", "r!")
    sp_r2 = signature("r?", "t!")
    nodes = {"c": chan, "jp2": jp2, "r1": r1, "r2": r2, "s_jp2": sp_jp2, "s_r1": sp_r1, "s_r2": sp_r2}
    arrows = {
        ("s_jp2", "c"): morph(sp_jp2, chan, **{"g!": "g!", "r?": "r?", "t?": "t?"}),
        ("s_jp2", "jp2"): morph(sp_jp2, jp2, **{"g!": "getRoutes!", "r?": "routes?", "t?": "timetables?"}),
        ("s_r1", "c"): morph(sp_r1, chan, **{"g?": "g?", "r!": "r!"}),
        ("s_r1", "r1"): morph(sp_r1, r1, **{"g?": "getRoutes?", "r!": "routes!"}),
        ("s_r2", "c"): morph(sp_r2, chan, **{"r?": "r?", "t!": "t!"}),
        ("s_r2", "r2"): morph(sp_r2, r2, **{"r?": "routes?", "t!": "timetables!"}),
    }
    return FiniteDiagram(nodes, arrows)


def test_connection_colimit_matches_closure_oracle():
    d = _connection_diagram()
    cocone = colimit(d)
    assert cocone.commutes_over(d)
    assert colimit_classes_of_cocone(d, cocone) == colimit_classes_by_closure(d)


def test_connection_colimit_identifies_expected_classes():
    d = _connection_diagram()
    classes = colimit_classes_by_closure(d)
    # r! pairs with the route publication of r1; r? is delivered to both jp2 and r2
    assert frozenset({("c", "r!"), ("s_r1", "r!"), ("r1", "routes!")}) in classes
    assert (
        frozenset({("c", "r?"), ("s_jp2", "r?"), ("s_r2", "r?"), ("jp2", "routes?"), ("r2", "routes?")})
        in classes
    )


def test_leg_composition_follows_arrow_composition():
    # an arrow chain n1 -> n2 -> n3 inside a diagram: leg(n1) must equal the
    # composite of the chain with leg(n3)
    s1, s2, s3 = signature("a"), signature("b"), signature("c")
    f, g = morph(s1, s2, a="b"), morph(s2, s3, b="c")
    d = FiniteDiagram(
        {"n1": s1, "n2": s2, "n3": s3},
        {("n1", "n2"): f, ("n2", "n3"): g, ("n1", "n3"): compose(f, g)},
    )
    cocone = colimit(d)
    assert cocone.leg("n1") == compose(compose(f, g), cocone.leg("n3"))


def test_quotient_partitions_and_legs_are_surjective():
    d = _connection_diagram()
    cocone = colimit(d)
    classes = colimit_classes_of_cocone(d, cocone)
    elements = {(i, a) for i, sig in d.nodes.items() for a in sig.actions}
    assert frozenset().union(*classes) == elements
    assert sum(len(c) for c in classes) == len(elements)
    covered = set()
    for i, _ in d.nodes.items():
        covered |= set(cocone.leg(i).mapping.values())
    assert covered == set(cocone.apex.actions)


def _random_diagram(rnd):
    n_nodes = rnd.randint(1, 4)
    nodes = {}
    for i in range(n_nodes):
        k = rnd.randint(1, 4)
        nodes[f"n{i}"] = signature(*(f"a{i}_{j}" for j in range(k)))
    arrows = {}
    names = sorted(nodes)
    for i, j in itertools.permutations(names, 2):
        if rnd.random() < 0.3:
            src, dst = nodes[i], nodes[j]
            dst_actions = sorted(dst.actions)
            mapping = {a: rnd.choice(dst_actions) for a in sorted(src.actions)}
            arrows[(i, j)] = SignatureMorphism(src, dst, mapping)
    return FiniteDiagram(nodes, arrows)


def test_random_colimits_agree_with_closure_oracle():
    rnd = random.Random(7)
    for _ in range(60):
        d = _random_diagram(rnd)
        cocone = colimit(d)
        assert cocone.commutes_over(d)
        assert colimit_classes_of_cocone(d, cocone) == colimit_classes_by_closure(d)


def test_universal_property_unique_mediating_map():
    rnd = random.Random(11)
    for _ in range(25):
        d = _random_diagram(rnd)
        colim = colimit(d)
        if len(colim.apex) > 5:
            continue
        # derive a second commuting cocone through a random post-composition
        target = signature(*(f"z{i}" for i in range(rnd.randint(1, 3))))
        tgt_actions = sorted(target.actions)
        post = SignatureMorphism(
            colim.apex, target, {a: rnd.choice(tgt_actions) for a in sorted(colim.apex.actions)}
        )
        other = Cocone(target, {i: compose(colim.leg(i), post) for i, _ in d.nodes.items()})
        assert other.commutes_over(d)
        found = mediating_morphisms(d, colim, other)
        assert found == [post]


# ---------------------------------------------------------------------------
# Maps are frozen values


@pytest.mark.parametrize(
    "mutate",
    [
        lambda m: m.__setitem__("c", 3),
        lambda m: m.__delitem__("a"),
        lambda m: m.__ior__({"c": 3}),
        lambda m: m.clear(),
        lambda m: m.pop("a"),
        lambda m: m.popitem(),
        lambda m: m.setdefault("c", 3),
        lambda m: m.update(c=3),
    ],
    ids=["setitem", "delitem", "ior", "clear", "pop", "popitem", "setdefault", "update"],
)
def test_frozen_map_mutators_raise(mutate):
    m = FrozenMap({"b": 2, "a": 1})
    with pytest.raises(TypeError):
        mutate(m)
    assert m == {"a": 1, "b": 2}


def test_frozen_map_iterates_in_key_order_whatever_the_insertion_order():
    pairs = [("c", 3), ("a", 1), ("b", 2)]
    for order in itertools.permutations(pairs):
        m = FrozenMap(dict(order))
        assert list(m.items()) == sorted(pairs)
        assert m == FrozenMap(order) and hash(m) == hash(FrozenMap(order))


def test_frozen_maps_survive_copy_and_pickle():
    m = FrozenMap({"b": 2, "a": 1})
    for again in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert type(again) is FrozenMap and list(again.items()) == [("a", 1), ("b", 2)]


def test_morphisms_built_in_any_order_are_equal_values():
    a, b = signature("x", "y", "z"), signature("u", "v")
    forward = {"x": "u", "y": "v", "z": "u"}
    f = SignatureMorphism(a, b, forward)
    g = SignatureMorphism(a, b, dict(reversed(forward.items())))
    assert f == g and hash(f) == hash(g)
    assert list(g.mapping) == ["x", "y", "z"]


def test_missing_actions_and_nodes_raise_key_error():
    cocone = colimit(FiniteDiagram({"n": signature("p")}, {}))
    with pytest.raises(KeyError):
        cocone.leg("nosuch")
    with pytest.raises(KeyError):
        cocone.leg("n")("nosuch")
