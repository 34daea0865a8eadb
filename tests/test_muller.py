import itertools
import random

import pytest

from orcbind import muller
from orcbind.muller import (
    AllNonempty,
    Explicit,
    GenBuchi,
    ImpliesFamily,
    LassoTrace,
    MullerAutomaton,
    ProductFamily,
    cofree_expansion,
    find_accepted_lasso,
    g_and,
    g_atom,
    g_not,
    guard_mask,
    is_empty,
    mask_to_guard,
    product,
    reduct,
)
from orcbind.sigcat import FALSE, TRUE, ActionSignature, SignatureMorphism, lor

from oracles import (
    accepts,
    accepts_by_run_search,
    all_letters,
    automaton_isomorphism,
    bitmask_to_guard,
    check_homomorphism,
    cubes_bitmask,
    edge_bitmasks,
    eval_guard,
    explicit_members,
    family_member,
    guard_bitmask,
    is_empty_by_buchi,
    is_empty_by_lasso_search,
    signature,
)


def channel_automaton(m="m", family=None):
    """Immediate-delivery behaviour for one message."""
    sig = signature(f"{m}!", f"{m}?")
    pub, dlv = g_atom(f"{m}!"), g_atom(f"{m}?")
    return MullerAutomaton(
        sig,
        frozenset({"q0", "q1"}),
        (
            ("q0", g_not(pub), "q0"),
            ("q0", pub, "q1"),
            ("q1", g_and(pub, dlv), "q1"),
            ("q1", g_and(g_not(pub), dlv), "q0"),
        ),
        frozenset({"q0"}),
        family if family is not None else AllNonempty(),
    )


def lasso(sig, prefix, cycle):
    return LassoTrace(sig, tuple(map(frozenset, prefix)), tuple(map(frozenset, cycle)))


# ---------------------------------------------------------------------------
# Guards


def test_guard_mask_matches_naive_evaluation():
    guards = [
        TRUE,
        g_atom("a"),
        g_not(g_atom("b")),
        g_and(g_atom("a"), lor(g_atom("b"), g_not(g_atom("c")))),
        lor(),
    ]
    for sig in [signature("a", "b", "c"), signature("a", "b", "c", "d", "e", "f")]:
        for g in guards:
            mask = cubes_bitmask(guard_mask(g, sig), sig)
            for letter in all_letters(sig):
                idx = sum(1 << i for i, a in enumerate(sorted(sig.actions)) if a in letter)
                assert bool(mask & (1 << idx)) == eval_guard(g, letter)


def test_equal_guards_are_masked_once(monkeypatch):
    # equal but distinct guard objects, interleaved across the transitions
    sig = signature("a", "b")
    transitions = tuple(
        (q, g, q) for q in ("p", "q") for g in (g_atom("a"), g_not(g_atom("b")), g_atom("a"))
    )
    a = MullerAutomaton(sig, frozenset({"p", "q"}), transitions, frozenset({"p"}), AllNonempty())
    calls = []
    monkeypatch.setattr(muller, "guard_mask", lambda g, s: calls.append(g) or guard_mask(g, s))
    masks = a.moves
    assert len(calls) == 2 and set(calls) == {g_atom("a"), g_not(g_atom("b"))}
    assert masks["p"] == [(d, p, n) for _, g, d in transitions[:3] for p, n in guard_mask(g, sig)]


def test_mask_to_guard_round_trips_semantics():
    rnd = random.Random(3)
    for n in range(6):
        sig = signature(*"abcde"[:n])
        full = (1 << (1 << n)) - 1
        assert mask_to_guard((), sig) == FALSE and mask_to_guard(((0, 0),), sig) == TRUE
        assert bitmask_to_guard(0, sig) == FALSE and bitmask_to_guard(full, sig) == TRUE
        masks = range(full + 1) if n <= 3 else [rnd.getrandbits(1 << n) for _ in range(200)]
        for mask in masks:
            # every letter set, written by the reference's Shannon expansion
            g = bitmask_to_guard(mask, sig)
            assert guard_bitmask(g, sig) == mask
            assert guard_bitmask(mask_to_guard(guard_mask(g, sig), sig), sig) == mask


# ---------------------------------------------------------------------------
# Acceptance


def test_channel_accepts_silence():
    a = channel_automaton()
    assert accepts(a, lasso(a.signature, [], [set()]))


def test_channel_rejects_unanswered_publications():
    a = channel_automaton()
    assert not accepts(a, lasso(a.signature, [], [{"m!"}]))


def test_empty_explicit_family_accepts_nothing():
    a = channel_automaton(family=Explicit(frozenset()))
    assert not accepts(a, lasso(a.signature, [], [set()]))
    assert is_empty(a)


def test_signature_mismatch_rejected():
    a = channel_automaton()
    with pytest.raises(ValueError):
        accepts(a, lasso(signature("x"), [], [set()]))


def _semantic_automata(sig, states, edge_masks_pool, initial, family):
    """All automata with the given states whose per-edge semantics come from
    the pool of letter masks."""
    pairs = list(itertools.product(states, repeat=2))
    for combo in itertools.product(edge_masks_pool, repeat=len(pairs)):
        transitions = []
        for (src, dst), mask in zip(pairs, combo):
            if mask:
                transitions.append((src, bitmask_to_guard(mask, sig), dst))
        yield MullerAutomaton(sig, frozenset(states), tuple(transitions), initial, family)


def _families_over(states):
    subsets = [frozenset(c) for r in range(1, len(states) + 1) for c in itertools.combinations(states, r)]
    for r in range(len(subsets) + 1):
        for combo in itertools.combinations(subsets, r):
            yield Explicit(frozenset(combo))


def test_accepts_agrees_with_run_search_exhaustively_small():
    sig = signature("a")
    states = ("s0", "s1")
    lassos = [
        lasso(sig, p, c)
        for p in ([], [set()], [{"a"}], [set(), {"a"}])
        for c in ([set()], [{"a"}], [set(), {"a"}], [{"a"}, {"a"}])
    ]
    count = 0
    for family in _families_over(states):
        for a in _semantic_automata(sig, states, (0b00, 0b01, 0b10, 0b11), frozenset(states), family):
            count += 1
            if count % 7:  # deterministic thinning to keep the suite quick
                continue
            for t in lassos:
                assert accepts(a, t) == accepts_by_run_search(a, t)
    assert count == 8 * 256  # 8 explicit families x 256 transition structures


def test_accepts_agrees_with_run_search_random_three_state():
    rnd = random.Random(17)
    sig = signature("a", "b")
    states = ("s0", "s1", "s2")
    letters = [frozenset(), frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"})]
    for _ in range(150):
        transitions = []
        for src in states:
            for dst in states:
                mask = rnd.getrandbits(4)
                if mask:
                    transitions.append((src, bitmask_to_guard(mask, sig), dst))
        subsets = [frozenset(c) for r in range(1, 4) for c in itertools.combinations(states, r)]
        family = Explicit(frozenset(rnd.sample(subsets, rnd.randint(0, 4))))
        a = MullerAutomaton(
            sig, frozenset(states), tuple(transitions), frozenset({rnd.choice(states)}), family
        )
        for _ in range(8):
            p = tuple(rnd.choice(letters) for _ in range(rnd.randint(0, 3)))
            c = tuple(rnd.choice(letters) for _ in range(rnd.randint(1, 4)))
            t = LassoTrace(sig, p, c)
            assert accepts(a, t) == accepts_by_run_search(a, t)


# ---------------------------------------------------------------------------
# Emptiness


def test_emptiness_trivial_cases():
    sig = signature("a")
    one = MullerAutomaton(
        sig, frozenset({"q"}), (("q", TRUE, "q"),), frozenset({"q"}), Explicit(frozenset({frozenset({"q"})}))
    )
    assert not is_empty(one)
    none = MullerAutomaton(sig, frozenset({"q"}), (("q", TRUE, "q"),), frozenset({"q"}), Explicit(frozenset()))
    assert is_empty(none)


def test_emptiness_agrees_with_oracles_on_random_automata():
    rnd = random.Random(23)
    sig = signature("a", "b")
    states = ("s0", "s1", "s2", "s3")
    for i in range(120):
        transitions = []
        for src in states:
            for dst in states:
                if rnd.random() < 0.35:
                    mask = rnd.getrandbits(4)
                    if mask:
                        transitions.append((src, bitmask_to_guard(mask, sig), dst))
        subsets = [frozenset(c) for r in range(1, 5) for c in itertools.combinations(states, r)]
        family = Explicit(frozenset(rnd.sample(subsets, rnd.randint(0, 5))))
        a = MullerAutomaton(
            sig, frozenset(states), tuple(transitions), frozenset({"s0"}), family
        )
        expected = is_empty_by_lasso_search(a)
        assert is_empty(a) == expected
        if i % 5 == 0:
            assert is_empty_by_buchi(a) == expected


def test_found_witnesses_are_accepted():
    rnd = random.Random(29)
    sig = signature("a")
    states = ("s0", "s1", "s2")
    found = 0
    for _ in range(80):
        transitions = []
        for src in states:
            for dst in states:
                if rnd.random() < 0.4:
                    mask = rnd.getrandbits(2)
                    if mask:
                        transitions.append((src, bitmask_to_guard(mask, sig), dst))
        subsets = [frozenset(c) for r in range(1, 4) for c in itertools.combinations(states, r)]
        family = Explicit(frozenset(rnd.sample(subsets, rnd.randint(1, 4))))
        a = MullerAutomaton(sig, frozenset(states), tuple(transitions), frozenset({"s0"}), family)
        witness = find_accepted_lasso(a)
        if witness is not None:
            found += 1
            assert accepts(a, witness)
            assert accepts_by_run_search(a, witness)
    assert found > 10


def test_emptiness_with_predicate_families():
    a = channel_automaton(family=ImpliesFamily("q1", "q0"))
    assert not is_empty(a)
    # forcing the run to stay in q1 forever violates the implication
    sig = a.signature
    stuck = MullerAutomaton(
        sig,
        a.states,
        (("q0", g_atom("m!"), "q1"), ("q1", g_atom("m!"), "q1")),
        frozenset({"q0"}),
        ImpliesFamily("q1", "q0"),
    )
    assert is_empty(stuck)
    assert is_empty_by_lasso_search(stuck)


# ---------------------------------------------------------------------------
# Reduct and cofree expansion


def _language_sample(sig, rnd, count=40):
    letters = list(all_letters(sig))
    out = []
    for _ in range(count):
        p = tuple(rnd.choice(letters) for _ in range(rnd.randint(0, 2)))
        c = tuple(rnd.choice(letters) for _ in range(rnd.randint(1, 3)))
        out.append(LassoTrace(sig, p, c))
    return out


def test_reduct_along_identity_preserves_language():
    a = channel_automaton()
    r = reduct(a, SignatureMorphism(a.signature, a.signature, {x: x for x in a.signature.actions}))
    rnd = random.Random(5)
    for t in _language_sample(a.signature, rnd):
        assert accepts(a, t) == accepts(r, t)


def test_reduct_along_inclusion_projects_guards():
    a = channel_automaton()
    small = signature("m!")
    inclusion = SignatureMorphism(small, a.signature, {"m!": "m!"})
    r = reduct(a, inclusion)
    # set-level definition: a reduct letter is enabled iff some extension is
    masks = edge_bitmasks(r)
    assert masks[("q1", "q1")] == guard_bitmask(g_atom("m!"), small)
    assert masks[("q1", "q0")] == guard_bitmask(g_not(g_atom("m!")), small)
    for (src, dst), m in masks.items():
        for letter in all_letters(small):
            enabled = any(
                eval_guard(g, big_letter)
                for s2, g, d2 in a.transitions
                if (s2, d2) == (src, dst)
                for big_letter in all_letters(a.signature)
                if inclusion.inverse_image(big_letter) == letter
            )
            idx = sum(1 << i for i, x in enumerate(sorted(small.actions)) if x in letter)
            assert bool(m & (1 << idx)) == enabled


def test_reduct_along_empty_signature_keeps_satisfiable_transitions():
    a = channel_automaton()
    empty = ActionSignature(frozenset())
    r = reduct(a, SignatureMorphism(empty, a.signature, {}))
    # one letter; an edge exists iff the original guard was satisfiable
    assert set(r.edge_masks()) == set(a.edge_masks())
    assert all(m == 1 for m in edge_bitmasks(r).values())


def test_reduct_from_a_large_signature():
    # a true guard over 14 actions is one cube; as a bitmask over letters it
    # has 2^14 bits, whose decimal form is longer than Python's default
    # int-to-str limit
    big = signature(*(f"a{i:02}" for i in range(14)))
    a = MullerAutomaton(big, frozenset({"q"}), (("q", TRUE, "q"),), frozenset({"q"}), AllNonempty())
    small = signature("a00", "a13")
    r = reduct(a, SignatureMorphism(small, big, {"a00": "a00", "a13": "a13"}))
    assert r.edge_masks() == {("q", "q"): guard_mask(TRUE, small)}


def test_expansion_then_reduct_keeps_language_for_injective_morphisms():
    a = channel_automaton()
    big = signature("m!", "m?", "extra")
    sigma = SignatureMorphism(a.signature, big, {"m!": "m!", "m?": "m?"})
    back = reduct(cofree_expansion(a, sigma), sigma)
    identity_map = {q: q for q in a.states}
    assert check_homomorphism(identity_map, a, back)
    assert check_homomorphism(identity_map, back, a)
    rnd = random.Random(6)
    for t in _language_sample(a.signature, rnd):
        assert accepts(a, t) == accepts(back, t)


def test_expansion_counit_is_homomorphism():
    a = channel_automaton()
    big = signature("m!", "m?", "x", "y")
    sigma = SignatureMorphism(a.signature, big, {"m!": "m!", "m?": "m?"})
    expanded = cofree_expansion(a, sigma)
    assert check_homomorphism({q: q for q in a.states}, reduct(expanded, sigma), a)


# ---------------------------------------------------------------------------
# Product


def test_empty_product_accepts_everything():
    sig = signature("a")
    unit = product([], signature=sig)
    rnd = random.Random(9)
    for t in _language_sample(sig, rnd, 10):
        assert accepts(unit, t)


def test_unary_product_is_isomorphic_to_factor():
    a = channel_automaton()
    p = product([a])
    assert automaton_isomorphism(p, a) is not None or all(
        accepts(p, t) == accepts(a, t) for t in _language_sample(a.signature, random.Random(2))
    )


def test_product_language_is_intersection():
    sig = signature("m!", "m?")
    a = channel_automaton()
    # a second constraint: publications happen infinitely often
    b = MullerAutomaton(
        sig,
        frozenset({"u0", "u1"}),
        (
            ("u0", g_not(g_atom("m!")), "u0"),
            ("u0", g_atom("m!"), "u1"),
            ("u1", g_not(g_atom("m!")), "u0"),
            ("u1", g_atom("m!"), "u1"),
        ),
        frozenset({"u0"}),
        Explicit(frozenset({frozenset({"u1"}), frozenset({"u0", "u1"})})),
    )
    p = product([a, b])
    rnd = random.Random(13)
    for t in _language_sample(sig, rnd, 60):
        assert accepts(p, t) == (accepts(a, t) and accepts(b, t))


def test_product_projections_are_homomorphisms():
    a = channel_automaton()
    b = channel_automaton(family=ImpliesFamily("q1", "q0"))
    p = product([a, b])
    assert check_homomorphism({q: q[0] for q in p.states}, p, a)
    assert check_homomorphism({q: q[1] for q in p.states}, p, b)


_PAIRS = frozenset(itertools.product("pq", "xy"))
_FAMILIES = {
    "explicit-empty": (frozenset("pqr"), Explicit(frozenset())),
    "explicit": (frozenset("pqr"), Explicit(frozenset({frozenset("p"), frozenset("pq"), frozenset("pqr")}))),
    "all-nonempty": (frozenset("pqr"), AllNonempty()),
    "implies": (frozenset("pqr"), ImpliesFamily("p", "q")),
    "implies-itself": (frozenset("pqr"), ImpliesFamily("p", "p")),
    "gen-buchi": (frozenset("pqr"), GenBuchi((frozenset("p"), frozenset("qr")))),
    "gen-buchi-empty": (frozenset("pqr"), GenBuchi(())),
    "product": (
        _PAIRS,
        ProductFamily(((0, ImpliesFamily("p", "q")), (1, Explicit(frozenset({frozenset("x"), frozenset("xy")}))))),
    ),
    "nested-product": (
        frozenset(itertools.product(_PAIRS, "uv")),
        ProductFamily(
            (
                (0, ProductFamily(((0, GenBuchi((frozenset("q"),))), (1, ImpliesFamily("y", "x"))))),
                (1, Explicit(frozenset({frozenset("u"), frozenset("uv")}))),
            )
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(_FAMILIES))
def test_family_membership_matches_the_oracle(name):
    states, family = _FAMILIES[name]
    for r in range(len(states) + 1):
        for combo in itertools.combinations(sorted(states, key=repr), r):
            assert family.contains(frozenset(combo)) == family_member(family, combo)


_UNFOLDED = {**_FAMILIES, "implies-required-outside": (frozenset("pr"), ImpliesFamily("p", "q"))}


@pytest.mark.parametrize("name", sorted(_UNFOLDED))
def test_every_hit_set_of_an_unfolded_family_is_nonempty(name):
    # a disjunct with an empty hit-set meets no set, so dnf leaves it out
    states, family = _UNFOLDED[name]
    for r in range(len(states) + 1):
        for combo in itertools.combinations(sorted(states, key=repr), r):
            s = frozenset(combo)
            for hits, _ in family.dnf(s):
                assert all(hits) and all(t <= s for t in hits)


def test_product_family_matches_explicit_enumeration():
    a = channel_automaton()
    b = channel_automaton(family=ImpliesFamily("q1", "q0"))
    p = product([a, b])
    members = explicit_members(p.final, p.states)
    for r in range(1, len(p.states) + 1):
        for combo in itertools.combinations(sorted(p.states, key=repr), r):
            s = frozenset(combo)
            expected = bool(s) and AllNonempty().contains({q[0] for q in s}) and ImpliesFamily(
                "q1", "q0"
            ).contains({q[1] for q in s})
            assert (s in members) == expected


# ---------------------------------------------------------------------------
# Homomorphisms


def test_identity_is_homomorphism():
    a = channel_automaton()
    assert check_homomorphism({q: q for q in a.states}, a, a)


def test_collapsing_channel_states_is_not_a_homomorphism():
    a = channel_automaton()
    sig = a.signature
    collapsed = MullerAutomaton(
        sig,
        frozenset({"c"}),
        (("c", g_not(g_atom("m!")), "c"),),
        frozenset({"c"}),
        AllNonempty(),
    )
    assert not check_homomorphism({"q0": "c", "q1": "c"}, a, collapsed)


def test_homomorphism_implies_language_inclusion_on_samples():
    rnd = random.Random(31)
    sig = signature("a")
    states = ("s0", "s1")
    pool = list(
        _semantic_automata(sig, states, (0b00, 0b01, 0b10, 0b11), frozenset({"s0"}), AllNonempty())
    )
    tested = 0
    for _ in range(300):
        a2 = rnd.choice(pool)
        h = {s: rnd.choice(states) for s in states}
        # build a1 under h so the transition condition holds by construction
        m2 = edge_bitmasks(a2)
        transitions = []
        for src in states:
            for dst in states:
                allowed = m2.get((h[src], h[dst]), 0)
                sub = allowed & rnd.getrandbits(2)
                if sub:
                    transitions.append((src, bitmask_to_guard(sub, sig), dst))
        a1 = MullerAutomaton(sig, frozenset(states), tuple(transitions), frozenset({"s0"}), AllNonempty())
        if not check_homomorphism(h, a1, a2):
            continue
        tested += 1
        for t in _language_sample(sig, rnd, 10):
            if accepts(a1, t):
                assert accepts(a2, t)
    assert tested > 50


# ---------------------------------------------------------------------------
# Isomorphism


def test_isomorphism_finds_relabelling():
    a = channel_automaton()
    relabelled = MullerAutomaton(
        a.signature,
        frozenset({"x", "y"}),
        tuple((("x" if s == "q0" else "y"), g, ("x" if d == "q0" else "y")) for s, g, d in a.transitions),
        frozenset({"x"}),
        AllNonempty(),
    )
    iso = automaton_isomorphism(a, relabelled)
    assert iso == {"q0": "x", "q1": "y"}


def test_isomorphism_rejects_different_languages():
    a = channel_automaton()
    b = MullerAutomaton(
        a.signature,
        a.states,
        (("q0", TRUE, "q0"), ("q0", TRUE, "q1"), ("q1", TRUE, "q1"), ("q1", TRUE, "q0")),
        a.initial,
        AllNonempty(),
    )
    assert automaton_isomorphism(a, b) is None
