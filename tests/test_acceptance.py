"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import itertools
import random
import time

import pytest

from orcbind import ltl, sigcat, travel
from orcbind.arn import (
    Arn,
    ArnMorphism,
    ArnScheme,
    ArnSpec,
    Port,
    Process,
    classify_points,
    compose_morphisms,
    is_property,
    qualified_signature,
    translate_spec,
    validate,
)
from orcbind.engine import Clause, Query, Repository, check_solution, solve, solve_scripted, unify
from orcbind.muller import (
    AllNonempty,
    Explicit,
    LassoTrace,
    MullerAutomaton,
    cofree_expansion,
    is_empty,
    product,
    reduct,
)
from orcbind.pexpr import (
    C_TRUE,
    Holds,
    PSpec,
    PVar,
    PexprScheme,
    check_ground_property,
    entails_conditions,
    hoare_module,
    parse_aexp,
    parse_condition,
    parse_program,
    render_program,
)
from orcbind.sigcat import TRUE, SignatureMorphism

from oracles import (
    accepts,
    accepts_by_run_search,
    all_letters,
    bitmask_to_guard,
    check_homomorphism,
    check_morphism,
    edge_bitmasks,
    explicit_members,
    is_empty_by_lasso_search,
    repository,
    signature,
    traveller_query,
)


def report(number, description):
    print(f"[PASS] criterion {number}: {description}")


BOUNDS = (0, 8)


# ---------------------------------------------------------------------------
# Criterion 1: end-to-end service derivation replay


def test_criterion_1_service_pipeline_replay():
    started = time.monotonic()
    scheme = ArnScheme()
    query = traveller_query()
    repo = repository()

    answers, _ = solve(scheme, query, repo)
    assert len(answers) == 1, "expected exactly one answer"
    [answer] = answers
    assert len(answer.steps) == 3, "expected exactly three resolution steps"

    requires_points, _, _ = classify_points(answer.final)
    assert requires_points == frozenset(), "final network must have no requires-points"

    # the three unification entailments, checked directly
    t1 = SignatureMorphism(
        travel.PORT_TR1.actions(),
        travel.PORT_JP1.actions(),
        {"getRoute?": "planJourney?", "route!": "directions!"},
    )
    assert ltl.entails(travel.RHO_JP, sigcat.translate(travel.RHO_T1, t1))
    assert ltl.entails(travel.RHO_MS, travel.RHO_JP1)
    assert ltl.entails(travel.RHO_TS, travel.RHO_JP2)

    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"pipeline took {elapsed:.1f}s"
    report(1, f"service pipeline replay: 1 answer, 3 steps, ground result ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# Criterion 2: program derivation replay

TARGET_PROGRAM = "q := 0 ; r := x ; while y <= r do q := q + 1 ; r := r - y done"

FIG2_STEPS = [
    ("seq", 0, {"pre": "true", "mid": "[x = q * y + r]", "post": "[x = q * y + r] & [r < y]"}),
    ("seq", 0, {"pre": "true", "mid": "[x = q * y + x]", "post": "[x = q * y + r]"}),
    ("assign", 1, {"target": "q", "expr": "0", "shape": "[x = v * y + x]"}),
    ("assign", 1, {"target": "r", "expr": "x", "shape": "[x = q * y + v]"}),
    ("while", 0, {"cond": "[y <= r]", "invariant": "[x = q * y + r]"}),
    (
        "seq",
        0,
        {
            "pre": "[x = (q + 1) * y + (r - y)]",
            "mid": "[x = q * y + (r - y)]",
            "post": "[x = q * y + r]",
        },
    ),
    ("assign", 0, {"target": "q", "expr": "q + 1", "shape": "[x = v * y + (r - y)]"}),
    ("assign", 0, {"target": "r", "expr": "r - y", "shape": "[x = q * y + v]"}),
]

# the derivation's spec chain: (pre, post) pairs, in presentation order
OSP_CHAIN = [
    ("[1 <= y]", "[x = q * y + r] & [r < y]"),  # osp1 with the y>=1 premise
    ("true", "[x = q * y + r] & [r < y]"),  # osp2
    ("true", "[x = q * y + r]"),  # osp3 = osp5
    ("[x = q * y + r]", "[x = q * y + r] & [r < y]"),  # osp4
    ("true", "[x = q * y + x]"),  # osp6
    ("[x = q * y + x]", "[x = q * y + r]"),  # osp7 = osp9
    ("[x = 0 * y + x]", "[x = q * y + x]"),  # osp8
    ("[x = q * y + r]", "[x = q * y + r] & ![y <= r]"),  # osp10
    ("[x = q * y + r] & [y <= r]", "[x = q * y + r]"),  # osp11
    ("[x = (q + 1) * y + (r - y)]", "[x = q * y + r]"),  # osp12
    ("[x = (q + 1) * y + (r - y)]", "[x = q * y + (r - y)]"),  # osp13 = osp15
    ("[x = q * y + (r - y)]", "[x = q * y + r]"),  # osp14 = osp16
]

# refinement edges within the chain: query spec index -> module spec index;
# each needs pre(weaker-on-the-right) and post(stronger-on-the-right)
OSP_REFINEMENTS = [
    (0, 1),  # osp1 against the first sequence module (osp2)
    (2, 2),  # osp3 = osp5
    (4, 6),  # osp6 refined by the assignment axiom osp8
    (5, 5),  # osp7 = osp9
    (3, 7),  # osp4 refined by the iteration module osp10
    (8, 9),  # osp11 refined by the body sequence osp12
    (10, 10),  # osp13 = osp15
    (11, 11),  # osp14 = osp16
]


def _parse_step(kind, params):
    parsed = {}
    for key, value in params.items():
        if key in ("pre", "mid", "post", "cond", "invariant", "shape"):
            parsed[key] = parse_condition(value)
        elif key == "expr":
            parsed[key] = parse_aexp(value)
        else:
            parsed[key] = value
    return hoare_module(kind, parsed)


def test_criterion_2_program_derivation_replay():
    started = time.monotonic()
    scheme = PexprScheme(bounds=BOUNDS)
    query = Query(
        PVar("t"),
        (PSpec((), parse_condition("[1 <= y]"), parse_condition("[x = q * y + r] & [r < y]")),),
    )

    steps = [(_parse_step(kind, params), index, None) for kind, index, params in FIG2_STEPS]
    answer, final_query = solve_scripted(scheme, query, steps)
    assert final_query.requires == ()
    assert render_program(answer.final) == TARGET_PROGRAM, "program must match byte-for-byte"

    # every refinement among the derivation's spec pairs validates
    for qi, mi in OSP_REFINEMENTS:
        q_pre, q_post = map(parse_condition, OSP_CHAIN[qi])
        m_pre, m_post = map(parse_condition, OSP_CHAIN[mi])
        assert entails_conditions(q_pre, m_pre, BOUNDS), f"pre entailment {qi}->{mi}"
        assert entails_conditions(m_post, q_post, BOUNDS), f"post entailment {qi}->{mi}"

    verdict = check_ground_property(answer.final, query.requires[0], BOUNDS)
    assert isinstance(verdict, Holds)

    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"derivation took {elapsed:.1f}s"
    report(2, f"program derivation replay: byte-identical program, spec chain valid ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# Criterion 3: automata oracle equivalence


def _random_automaton(rnd, n_states, n_actions):
    sig = signature(*[chr(ord("a") + i) for i in range(n_actions)])
    states = tuple(f"s{i}" for i in range(n_states))
    transitions = []
    for src in states:
        for dst in states:
            if rnd.random() < 0.45:
                mask = rnd.getrandbits(1 << n_actions)
                if mask:
                    transitions.append((src, bitmask_to_guard(mask, sig), dst))
    subsets = [
        frozenset(c) for r in range(1, n_states + 1) for c in itertools.combinations(states, r)
    ]
    family = Explicit(frozenset(rnd.sample(subsets, rnd.randint(0, min(5, len(subsets))))))
    initial = frozenset(rnd.sample(states, rnd.randint(1, n_states)))
    return MullerAutomaton(sig, frozenset(states), tuple(transitions), initial, family)


def _random_lasso(rnd, sig, max_prefix=4, max_cycle=4):
    letters = list(all_letters(sig))
    prefix = tuple(rnd.choice(letters) for _ in range(rnd.randint(0, max_prefix)))
    cycle = tuple(rnd.choice(letters) for _ in range(rnd.randint(1, max_cycle)))
    return LassoTrace(sig, prefix, cycle)


def test_criterion_3_automata_oracle_equivalence():
    rnd = random.Random(1203)
    accept_disagreements = 0
    empty_disagreements = 0
    for _ in range(200):
        a = _random_automaton(rnd, rnd.randint(1, 4), rnd.randint(1, 3))
        for _ in range(20):
            t = _random_lasso(rnd, a.signature)
            if accepts(a, t) != accepts_by_run_search(a, t):
                accept_disagreements += 1
        if is_empty(a) != is_empty_by_lasso_search(a):
            empty_disagreements += 1
    assert accept_disagreements == 0
    assert empty_disagreements == 0
    report(3, "acceptance and emptiness agree with the brute-force oracles (200 automata)")


# ---------------------------------------------------------------------------
# Criterion 4: formula translation soundness


def _random_formula(rnd, depth, atoms):
    if depth == 0 or rnd.random() < 0.3:
        return rnd.choice([ltl.Atom(atoms[0]), ltl.Atom(atoms[-1]), ltl.TRUE, ltl.FALSE])
    op = rnd.choice(["not", "and", "or", "next", "until"])
    if op == "not":
        return ltl.lnot(_random_formula(rnd, depth - 1, atoms))
    if op == "and":
        return ltl.land(
            _random_formula(rnd, depth - 1, atoms), _random_formula(rnd, depth - 1, atoms)
        )
    if op == "or":
        return ltl.lor(
            _random_formula(rnd, depth - 1, atoms), _random_formula(rnd, depth - 1, atoms)
        )
    if op == "next":
        return ltl.Next(_random_formula(rnd, depth - 1, atoms))
    return ltl.Until(
        _random_formula(rnd, depth - 1, atoms), _random_formula(rnd, depth - 1, atoms)
    )


def test_criterion_4_formula_automata_match_lasso_semantics():
    rnd = random.Random(1204)
    sig = signature("a", "b")
    disagreements = 0
    for _ in range(300):
        f = _random_formula(rnd, 4, ("a", "b"))
        automaton = ltl.to_automaton(f, sig)
        for _ in range(20):
            t = _random_lasso(rnd, sig)
            if accepts(automaton, t) != ltl.sat_lasso(t, f):
                disagreements += 1
    assert disagreements == 0
    report(4, "formula automata agree with direct lasso satisfaction (300 formulas x 20 lassos)")


# ---------------------------------------------------------------------------
# Criterion 5: institution laws at test level


def _corpus_pipeline():
    """The worked example's derivation morphisms: theta then delta."""
    scheme = ArnScheme()
    query = traveller_query()
    [answer], _ = solve(scheme, query, repository())
    thetas = [s.unifier.theta1 for s in answer.steps]
    return scheme, query, answer, thetas


def test_criterion_5_institution_laws():
    scheme, query, answer, thetas = _corpus_pipeline()

    # satisfaction condition: translating along a composite equals translating
    # in stages, including the resulting property verdicts on the ground net
    theta = thetas[0]
    delta = compose_morphisms(thetas[1], thetas[2])
    composed = compose_morphisms(theta, delta)
    triples = 0
    for spec in (
        ArnSpec("R1", travel.RHO_T1),
        ArnSpec("T1", ltl.parse_formula("G(getRoute! -> true)")),
        ArnSpec("R1", ltl.parse_formula("F route!")),
    ):
        one_shot = translate_spec(composed, spec)
        staged = translate_spec(delta, translate_spec(theta, spec))
        assert one_shot == staged
        assert is_property(answer.final, one_shot) == is_property(answer.final, staged)
        triples += 1

    # homomorphisms reflect satisfaction: sampled-lasso language inclusion
    rnd = random.Random(1205)
    sig = signature("a", "b")
    instances = 0
    while instances < 100:
        a2 = _random_automaton(rnd, rnd.randint(1, 3), 2)
        states = sorted(a2.states)
        h = {s: rnd.choice(states) for s in states}
        m2 = edge_bitmasks(a2)
        transitions = []
        for src in states:
            for dst in states:
                allowed = m2.get((h[src], h[dst]), 0)
                sub = allowed & rnd.getrandbits(4)
                if sub:
                    transitions.append((src, bitmask_to_guard(sub, sig), dst))
        family = Explicit(
            frozenset(
                s
                for s in explicit_members(AllNonempty(), frozenset(states))
                if a2.final.contains(frozenset(h[q] for q in s))
            )
        )
        initial = frozenset(s for s in states if h[s] in a2.initial)
        a1 = MullerAutomaton(sig, frozenset(states), tuple(transitions), initial, family)
        if not check_homomorphism(h, a1, a2):
            continue
        instances += 1
        for _ in range(10):
            t = _random_lasso(rnd, sig, 2, 3)
            if accepts(a1, t):
                assert accepts(a2, t), "homomorphic image must accept the trace"

    # property preservation along every ground morphism in the corpus
    gnet = travel.journey_planner_ground_net()
    final = answer.final
    inclusion = ArnMorphism(
        gnet,
        final,
        {x: x for x in gnet.points},
        {e: e for e in gnet.incidence_of},
        {x: {m: m for m in gnet.port_of[x].messages} for x in gnet.points},
    )
    ms_embedding = ArnMorphism(
        travel.ms_net(),
        gnet,
        {"MS1": "MS1"},
        {"MS": "MS"},
        {"MS1": {m: m for m in travel.PORT_MS1.messages}},
    )
    ts_embedding = ArnMorphism(
        travel.ts_net(),
        gnet,
        {"TS1": "TS1"},
        {"TS": "TS"},
        {"TS1": {m: m for m in travel.PORT_TS1.messages}},
    )
    ground_instances = [
        (ms_embedding, ArnSpec("MS1", travel.RHO_MS)),
        (ts_embedding, ArnSpec("TS1", travel.RHO_TS)),
        (inclusion, ArnSpec("MS1", travel.RHO_MS)),
        (inclusion, ArnSpec("JP1", travel.RHO_JP)),
    ]
    for morphism, spec in ground_instances:
        assert check_morphism(morphism) == ()
        assert is_property(morphism.source, spec)
        assert is_property(morphism.target, translate_spec(morphism, spec))

    # and on the program side, position-shift morphisms preserve verdicts
    from orcbind.pexpr import PMorphism, subterm_at, translate_pspec

    full = parse_program(TARGET_PROGRAM)
    body = subterm_at(full, (1, 0))
    shift = PMorphism(body, full, {}, (1, 0))
    pspec = PSpec(
        (), parse_condition("[x = q * y + r] & [y <= r]"), parse_condition("[x = q * y + r]")
    )
    direct = check_ground_property(body, pspec, BOUNDS)
    shifted = check_ground_property(full, translate_pspec(shift, pspec), BOUNDS)
    assert isinstance(direct, Holds) and isinstance(shifted, Holds)

    report(5, f"institution laws: satisfaction condition ({triples} triples), "
              f"{instances} reflection instances, preservation on the corpora")


# ---------------------------------------------------------------------------
# Criterion 6: adjunction and product universal properties, exhaustively

# Exhaustive over transition structure: every automaton on one or two states
# whose per-edge semantics ranges over a complete pool of letter sets.  The
# initial set and final family are fixed to the configuration that makes all
# state maps candidate homomorphisms, which is what the universal properties
# quantify over.


def _enumerate_automata(sig, states, per_edge_masks):
    pairs = list(itertools.product(states, repeat=2))
    for combo in itertools.product(per_edge_masks, repeat=len(pairs)):
        transitions = tuple(
            (src, bitmask_to_guard(mask, sig), dst)
            for (src, dst), mask in zip(pairs, combo)
            if mask
        )
        yield MullerAutomaton(
            sig, frozenset(states), transitions, frozenset(states), AllNonempty()
        )


def _hom_ok(h, m1, m2):
    for (src, dst), m in m1.items():
        if m & ~m2.get((h[src], h[dst]), 0):
            return False
    return True


def test_criterion_6_universal_properties():
    small = signature("a")
    big = signature("x", "y")
    sigma = SignatureMorphism(small, big, {"a": "x"})

    # pool over one action: none, not-a, a, true
    lam_pool = list(_enumerate_automata(small, ("s0", "s1"), (0b00, 0b01, 0b10, 0b11)))
    lam_pool += list(_enumerate_automata(small, ("s0",), (0b00, 0b01, 0b10, 0b11)))
    # pool over two actions: none, x, !x, y, !y, true
    big_masks = (0b0000, 0b1010, 0b0101, 0b1100, 0b0011, 0b1111)
    lamp_pool = list(_enumerate_automata(big, ("u0", "u1"), big_masks))
    lamp_pool += list(_enumerate_automata(big, ("u0",), (0b0000, 0b1010, 0b0101, 0b1111)))

    expansions = [(a, cofree_expansion(a, sigma)) for a in lam_pool]

    # universal arrow: the identity map is a homomorphism expansion|reduct -> a
    for a, expanded in expansions:
        assert check_homomorphism({q: q for q in a.states}, reduct(expanded, sigma), a)

    # factorization: every homomorphism reduct(b) -> a is one b -> expansion(a);
    # uniqueness is forced because the mediating map composes with the identity
    reducts = [(b, reduct(b, sigma)) for b in lamp_pool]
    checked = 0
    failures = 0
    for a, expanded in expansions:
        m_a = edge_bitmasks(a)
        m_exp = edge_bitmasks(expanded)
        a_states = sorted(a.states)
        for b, reducted in reducts:
            m_red = edge_bitmasks(reducted)
            m_b = edge_bitmasks(b)
            for images in itertools.product(a_states, repeat=len(b.states)):
                h = dict(zip(sorted(b.states), images))
                if not _hom_ok(h, m_red, m_a):
                    continue
                checked += 1
                if not _hom_ok(h, m_b, m_exp):
                    failures += 1
    assert failures == 0
    assert checked > 100_000

    # products: pairwise-exhaustive semantic check of the transition relation,
    # plus projection homomorphisms
    pool2 = list(_enumerate_automata(small, ("s0", "s1"), (0b00, 0b01, 0b10, 0b11)))
    prod_checked = 0
    for a1 in pool2[::4]:
        m1 = edge_bitmasks(a1)
        for a2 in pool2[::4]:
            m2 = edge_bitmasks(a2)
            p = product([a1, a2])
            mp = edge_bitmasks(p)
            for s1, d1 in itertools.product(sorted(a1.states), repeat=2):
                for s2, d2 in itertools.product(sorted(a2.states), repeat=2):
                    want = m1.get((s1, d1), 0) & m2.get((s2, d2), 0)
                    got = mp.get(((s1, s2), (d1, d2)), 0)
                    assert got == want
            assert check_homomorphism({q: q[0] for q in p.states}, p, a1)
            assert check_homomorphism({q: q[1] for q in p.states}, p, a2)
            prod_checked += 1

    # mediating morphisms: every pair of homomorphisms into the factors pairs
    # to a homomorphism into the product (uniqueness is pointwise forced)
    third_pool = pool2[::16] + list(_enumerate_automata(small, ("s0",), (0b00, 0b01, 0b10, 0b11)))
    mediated = 0
    for a1 in pool2[::16]:
        m1 = edge_bitmasks(a1)
        for a2 in pool2[::16]:
            m2 = edge_bitmasks(a2)
            p = product([a1, a2])
            mp = edge_bitmasks(p)
            for c in third_pool:
                mc = edge_bitmasks(c)
                c_states = sorted(c.states)
                homs1 = [
                    dict(zip(c_states, images))
                    for images in itertools.product(sorted(a1.states), repeat=len(c_states))
                    if _hom_ok(dict(zip(c_states, images)), mc, m1)
                ]
                homs2 = [
                    dict(zip(c_states, images))
                    for images in itertools.product(sorted(a2.states), repeat=len(c_states))
                    if _hom_ok(dict(zip(c_states, images)), mc, m2)
                ]
                for h1 in homs1:
                    for h2 in homs2:
                        paired = {q: (h1[q], h2[q]) for q in c_states}
                        assert _hom_ok(paired, mc, mp)
                        mediated += 1
    assert mediated > 1000

    report(
        6,
        f"universal properties: {checked} adjunction factorizations, "
        f"{prod_checked} products, {mediated} mediating morphisms, 0 failures",
    )


# ---------------------------------------------------------------------------
# Criterion 7: soundness of solve over randomized repositories


_WORDS = ["ping", "pong", "ask", "tell", "fetch", "give", "call", "reply", "query", "data",
          "watch", "note", "push", "pull", "sync", "ack"]


def _pointed_formula(rnd, port):
    req = sorted(port.delivered)[0] + "?"
    rsp = sorted(port.published)[0] + "!"
    shapes = [
        lambda: ltl.parse_formula(f"G({req} -> F {rsp})"),
        lambda: ltl.eventually(ltl.Atom(rsp)),
        lambda: ltl.lor(ltl.Atom(req), ltl.lnot(ltl.Atom(req))),
        lambda: ltl.always(ltl.implies(ltl.Atom(req), ltl.Next(ltl.eventually(ltl.Atom(rsp))))),
    ]
    return rnd.choice(shapes)()


def _client_net(req_msg, rsp_msg):
    """A permissive client process wired to one requires-point."""
    port_t = Port(frozenset({req_msg}), frozenset({rsp_msg}))
    port_r = Port(frozenset({rsp_msg}), frozenset({req_msg}))
    ports = {"T1": port_t}
    aut = MullerAutomaton(
        qualified_signature(ports), frozenset({"s"}), (("s", TRUE, "s"),), frozenset({"s"}), AllNonempty()
    )
    net = Arn(
        {"T1": port_t, "R": port_r},
        {"T": Process(ports, aut)},
        {"c0": travel.connection({"m1", "m2"}, {"T1": {"m1": req_msg, "m2": rsp_msg}, "R": {"m1": req_msg, "m2": rsp_msg}})},
        {"T": {"T1"}, "c0": {"T1", "R"}},
    )
    return net, port_r


def _provider_clause(rnd, name, port, formula, extra_requires=None):
    """A one-process provider whose behaviour is exactly the formula's language."""
    ports = {"X": port}
    qualify = SignatureMorphism(
        port.actions(), qualified_signature(ports), {a: f"X.{a}" for a in port.actions().actions}
    )
    aut = ltl.to_automaton(sigcat.translate(formula, qualify), qualified_signature(ports))
    net = Arn(ports, {f"P_{name}": Process(ports, aut)}, {}, {f"P_{name}": {"X"}})
    return Clause(name, net, ArnSpec("X", formula), ())


def _adapter_clause(rnd, name, port_in, inner_req, inner_rsp, promise, downstream):
    """A two-port provider promising its formula regardless of the downstream
    helper, plus a requires-point delegated to that helper."""
    port_y = Port(frozenset({inner_req}), frozenset({inner_rsp}))
    port_r2 = Port(frozenset({inner_rsp}), frozenset({inner_req}))
    ports = {"X": port_in, "Y": port_y}
    sig = qualified_signature(ports)
    qualify = SignatureMorphism(
        port_in.actions(), sig, {a: f"X.{a}" for a in port_in.actions().actions}
    )
    aut = ltl.to_automaton(sigcat.translate(promise, qualify), sig)
    net = Arn(
        {"X": port_in, "Y": port_y, "R2": port_r2},
        {f"P_{name}": Process(ports, aut)},
        {
            "c1": travel.connection(
                {"n1", "n2"},
                {"Y": {"n1": inner_req, "n2": inner_rsp}, "R2": {"n1": inner_req, "n2": inner_rsp}},
            )
        },
        {f"P_{name}": {"X", "Y"}, "c1": {"Y", "R2"}},
    )
    return Clause(name, net, ArnSpec("X", promise), (ArnSpec("R2", downstream),))


def _random_repository(rnd, idx):
    req, rsp = rnd.sample(_WORDS, 2)
    client, port_r = _client_net(req, rsp)
    goal = _pointed_formula(rnd, port_r)
    query = Query(client, (ArnSpec("R", goal),))

    if idx % 4 == 0:
        # two-step: adapter delegating to a leaf provider
        inner_req, inner_rsp = rnd.sample([w for w in _WORDS if w not in (req, rsp)], 2)
        port_r2 = Port(frozenset({inner_rsp}), frozenset({inner_req}))
        downstream = _pointed_formula(rnd, port_r2)
        adapter = _adapter_clause(rnd, f"adapter{idx}", port_r, inner_req, inner_rsp, goal, downstream)
        leaf = _provider_clause(rnd, f"leaf{idx}", port_r2, downstream)
        clauses = [adapter, leaf]
    else:
        clauses = [_provider_clause(rnd, f"direct{idx}", port_r, goal)]
        if rnd.random() < 0.5:
            # a decoy clause over unrelated messages
            other = Port(frozenset({"zzz"}), frozenset({"www"}))
            clauses.append(
                _provider_clause(rnd, f"decoy{idx}", other, ltl.eventually(ltl.Atom("zzz!")))
            )
    return query, Repository(tuple(clauses))


def _permissive_grounding(net):
    """A model of a network: bind every requires-point to a permissive
    provider, returning the composed morphism into the ground result."""
    from orcbind.arn import glue, identity_morphism

    cur = net
    morphism = identity_morphism(net)
    i = 0
    while True:
        requires, _, _ = classify_points(cur)
        if not requires:
            return morphism
        r = sorted(requires)[0]
        port = cur.port_of[r]
        zname = f"gp{i}"
        i += 1
        ports = {zname: port}
        aut = MullerAutomaton(
            qualified_signature(ports),
            frozenset({"s"}),
            (("s", TRUE, "s"),),
            frozenset({"s"}),
            AllNonempty(),
        )
        provider = Arn(
            ports, {f"P{zname}": Process(ports, aut)}, {}, {f"P{zname}": {zname}}
        )
        result = glue(cur, r, provider, zname, {m: m for m in port.messages})
        assert result is not None, f"could not ground requires-point {r}"
        cur, theta1, _ = result
        morphism = compose_morphisms(morphism, theta1)


def _answer_is_solution(scheme, query, answer):
    from orcbind.arn import is_ground

    if is_ground(answer.final):
        return check_solution(scheme, query, answer.composed)
    # trivial specs may remain: verify against one concrete grounding model
    pool = [_permissive_grounding(answer.final)]
    return check_solution(scheme, query, answer.composed, model_pool=pool)


def test_criterion_7_soundness_of_solve():
    scheme = ArnScheme()
    rnd = random.Random(1207)
    violations = 0
    answers_seen = 0

    # the worked-example corpus first
    answers, _ = solve(scheme, traveller_query(), repository())
    for answer in answers:
        answers_seen += 1
        if not _answer_is_solution(scheme, traveller_query(), answer):
            violations += 1

    repos = 0
    while repos < 20:
        query, repo = _random_repository(rnd, repos)
        if validate(query.orc):
            continue
        if any(validate(c.orc) for c in repo.clauses):
            continue
        repos += 1
        answers, _ = solve(scheme, query, repo, max_answers=4)
        for answer in answers:
            answers_seen += 1
            if not _answer_is_solution(scheme, query, answer):
                violations += 1

    assert violations == 0
    assert answers_seen >= 15, f"only {answers_seen} answers produced across the corpora"
    report(7, f"solve soundness: {answers_seen} answers across {repos} random repositories "
              f"plus the corpus, 0 violations")
