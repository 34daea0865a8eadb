import random

import pytest
from hypothesis import given, settings, strategies as st

from orcbind import MAX_NESTING, InputError
from orcbind.ltl import (
    FALSE,
    KEYWORDS,
    TRUE,
    Atom,
    FormulaSyntaxError,
    Next,
    Not,
    Until,
    always,
    atoms_of,
    counterexample,
    entails,
    eventually,
    holds,
    land,
    lnot,
    lor,
    parse_formula,
    render_formula,
    sat_lasso,
    satisfiable,
    to_automaton,
    valid,
)
from orcbind.muller import (
    Explicit,
    LassoTrace,
    find_accepted_lasso,
    MullerAutomaton,
    AllNonempty,
)
from orcbind.sigcat import SignatureMorphism, translate

from oracles import (
    accepts,
    all_letters,
    assignment_tableau,
    bitmask_to_guard,
    check_homomorphism,
    dataclass_repr,
    dense_tableau,
    edge_bitmasks,
    signature,
)


def lasso(sig, prefix, cycle):
    return LassoTrace(sig, tuple(map(frozenset, prefix)), tuple(map(frozenset, cycle)))


def rand_formula(rnd, depth, atoms=("a", "b")):
    if depth == 0 or rnd.random() < 0.3:
        return rnd.choice([Atom(atoms[0]), Atom(atoms[-1]), TRUE, FALSE])
    op = rnd.choice(["not", "and", "or", "next", "until"])
    if op == "not":
        return lnot(rand_formula(rnd, depth - 1, atoms))
    if op == "and":
        return land(rand_formula(rnd, depth - 1, atoms), rand_formula(rnd, depth - 1, atoms))
    if op == "or":
        return lor(rand_formula(rnd, depth - 1, atoms), rand_formula(rnd, depth - 1, atoms))
    if op == "next":
        return Next(rand_formula(rnd, depth - 1, atoms))
    return Until(rand_formula(rnd, depth - 1, atoms), rand_formula(rnd, depth - 1, atoms))


def rand_lasso(rnd, sig, max_prefix=4, max_cycle=4):
    letters = list(all_letters(sig))
    p = tuple(rnd.choice(letters) for _ in range(rnd.randint(0, max_prefix)))
    c = tuple(rnd.choice(letters) for _ in range(rnd.randint(1, max_cycle)))
    return LassoTrace(sig, p, c)


# ---------------------------------------------------------------------------
# Syntax


def test_parse_render_round_trip():
    texts = [
        "G (!planJourney? | F directions!)",
        "a U (b U !c)",
        "X (a & b) | !b",
        "true",
        "false",
        "G a & F b",
    ]
    for text in texts:
        f = parse_formula(text)
        assert parse_formula(render_formula(f)) == f


def test_precedence_unary_over_until_over_and_over_or_over_implies():
    assert parse_formula("F a & b") == land(eventually(Atom("a")), Atom("b"))
    assert parse_formula("a U b & c") == land(Until(Atom("a"), Atom("b")), Atom("c"))
    assert parse_formula("a & b | c") == lor(land(Atom("a"), Atom("b")), Atom("c"))
    assert parse_formula("a | b -> c") == lor(lnot(lor(Atom("a"), Atom("b"))), Atom("c"))
    assert parse_formula("!a U b") == Until(lnot(Atom("a")), Atom("b"))


def test_parse_rejects_junk():
    for text in ["a &", "(a", "a ? b", "U a"]:
        with pytest.raises(FormulaSyntaxError):
            parse_formula(text)


def test_syntax_errors_are_input_errors():
    with pytest.raises(InputError) as e:
        parse_formula("a &")
    assert isinstance(e.value, ValueError)


@pytest.mark.parametrize(
    "text, message",
    [
        ("(a", "expected ')' at column 3, found end of input"),
        ("a & & b", "expected formula at column 5, found '&'"),
        ("a b", "expected end of input at column 3, found 'b'"),
        ("a # b", "expected a token at column 3, found '#'"),
    ],
)
def test_syntax_errors_say_where_and_what_was_expected(text, message):
    with pytest.raises(FormulaSyntaxError) as e:
        parse_formula(text)
    assert str(e.value) == message


@pytest.mark.parametrize(
    "nest",
    [
        lambda n: "(" * n + "a" + ")" * n,
        lambda n: "X " * n + "a",
        lambda n: "! X " * (n // 2) + "! " * (n % 2) + "a",
        lambda n: "a U " * n + "b",
        lambda n: "a -> " * n + "b",
    ],
    ids=["brackets", "next", "negated-next", "until-chain", "implication-chain"],
)
def test_a_formula_at_the_nesting_limit_decides_and_one_past_it_is_refused(nest):
    f = parse_formula(nest(MAX_NESTING))
    witness = satisfiable(f)
    assert witness is not None and sat_lasso(witness, f)
    assert parse_formula(render_formula(f)) == f
    sigma = SignatureMorphism(witness.signature, witness.signature, {x: x for x in witness.signature.actions})
    assert translate(f, sigma) == f
    with pytest.raises(FormulaSyntaxError, match=f"^expected at most {MAX_NESTING} levels of nesting at column"):
        parse_formula(nest(MAX_NESTING + 1))


def test_always_nested_to_the_limit_builds_its_two_state_automaton():
    # each G's expansion opens a branch that must hold false; the tableau
    # drops it at once instead of expanding it, which doubled the work per G
    f = parse_formula("G " * MAX_NESTING + "a")
    a = to_automaton(f)
    assert len(a.states) == 2
    assert sat_lasso(satisfiable(f), f)


def test_connective_sets_flatten_and_dedupe():
    f = parse_formula("a & b & a")
    assert f == land(Atom("a"), Atom("b"))
    assert parse_formula("a | a") == Atom("a")


# ---------------------------------------------------------------------------
# Lasso semantics


def test_sat_examples():
    sig = signature("m!", "m?")
    assert sat_lasso(lasso(sig, [], [set()]), always(lnot(Atom("m!"))))
    assert sat_lasso(lasso(sig, [], [{"m!"}, {"m!", "m?"}]), eventually(Atom("m?")))
    jp = signature("planJourney?", "directions!")
    t = lasso(jp, [set()], [{"planJourney?"}, {"directions!"}])
    assert sat_lasso(t, parse_formula("G(planJourney? -> F directions!)"))


def test_until_is_strong():
    sig = signature("a", "b")
    t = lasso(sig, [], [{"a"}])
    assert not sat_lasso(t, Until(Atom("a"), Atom("b")))


def test_derived_operator_identities_on_lassos():
    rnd = random.Random(41)
    sig = signature("a", "b")
    for _ in range(60):
        f = rand_formula(rnd, 2)
        t = rand_lasso(rnd, sig, 2, 3)
        assert sat_lasso(t, eventually(f)) == sat_lasso(t, Until(TRUE, f))
        assert sat_lasso(t, always(f)) == (not sat_lasso(t, eventually(lnot(f))))


def test_next_steps_through_prefix_and_cycle():
    sig = signature("a")
    t = lasso(sig, [{"a"}], [set(), {"a"}])
    assert sat_lasso(t, Atom("a"))
    assert not sat_lasso(t, Next(Atom("a")))
    assert sat_lasso(t, Next(Next(Atom("a"))))
    # wrap-around inside the cycle
    assert sat_lasso(t, Next(Next(Next(lnot(Atom("a"))))))


# ---------------------------------------------------------------------------
# Translation


def test_translate_identity():
    sig = signature("a", "b")
    f = parse_formula("G(a -> F b)")
    ident = SignatureMorphism(sig, sig, {"a": "a", "b": "b"})
    assert translate(f, ident) == f


def test_translate_request_response_formula():
    src = signature("getRoute?", "route!")
    dst = signature("planJourney?", "directions!")
    sigma = SignatureMorphism(
        src, dst, {"getRoute?": "planJourney?", "route!": "directions!"}
    )
    f = parse_formula("G(getRoute? -> F route!)")
    assert translate(f, sigma) == parse_formula("G(planJourney? -> F directions!)")


def test_translate_simple_always():
    src, dst = signature("a"), signature("b")
    sigma = SignatureMorphism(src, dst, {"a": "b"})
    assert translate(always(Atom("a")), sigma) == always(Atom("b"))


def test_translate_unknown_atom_rejected():
    src, dst = signature("a"), signature("b")
    sigma = SignatureMorphism(src, dst, {"a": "b"})
    with pytest.raises(ValueError):
        translate(Atom("c"), sigma)


def test_translate_commutes_with_satisfaction_for_bijections():
    rnd = random.Random(43)
    src = signature("a", "b")
    dst = signature("u", "v")
    sigma = SignatureMorphism(src, dst, {"a": "u", "b": "v"})
    for _ in range(50):
        f = rand_formula(rnd, 3)
        t = rand_lasso(rnd, src, 2, 3)
        image = LassoTrace(dst, *(tuple(frozenset(map(sigma, l)) for l in part) for part in (t.prefix, t.cycle)))
        assert sat_lasso(t, f) == sat_lasso(image, translate(f, sigma))


# ---------------------------------------------------------------------------
# Formula -> automaton


def test_automaton_of_true_accepts_everything():
    sig = signature("a")
    a = to_automaton(TRUE, sig)
    rnd = random.Random(47)
    for _ in range(10):
        assert accepts(a, rand_lasso(rnd, sig, 2, 2))


def test_automaton_of_false_is_empty():
    sig = signature("a")
    assert satisfiable(FALSE, sig) is None


def test_translation_matches_lasso_semantics():
    rnd = random.Random(53)
    sig = signature("a", "b")
    for _ in range(120):
        f = rand_formula(rnd, 4)
        a = to_automaton(f, sig)
        for _ in range(8):
            t = rand_lasso(rnd, sig)
            assert accepts(a, t) == sat_lasso(t, f)


def test_satisfiable_returns_genuine_witnesses():
    rnd = random.Random(59)
    sig = signature("a", "b")
    found = 0
    for _ in range(60):
        f = rand_formula(rnd, 3)
        w = satisfiable(f, sig)
        if w is not None:
            found += 1
            assert sat_lasso(w, f)
    assert found > 20


def formulas(depth, names=st.sampled_from(["a", "b"])):
    """Formulas of at most the given depth over actions drawn from ``names``."""
    leaves = st.one_of(names.map(Atom), st.sampled_from([TRUE, FALSE]))
    if depth == 0:
        return leaves
    sub = formulas(depth - 1, names)
    return st.one_of(
        leaves,
        sub.map(lnot),
        st.builds(land, sub, sub),
        st.builds(lor, sub, sub),
        sub.map(Next),
        st.builds(Until, sub, sub),
    )


# Names the formula syntax reads as one action: keywords are refused on
# load, and names that start with one, or are the binary U, are not keywords.
ACTION_NAMES = st.one_of(
    st.sampled_from(["U", "Xa", "F_", "G.m!", "true?", "falsey", "x.m?"]),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_.]*[!?]?", fullmatch=True).filter(lambda name: name not in KEYWORDS),
)


@settings(max_examples=300)
@given(formulas(3, ACTION_NAMES))
def test_formulas_over_accepted_action_names_read_back(f):
    assert parse_formula(render_formula(f)) == f


@given(formulas(3, ACTION_NAMES))
def test_formula_reprs_are_the_dataclass_text(f):
    assert repr(f) == dataclass_repr(f)


@given(st.lists(formulas(2), max_size=4).flatmap(lambda fs: st.tuples(st.just(fs), st.permutations(fs))))
def test_land_and_lor_do_not_depend_on_operand_order(pair):
    fs, shuffled = pair
    assert land(*shuffled) == land(*fs)
    assert lor(*shuffled) == lor(*fs)


SIG_AB = signature("a", "b")


def lassos():
    """Lassos over {a, b} with at most 3 prefix and 3 cycle letters."""
    letters = st.frozensets(st.sampled_from(["a", "b"]))
    return st.builds(
        LassoTrace,
        st.just(SIG_AB),
        st.lists(letters, max_size=3).map(tuple),
        st.lists(letters, min_size=1, max_size=3).map(tuple),
    )


@given(formulas(4))
def test_satisfiable_agrees_with_the_dense_tableau(f):
    assert (satisfiable(f, SIG_AB) is None) == (find_accepted_lasso(dense_tableau(f, SIG_AB)) is None)


@given(formulas(4), st.lists(lassos(), min_size=1, max_size=4))
def test_tableau_accepts_exactly_the_lassos_that_satisfy_the_formula(f, traces):
    a = to_automaton(f, SIG_AB)
    for t in traces:
        assert accepts(a, t) == sat_lasso(t, f)


@given(formulas(4))
def test_every_witness_satisfies_the_formula(f):
    w = satisfiable(f, SIG_AB)
    assert w is None or sat_lasso(w, f)


@given(formulas(4))
def test_assignment_tableau_is_the_reachable_part_of_the_dense_one(f):
    a = assignment_tableau(f, SIG_AB)
    dense = dense_tableau(f, SIG_AB)
    assert a.initial == dense.initial
    # the states reached from the initial ones, with their transitions in
    # the dense order
    reached, frontier = set(dense.initial), list(dense.initial)
    while frontier:
        q = frontier.pop()
        for src, _, dst in dense.transitions:
            if src == q and dst not in reached:
                reached.add(dst)
                frontier.append(dst)
    assert a.states == reached
    assert a.transitions == tuple(t for t in dense.transitions if t[0] in reached)
    assert a.final.sets == tuple(s & reached for s in dense.final.sets)


def test_unsatisfiable_root_gives_an_empty_tableau():
    p = parse_formula("G(a? -> F b!)")
    a = to_automaton(land(p, lnot(p)))
    assert a.states == frozenset() and a.initial == frozenset()
    assert entails(land(p, parse_formula("G c!")), p)


# ---------------------------------------------------------------------------
# holds / entails


def _channel():
    from orcbind.muller import g_and, g_atom, g_not

    sig = signature("m!", "m?")
    pub, dlv = g_atom("m!"), g_atom("m?")
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
        AllNonempty(),
    )


def test_holds_true_always():
    assert holds(_channel(), TRUE)


def test_empty_automaton_satisfies_everything():
    sig = signature("m!", "m?")
    dead = MullerAutomaton(sig, frozenset({"q"}), (), frozenset({"q"}), Explicit(frozenset()))
    assert holds(dead, FALSE)
    assert holds(dead, Atom("m!"))


def test_channel_delivers_every_publication():
    a = _channel()
    assert holds(a, parse_formula("G(m! -> F m?)"))
    assert not holds(a, parse_formula("G m?"))
    w = counterexample(a, parse_formula("G m?"))
    assert w is not None and accepts(a, w) and not sat_lasso(w, parse_formula("G m?"))


def test_entails_basics():
    a = Atom("a")
    assert entails(always(a), eventually(a))
    assert not entails(eventually(a), always(a))
    f = parse_formula("G(getRoutes? -> F routes!)")
    assert entails(f, f)
    assert valid(parse_formula("a | !a"))
    assert not valid(Atom("a"))


def test_entails_is_reflexive_and_transitive_on_corpus():
    rnd = random.Random(61)
    sig = signature("a", "b")
    formulas = [rand_formula(rnd, 2) for _ in range(12)]
    for f in formulas:
        assert entails(f, f, sig)
    for f1 in formulas[:6]:
        for f2 in formulas[:6]:
            for f3 in formulas[:6]:
                if entails(f1, f2, sig) and entails(f2, f3, sig):
                    assert entails(f1, f3, sig)


def test_holds_is_antitone_under_homomorphisms():
    # build sub-behaviours of the channel and check property reflection
    rnd = random.Random(67)
    a2 = _channel()
    sig = a2.signature
    m2 = edge_bitmasks(a2)
    states = sorted(a2.states)
    checked = 0
    for _ in range(60):
        h = {s: rnd.choice(states) for s in states}
        transitions = []
        for src in states:
            for dst in states:
                allowed = m2.get((h[src], h[dst]), 0)
                sub = allowed & rnd.getrandbits(4)
                if sub:
                    transitions.append((src, bitmask_to_guard(sub, sig), dst))
        a1 = MullerAutomaton(
            sig,
            frozenset(states),
            tuple(transitions),
            frozenset(s for s in states if h[s] in a2.initial),
            AllNonempty(),
        )
        if not check_homomorphism(h, a1, a2):
            continue
        checked += 1
        for f in [parse_formula("G(m! -> F m?)"), parse_formula("G !m!"), rand_formula(rnd, 2, ("m!", "m?"))]:
            if holds(a2, f):
                assert holds(a1, f)
    assert checked > 10
