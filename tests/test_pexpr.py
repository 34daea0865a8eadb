import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from oracles import check_by_interpretation, entails_by_enumeration, interpret_functionally, positions
from orcbind import MAX_NESTING
from orcbind.engine import Query, solve_scripted
from orcbind.pexpr import (
    C_TRUE,
    Assign,
    BinOp,
    CAnd,
    CNot,
    COr,
    Compare,
    Fails,
    Holds,
    Ident,
    If,
    Inconclusive,
    Lit,
    OutOfFuel,
    PMorphism,
    PSpec,
    PVar,
    PexprScheme,
    ProgramSyntaxError,
    SKIP,
    Seq,
    Terminated,
    While,
    apply_subst,
    c_and,
    c_not,
    c_or,
    check_ground_property,
    compose_pmorphisms,
    entails_conditions,
    eval_aexp,
    eval_condition,
    hoare_module,
    identity_pmorphism,
    idents,
    interpret,
    parse_aexp,
    parse_condition,
    parse_program,
    render_aexp,
    render_condition,
    render_program,
    replace_at,
    subst,
    subterm_at,
    translate_pspec,
)


DIVISION = "q := 0 ; r := x ; while y <= r do q := q + 1 ; r := r - y done"


def division_term():
    return parse_program(DIVISION)


# ---------------------------------------------------------------------------
# Syntax


def test_program_round_trip():
    for text in [
        "skip",
        "x := 1 + 2 * y",
        DIVISION,
        "if x < 1 then skip else x := x - 1 endif",
        "while !(x = 0) & y <= 8 do x := x - 1 done",
    ]:
        t = parse_program(text)
        assert parse_program(render_program(t)) == t


def test_division_renders_byte_identically():
    assert render_program(division_term()) == DIVISION


def test_condition_round_trip():
    for text in ["[x = q * y + r] & [r < y]", "true", "![a < b] | [a = 0]", "[x = (q + 1) * y]"]:
        c = parse_condition(text)
        assert parse_condition(render_condition(c)) == c


def test_a_minus_before_an_integer_is_a_negative_literal():
    x = Ident("x")
    assert parse_aexp("x - 3") == parse_aexp("x-3") == BinOp("-", x, Lit(3))
    assert parse_aexp("x - -3") == BinOp("-", x, Lit(-3))
    assert parse_aexp("-3 * x") == BinOp("*", Lit(-3), x)
    assert parse_condition("[-3 = x]") == Compare("=", Lit(-3), x)
    with pytest.raises(ProgramSyntaxError):
        parse_aexp("-x")


def test_condition_brackets_are_optional():
    assert parse_condition("x = 1 & y < 2") == parse_condition("[x = 1] & [y < 2]")


def test_a_bracket_may_open_the_left_side_of_a_comparison():
    q, y, r = Ident("q"), Ident("y"), Ident("r")
    guard = Compare("<=", BinOp("*", BinOp("+", q, Lit(1)), y), r)
    t = parse_program("while (q + 1) * y <= r do skip done")
    assert t == While(guard, SKIP)
    assert render_program(t) == "while (q + 1) * y <= r do skip done"
    assert parse_condition("((q + 1) * y <= r)") == parse_condition("[(q + 1) * y <= r]") == guard
    assert parse_condition("!((q + 1) * y <= r) | (r = 0)") == c_or(c_not(guard), Compare("=", r, Lit(0)))


def test_a_bracket_that_fails_both_readings_reports_the_further_failure():
    with pytest.raises(ProgramSyntaxError, match=r"^expected '\)' at column 7, found end of input$"):
        parse_condition("(x = 1")
    with pytest.raises(ProgramSyntaxError, match=r"^expected comparison operator at column 13, found 'r'$"):
        parse_condition("(x + 1) * y r")


def test_pvar_parsing_requires_declaration():
    t = parse_program("t", pvar_names=("t",))
    assert t == PVar("t")
    with pytest.raises(ProgramSyntaxError):
        parse_program("t")  # undeclared name with no assignment


def test_parse_rejects_junk():
    for text in ["x :=", "while do done", "if x = 1 then skip endif"]:
        with pytest.raises(ProgramSyntaxError):
            parse_program(text)


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_condition, "[x = ]", "expected expression at column 6, found ']'"),
        (parse_program, "x = 1", "expected ':=' at column 3, found '='"),
        (parse_program, "while x < 1 do skip", "expected 'done' at column 20, found end of input"),
        (parse_program, "skip ;\n  := 1", "expected statement at line 2, column 3, found ':='"),
    ],
)
def test_syntax_errors_say_where_and_what_was_expected(parse, text, message):
    with pytest.raises(ProgramSyntaxError) as e:
        parse(text)
    assert str(e.value) == message


@pytest.mark.parametrize(
    "parse, nest",
    [
        (parse_condition, lambda n: "(" * n + "x = 0" + ")" * n),
        (parse_condition, lambda n: "!" * n + "x = 0"),
        (parse_aexp, lambda n: "(" * n + "x" + ")" * n),
        (parse_program, lambda n: "while x < 0 do " * n + "skip" + " done" * n),
        (parse_program, lambda n: "if x < 0 then skip else " * n + "skip" + " endif" * n),
    ],
    ids=["condition-brackets", "negations", "expression-brackets", "loops", "branches"],
)
def test_text_at_the_nesting_limit_reads_and_one_past_it_is_refused(parse, nest):
    node = parse(nest(MAX_NESTING))
    render = {parse_condition: render_condition, parse_aexp: render_aexp, parse_program: render_program}[parse]
    assert parse(render(node)) == node
    if parse is parse_program:
        assert isinstance(check_ground_property(node, PSpec((), C_TRUE, C_TRUE), (0, 2), 10), Holds)
    with pytest.raises(ProgramSyntaxError, match=f"^expected at most {MAX_NESTING} levels of nesting at"):
        parse(nest(MAX_NESTING + 1))


def test_a_left_associative_chain_nests_one_level():
    # read in a loop, as long programs and sums have always been read
    long = " ; ".join(["x := x + 1 - 1"] * (3 * MAX_NESTING))
    term = parse_program(long)
    assert parse_program(render_program(term)) == term
    assert isinstance(check_ground_property(term, PSpec((), C_TRUE, C_TRUE), (0, 2), 10), Holds)


# ---------------------------------------------------------------------------
# Positions


def test_subterm_examples():
    t = Seq(SKIP, Assign("x", Lit(1)))
    assert subterm_at(t, (0,)) == SKIP
    assert subterm_at(t, ()) == t
    body = subterm_at(division_term(), (1, 0))
    assert body == parse_program("q := q + 1 ; r := r - y")


def test_replace_subterm_round_trip_everywhere():
    terms = [division_term(), Seq(SKIP, If(parse_condition("x = 0"), SKIP, Assign("x", Lit(1))))]
    for t in terms:
        for pos in positions(t):
            assert replace_at(t, pos, subterm_at(t, pos)) == t


def test_invalid_position_raises():
    with pytest.raises(IndexError):
        subterm_at(SKIP, (0,))


# ---------------------------------------------------------------------------
# Morphisms


def test_morphism_requires_matching_subterm():
    t1 = PVar("t")
    t2 = division_term()
    PMorphism(t1, t2, {"t": t2}, ())
    with pytest.raises(ValueError):
        PMorphism(t1, t2, {"t": SKIP}, ())


def test_pmorphisms_built_in_any_order_are_equal_values():
    source = Seq(PVar("b"), PVar("a"))
    target = Seq(SKIP, Assign("x", Lit(1)))
    forward = {"a": Assign("x", Lit(1)), "b": SKIP}
    m1 = PMorphism(source, target, forward)
    m2 = PMorphism(source, target, dict(reversed(forward.items())))
    assert m1 == m2 and hash(m1) == hash(m2)
    assert m1.render() == m2.render()


def test_compose_with_identity():
    t = division_term()
    m = PMorphism(PVar("t"), t, {"t": t}, ())
    assert compose_pmorphisms(m, identity_pmorphism(t)) == m
    assert compose_pmorphisms(identity_pmorphism(PVar("t")), m) == m


def test_compose_substitution_only_morphisms():
    a, b = PVar("a"), PVar("b")
    t_mid = Seq(b, SKIP)
    t_end = Seq(Assign("x", Lit(1)), SKIP)
    m1 = PMorphism(a, t_mid, {"a": t_mid}, ())
    m2 = PMorphism(t_mid, t_end, {"b": Assign("x", Lit(1))}, ())
    composed = compose_pmorphisms(m1, m2)
    assert composed.subst == {"a": t_end}
    assert composed.position == ()


def test_compose_is_associative_on_generated_triples():
    rnd = random.Random(5)
    for _ in range(30):
        t0 = PVar("t")
        mid = Seq(PVar("u"), SKIP)
        m1 = PMorphism(t0, mid, {"t": mid}, ())
        filler = rnd.choice([SKIP, Assign("x", Lit(rnd.randint(0, 3)))])
        t2 = Seq(filler, SKIP)
        m2 = PMorphism(mid, t2, {"u": filler}, ())
        wrap = Seq(t2, SKIP)
        m3 = PMorphism(t2, wrap, {}, (0,))
        assert compose_pmorphisms(compose_pmorphisms(m1, m2), m3) == compose_pmorphisms(
            m1, compose_pmorphisms(m2, m3)
        )


def test_position_composition_is_target_first():
    inner = Assign("x", Lit(1))
    mid = Seq(inner, SKIP)
    outer = Seq(SKIP, mid)
    m1 = PMorphism(inner, mid, {}, (0,))
    m2 = PMorphism(mid, outer, {}, (1,))
    composed = compose_pmorphisms(m1, m2)
    assert composed.position == (1, 0)
    assert subterm_at(outer, composed.position) == inner


# ---------------------------------------------------------------------------
# Specs and translation


def test_translate_spec_shifts_positions_and_keeps_conditions():
    spec = PSpec((), parse_condition("true"), parse_condition("[x = 0]"))
    inner = Assign("x", Lit(0))
    outer = Seq(SKIP, inner)
    m = PMorphism(inner, outer, {}, (1,))
    out = translate_pspec(m, spec)
    assert out == PSpec((1,), spec.pre, spec.post)


def test_translate_spec_identity():
    spec = PSpec((1,), C_TRUE, parse_condition("[x = 0]"))
    t = division_term()
    assert translate_pspec(identity_pmorphism(t), spec) == spec


# ---------------------------------------------------------------------------
# Interpreter


def test_interpret_skip_is_identity():
    assert interpret(SKIP, {"x": 3}) == Terminated({"x": 3})


def test_interpret_assignments():
    t = parse_program("q := 0 ; r := x")
    assert interpret(t, {"x": 7, "y": 2}) == Terminated({"x": 7, "y": 2, "q": 0, "r": 7})


def test_interpret_division_program():
    out = interpret(division_term(), {"x": 7, "y": 2})
    assert isinstance(out, Terminated)
    assert out.state["q"] == 3 and out.state["r"] == 1


def test_interpret_runs_out_of_fuel_on_divergence():
    t = parse_program("while 0 = 0 do skip done")
    assert interpret(t, {}, fuel=50) == OutOfFuel()


def test_interpret_rejects_open_terms_and_unbound_identifiers():
    with pytest.raises(ValueError):
        interpret(PVar("t"), {})
    with pytest.raises(KeyError):
        interpret(parse_program("x := y"), {})


# ---------------------------------------------------------------------------
# Bounded oracles


def test_division_meets_its_specification():
    spec = PSpec((), parse_condition("[1 <= y]"), parse_condition("[x = q * y + r] & [r < y]"))
    assert isinstance(check_ground_property(division_term(), spec), Holds)


def test_skip_satisfies_any_reflexive_spec():
    for rho in ["true", "[x = 0]", "[x < y] | [y <= x]"]:
        spec = PSpec((), parse_condition(rho), parse_condition(rho))
        assert isinstance(check_ground_property(SKIP, spec), Holds)


def test_subtraction_can_fail_a_negative_postcondition():
    t = parse_program("r := r - y")
    spec = PSpec((), C_TRUE, parse_condition("[r < 0]"))
    verdict = check_ground_property(t, spec, (0, 3))
    assert isinstance(verdict, Fails)
    st = verdict.state
    assert st["y"] <= st["r"]


def test_unfueled_loops_are_inconclusive_not_holds():
    t = parse_program("while 0 = 0 do skip done")
    spec = PSpec((), C_TRUE, parse_condition("false"))
    verdict = check_ground_property(t, spec, fuel=5)
    assert isinstance(verdict, Inconclusive)


def test_entailment_examples():
    b = (0, 8)
    assert entails_conditions(parse_condition("true"), parse_condition("[x = 0 * y + x]"), b)
    assert entails_conditions(
        parse_condition("[x = q * y + r] & [y <= r]"),
        parse_condition("[x = (q + 1) * y + (r - y)]"),
        b,
    )
    assert entails_conditions(parse_condition("[x = 0]"), parse_condition("[x < 1]"), b)
    assert not entails_conditions(parse_condition("[x < 1]"), parse_condition("[x = 1]"), b)


def test_entailment_is_a_preorder_on_a_random_corpus():
    rnd = random.Random(9)
    idents = ["x", "y"]
    bounds = (0, 4)

    def rand_cond(depth):
        if depth == 0 or rnd.random() < 0.4:
            op = rnd.choice(["=", "<=", "<"])
            lhs = Ident(rnd.choice(idents))
            rhs = rnd.choice([Lit(rnd.randint(0, 4)), Ident(rnd.choice(idents))])
            return Compare(op, lhs, rhs)
        k = rnd.choice(["not", "and", "or"])
        if k == "not":
            return c_not(rand_cond(depth - 1))
        if k == "and":
            return c_and(rand_cond(depth - 1), rand_cond(depth - 1))
        from orcbind.pexpr import c_or

        return c_or(rand_cond(depth - 1), rand_cond(depth - 1))

    corpus = [rand_cond(2) for _ in range(10)]
    for c in corpus:
        assert entails_conditions(c, c, bounds)
    for c1, c2, c3 in itertools.product(corpus[:6], repeat=3):
        if entails_conditions(c1, c2, bounds) and entails_conditions(c2, c3, bounds):
            assert entails_conditions(c1, c3, bounds)


def test_spec_entails_identity_and_strictness():
    # provided entails required: weaker pre, stronger post
    entails = PexprScheme().spec_entails
    spec = PSpec((), parse_condition("[x = 0]"), parse_condition("[x < 1]"))
    t = Assign("x", Lit(0))
    assert entails(t, spec, spec)
    stronger_pre = PSpec((), parse_condition("[x = 0] & [y = 0]"), spec.post)
    assert not entails(t, stronger_pre, spec)
    weaker_post = PSpec((), spec.pre, parse_condition("true"))
    assert not entails(t, weaker_post, spec)
    assert entails(t, spec, stronger_pre)


# ---------------------------------------------------------------------------
# The oracles against their state-by-state definitions

NAMES = ("x", "y", "z")


def aexps(names):
    """Literals from -3 to 3, which the parser reads back."""
    leaves = st.one_of(st.integers(-3, 3).map(Lit), st.sampled_from(names).map(Ident))
    return st.recursive(
        leaves,
        lambda sub: st.builds(BinOp, st.sampled_from("+-*"), sub, sub),
        max_leaves=4,
    )


def conditions(names):
    compares = st.builds(Compare, st.sampled_from(("=", "<=", "<")), aexps(names), aexps(names))
    return st.recursive(
        compares,
        lambda sub: st.one_of(
            st.builds(CNot, sub),
            st.lists(sub, max_size=3).map(lambda cs: CAnd(tuple(cs))),
            st.lists(sub, max_size=3).map(lambda cs: COr(tuple(cs))),
        ),
        max_leaves=4,
    )


def programs(names):
    assigns = st.builds(Assign, st.sampled_from(names), aexps(names))
    return st.recursive(
        st.one_of(st.just(SKIP), assigns),
        lambda sub: st.one_of(
            st.builds(Seq, sub, sub),
            st.builds(If, conditions(names), sub, sub),
            st.builds(While, conditions(names), sub),
        ),
        max_leaves=4,
    )


def ranges():
    """Negative, single-value and empty (lo > hi) ranges among others."""
    return st.tuples(st.integers(-3, 2), st.integers(-1, 2)).map(lambda p: (p[0], p[0] + p[1]))


@st.composite
def names_and_box(draw):
    """One to three names and a box: one range for every name."""
    names = tuple(draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True)))
    return names, draw(ranges())


@given(conditions(NAMES))
def test_parsed_conditions_round_trip_in_written_order(c):
    # the parser builds with c_and/c_or, which keep the written order and every
    # comparison, unless a true or false operand absorbs or drops some
    text = render_condition(c)
    parsed = parse_condition(text)
    assert parse_condition(render_condition(parsed)) == parsed
    if "true" not in text and "false" not in text:
        comparisons = re.compile(r"\[[^]]*\]").findall
        assert comparisons(render_condition(parsed)) == comparisons(text)


@given(programs(NAMES))
def test_rendered_programs_read_back(t):
    # a right-nested sequence reads back left-nested, and nested conjunctions
    # and disjunctions flatten, so one parse may change the tree but not its
    # meaning; after it, rendering and parsing are inverse
    parsed = parse_program(render_program(t))
    assert parse_program(render_program(parsed)) == parsed
    state = dict(zip(NAMES, (1, 2, 0)))
    assert interpret(parsed, state, 3) == interpret(t, state, 3)


@settings(max_examples=200)
@given(names_and_box(), st.data())
def test_entailment_agrees_with_enumeration(names_box, data):
    names, bounds = names_box
    c1, c2 = data.draw(conditions(names)), data.draw(conditions(names))
    assert entails_conditions(c1, c2, bounds) == entails_by_enumeration(c1, c2, bounds)


@settings(max_examples=100)
@given(names_and_box(), st.data())
def test_entailment_of_a_conjunct_subset_holds_under_every_box(names_box, data):
    names, bounds = names_box
    conjuncts = data.draw(st.lists(conditions(names), min_size=1, max_size=4))
    kept = data.draw(st.lists(st.sampled_from(conjuncts), max_size=len(conjuncts)))
    c1, c2 = c_and(*conjuncts), c_and(*kept)
    assert entails_conditions(c1, c2, bounds)
    assert entails_by_enumeration(c1, c2, bounds)


@settings(max_examples=100)
@given(names_and_box(), st.integers(0, 4), st.data())
def test_property_checks_agree_with_interpretation(names_box, fuel, data):
    names, bounds = names_box
    t = data.draw(programs(names))
    at = data.draw(st.sampled_from(positions(t)))
    s = PSpec(at, data.draw(conditions(names)), data.draw(conditions(names)))
    assert check_ground_property(t, s, bounds, fuel) == check_by_interpretation(t, s, bounds, fuel)


@given(programs(NAMES), st.lists(st.integers(-3, 3), min_size=3, max_size=3), st.integers(0, 4))
def test_interpret_agrees_with_the_functional_interpreter(t, values, fuel):
    state = dict(zip(NAMES, values))
    assert interpret(t, state, fuel) == interpret_functionally(t, state, fuel)
    assert state == dict(zip(NAMES, values))


@settings(max_examples=200)
@given(conditions(NAMES), st.sampled_from(NAMES), aexps(NAMES), st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_substitution_is_evaluation_in_the_updated_state(c, v, e, values):
    # the conditions use every node kind: ! & | true false, = <= <, + - * and
    # negative literals; no command substitutes under ! & or | yet
    state = dict(zip(NAMES, values))
    replaced = subst(c, v, e)
    assert eval_condition(replaced, state) == eval_condition(c, {**state, v: eval_aexp(e, state)})
    if v in idents(c):
        assert idents(replaced) == (idents(c) - {v}) | idents(e)
    else:
        assert replaced == c


def test_fuel_outs_are_counted_per_pre_state():
    t = parse_program("while 0 < x do skip done")
    spec = PSpec((), C_TRUE, C_TRUE)
    bounds = (-1, 2)
    assert check_ground_property(t, spec, bounds, fuel=3) == Inconclusive(2)
    assert check_by_interpretation(t, spec, bounds, fuel=3) == Inconclusive(2)


# ---------------------------------------------------------------------------
# Hoare modules


def test_skip_module_shape():
    rho = parse_condition("[x = 0]")
    clause = hoare_module("skip", {"pre": rho})
    assert clause.orc == SKIP
    assert clause.provides == PSpec((), rho, rho)
    assert clause.requires == ()


def test_while_module_shape():
    rho = parse_condition("[x = q * y + r]")
    cond = parse_condition("[y <= r]")
    clause = hoare_module("while", {"cond": cond, "invariant": rho})
    assert isinstance(clause.orc, While)
    assert clause.provides == PSpec((), rho, c_and(rho, c_not(cond)))
    assert clause.requires == (PSpec((0,), c_and(rho, cond), rho),)


def test_assign_module_substitutes_the_hole():
    shape = parse_condition("[x = v * y + x]")
    clause = hoare_module("assign", {"target": "q", "expr": Lit(0), "shape": shape})
    assert clause.orc == Assign("q", Lit(0))
    assert clause.provides.pre == parse_condition("[x = 0 * y + x]")
    assert clause.provides.post == parse_condition("[x = q * y + x]")


def test_if_module_splits_on_the_condition():
    rho, rho2 = parse_condition("true"), parse_condition("[x = 0]")
    cond = parse_condition("[x < 1]")
    clause = hoare_module("if", {"cond": cond, "pre": rho, "post": rho2})
    assert clause.requires[0].pre == c_and(rho, cond)
    assert clause.requires[1].pre == c_and(rho, c_not(cond))


def test_seq_module_uses_fresh_variables():
    c1 = hoare_module("seq", {"pre": C_TRUE, "mid": C_TRUE, "post": C_TRUE})
    c2 = hoare_module("seq", {"pre": C_TRUE, "mid": C_TRUE, "post": C_TRUE})
    assert isinstance(c1.orc, Seq)
    from orcbind.pexpr import pvars

    # equal calls give equal clauses; binding renames clashing variables apart
    assert c1 == c2
    answer, _ = solve_scripted(
        PexprScheme(bounds=(0, 1)),
        Query(PVar("w"), (PSpec((), C_TRUE, C_TRUE),)),
        [(hoare_module("seq", {"pre": C_TRUE, "mid": C_TRUE, "post": C_TRUE}), 0, None)] * 2,
    )
    assert answer.final == Seq(Seq(PVar("p0_1"), PVar("p1_1")), PVar("p1"))
    assert len(pvars(answer.final)) == 3


# ---------------------------------------------------------------------------
# Property preservation along ground morphisms


def test_ground_morphisms_preserve_check_verdicts():
    full = division_term()
    body = subterm_at(full, (1, 0))
    m = PMorphism(body, full, {}, (1, 0))
    bounds = (0, 6)
    specs = [
        PSpec((), parse_condition("[x = q * y + r] & [y <= r]"), parse_condition("[x = q * y + r]")),
        PSpec((), parse_condition("true"), parse_condition("true")),
        PSpec((1,), parse_condition("true"), parse_condition("[r < 0]")),
    ]
    for s in specs:
        direct = check_ground_property(body, s, bounds)
        translated = check_ground_property(full, translate_pspec(m, s), bounds)
        assert type(direct) == type(translated)
