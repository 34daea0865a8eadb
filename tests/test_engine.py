import random

import pytest

from orcbind import FrozenMap, InputError, ltl, travel
from orcbind.arn import (
    Arn,
    ArnScheme,
    ArnSpec,
    Port,
    Process,
    classify_points,
    identity_morphism,
    qualified_signature,
    validate,
)
from orcbind.engine import (
    Clause,
    Counterexample,
    DerivationFailed,
    NoCounterexample,
    Query,
    Repository,
    SearchEnd,
    check_clause_correctness,
    check_solution,
    resolve,
    solve,
    solve_scripted,
    unify,
    unresolved,
)
from orcbind.muller import AllNonempty, MullerAutomaton
from orcbind.pexpr import (
    C_TRUE,
    PMorphism,
    PSpec,
    PVar,
    PexprScheme,
    SKIP,
    hoare_module,
    parse_aexp,
    parse_condition,
    parse_program,
    render_program,
)
from orcbind.sigcat import TRUE, SignatureMorphism

from oracles import example_clause, repository, traveller_query


ARN = ArnScheme()


# ---------------------------------------------------------------------------
# Unification


def test_traveller_unifies_with_the_journey_planner_clause():
    clause = example_clause("journey-planner")
    unifiers = unify(
        ARN,
        travel.traveller_net(),
        ArnSpec("R1", travel.RHO_T1),
        clause,
        clause.hints[0],
    )
    assert len(unifiers) == 1
    u = unifiers[0]
    glued = u.apex
    assert glued.points == {"T1", "JP1", "JP2", "R1", "R2"}
    req, _, _ = classify_points(glued)
    assert req == {"R1", "R2"}


def test_identity_cospan_unifies_identical_specs():
    # the degenerate unifier: both legs the identity, spec entailing itself
    net = travel.journey_planner_ground_net()
    spec = ArnSpec("MS1", travel.RHO_MS)
    ident = identity_morphism(net)
    assert ARN.spec_entails(net, spec, spec)
    from orcbind.engine import Unifier

    u = Unifier(ident, ident)
    assert u.apex == net


def test_publication_to_publication_correspondence_is_rejected():
    clause = example_clause("journey-planner")
    bad_hint = FrozenMap({"getRoute": "directions", "route": "planJourney"})
    assert (
        unify(ARN, travel.traveller_net(), ArnSpec("R1", travel.RHO_T1), clause, bad_hint) == []
    )


def test_no_unifier_without_matching_messages():
    # heuristic name matching fails between getRoute/planJourney ports
    clause = example_clause("journey-planner")
    assert unify(ARN, travel.traveller_net(), ArnSpec("R1", travel.RHO_T1), clause, None) == []


def test_unifier_requires_the_entailment():
    # a clause promising something unrelated does not unify even with a hint
    weak = Clause(
        "weak",
        travel.journey_planner_net(),
        ArnSpec("JP1", ltl.parse_formula("F directions!")),
        (),
    )
    hint = FrozenMap({"getRoute": "planJourney", "route": "directions"})
    assert unify(ARN, travel.traveller_net(), ArnSpec("R1", travel.RHO_T1), weak, hint) == []


class _Leg:
    """A morphism of the fake scheme below: just a source and a target."""

    def __init__(self, source, target):
        self.source, self.target = source, target


class _SplitLegScheme(ArnScheme):
    """An ARN scheme whose candidate cospans have legs into two targets."""

    def candidate_unifiers(self, q_orc, q_spec, c_orc, c_provides, hint):
        return [(_Leg(q_orc, "apex"), _Leg(c_orc, "another apex"))]


def test_unify_refuses_a_cospan_whose_legs_have_different_targets():
    clause = example_clause("map-services")
    with pytest.raises(ValueError, match="legs into different targets"):
        unify(_SplitLegScheme(), travel.traveller_net(), ArnSpec("R1", travel.RHO_T1), clause)


# ---------------------------------------------------------------------------
# Resolution


def test_resolution_produces_the_derived_query():
    clause = example_clause("journey-planner")
    query = traveller_query()
    [u] = unify(ARN, query.orc, query.requires[0], clause, clause.hints[0])
    derived = resolve(ARN, query, clause, query.requires[0], u)
    assert derived.requires == (
        ArnSpec("R1", travel.RHO_JP1),
        ArnSpec("R2", travel.RHO_JP2),
    )


def test_resolution_with_empty_clause_requires_shrinks_the_query():
    query = traveller_query()
    clause = example_clause("journey-planner")
    [u] = unify(ARN, query.orc, query.requires[0], clause, clause.hints[0])
    q2 = resolve(ARN, query, clause, query.requires[0], u)
    ms = example_clause("map-services")
    [u2] = unify(ARN, q2.orc, q2.requires[0], ms, None)
    q3 = resolve(ARN, q2, ms, q2.requires[0], u2)
    assert len(q3.requires) == 1
    assert q3.requires[0].point == "R2"


def test_resolution_requires_membership():
    query = traveller_query()
    clause = example_clause("journey-planner")
    [u] = unify(ARN, query.orc, query.requires[0], clause, clause.hints[0])
    with pytest.raises(ValueError):
        resolve(ARN, query, clause, ArnSpec("R1", ltl.TRUE), u)


def test_derived_requires_are_deduplicated():
    # a clause with duplicate requires entries collapses to one spec
    net = travel.journey_planner_net()
    clause = Clause(
        "dup",
        net,
        ArnSpec("JP1", travel.RHO_JP),
        (ArnSpec("R1", travel.RHO_JP1), ArnSpec("R1", travel.RHO_JP1)),
        hints=(FrozenMap({"getRoute": "planJourney", "route": "directions"}),),
    )
    query = traveller_query()
    [u] = unify(ARN, query.orc, query.requires[0], clause, clause.hints[0])
    derived = resolve(ARN, query, clause, query.requires[0], u)
    assert len(derived.requires) == 1


# ---------------------------------------------------------------------------
# Trivial specs


def test_trivial_specs():
    net = travel.traveller_net()
    assert ARN.is_trivial(net, ArnSpec("R1", ltl.TRUE))
    assert ARN.is_trivial(net, ArnSpec("R1", ltl.parse_formula("G(getRoute? | !getRoute?)")))
    assert not ARN.is_trivial(net, ArnSpec("R1", travel.RHO_T1))


def test_pexpr_trivial_specs_are_conservative():
    scheme = PexprScheme()
    assert scheme.is_trivial(SKIP, PSpec((), C_TRUE, C_TRUE))
    assert scheme.is_trivial(SKIP, PSpec((), parse_condition("[x = 0]"), parse_condition("[x < 1]")))
    assert not scheme.is_trivial(SKIP, PSpec((), C_TRUE, parse_condition("[x = 0]")))
    assert not scheme.is_trivial(
        parse_program("x := 0"), PSpec((), C_TRUE, C_TRUE)
    )  # residue is not skip


# ---------------------------------------------------------------------------
# Solve


def test_solve_the_traveller_query():
    answers, _ = solve(ARN, traveller_query(), repository())
    assert len(answers) == 1
    [answer] = answers
    assert [s.clause_name for s in answer.steps] == [
        "journey-planner",
        "map-services",
        "transport-system",
    ]
    req, _, _ = classify_points(answer.final)
    assert req == frozenset()
    # shape: the ground journey-planner network extended with the client
    assert answer.final.points == {"T1", "JP1", "JP2", "MS1", "TS1"}
    assert set(answer.final.incidence_of) == {"T", "CT", "JP", "C", "MS", "TS"}


def test_solve_empty_query_answers_immediately():
    query = Query(travel.journey_planner_ground_net(), ())
    [answer], _ = solve(ARN, query, Repository(()))
    assert answer.steps == ()
    assert answer.composed == identity_morphism(query.orc)


def test_solve_without_transport_system_finds_nothing():
    repo = Repository((example_clause("journey-planner"), example_clause("map-services")))
    answers, end = solve(ARN, traveller_query(), repo)
    assert answers == []
    assert (end.status, end.cut) == ("exhausted", 0)


def test_solve_says_how_the_search_ended():
    query, repo = traveller_query(), repository()
    _, end = solve(ARN, query, repo)
    assert isinstance(end, SearchEnd) and (end.status, end.cut, end.max_depth) == ("exhausted", 0, 8)
    answers, end = solve(ARN, query, repo, max_depth=2)
    assert answers == [] and (end.status, end.max_depth) == ("cut", 2) and end.cut > 0
    # the deepest derivation explored stops at the cut
    assert len(end.steps) == 2
    answers, end = solve(ARN, query, repo, max_answers=1)
    assert len(answers) == 1 and end.status == "stopped"


def test_solve_is_deterministic():
    a1, _ = solve(ARN, traveller_query(), repository())
    a2, _ = solve(ARN, traveller_query(), repository())
    assert a1 == a2


def test_unresolved_specs_are_decided_as_they_are_drawn():
    asked = []

    class Counting(ArnScheme):
        def is_trivial(self, orc, spec):
            asked.append(spec)
            return super().is_trivial(orc, spec)

    trivial, hard, also_trivial = ArnSpec("R1", ltl.TRUE), ArnSpec("R1", travel.RHO_T1), ArnSpec("T1", ltl.TRUE)
    left = unresolved(Counting(), Query(travel.traveller_net(), (trivial, hard, also_trivial)))
    assert next(left) == hard and asked == [trivial, hard]
    assert list(left) == [] and len(asked) == 3


def test_scripted_solve_reports_failing_step():
    scheme = PexprScheme()
    query = Query(PVar("t"), (PSpec((), C_TRUE, parse_condition("[x = 0]")),))

    with pytest.raises(ValueError, match="no unifier"):
        solve_scripted(scheme, query, [(hoare_module("skip", {"pre": C_TRUE}), 0, None)])


def test_scripted_solve_types_its_two_failures():
    scheme = PexprScheme()
    query = Query(PVar("t"), (PSpec((), C_TRUE, parse_condition("[x = 0]")),))
    skip = hoare_module("skip", {"pre": C_TRUE})
    # no unifier binds the step: a negative answer, still a ValueError
    with pytest.raises(DerivationFailed, match=r"^step 1: no unifier .* \(refinement entailment failed\)$"):
        solve_scripted(scheme, query, [(skip, 0, None)])
    assert issubclass(DerivationFailed, ValueError)
    # a spec the query lacks: unusable input, not a derivation that failed
    with pytest.raises(InputError, match="^step 1: spec index 1 out of range$") as caught:
        solve_scripted(scheme, query, [(skip, 1, None)])
    assert not isinstance(caught.value, DerivationFailed)


def test_repository_lookup_of_a_missing_clause_is_an_input_error():
    with pytest.raises(InputError, match="^no such clause: 'nosuch'$"):
        repository().clause("nosuch")


# ---------------------------------------------------------------------------
# Solutions


def test_answer_is_a_solution():
    [answer], _ = solve(ARN, traveller_query(), repository())
    assert check_solution(ARN, traveller_query(), answer.composed)


def test_identity_solution_on_satisfied_ground_query():
    gnet = travel.journey_planner_ground_net()
    query = Query(gnet, (ArnSpec("MS1", travel.RHO_MS),))
    assert check_solution(ARN, query, identity_morphism(gnet))


def test_solution_fails_on_violated_specs():
    gnet = travel.journey_planner_ground_net()
    query = Query(gnet, (ArnSpec("MS1", ltl.parse_formula("G !getRoutes?")),))
    assert not check_solution(ARN, query, identity_morphism(gnet))


def test_non_ground_targets_need_a_model_pool():
    query = traveller_query()
    assert not check_solution(ARN, query, identity_morphism(query.orc), model_pool=None)


# ---------------------------------------------------------------------------
# Clause correctness


def test_skip_module_has_no_counterexample():
    scheme = PexprScheme()
    clause = hoare_module("skip", {"pre": parse_condition("[x = 0]")})
    pool = [PMorphism(clause.orc, clause.orc, {}, ())]
    assert isinstance(check_clause_correctness(scheme, clause, pool), NoCounterexample)


def test_broken_while_module_is_caught():
    scheme = PexprScheme(bounds=(0, 4))
    cond = parse_condition("[x < y]")
    rho = parse_condition("[x <= y]")
    broken = Clause(
        "while-no-requires",
        hoare_module("while", {"cond": cond, "invariant": rho}).orc,
        PSpec((), C_TRUE, parse_condition("false")),
        (),
    )
    body = parse_program("x := x + 1")
    grounded = parse_program("while x < y do x := x + 1 done")
    var = sorted({v for v in _pvars(broken.orc)})[0]
    pool = [PMorphism(broken.orc, grounded, {var: body}, ())]
    assert isinstance(check_clause_correctness(scheme, broken, pool), Counterexample)


def test_bounded_property_check_is_three_valued():
    # every y = 0 pre-state of division loops until the fuel runs out
    scheme = PexprScheme(bounds=(0, 2))
    division = parse_program("q := 0 ; r := x ; while y <= r do q := q + 1 ; r := r - y done")
    spec = PSpec((), C_TRUE, parse_condition("[x = q * y + r] & [r < y]"))
    assert scheme.check_property(division, spec) is None
    identity = PMorphism(division, division, {}, ())
    assert check_solution(scheme, Query(division, (spec,)), identity) is False
    clause = Clause("division", division, spec, ())
    assert check_clause_correctness(scheme, clause, [identity]) == NoCounterexample(1)


def _pvars(t):
    from orcbind.pexpr import pvars

    return pvars(t)


def test_journey_planner_clause_has_no_counterexample_over_the_fixture_pool():
    from orcbind.arn import ArnMorphism

    src = travel.journey_planner_net()
    dst = travel.journey_planner_ground_net()
    theta = ArnMorphism(
        src,
        dst,
        {"JP1": "JP1", "JP2": "JP2", "R1": "MS1", "R2": "TS1"},
        {"JP": "JP", "C": "C"},
        {x: {m: m for m in src.port_of[x].messages} for x in src.points},
    )
    verdict = check_clause_correctness(ARN, example_clause("journey-planner"), [theta])
    assert isinstance(verdict, NoCounterexample)
    assert verdict.checked == 1
