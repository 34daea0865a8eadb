"""The on-the-fly product search against the eager product and the oracles."""

import pytest
from hypothesis import given, strategies as st

from orcbind import ltl, travel
from orcbind.arn import observed_automaton
from orcbind.muller import (
    AllNonempty,
    Explicit,
    GenBuchi,
    ImpliesFamily,
    MullerAutomaton,
    find_accepted_lasso,
    mask_to_guard,
    product,
)
from orcbind.sigcat import signature

from oracles import accepts_by_run_search, is_empty_by_lasso_search

SIG = signature("a", "b")


@st.composite
def automata(draw):
    """Up to three states; repeated (src, dst) pairs and false guards allowed."""
    states = [f"s{i}" for i in range(draw(st.integers(1, 3)))]
    state = st.sampled_from(states)
    transitions = draw(
        st.lists(
            st.tuples(state, st.integers(0, 15).map(lambda m: mask_to_guard(m, SIG)), state),
            max_size=8,
        )
    )
    initial = draw(st.sets(state, max_size=2))
    subset = st.frozensets(state, min_size=1)
    final = draw(
        st.one_of(
            st.just(AllNonempty()),
            st.frozensets(subset, max_size=3).map(Explicit),
            st.lists(subset, max_size=2).map(lambda sets: GenBuchi(tuple(sets))),
            st.builds(ImpliesFamily, state, state),
        )
    )
    return MullerAutomaton(SIG, frozenset(states), tuple(transitions), frozenset(initial), final)


@given(automata(), automata())
def test_search_matches_the_eager_product(a, b):
    witness = find_accepted_lasso(a, b)
    assert (witness is None) == is_empty_by_lasso_search(product([a, b]))
    assert witness == find_accepted_lasso(product([a, b]))
    if witness is not None:
        assert accepts_by_run_search(a, witness)
        assert accepts_by_run_search(b, witness)


@pytest.mark.parametrize(
    "point, spec",
    [("JP1", travel.RHO_JP), ("MS1", travel.RHO_MS), ("TS1", travel.RHO_TS)],
)
def test_observed_behaviour_search_matches_the_eager_product(point, spec):
    obs = observed_automaton(travel.journey_planner_ground_net(), point)
    formulas = [spec] + [ltl.parse_formula(f"G !{x}") for x in sorted(obs.signature.actions)]
    for f in formulas:
        negated = ltl.to_automaton(ltl.lnot(f), obs.signature)
        witness = find_accepted_lasso(obs, negated)
        assert witness == find_accepted_lasso(product([obs, negated]))
        assert (witness is None) == (f == spec)
