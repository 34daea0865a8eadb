"""The on-the-fly product search against the eager product and the oracles."""

import math

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
    ProductFamily,
    _first_live_set,
    accepts,
    find_accepted_lasso,
    mask_to_guard,
    product,
)
from orcbind.sigcat import TRUE, signature

from oracles import accepts_by_run_search, is_empty_by_buchi, is_empty_by_lasso_search

SIG = signature("a", "b")


@st.composite
def automata(draw, sizes=st.integers(1, 3)):
    """Up to three states; repeated (src, dst) pairs and false guards allowed."""
    states = [f"s{i}" for i in range(draw(sizes))]
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


@st.composite
def factor_lists(draw):
    """One to three automata whose product has at most four states."""
    sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3).filter(lambda s: math.prod(s) <= 4))
    return [draw(automata(st.just(n))) for n in sizes]


@given(factor_lists())
def test_search_decides_like_the_buchi_conversion(factors):
    witness = find_accepted_lasso(*factors)
    assert (witness is None) == is_empty_by_buchi(product(factors))
    if witness is not None:
        assert all(accepts(a, witness) for a in factors)


def test_a_closing_cycle_accepts_its_partial_scc_at_once():
    # the self-loop on 0 is live before 1 and 2, which close the SCC, are
    # expanded
    graph = {(0,): [(0,), (1,)], (1,): [(2,)], (2,): [(0,)]}
    expanded = []

    def succ(node):
        expanded.append(node)
        return graph[node]

    path, scc, live, hits = _first_live_set([(0,)], succ, ProductFamily(((0, AllNonempty()),)))
    assert expanded == [(0,)]
    assert path == scc == live == [(0,)] and hits == ()


def test_a_live_set_inside_a_within_set_is_found_once_its_scc_completes():
    # s0 -> s1 -> t -> s0 closes the first cycle through the trigger t, and
    # s1 -> s0 adds no state, so no partial SCC is a member; the one live
    # set, {s0, s1}, lies inside the completed SCC restricted to the states
    # other than t
    a = MullerAutomaton(
        SIG,
        frozenset({"s0", "s1", "t", "r"}),
        (("s0", TRUE, "s1"), ("s1", TRUE, "t"), ("s1", TRUE, "s0"), ("t", TRUE, "s0")),
        frozenset({"s0"}),
        ImpliesFamily("t", "r"),
    )
    witness = find_accepted_lasso(a)
    assert witness is not None
    assert accepts_by_run_search(a, witness)
    assert not is_empty_by_buchi(a)


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
