"""Letter sets as cubes, against the bitmask reference of ``oracles``.

A guard's letter set is a tuple of ``(pos, neg)`` cubes; the reference holds
it as a bitmask of 2^n bits, one per letter.  The walls at the end are the
networks whose bitmasks of 2^(2w) and 2^(4k+2) bits made a check take
seconds to minutes and gigabytes.
"""

import importlib.util
import io
import json
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from orcbind import InputError, cli, ltl, muller
from orcbind.muller import (
    AllNonempty,
    MullerAutomaton,
    find_accepted_lasso,
    guard_mask,
    mask_to_guard,
    product,
    reduct,
)
from orcbind.sigcat import (
    FALSE,
    TRUE,
    And,
    Atom,
    Not,
    Or,
    SignatureMorphism,
    land,
    lor,
    ordered_actions,
)

from oracles import (
    all_letters,
    cubes_bitmask,
    edge_bitmasks,
    eval_guard,
    guard_bitmask,
    reduct_bitmasks,
    signature,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def guards(actions):
    """Guards of ``!``, ``&``, ``|``, ``true`` and ``false`` over the actions,
    unsimplified."""
    leaves = st.one_of(st.sampled_from([Atom(a) for a in actions]), st.just(TRUE), st.just(FALSE))
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            kids.map(Not),
            st.lists(kids, min_size=1, max_size=3).map(lambda xs: And(tuple(xs))),
            st.lists(kids, min_size=1, max_size=3).map(lambda xs: Or(tuple(xs))),
        ),
        max_leaves=12,
    )


@st.composite
def guarded(draw, max_actions=8):
    """A signature of one to ``max_actions`` actions and a guard over it."""
    actions = [f"x{i}" for i in range(draw(st.integers(1, max_actions)))]
    return signature(*actions), draw(guards(actions))


@st.composite
def automata(draw, sig):
    """One or two states, up to four transitions with random guards."""
    states = [f"s{i}" for i in range(draw(st.integers(1, 2)))]
    state = st.sampled_from(states)
    transitions = draw(st.lists(st.tuples(state, guards(ordered_actions(sig)), state), max_size=4))
    return MullerAutomaton(sig, frozenset(states), tuple(transitions), frozenset(states[:1]), AllNonempty())


def letter_index(letter, sig) -> int:
    return sum(1 << i for i, a in enumerate(ordered_actions(sig)) if a in letter)


@given(guarded())
def test_the_cubes_of_a_guard_hold_exactly_the_letters_it_accepts(case):
    sig, g = case
    cubes = guard_mask(g, sig)
    assert all(not p & n for p, n in cubes)
    accepted = {letter_index(letter, sig) for letter in all_letters(sig) if eval_guard(g, letter)}
    held = {i for i in range(1 << len(sig.actions)) if any(i & p == p and not i & n for p, n in cubes)}
    assert held == accepted
    # falsy exactly when unsatisfiable, and the least pos is the lowest letter
    assert bool(cubes) == bool(accepted)
    if cubes:
        assert min(p for p, _ in cubes) == min(accepted)


@given(guarded())
def test_mask_to_guard_round_trips_the_letter_set(case):
    sig, g = case
    again = guard_mask(mask_to_guard(guard_mask(g, sig), sig), sig)
    assert cubes_bitmask(again, sig) == guard_bitmask(g, sig)


@settings(max_examples=50)
@given(st.data())
def test_product_edges_meet_the_factor_edges(data):
    sig = signature(*(f"x{i}" for i in range(data.draw(st.integers(1, 4)))))
    a1, a2 = data.draw(automata(sig)), data.draw(automata(sig))
    m1, m2, mp = edge_bitmasks(a1), edge_bitmasks(a2), edge_bitmasks(product([a1, a2]))
    want = {((s1, s2), (d1, d2)): m1[s1, d1] & m2[s2, d2] for s1, d1 in m1 for s2, d2 in m2}
    assert mp == {edge: m for edge, m in want.items() if m}


@settings(max_examples=50)
@given(st.data())
def test_reduct_along_any_morphism_matches_the_reference(data):
    # sigma need not be injective nor surjective: fibres of several actions
    # and actions outside the image both occur
    source = [f"y{i}" for i in range(data.draw(st.integers(0, 4)))]
    target = [f"x{i}" for i in range(data.draw(st.integers(1, 4)))]
    mapping = {y: data.draw(st.sampled_from(target)) for y in source}
    sigma = SignatureMorphism(signature(*source), signature(*target), mapping)
    a = data.draw(automata(sigma.target))
    assert edge_bitmasks(reduct(a, sigma)) == reduct_bitmasks(a, sigma)


def test_a_witness_reads_the_lowest_letter_of_each_edge():
    # letters count up as masks of their actions: {} < {a} < {b} < {a, b};
    # an edge's lowest letter is the least pos of its cubes, whatever their order
    sig = signature("a", "b")
    a = MullerAutomaton(
        sig,
        frozenset({"p", "q"}),
        (("p", Or((And((Atom("a"), Atom("b"))), Atom("b"))), "q"), ("q", Or((Atom("b"), Atom("a"))), "q")),
        frozenset({"p"}),
        AllNonempty(),
    )
    witness = find_accepted_lasso(a)
    assert (witness.prefix, witness.cycle) == ((frozenset({"b"}),), (frozenset({"a"}),))


def alternatives(k):
    """``(a1 | b1) & ... & (ak | bk)``, whose normal form has 2^k cubes."""
    return land(*(lor(Atom(f"a{i}"), Atom(f"b{i}")) for i in range(1, k + 1)))


def test_a_guard_past_the_cube_limit_is_refused():
    assert muller.MAX_CUBES == 4096
    sig = signature(*(f"{c}{i}" for i in range(1, 14) for c in "ab"))
    assert len(guard_mask(alternatives(12), sig)) == 4096
    with pytest.raises(InputError, match="more than 4096 cubes"):
        guard_mask(alternatives(13), sig)


# ---------------------------------------------------------------------------
# Walls


@pytest.fixture
def families(monkeypatch):
    spec = importlib.util.spec_from_file_location("families", PERFBENCH / "families.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "families", module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def check(tmp_path, net, point, formula):
    """``orcbind arn check`` of the network: exit code, output and seconds."""
    path = tmp_path / "net.json"
    path.write_text(json.dumps(cli.network_to_json(net)))
    out = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out):
        code = cli.main(["arn", "check", str(path), point, formula])
    return code, out.getvalue(), time.perf_counter() - start


def test_a_hub_of_twenty_points_decides_at_once(families, tmp_path):
    code, out, seconds = check(tmp_path, families.hub(20), "H1", "G(req? -> F rsp!)")
    assert (code, out) == (0, "holds: <H1 : G (!req? | F rsp!)>\n")
    assert seconds < 2


def test_a_chain_of_three_relays_fails_at_once(families, tmp_path):
    net = families.relay_chain(3)
    code, out, seconds = check(tmp_path, net, "I1", "G !req?")
    assert code == 1 and out.startswith("fails: <I1 : !F req?>\n")
    witness = families.parse_lasso(out.split("counterexample trace: ")[1].strip(), net.port_of["I1"].actions())
    assert ltl.sat_lasso(witness, ltl.lnot(ltl.parse_formula("G !req?")))
    assert seconds < 2
