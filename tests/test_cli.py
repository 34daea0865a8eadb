import argparse
import io
import json
import shutil
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from orcbind import MAX_NESTING, FrozenMap, arn, cli, ltl, muller, travel
from orcbind.arn import validate
from orcbind.muller import AllNonempty, GenBuchi, ImpliesFamily, MullerAutomaton, ProductFamily
from orcbind.sigcat import Atom, land, lor
from orcbind.pexpr import parse_program, render_program

from oracles import edge_bitmasks
from test_benchmark_contract import load_families


DATA = Path(__file__).resolve().parent.parent / "examples" / "data"


def run(argv):
    return cli.main(argv)


# ---------------------------------------------------------------------------
# Round trips


def test_network_files_round_trip():
    for build in [
        travel.journey_planner_net,
        travel.journey_planner_ground_net,
        travel.traveller_net,
        travel.ms_net,
    ]:
        net = build()
        again = cli.network_from_json(cli.network_to_json(net))
        assert again == net


def test_automaton_round_trip_with_predicate_families():
    for aut in [travel.jp_automaton(), travel.channel_automaton({"g", "r"})]:
        data = cli.automaton_to_json(aut)
        again = cli.automaton_from_json(data)
        assert again.states == aut.states
        assert again.initial == aut.initial
        assert edge_bitmasks(again) == edge_bitmasks(aut)
        assert again.final == aut.final


def test_family_serializations():
    for fam in [
        AllNonempty(),
        ImpliesFamily("q5", "q0"),
        GenBuchi((frozenset({"a"}),)),
        ProductFamily(((0, AllNonempty()), (1, ImpliesFamily("x", "y")))),
    ]:
        assert cli.family_from_json(cli.family_to_json(fam)) == fam


def test_formula_round_trip_through_files():
    text = "G (!planJourney? | F directions!)"
    assert ltl.render_formula(ltl.parse_formula(text)) == text


def test_program_round_trip_through_files():
    text = (DATA / "division.pgm").read_text().strip()
    assert render_program(parse_program(text)) == text


def test_shipped_networks_parse_and_validate():
    for name in [
        "journeyplanner.net.json",
        "journeyplannernet.net.json",
        "traveller.net.json",
        "mapservices.net.json",
        "transportsystem.net.json",
    ]:
        net = cli.load_network(DATA / name)
        assert validate(net) == ()


def test_shipped_data_matches_travel_fixtures():
    for name, build in [
        ("journeyplanner.net.json", travel.journey_planner_net),
        ("journeyplannernet.net.json", travel.journey_planner_ground_net),
        ("traveller.net.json", travel.traveller_net),
        ("mapservices.net.json", travel.ms_net),
        ("transportsystem.net.json", travel.ts_net),
    ]:
        assert cli.load_network(DATA / name) == build(), name


def test_repository_and_query_files_load():
    repo = cli.load_repository(DATA / "services.repo.json")
    assert [c.name for c in repo.clauses] == ["journey-planner", "map-services", "transport-system"]
    query = cli.load_query(DATA / "traveller.query.json")
    assert len(query.requires) == 1


def test_every_clause_of_a_loaded_repository_hashes():
    repo = cli.load_repository(DATA / "services.repo.json")
    assert [hint for c in repo.clauses for hint in c.hints] == [
        FrozenMap({"getRoute": "planJourney", "route": "directions"})
    ]
    assert all(isinstance(hash(c), int) for c in repo.clauses)


# ---------------------------------------------------------------------------
# Commands and exit codes


def test_arn_validate_ok(capsys):
    assert run(["arn", "validate", str(DATA / "journeyplanner.net.json")]) == 0
    assert "OK" in capsys.readouterr().out


def test_arn_validate_reports_violations(tmp_path, capsys):
    data = json.loads((DATA / "journeyplanner.net.json").read_text())
    del data["connections"]["C"]["attachments"]["R1"]["g"]
    bad = tmp_path / "bad.net.json"
    bad.write_text(json.dumps(data))
    assert run(["arn", "validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "g" in out


def test_parse_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert run(["arn", "validate", str(bad)]) == 2
    assert run(["arn", "validate", str(tmp_path / "missing.json")]) == 2
    assert run(["ltl", "sat", "a &"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["ltl", "sat", "(" * 1200 + "a" + ")" * 1200],
        ["ltl", "sat", "a -> " * 1500 + "a"],
        ["pexpr", "check", str(DATA / "skip.pgm"), "([" + "(" * 600 + "x" + ")" * 600 + " = 0], true)"],
    ],
    ids=["ltl-brackets", "ltl-implications", "pexpr-brackets"],
)
def test_nesting_past_the_limit_exits_2(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: expected at most {MAX_NESTING} levels of nesting at column ")


def test_a_guard_nested_past_the_limit_exits_2(tmp_path, capsys):
    doc = json.loads((DATA / "mapservices.net.json").read_text())
    transition = doc["processes"]["MS"]["automaton"]["transitions"][2]
    transition[1] = "(" * MAX_NESTING + transition[1] + ")" * MAX_NESTING
    assert run(["arn", "validate", _write(tmp_path / "at.net.json", doc)]) == 0
    transition[1] = f"({transition[1]})"
    assert run(["arn", "validate", _write(tmp_path / "past.net.json", doc)]) == 2
    assert f"expected at most {MAX_NESTING} levels of nesting" in capsys.readouterr().err


@pytest.mark.parametrize("keyword", ["X", "F", "G", "true", "false"])
def test_an_action_named_as_a_formula_keyword_exits_2(keyword, tmp_path, capsys):
    # a guard could not name the action, and a rendered guard would not read back
    doc = json.loads((DATA / "mapservices.net.json").read_text())
    doc["processes"]["MS"]["automaton"]["actions"].append(keyword)
    assert run(["arn", "validate", _write(tmp_path / "keyword.net.json", doc)]) == 2
    assert capsys.readouterr().err == f"error: bad automaton: the action {keyword!r} is a keyword of formulas\n"


def test_json_nested_past_the_decoder_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.net.json"
    deep.write_text("[" * 100_000)
    assert run(["arn", "validate", str(deep)]) == 2
    assert capsys.readouterr().err == f"error: {deep}: JSON nested too deeply\n"
    # a state of 600 nested lists decodes as JSON, but not as a state
    doc = json.loads((DATA / "mapservices.net.json").read_text())
    doc["processes"]["MS"]["automaton"]["states"].append(json.loads("[" * 600 + '"idle"' + "]" * 600))
    assert run(["arn", "validate", _write(tmp_path / "state.net.json", doc)]) == 2
    assert capsys.readouterr().err == "error: bad automaton: maximum recursion depth exceeded\n"


def test_arn_check_holds(capsys):
    code = run(
        ["arn", "check", str(DATA / "journeyplannernet.net.json"), "MS1", "G(getRoutes? -> F routes!)"]
    )
    assert code == 0
    assert "holds" in capsys.readouterr().out


def test_arn_check_fails_with_counterexample(capsys):
    code = run(["arn", "check", str(DATA / "mapservices.net.json"), "MS1", "G !getRoutes?"])
    assert code == 1
    out = capsys.readouterr().out
    assert "fails" in out and "counterexample" in out


def test_arn_check_trivial_formula(capsys):
    assert run(["arn", "check", str(DATA / "mapservices.net.json"), "MS1", "true"]) == 0


def test_arn_check_rejects_actions_outside_the_port(capsys):
    code = run(["arn", "check", str(DATA / "mapservices.net.json"), "MS1", "G nosuch!"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: formula uses actions outside the port at MS1: ['nosuch!']\n"


@pytest.mark.parametrize(
    "name, point, requires",
    [("journeyplanner.net.json", "JP1", "['R1', 'R2']"), ("traveller.net.json", "T1", "['R1']")],
)
def test_arn_check_rejects_a_network_that_is_not_ground(name, point, requires, capsys):
    code = run(["arn", "check", str(DATA / name), point, "G true"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: network is not ground, it has requires-points: {requires}\n"


def test_arn_check_rejects_an_unknown_point(capsys):
    code = run(["arn", "check", str(DATA / "mapservices.net.json"), "NOPE", "true"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no such point: NOPE\n"


def test_arn_check_rejects_an_ill_formed_network(tmp_path, capsys):
    data = json.loads((DATA / "journeyplannernet.net.json").read_text())
    del data["connections"]["C"]["attachments"]["MS1"]["g"]
    bad = tmp_path / "bad.net.json"
    bad.write_text(json.dumps(data))
    code = run(["arn", "check", str(bad), "MS1", "true"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: network is not well-formed: "
        "connection C: message g at JP2 has no delivered counterpart at another point\n"
    )


def test_ltl_commands(capsys):
    assert run(["ltl", "entails", "G a", "F a"]) == 0
    assert run(["ltl", "entails", "p", "p"]) == 0
    assert run(["ltl", "entails", "F a", "G a"]) == 1
    assert run(["ltl", "sat", "false"]) == 1
    assert run(["ltl", "sat", "F (a & X b)"]) == 0


def test_ltl_entails_of_a_conjunct(capsys):
    # the tableau of f1 & !f2 has no states at all here
    code = run(["ltl", "entails", "G(a? -> F b!) & G c!", "G(a? -> F b!)"])
    assert code == 0
    assert capsys.readouterr().out == "yes\n"


def test_ltl_sat_witness_has_a_short_cycle(capsys):
    text = "F(a & X b) & G(c -> X !a)"
    assert run(["ltl", "sat", text]) == 0
    f = ltl.parse_formula(text)
    witness = ltl.satisfiable(f)
    assert capsys.readouterr().out == f"satisfiable: {ltl.render_lasso(witness)}\n"
    assert ltl.sat_lasso(witness, f)
    # a cycle covering the whole live set took 24 letters here
    assert len(witness.cycle) < 24


def test_negative_verdicts_search_once(monkeypatch, capsys):
    searches = []
    original = ltl.find_accepted_lasso

    def counted(*factors):
        searches.append(factors)
        return original(*factors)

    monkeypatch.setattr(arn, "find_accepted_lasso", counted)
    monkeypatch.setattr(ltl, "find_accepted_lasso", counted)
    assert run(["arn", "check", str(DATA / "mapservices.net.json"), "MS1", "G !getRoutes?"]) == 1
    assert len(searches) == 1
    searches.clear()
    assert run(["ltl", "entails", "F a", "G a"]) == 1
    assert len(searches) == 1
    assert capsys.readouterr().out.count("counterexample trace:") == 2


def test_solve_command_and_trace_determinism(tmp_path, capsys):
    out1 = tmp_path / "trace1.json"
    code = run(
        [
            "solve",
            str(DATA / "traveller.query.json"),
            str(DATA / "services.repo.json"),
            "--output",
            str(out1),
        ]
    )
    assert code == 0
    text1 = capsys.readouterr().out
    assert "answer 1" in text1
    assert "journey-planner" in text1 and "transport-system" in text1

    code = run(
        ["solve", str(DATA / "traveller.query.json"), str(DATA / "services.repo.json")]
    )
    assert code == 0
    text2 = capsys.readouterr().out
    assert text1 == text2

    trace = json.loads(out1.read_text())
    assert len(trace["answers"]) == 1
    assert [s["clause"] for s in trace["answers"][0]["steps"]] == [
        "journey-planner",
        "map-services",
        "transport-system",
    ]


def test_solve_without_needed_clause_exits_1(tmp_path, capsys):
    repo = json.loads((DATA / "services.repo.json").read_text())
    repo["clauses"] = [c for c in repo["clauses"] if c["name"] != "transport-system"]
    trimmed = tmp_path / "trimmed.repo.json"
    trimmed.write_text(json.dumps(repo))
    # network paths are relative to the repo file
    for name in ["journeyplanner.net.json", "mapservices.net.json"]:
        (tmp_path / name).write_text((DATA / name).read_text())
    output = tmp_path / "trace.json"
    code = run(["solve", str(DATA / "traveller.query.json"), str(trimmed), "--output", str(output)])
    assert code == 1
    out = capsys.readouterr().out
    # nothing was cut: the search explored its whole tree
    assert out.endswith("\nno answer within limits (search exhausted)\n")
    assert json.loads(output.read_text())["search"] == {"status": "exhausted", "cut": 0, "max_depth": 8}
    # the partial trace stops at the unresolved timetable requirement
    assert "partial derivation" in out
    assert "unresolved: <R2" in out


def test_solve_says_how_many_derivations_it_cut(tmp_path, capsys):
    output = tmp_path / "trace.json"
    argv = ["solve", str(DATA / "traveller.query.json"), str(DATA / "services.repo.json")]
    assert run([*argv, "--max-depth", "2", "--output", str(output)]) == 1
    assert capsys.readouterr().out.endswith("\nno answer within limits (1 derivation cut at depth 2)\n")
    assert json.loads(output.read_text())["search"] == {"status": "cut", "cut": 1, "max_depth": 2}
    assert run([*argv, "--max-answers", "1", "--output", str(output)]) == 0
    assert json.loads(output.read_text())["search"] == {"status": "stopped", "cut": 0, "max_depth": 8}


def test_pexpr_derive(capsys):
    code = run(["pexpr", "derive", str(DATA / "division.script.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "final program: q := 0 ; r := x ; while y <= r do q := q + 1 ; r := r - y done" in out
    assert "bounded" in out


def test_pexpr_derive_reports_failing_step(tmp_path, capsys):
    data = json.loads((DATA / "division.script.json").read_text())
    data["steps"][4]["invariant"] = "[x = q * y]"  # wrong invariant
    bad = tmp_path / "bad.script.json"
    bad.write_text(json.dumps(data))
    code = run(["pexpr", "derive", str(bad)])
    assert code == 1
    out = capsys.readouterr().out
    assert "step 5" in out and "no unifier" in out


def test_pexpr_derive_validates_refinements_over_the_given_bounds(tmp_path, capsys):
    # skip provides <true, true>; true => [x <= 2] holds over 0..2 only
    script = _write(
        tmp_path / "small.script.json",
        {
            "scheme": "pexpr",
            "variables": ["t"],
            "term": "t",
            "requires": [{"pre": "true", "post": "[x <= 2]"}],
            "steps": [{"module": "skip", "spec": 0, "pre": "true"}],
        },
    )
    assert run(["pexpr", "derive", script, "--bounds", "0..2"]) == 0
    out = capsys.readouterr().out
    assert "final program: skip" in out
    assert "(refinements validated with the bounded oracle over 0..2)" in out
    assert run(["pexpr", "derive", script, "--bounds", "0..8"]) == 1
    assert "no unifier" in capsys.readouterr().out


def _write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def _division_script(tmp_path, **first_step):
    data = json.loads((DATA / "division.script.json").read_text())
    data["steps"][0].update(first_step)
    return _write(tmp_path / "edited.script.json", data)


def _traveller_script(tmp_path, steps):
    script = _write(tmp_path / "traveller.script.json", {"steps": steps})
    return ["solve", str(DATA / "traveller.query.json"), str(DATA / "services.repo.json"), "--script", script]


@pytest.mark.parametrize(
    "command",
    [
        lambda empty: ["arn", "validate", empty],
        lambda empty: ["solve", empty, str(DATA / "services.repo.json")],
        lambda empty: ["pexpr", "derive", empty],
    ],
    ids=["arn-validate", "solve", "pexpr-derive"],
)
def test_files_that_are_not_json_objects_exit_2(command, tmp_path, capsys):
    empty = _write(tmp_path / "empty.json", [])
    assert run(command(empty)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {empty}: expected a JSON object\n"


@pytest.mark.parametrize("unreadable", ["directory", "not-utf8"])
@pytest.mark.parametrize(
    "command",
    [
        lambda path: ["arn", "validate", path],
        lambda path: ["solve", path, str(DATA / "services.repo.json")],
        lambda path: ["pexpr", "derive", path],
        lambda path: ["pexpr", "check", path, "(true, true)"],
    ],
    ids=["arn-validate", "solve", "pexpr-derive", "pexpr-check"],
)
def test_unreadable_files_exit_2(command, unreadable, tmp_path, capsys):
    path = tmp_path / unreadable
    if unreadable == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"scheme": "pexpr", "term": "\xff"}')
    assert run(command(str(path))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("output", ["directory", "no-parent"])
@pytest.mark.parametrize(
    "command",
    [
        ["solve", str(DATA / "traveller.query.json"), str(DATA / "services.repo.json")],
        ["pexpr", "derive", str(DATA / "division.script.json")],
    ],
    ids=["solve", "pexpr-derive"],
)
def test_unwritable_output_exits_2_before_any_search(command, output, tmp_path, capsys):
    path = tmp_path if output == "directory" else tmp_path / "missing" / "x.json"
    assert run(command + ["--output", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "command, message",
    [
        (
            lambda tmp: ["pexpr", "derive", _division_script(tmp, module="bogus")],
            "error: bad step {'module': 'bogus', 'spec': 0, 'pre': 'true', "
            "'mid': '[x = q * y + r]', 'post': '[x = q * y + r] & [r < y]'}: "
            "unknown module kind 'bogus'\n",
        ),
        (
            lambda tmp: ["pexpr", "derive", _division_script(tmp, spec=7)],
            "error: step 1: spec index 7 out of range\n",
        ),
        (
            lambda tmp: _traveller_script(tmp, [{"clause": "nosuch"}]),
            "error: bad step {'clause': 'nosuch'}: no such clause: 'nosuch'\n",
        ),
        (
            lambda tmp: _traveller_script(tmp, [["journey-planner"]]),
            "error: bad step ['journey-planner']: expected a JSON object\n",
        ),
        (
            lambda tmp: _traveller_script(tmp, [{"clause": "journey-planner", "correspondence": 5}]),
            "error: bad step {'clause': 'journey-planner', 'correspondence': 5}: "
            "'int' object has no attribute 'items'\n",
        ),
        (
            lambda tmp: _traveller_script(
                tmp, [{"clause": "journey-planner", "correspondence": [["getRoute", "planJourney"]]}]
            ),
            "error: bad step {'clause': 'journey-planner', 'correspondence': [['getRoute', 'planJourney']]}: "
            "'list' object has no attribute 'items'\n",
        ),
        (
            lambda tmp: _traveller_script(tmp, 5),
            "error: bad steps 5: expected a JSON list\n",
        ),
        (
            lambda tmp: _traveller_script(tmp, [{"clause": "journey-planner", "correspondence": {"getRoute": ["x"]}}]),
            "error: bad step {'clause': 'journey-planner', 'correspondence': {'getRoute': ['x']}}: "
            "expected a name, got ['x']\n",
        ),
        *(
            (
                lambda tmp, spec=spec: ["pexpr", "derive", _division_script(tmp, spec=spec)],
                f"error: bad step {{'module': 'seq', 'spec': {spec!r}, 'pre': 'true', "
                "'mid': '[x = q * y + r]', 'post': '[x = q * y + r] & [r < y]'}: "
                f"expected an integer, got {spec!r}\n",
            )
            for spec in ("1", True, 1.7)
        ),
    ],
    ids=[
        "unknown-module", "spec-out-of-range", "unknown-clause",
        "step-not-an-object", "correspondence-not-a-mapping", "correspondence-a-list-of-pairs",
        "steps-not-a-list",
        "correspondence-to-a-non-name", "spec-a-string", "spec-a-bool", "spec-a-fraction",
    ],
)
def test_unusable_script_steps_exit_2(command, message, tmp_path, capsys):
    assert run(command(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def _edited(tmp, name, edit):
    data = json.loads((DATA / name).read_text())
    edit(data)
    return _write(tmp / f"edited.{name}", data)


def _derive(edit):
    return lambda tmp: ["pexpr", "derive", _edited(tmp, "division.script.json", edit)]


def _validate(edit):
    return lambda tmp: ["arn", "validate", _edited(tmp, "mapservices.net.json", edit)]


def _solve(edit):
    def command(tmp):
        for net in DATA.glob("*.net.json"):  # network paths are relative to the repo file
            shutil.copy(net, tmp)
        return ["solve", str(DATA / "traveller.query.json"), _edited(tmp, "services.repo.json", edit)]

    return command


@pytest.mark.parametrize(
    "command",
    [
        _derive(lambda d: d.update(requires=["x"])),
        _derive(lambda d: d.update(requires="x")),
        _derive(lambda d: d.update(variables=5)),
        _derive(lambda d: d["requires"][0].update(at=5)),
        _derive(lambda d: d["requires"][0].update(at=["0"])),
        _derive(lambda d: d["requires"][0].update(at=[5])),
        _derive(lambda d: d["requires"][0].update(at=[0.5])),
        _derive(lambda d: d.update(term=5)),
        _validate(lambda d: d.update(points=list(d["points"].values()))),
        _validate(lambda d: d["points"].update(MS1="x")),
        _solve(lambda d: d.update(clauses=["x"])),
        _solve(lambda d: d["clauses"][0].update(hints=["x"])),
        _solve(lambda d: d["clauses"][0].update(hints=[{"correspondence": 5}])),
        _solve(lambda d: d["clauses"][1].update(network=5)),
    ],
    ids=[
        "requires-of-strings", "requires-a-string", "variables-a-number", "at-a-number",
        "at-of-strings", "at-outside-the-term", "at-of-fractions",
        "term-a-number", "points-a-list", "port-a-string",
        "clauses-of-strings", "hint-a-string", "correspondence-a-number", "network-a-number",
    ],
)
def test_malformed_nested_shapes_exit_2(command, tmp_path, capsys):
    assert run(command(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def _query(edit):
    def command(tmp):
        for net in DATA.glob("*.net.json"):  # network paths are relative to the query file
            shutil.copy(net, tmp)
        return ["solve", _edited(tmp, "traveller.query.json", edit), str(DATA / "services.repo.json")]

    return command


@pytest.mark.parametrize(
    "command, message",
    [
        (
            _query(lambda d: d["requires"][0].update(point="nosuch")),
            "query spec: no such point: nosuch",
        ),
        (
            _query(lambda d: d["requires"][0].update(formula="G(nosuch! -> F route!)")),
            "query spec: formula uses actions outside the port at R1: ['nosuch!']",
        ),
        (
            _solve(lambda d: d["clauses"][0]["requires"][0].update(formula="G (!nosuch? | F routes!)")),
            "clause 'journey-planner' spec: formula uses actions outside the port at R1: ['nosuch?']",
        ),
        (
            _solve(lambda d: d["clauses"][1]["provides"].update(point="nosuch")),
            "clause 'map-services' spec: no such point: nosuch",
        ),
    ],
    ids=["query-point", "query-formula", "clause-requires-formula", "clause-provides-point"],
)
def test_solve_rejects_specs_that_do_not_fit_their_networks(command, message, tmp_path, capsys):
    assert run(command(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# One search loads each network file once and decides each entailment once


def _shared_repository(tmp, edit_maps=lambda d: None):
    """Three clauses over two network files: two map services share one."""
    maps = json.loads((DATA / "mapservices.net.json").read_text())
    edit_maps(maps)
    _write(tmp / "maps.net.json", maps)
    shutil.copy(DATA / "transportsystem.net.json", tmp / "transport.net.json")
    services = json.loads((DATA / "services.repo.json").read_text())["clauses"]
    maps_clause, transport_clause = services[1], services[2]
    clauses = [
        dict(transport_clause, network="transport.net.json"),
        dict(maps_clause, name="maps-a", network="maps.net.json"),
        dict(maps_clause, name="maps-b", network="maps.net.json"),
    ]
    return Path(_write(tmp / "shared.repo.json", {"scheme": "arn", "clauses": clauses}))


def test_clauses_naming_one_network_file_share_one_network(tmp_path, monkeypatch):
    built = []
    network_from_json = cli.network_from_json
    monkeypatch.setattr(cli, "network_from_json", lambda data: built.append(data) or network_from_json(data))
    repo = cli.load_repository(_shared_repository(tmp_path))
    assert len(built) == 2
    transport, maps_a, maps_b = repo.clauses
    assert maps_a.orc is maps_b.orc
    assert transport.orc is not maps_a.orc


def test_an_ill_formed_shared_network_is_reported_at_its_first_clause(tmp_path, capsys):
    def edit(maps):
        maps["points"]["MS2"] = {"published": ["x"], "delivered": []}

    repo = _shared_repository(tmp_path, edit)
    assert run(["solve", str(DATA / "traveller.query.json"), str(repo)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: clause 'maps-a' network is not well-formed: point MS2: incident with no hyperedge\n"
    )


def test_a_clause_without_a_network_names_the_missing_field(tmp_path, capsys):
    argv = _solve(lambda d: d["clauses"][1].pop("network"))(tmp_path)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: clause missing field: 'network'\n"


def test_a_query_without_a_network_is_named(tmp_path, capsys):
    argv = _query(lambda d: d.pop("network"))(tmp_path)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: query {argv[1]} missing field: 'network'\n"


@pytest.mark.parametrize(
    "command, message",
    [
        (_solve(lambda d: d["clauses"][0].update(network=5)),
         lambda tmp: "clause 'journey-planner' network: expected a name, got 5"),
        (_solve(lambda d: d["clauses"][0].update(network=None)),
         lambda tmp: "clause 'journey-planner' network: expected a name, got None"),
        (_solve(lambda d: d["clauses"][0].update(network="nope.json")),
         lambda tmp: f"clause 'journey-planner' network: no such file: {tmp / 'nope.json'}"),
        (_query(lambda d: d.update(network=5)),
         lambda tmp: f"query {tmp / 'edited.traveller.query.json'} network: expected a name, got 5"),
    ],
    ids=["clause-a-number", "clause-null", "clause-missing-file", "query-a-number"],
)
def test_an_unusable_network_field_names_its_clause(command, message, tmp_path, capsys):
    assert run(command(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message(tmp_path)}\n"


class _UntabledArnScheme(arn.ArnScheme):
    """The ARN scheme that decides every entailment and triviality afresh."""

    def spec_entails(self, orc, provided, required):
        if provided.point != required.point:
            return False
        return ltl.entails(provided.formula, required.formula, orc.port_of[provided.point].actions())

    def is_trivial(self, orc, spec):
        return ltl.valid(spec.formula, orc.port_of[spec.point].actions())


def _solve_commands(tmp, monkeypatch):
    """The example solve, then the benchmark's solve items: the paper's
    repository, the alternates with distractors, and one with no answer."""
    items = load_families(monkeypatch).build("resolve", tmp, 1)
    return [["solve", str(DATA / "traveller.query.json"), str(DATA / "services.repo.json")]] + [
        item.argv for item in items if item.argv[0] == "solve"
    ]


def _decision_counter(monkeypatch):
    """Count each LTL decision by its arguments."""
    calls = Counter()

    def counted(name):
        decide = getattr(ltl, name)

        def decision(*args):
            calls[(name, *args)] += 1
            return decide(*args)

        return decision

    for name in ("entails", "valid"):
        monkeypatch.setattr(ltl, name, counted(name))
    return calls


def test_a_tabled_search_prints_what_an_untabled_one_prints(tmp_path, monkeypatch, capsys):
    commands = _solve_commands(tmp_path, monkeypatch)
    assert len(commands) == 5
    for argv in commands:
        code = run(argv)
        tabled = capsys.readouterr()
        with monkeypatch.context() as m:
            m.setattr(arn, "ArnScheme", _UntabledArnScheme)
            assert run(argv) == code
        assert capsys.readouterr() == tabled


def test_a_tabled_search_decides_each_entailment_once(tmp_path, monkeypatch, capsys):
    commands = _solve_commands(tmp_path, monkeypatch)
    calls = _decision_counter(monkeypatch)
    repeated = 0
    for argv in commands:
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(arn, "ArnScheme", _UntabledArnScheme)
            run(argv)
        repeated += sum(calls.values()) - len(calls)
        calls.clear()
        run(argv)
        assert any(key[0] == "entails" for key in calls)
        assert set(calls.values()) == {1}
    capsys.readouterr()
    assert repeated > 0  # the untabled search does repeat some


def _nested_paths(value, path=()):
    """The path of every value nested in a JSON document."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, sub in items:
        yield path + (key,)
        yield from _nested_paths(sub, path + (key,))


_ONE_OF_EACH_JSON_TYPE = [None, True, 5, "x", ["x"], {"x": "y"}]


def _json_type(value):
    return "number" if type(value) in (int, float) else type(value)


@settings(max_examples=50)
@given(st.data())
def test_a_network_file_with_one_value_swapped_gets_a_verdict_or_exit_2(data):
    doc = json.loads((DATA / "mapservices.net.json").read_text())
    *parents, last = data.draw(st.sampled_from(list(_nested_paths(doc))))
    holder = doc
    for key in parents:
        holder = holder[key]
    others = [v for v in _ONE_OF_EACH_JSON_TYPE if _json_type(v) != _json_type(holder[last])]
    holder[last] = data.draw(st.sampled_from(others))
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert run(["arn", "validate", _write(Path(tmp) / "swapped.net.json", doc)]) in (0, 1, 2)


def _token_strings(tokens, openers):
    """Random strings of the given tokens, some behind a prefix that nests
    to the limit or far past it."""
    return st.builds(
        lambda depth, opener, body: opener * depth + " ".join(body),
        st.sampled_from([0, MAX_NESTING, 1500]),
        st.sampled_from(openers),
        st.lists(st.sampled_from(tokens), max_size=12),
    )


_FORMULA_TOKENS = ["(", ")", "!", "&", "|", "->", "X", "F", "G", "U", "a", "b", "true", "#"]
_SPEC_TOKENS = ["(", ")", "[", "]", ",", "!", "&", "|", "x", "y", "1", "-", "+", "*", "=", "<=", "true"]
_GUARD_TOKENS = ["(", ")", "!", "&", "|", "->", "X", "MS1.routes!", "MS1.getRoutes?", "true", "false"]


@settings(max_examples=100)
@given(
    _token_strings(_FORMULA_TOKENS, ["(", "!", "X ", "a -> ", "a U "]),
    _token_strings(_SPEC_TOKENS, ["(", "!", "[(", "x - ("]),
    _token_strings(_GUARD_TOKENS, ["(", "!", "MS1.routes! -> "]),
)
def test_the_cli_lets_no_error_escape_from_random_text(formula, spec, guard):
    doc = json.loads((DATA / "mapservices.net.json").read_text())
    doc["processes"]["MS"]["automaton"]["transitions"][2][1] = guard
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert run(["ltl", "sat", formula]) in (0, 1, 2)
        assert run(["pexpr", "check", str(DATA / "skip.pgm"), spec, "--bounds", "0..2"]) in (0, 1, 2)
        assert run(["arn", "validate", _write(Path(tmp) / "guard.net.json", doc)]) in (0, 1, 2)


def test_solve_script_replays_the_search_answer(tmp_path, capsys):
    replay = _traveller_script(
        tmp_path,
        [
            {"clause": "journey-planner", "correspondence": {"getRoute": "planJourney", "route": "directions"}},
            {"clause": "map-services"},
            {"clause": "transport-system"},
        ],
    )
    search = replay[:3]  # the same query and repository, without the script
    searched = tmp_path / "searched.json"
    assert run(search + ["--output", str(searched)]) == 0
    search_out = capsys.readouterr().out
    replayed = tmp_path / "replayed.json"
    assert run(replay + ["--output", str(replayed)]) == 0
    assert capsys.readouterr().out == search_out
    # the same trace, less the search block, which only a search has
    trace = json.loads(searched.read_text())
    assert trace.pop("search") == {"status": "exhausted", "cut": 0, "max_depth": 8}
    assert json.loads(replayed.read_text()) == trace


JP_STEP = {"clause": "journey-planner", "correspondence": {"getRoute": "planJourney", "route": "directions"}}


@pytest.mark.parametrize(
    "steps, unresolved",
    [
        ([JP_STEP], ["<R1 : G (!getRoutes? | F routes!)>", "<R2 : G (!routes? | F timetables!)>"]),
        ([], ["<R1 : G (!getRoute? | F route!)>"]),
    ],
    ids=["journey-planner-only", "no-steps"],
)
def test_solve_script_that_leaves_specs_unresolved_is_no_answer(steps, unresolved, tmp_path, capsys):
    output = tmp_path / "trace.json"
    assert run(_traveller_script(tmp_path, steps) + ["--output", str(output)]) == 1
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert "=== answer" not in out and "final orchestration" not in out
    assert lines[0] == "=== partial derivation (no answer) ==="
    assert sum(line.startswith("step ") for line in lines) == len(steps)
    assert lines[-len(unresolved) - 1 :] == [f"unresolved: {s}" for s in unresolved] + [cli.NO_REPLAY_ANSWER]
    assert json.loads(output.read_text()) == {"answers": [], "unresolved": unresolved}


def test_pexpr_derive_that_leaves_specs_unresolved_is_no_answer(tmp_path, capsys):
    data = json.loads((DATA / "division.script.json").read_text())
    del data["steps"][2:]
    script, output = _write(tmp_path / "two.script.json", data), tmp_path / "trace.json"
    assert run(["pexpr", "derive", script, "--output", str(output)]) == 1
    out = capsys.readouterr().out
    unresolved = [
        "<@1 : [x = q * y + r], [x = q * y + r] & [r < y]>",
        "<@0.0 : true, [x = q * y + x]>",
        "<@0.1 : [x = q * y + x], [x = q * y + r]>",
    ]
    assert "final program" not in out and "refinements validated" not in out
    assert out.startswith("=== partial derivation (no answer) ===\nstep 1:\n")
    assert "\nstep 2:\n" in out
    assert out.endswith("".join(f"unresolved: {s}\n" for s in unresolved) + cli.NO_REPLAY_ANSWER + "\n")
    assert json.loads(output.read_text()) == {"answers": [], "unresolved": unresolved}


def test_pexpr_check(capsys):
    assert run(["pexpr", "check", str(DATA / "skip.pgm"), "(true, true)"]) == 0
    code = run(
        [
            "pexpr",
            "check",
            str(DATA / "division.pgm"),
            "([1 <= y], [x = q * y + r] & [r < y])",
        ]
    )
    assert code == 0
    assert "holds (bounded" in capsys.readouterr().out
    assert run(["pexpr", "check", str(DATA / "division.pgm"), "(true, [x = q * y + r] & [r < y])"]) == 1


def test_pexpr_check_reads_a_bracket_that_opens_a_comparison(tmp_path, capsys):
    assert run(["pexpr", "check", str(DATA / "division.pgm"), "((x + 1) <= y, true)"]) == 0
    assert capsys.readouterr().out == "holds (bounded: 0..8, 2916 pre-states)\n"
    program = tmp_path / "p.pgm"
    program.write_text("while (q + 1) * y <= r do skip done\n")
    assert run(["pexpr", "check", str(program), "([r < y], true)"]) == 0
    assert capsys.readouterr().out == "holds (bounded: 0..8, 324 pre-states)\n"


@pytest.mark.parametrize(
    "spec, message",
    [
        ("[1 <= y], true", "expected '(' at column 1, found '['"),
        ("([1 <= y])", "expected ',' at column 10, found ')'"),
        ("([1 <= y], true, true)", "expected ')' at column 16, found ','"),
        ("([1 <= y], true) x", "expected end of input at column 18, found 'x'"),
    ],
    ids=["no-brackets", "one-condition", "three-conditions", "trailing-text"],
)
def test_a_spec_that_is_not_a_pair_exits_2(spec, message, capsys):
    assert run(["pexpr", "check", str(DATA / "skip.pgm"), spec]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_pexpr_check_decides_a_long_sequence(tmp_path, capsys):
    # a sequence is a left-nested chain of Seq nodes, one level per
    # statement; the walkers and the compiler read it with a stack
    program = tmp_path / "long.pgm"
    program.write_text(" ; ".join(["x := x + 1"] * 1000) + "\n")
    assert run(["pexpr", "check", str(program), "([x = 0], [x = 1000])"]) == 0
    assert capsys.readouterr().out == "holds (bounded: 0..8, 1 pre-states)\n"
    assert run(["pexpr", "check", str(program), "(true, [x = 1000])"]) == 1
    assert capsys.readouterr().out == "fails (witness state: x=1)\n"


def test_pexpr_check_decides_a_long_sum(capsys):
    # 900 terms: CPython's own compiler refuses expressions nested about
    # 1000 deep, so a sum of that length stays out of reach
    spec = "([x = 1], [" + " + ".join(["x"] * 900) + " = 900])"
    assert run(["pexpr", "check", str(DATA / "skip.pgm"), spec]) == 0
    assert capsys.readouterr().out == "holds (bounded: 0..8, 1 pre-states)\n"


def test_pexpr_check_enumerates_the_given_bounds(capsys):
    spec = "([1 <= y], [x = q * y + r])"
    assert run(["pexpr", "check", str(DATA / "division.pgm"), spec, "--bounds", "0..2"]) == 0
    assert capsys.readouterr().out == "holds (bounded: 0..2, 54 pre-states)\n"  # 3^3 * 2
    assert run(["pexpr", "check", str(DATA / "division.pgm"), spec]) == 0
    assert capsys.readouterr().out == "holds (bounded: 0..8, 5832 pre-states)\n"  # 9^3 * 8


def test_an_empty_bounds_range_exits_2(capsys):
    # an empty box would make every bounded check hold vacuously
    spec = "([1 <= y], [x = q * y])"
    assert run(["pexpr", "check", str(DATA / "division.pgm"), spec, "--bounds", "3..1"]) == 2
    assert run(["pexpr", "derive", str(DATA / "division.script.json"), "--bounds", "3..1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("the range is empty") == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", str(DATA / "traveller.query.json"), str(DATA / "services.repo.json"), "--max-answers", "0"],
         "argument --max-answers: must be at least 1, got 0"),
        (["solve", str(DATA / "traveller.query.json"), str(DATA / "services.repo.json"), "--max-depth", "-1"],
         "argument --max-depth: must be at least 0, got -1"),
        (["pexpr", "check", str(DATA / "division.pgm"), "([1 <= y], [x = q * y])", "--fuel", "-3"],
         "argument --fuel: must be at least 0, got -3"),
    ],
    ids=["max-answers", "max-depth", "fuel"],
)
def test_a_limit_that_makes_the_verdict_vacuous_exits_2(argv, message, capsys):
    # no answer sought, or no derivation step or loop iteration allowed
    with pytest.raises(SystemExit) as exit:
        run(argv)
    assert exit.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.rstrip().endswith(message)


def _outcome(argv):
    """The exit code, stdout and stderr of one ``main`` call; argparse exits
    through ``SystemExit``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def test_the_reused_parser_keeps_no_state_between_calls(tmp_path, monkeypatch):
    entails = ["ltl", "entails", "G (a -> F b)", "G F b | F G !a"]
    calls = [
        entails,
        ["solve"],
        ["solve", str(DATA / "traveller.query.json"), str(DATA / "services.repo.json"), "--max-answers", "0"],
        ["arn", "check", str(tmp_path / "missing.net.json"), "MS1", "G true"],
        ["pexpr", "check", str(DATA / "division.pgm"), "([1 <= y], [x = q * y + r] & [r < y])", "--bounds", "0..2"],
        entails,
    ]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(_outcome(argv))
    assert [code for code, _, _ in fresh] == [0, 2, 2, 2, 0, 0]

    built = []  # the index of the call during which each parser was constructed
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(
        argparse.ArgumentParser, "__init__", lambda self, *a, **k: built.append(len(reused)) or init(self, *a, **k)
    )
    cli.build_parser.cache_clear()
    reused = []
    for argv in calls:
        reused.append(_outcome(argv))
    assert reused == fresh
    assert built and set(built) == {0}


def test_only_pexpr_check_takes_fuel(capsys):
    # derive runs no program, so no loop iteration of it needs bounding
    with pytest.raises(SystemExit) as exit:
        run(["pexpr", "derive", str(DATA / "division.script.json"), "--fuel", "5"])
    assert exit.value.code == 2
    assert capsys.readouterr().err.rstrip().endswith("unrecognized arguments: --fuel 5")
    spec = "([1 <= y], [x = q * y + r] & [r < y])"
    assert run(["pexpr", "check", str(DATA / "division.pgm"), spec, "--fuel", "5"]) == 1
    assert capsys.readouterr().out == "inconclusive (bounded: 0..8; 243 runs out of fuel)\n"


def test_a_guard_past_the_cube_limit_exits_2(tmp_path, capsys):
    # (a1 | b1) & ... & (a13 | b13) has 2^13 cubes in disjunctive normal form
    port = arn.Port(frozenset({"r"}), frozenset(f"{c}{i}" for i in range(1, 14) for c in "ab"))
    ports = {"P1": port}
    wide = land(*(lor(Atom(f"P1.a{i}?"), Atom(f"P1.b{i}?")) for i in range(1, 14)))
    aut = MullerAutomaton(arn.qualified_signature(ports), {"q"}, (("q", wide, "q"),), {"q"}, AllNonempty())
    net = arn.Arn.make(ports, {"P": arn.Process.make(ports, aut)}, {}, {"P": {"P1"}})
    path = _write(tmp_path / "wide.net.json", cli.network_to_json(net))
    assert run(["arn", "check", path, "P1", "G F a1?"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: guard has more than {muller.MAX_CUBES} cubes in disjunctive normal form\n"


def test_a_negative_lower_bound_is_written_with_an_equals_sign(capsys):
    spec = "([1 <= y], [x = q * y])"
    assert run(["pexpr", "check", str(DATA / "division.pgm"), spec, "--bounds=-2..2"]) == 1
    assert capsys.readouterr().out.startswith("fails (witness state: q=-2,")


def _ms_automaton(edit):
    return lambda d: edit(d["processes"]["MS"]["automaton"])


def _first_transition(i, value):
    return _ms_automaton(lambda a: a["transitions"][0].__setitem__(i, value))


def _both(edit, other):
    return lambda d: (edit(d), other(d))


@pytest.mark.parametrize("command", ["validate", "check"])
@pytest.mark.parametrize(
    "edit, message",
    [
        (_ms_automaton(lambda a: a.update(initial=["nowhere"])), "initial states must be states"),
        (_first_transition(2, "nowhere"), "transition endpoint outside states: 'idle' -> 'nowhere'"),
        (_first_transition(1, "MS1.nosuch!"), "guard atoms outside signature: ['MS1.nosuch!']"),
        (_both(_first_transition(2, "nowhere"), _ms_automaton(lambda a: a.update(final={"gen-buchi": [["nosuchstate"]]}))),
         "final family names unknown states ['nosuchstate']"),
    ],
    ids=["initial", "endpoint", "guard", "family-before-endpoint"],
)
def test_decoded_automata_are_vetted(edit, message, command, tmp_path, capsys):
    net = _edited(tmp_path, "mapservices.net.json", edit)
    argv = ["arn", command, net] + (["MS1", "G !getRoutes?"] if command == "check" else [])
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad automaton: {message}\n"


@pytest.mark.parametrize(
    "final",
    [{"gen-buchi": [["nosuchstate"]]}, {"product": [[7, "all-nonempty"]]}, "implies(nosuch->idle)"],
    ids=["gen-buchi-state", "product-index", "implies-trigger"],
)
def test_final_families_must_name_states_of_their_automaton(final, tmp_path, capsys):
    net = _edited(tmp_path, "mapservices.net.json", lambda d: d["processes"]["MS"]["automaton"].update(final=final))
    assert run(["arn", "check", net, "MS1", "G !getRoutes?"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad automaton: ")
