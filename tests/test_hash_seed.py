"""Output does not depend on the interpreter's string-hash seed, and guards
with temporal operators are rejected at load time."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orcbind.cli import network_to_json
from test_benchmark_contract import load_families

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "examples" / "data"

COMMANDS = [
    ["ltl", "sat", "F(a & X b) & G(c -> X !a)"],
    ["ltl", "entails", "G(a? -> F b!) & G(c? -> F d!) & F(a? & X c?)", "G(a? -> F d!)"],
    [
        "arn",
        "check",
        str(DATA / "journeyplannernet.net.json"),
        "JP1",
        "G(planJourney? -> X X !directions!)",
    ],
    ["solve", str(DATA / "traveller.query.json"), str(DATA / "services.repo.json")],
]


def cli(argv, seed="0"):
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "orcbind.cli", *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("argv", COMMANDS, ids=["ltl-sat", "ltl-entails", "arn-check", "solve"])
def test_stdout_is_the_same_under_every_hash_seed(argv):
    runs = [cli(argv, seed=str(seed)) for seed in range(4)]
    assert [r.returncode for r in runs] == [runs[0].returncode] * 4
    assert runs[0].stdout
    assert [r.stdout for r in runs] == [runs[0].stdout] * 4


@pytest.mark.parametrize("family, size, point", [("relay_chain", 2, "I1"), ("hub", 4, "H1")])
def test_failing_generated_network_check_is_the_same_under_every_hash_seed(
    family, size, point, tmp_path, monkeypatch
):
    net = getattr(load_families(monkeypatch), family)(size)
    path = tmp_path / f"{family}{size}.net.json"
    path.write_text(json.dumps(network_to_json(net), indent=2) + "\n")
    runs = [cli(["arn", "check", str(path), point, "G !req?"], seed=str(seed)) for seed in range(4)]
    assert [r.returncode for r in runs] == [1] * 4
    assert "counterexample trace:" in runs[0].stdout
    assert [r.stdout for r in runs] == [runs[0].stdout] * 4


def test_solve_over_shared_generated_networks_is_the_same_under_every_hash_seed(tmp_path, monkeypatch):
    # the benchmark's repository of 2 + 2 alternates and 5 distractors writes
    # its networks with network_to_json; its 10 clauses name 4 files
    [item] = [i for i in load_families(monkeypatch).build("resolve", tmp_path, 1) if i.name == "solve-alt-2-2-5"]
    runs = [cli(item.argv, seed=str(seed)) for seed in range(4)]
    assert [r.returncode for r in runs] == [0] * 4
    assert "=== answer 4 ===" in runs[0].stdout
    assert [r.stdout for r in runs] == [runs[0].stdout] * 4


def test_network_with_a_temporal_guard_exits_2(tmp_path):
    data = json.loads((DATA / "mapservices.net.json").read_text())
    transitions = data["processes"]["MS"]["automaton"]["transitions"]
    transitions[0][1] = "X MS1.routes!"
    bad = tmp_path / "temporal-guard.net.json"
    bad.write_text(json.dumps(data))
    result = cli(["arn", "check", str(bad), "MS1", "true"])
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: bad automaton: temporal operators are not allowed in guards\n"
