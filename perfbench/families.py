"""Generated input families and their known answers.

Every input file is written at set-up into a fresh directory: networks through
``cli.network_to_json``, repositories, queries and derivation scripts in the
shapes ``cli.load_repository``, ``cli.load_query`` and
``cli.load_pexpr_script`` read.  Each item is one ``orcbind`` command line
plus the answer expected from how its family is built; ``check_output``
compares the captured exit code and standard output with that answer.

The seed sets item order and the random parts (distractor clauses,
repository order, which response-formula pairs are chosen).  Family sizes do
not depend on the seed.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from orcbind import arn, cli, ltl, travel
from orcbind.muller import (
    GenBuchi,
    ImpliesFamily,
    LassoTrace,
    MullerAutomaton,
    g_and,
    g_atom,
    g_not,
)
from orcbind.sigcat import ActionSignature

# ---------------------------------------------------------------------------
# Families of networks


def _relay_automaton(i: int, ports) -> MullerAutomaton:
    """Forward a request downstream, wait for the answer, pass it upstream."""
    sig = arn.qualified_signature(ports)
    req_in, rsp_in = g_atom(f"I{i}.req?"), g_atom(f"I{i}.rsp!")
    req_out, rsp_out = g_atom(f"O{i}.req!"), g_atom(f"O{i}.rsp?")
    trans = (
        ("idle", g_not(req_in), "idle"),
        ("idle", req_in, "fwd"),
        ("fwd", req_out, "wait"),
        ("wait", g_not(rsp_out), "wait"),
        ("wait", rsp_out, "reply"),
        ("reply", g_not(rsp_in), "reply"),
        ("reply", rsp_in, "idle"),
    )
    return MullerAutomaton(
        sig,
        frozenset({"idle", "fwd", "wait", "reply"}),
        trans,
        frozenset({"idle"}),
        ImpliesFamily("reply", "idle"),
    )


def relay_chain(k: int) -> arn.Arn:
    """k relays R1..Rk in a line, the last one wired to a responder S.

    The entry point is ``I1``; the dependency subnetwork of ``I1`` is the
    whole chain, whose apex signature has 4k + 2 actions.
    """
    served = arn.Port(frozenset({"rsp"}), frozenset({"req"}))
    calling = arn.Port(frozenset({"req"}), frozenset({"rsp"}))
    ports, processes, connections, incidence = {}, {}, {}, {}
    for i in range(1, k + 1):
        own = {f"I{i}": served, f"O{i}": calling}
        ports.update(own)
        processes[f"R{i}"] = arn.Process.make(own, _relay_automaton(i, own))
        incidence[f"R{i}"] = set(own)
    ports["S1"] = served
    processes["S"] = arn.Process.make(
        {"S1": served}, travel.responder_automaton("S1", "req", "rsp", {"S1": served})
    )
    incidence["S"] = {"S1"}
    for i in range(1, k + 1):
        downstream = f"I{i + 1}" if i < k else "S1"
        wiring = {"a": "req", "b": "rsp"}
        connections[f"C{i}"] = travel.connection(
            {"a", "b"}, {f"O{i}": wiring, downstream: wiring}
        )
        incidence[f"C{i}"] = {f"O{i}", downstream}
    return arn.Arn.make(ports, processes, connections, incidence)


def hub(w: int) -> arn.Arn:
    """One process H serving w request/response points H1..Hw, one request
    at a time; its signature has 2w actions."""
    served = arn.Port(frozenset({"rsp"}), frozenset({"req"}))
    ports = {f"H{i}": served for i in range(1, w + 1)}
    sig = arn.qualified_signature(ports)
    reqs = [g_atom(f"H{i}.req?") for i in range(1, w + 1)]
    no_req = g_and(*(g_not(r) for r in reqs))
    trans = [("idle", no_req, "idle")]
    for i in range(1, w + 1):
        others = g_and(*(g_not(r) for j, r in enumerate(reqs, start=1) if j != i))
        rsp = g_atom(f"H{i}.rsp!")
        trans += [
            ("idle", g_and(reqs[i - 1], others), f"owe{i}"),
            (f"owe{i}", g_and(g_not(rsp), no_req), f"owe{i}"),
            (f"owe{i}", g_and(rsp, no_req), "idle"),
        ]
    states = frozenset({"idle"} | {f"owe{i}" for i in range(1, w + 1)})
    aut = MullerAutomaton(
        sig, states, tuple(trans), frozenset({"idle"}), GenBuchi((frozenset({"idle"}),))
    )
    return arn.Arn.make(ports, {"H": arn.Process.make(ports, aut)}, {}, {"H": set(ports)})


# ---------------------------------------------------------------------------
# Items and known answers


@dataclass
class Item:
    """One command line and the answer its family is built to give."""

    name: str
    family: str
    size: int
    argv: list[str]
    code: int
    kind: str  # which output check applies
    expect: dict = field(default_factory=dict)


RESPONSE = "G({a}? -> F {b}!)"


def response(a: str, b: str) -> str:
    return RESPONSE.format(a=a, b=b)


_LETTER = re.compile(r"\{([^{}]*)\}")


def parse_lasso(text: str, signature: ActionSignature) -> LassoTrace:
    """Inverse of ``ltl.render_lasso``: ``{a} {} ({b,c} {})^w``."""
    head, _, tail = text.partition("(")
    cycle_text = tail.rsplit(")^w", 1)[0]

    def letters(part):
        return tuple(
            frozenset(x for x in body.split(",") if x) for body in _LETTER.findall(part)
        )

    return LassoTrace(signature, letters(head), letters(cycle_text))


def _lasso_line(out: str) -> str | None:
    for line in out.splitlines():
        if line.startswith("counterexample trace: "):
            return line[len("counterexample trace: ") :]
    return None


def check_output(item: Item, code: int, out: str) -> str | None:
    """None when the output matches the known answer, else the difference."""
    if code != item.code:
        return f"exit code {code}, expected {item.code}"
    e = item.expect
    if item.kind == "arn-holds":
        if out.strip() != f"holds: {e['spec']}":
            return f"verdict line {out.strip()!r}"
    elif item.kind == "arn-fails":
        lines = out.splitlines()
        if not lines or lines[0] != f"fails: {e['spec']}":
            return f"verdict line {lines[:1]!r}"
        lasso = _lasso_line(out)
        if lasso is None:
            return "no counterexample printed"
        trace = parse_lasso(lasso, ActionSignature(frozenset(e["actions"])))
        if not ltl.sat_lasso(trace, ltl.lnot(ltl.parse_formula(e["formula"]))):
            return f"counterexample {lasso!r} satisfies the formula"
    elif item.kind == "solve":
        got = set()
        for block in out.split("=== answer ")[1:]:
            got.add(tuple(re.findall(r"^\s+<.*\[([\w-]+)\]$", block, re.M)))
        if got != e["answers"]:
            return f"answers {sorted(got)} != {sorted(e['answers'])}"
        if not e["answers"] and "no answer within limits" not in out:
            return "missing 'no answer' line"
    elif item.kind == "entails":
        lines = out.splitlines()
        want = "yes" if item.code == 0 else "no"
        if not lines or lines[0] != want:
            return f"verdict {lines[:1]!r}"
        if want == "no":
            lasso = _lasso_line(out)
            if lasso is None:
                return "no counterexample printed"
            f1, f2 = (ltl.parse_formula(x) for x in e["formulas"])
            sig = ActionSignature(ltl.atoms_of(f1) | ltl.atoms_of(f2))
            if not ltl.sat_lasso(parse_lasso(lasso, sig), ltl.land(f1, ltl.lnot(f2))):
                return f"counterexample {lasso!r} does not separate the formulas"
    elif item.kind == "derive":
        lines = out.splitlines()
        if e["program"] not in lines or e["bounds_line"] not in lines:
            return "final program or bounds line differs"
    elif item.kind == "pexpr-check":
        if out.strip() != e["line"]:
            return f"verdict line {out.strip()!r}"
    else:
        raise ValueError(item.kind)
    return None


# ---------------------------------------------------------------------------
# Workloads

GROUND_JP = "journey_planner_ground.net.json"
RHO_MS, RHO_TS, RHO_JP = (ltl.render_formula(f) for f in (travel.RHO_MS, travel.RHO_TS, travel.RHO_JP))
JP_WEAK = "G(planJourney? -> F(directions! | planJourney?))"


def _write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return str(path)


def _net_file(root: Path, name: str, net: arn.Arn) -> str:
    return _write_json(root / name, cli.network_to_json(net))


def _point_actions(net: arn.Arn, point: str) -> list[str]:
    return sorted(net.port_of[point].actions().actions)


def _check_item(name, family, size, path, net, point, formula, holds) -> Item:
    spec = arn.ArnSpec(point, ltl.parse_formula(formula)).render()
    expect = {"spec": spec, "formula": formula, "actions": _point_actions(net, point)}
    return Item(
        name,
        family,
        size,
        ["arn", "check", path, point, formula],
        0 if holds else 1,
        "arn-holds" if holds else "arn-fails",
        expect,
    )


# Known crash: observed behaviour over a dependency subnetwork with 14 or
# more apex actions raises ValueError inside muller.reduct (it sorts edge
# masks by repr, and a mask of 2^14 bits exceeds the int-to-str digit limit).
# Hubs w >= 7 are still expected to hold; they count as failed until fixed.
# A holding chain k = 2 takes about 18 s and k = 3 reaches the crash only
# after about 135 s: under the limit both could only time out, and how far a
# timed-out item gets sets peak memory by host speed, so they are left out.
HUB_WIDTHS = tuple(range(1, 10))
HOLDS_CHAINS = (1,)
# The failing items stay below the crash: arn-holds keeps it visible.
FAILS_CHAINS = (1, 2)
FAILS_HUB_WIDTHS = (4, 5, 6)


def arn_holds_items(root: Path) -> list[Item]:
    ground = travel.journey_planner_ground_net()
    path = _net_file(root, GROUND_JP, ground)
    items = [
        _check_item("jp-JP1", "journey-planner", 3, path, ground, "JP1", RHO_JP, True),
        # weaker than RHO_JP, so it holds too; its emptiness check is as large
        _check_item("jp-JP1-weak", "journey-planner", 3, path, ground, "JP1", JP_WEAK, True),
        _check_item("jp-JP1-live", "journey-planner", 3, path, ground, "JP1", "G F true", True),
        _check_item("jp-MS1", "journey-planner", 3, path, ground, "MS1", RHO_MS, True),
        _check_item("jp-TS1", "journey-planner", 3, path, ground, "TS1", RHO_TS, True),
    ]
    for k in HOLDS_CHAINS:
        net = relay_chain(k)
        p = _net_file(root, f"chain{k}.net.json", net)
        items.append(_check_item(f"chain-{k}", "chain", k, p, net, "I1", response("req", "rsp"), True))
    for w in HUB_WIDTHS:
        net = hub(w)
        p = _net_file(root, f"hub{w}.net.json", net)
        items.append(_check_item(f"hub-{w}", "hub", w, p, net, "H1", response("req", "rsp"), True))
    return items


def arn_fails_items(root: Path) -> list[Item]:
    ground = travel.journey_planner_ground_net()
    path = _net_file(root, GROUND_JP, ground)
    # every action at each point can happen, so "never a" fails for each
    never = (
        ("JP1", "planJourney?", ""),
        ("JP1", "directions!", "-reply"),
        ("MS1", "getRoutes?", ""),
        ("MS1", "routes!", "-reply"),
        ("TS1", "routes?", ""),
        ("TS1", "timetables!", "-reply"),
    )
    items = [
        _check_item(f"jp-{point}{suffix}", "journey-planner", 3, path, ground, point, f"G !{a}", False)
        for point, a, suffix in never
    ]
    for k in FAILS_CHAINS:
        net = relay_chain(k)
        p = _net_file(root, f"chain{k}.net.json", net)
        items.append(_check_item(f"chain-{k}", "chain", k, p, net, "I1", "G !req?", False))
        if k == 1:
            items.append(_check_item("chain-1-reply", "chain", k, p, net, "I1", "G !rsp!", False))
    for w in FAILS_HUB_WIDTHS:
        net = hub(w)
        p = _net_file(root, f"hub{w}.net.json", net)
        items.append(_check_item(f"hub-{w}", "hub", w, p, net, "H1", "G !req?", False))
    return items


# -- resolve: solve, ltl entails, pexpr derive/check -------------------------

JP_HINT = {"correspondence": {"getRoute": "planJourney", "route": "directions"}}


def _clause(name, network, point, formula, requires=(), hints=()):
    data = {"name": name, "network": network, "provides": {"point": point, "formula": formula}}
    if requires:
        data["requires"] = [{"point": x, "formula": f} for x, f in requires]
    if hints:
        data["hints"] = list(hints)
    return data


def _distractor(kind: str, i: int) -> dict:
    """A clause that never completes an answer: either its port matches no
    requirement, or it provides a weaker spec whose entailment check fails."""
    if kind == "quotes":
        return _clause(f"quotes-{i}", "quotes.net.json", "QS1", response("getQuotes", "quotes"))
    if kind == "lazy-maps":
        return _clause(f"lazy-maps-{i}", "ms.net.json", "MS1", f"({RHO_MS}) | F routes!")
    if kind == "lazy-transport":
        return _clause(f"lazy-transport-{i}", "ts.net.json", "TS1", f"({RHO_TS}) | F timetables!")
    if kind == "lazy-planner":
        return _clause(
            f"lazy-planner-{i}",
            "journey_planner.net.json",
            "JP1",
            f"({RHO_JP}) | F directions!",
            requires=(("R1", RHO_MS), ("R2", RHO_TS)),
            hints=(JP_HINT,),
        )
    raise ValueError(kind)


DISTRACTOR_KINDS = ("quotes", "lazy-maps", "lazy-transport", "lazy-planner")
# (name, map-services alternates, transport-system alternates, distractors)
SOLVE_CASES = (
    ("paper", 1, 1, 0),
    ("alt-2-2-5", 2, 2, 5),
    ("alt-3-3-10", 3, 3, 10),
    ("no-transport", 2, 0, 5),
)


def _repository(rng: random.Random, n_ms: int, n_ts: int, n_distract: int):
    clauses = [
        _clause(
            "journey-planner",
            "journey_planner.net.json",
            "JP1",
            RHO_JP,
            requires=(("R1", RHO_MS), ("R2", RHO_TS)),
            hints=(JP_HINT,),
        )
    ]
    ms = [f"map-services-{i}" if i else "map-services" for i in range(n_ms)]
    ts = [f"transport-system-{i}" if i else "transport-system" for i in range(n_ts)]
    clauses += [_clause(n, "ms.net.json", "MS1", RHO_MS) for n in ms]
    clauses += [_clause(n, "ts.net.json", "TS1", RHO_TS) for n in ts]
    # the kinds take turns, so the seed changes the order, not the mix
    clauses += [
        _distractor(DISTRACTOR_KINDS[i % len(DISTRACTOR_KINDS)], i) for i in range(n_distract)
    ]
    rng.shuffle(clauses)
    answers = {("journey-planner", m, t) for m in ms for t in ts}
    return {"scheme": "arn", "clauses": clauses}, answers


def _quotes_net() -> arn.Arn:
    port = arn.Port(frozenset({"quotes"}), frozenset({"getQuotes"}))
    aut = travel.responder_automaton("QS1", "getQuotes", "quotes", {"QS1": port})
    return arn.Arn.make({"QS1": port}, {"QS": arn.Process.make({"QS1": port}, aut)}, {}, {"QS": {"QS1"}})


def solve_items(root: Path, rng: random.Random) -> list[Item]:
    _net_file(root, "journey_planner.net.json", travel.journey_planner_net())
    _net_file(root, "ms.net.json", travel.ms_net())
    _net_file(root, "ts.net.json", travel.ts_net())
    _net_file(root, "quotes.net.json", _quotes_net())
    _net_file(root, "traveller.net.json", travel.traveller_net())
    query = _write_json(
        root / "traveller.query.json",
        {
            "scheme": "arn",
            "network": "traveller.net.json",
            "requires": [{"point": "R1", "formula": ltl.render_formula(travel.RHO_T1)}],
        },
    )
    items = []
    for name, n_ms, n_ts, n_distract in SOLVE_CASES:
        data, answers = _repository(rng, n_ms, n_ts, n_distract)
        repo = _write_json(root / f"{name}.repo.json", data)
        items.append(
            Item(
                f"solve-{name}",
                "solve",
                len(data["clauses"]),
                ["solve", query, repo],
                0 if answers else 1,
                "solve",
                {"answers": answers},
            )
        )
    return items


# request and response atoms are drawn without replacement, so every item
# has the same formula shape whatever the seed
ATOMS = tuple(f"{p}{i}" for p in "abcdefgh" for i in range(3))
# (width of the conjunction, instances): a "yes" explores the whole tableau,
# a "no" stops at the first lasso, so its time depends on search order and
# the seed's atom names; the width-2 "yes" instances hold the tail
ENTAILS_CASES = ((1, "yes", 1), (1, "no", 2), (2, "yes", 4), (2, "no", 1))


def entails_items(rng: random.Random) -> list[Item]:
    items = []
    for width, answer, instances in ENTAILS_CASES:
        for n in range(instances):
            a = rng.sample(ATOMS, 2 * width + 1)
            pairs = [(a[2 * i], a[2 * i + 1]) for i in range(width)]
            conj = " & ".join(f"({response(x, y)})" for x, y in pairs)
            if answer == "yes":
                f2 = response(*rng.choice(pairs))
            elif width == 2:
                f2 = response(pairs[0][0], pairs[1][1])
            else:
                f2 = response(pairs[0][0], a[-1])
            items.append(
                Item(
                    f"entails-{width}-{answer}-{n}",
                    "entails",
                    width,
                    ["ltl", "entails", conj, f2],
                    0 if answer == "yes" else 1,
                    "entails",
                    {"formulas": (conj, f2)},
                )
            )
    return items


DIVISION = "q := 0 ; r := x ; while y <= r do q := q + 1 ; r := r - y done"
DIVISION_STEPS = [
    {"module": "seq", "spec": 0, "pre": "true", "mid": "[x = q * y + r]", "post": "[x = q * y + r] & [r < y]"},
    {"module": "seq", "spec": 0, "pre": "true", "mid": "[x = q * y + x]", "post": "[x = q * y + r]"},
    {"module": "assign", "spec": 1, "target": "q", "expr": "0", "shape": "[x = v * y + x]"},
    {"module": "assign", "spec": 1, "target": "r", "expr": "x", "shape": "[x = q * y + v]"},
    {"module": "while", "spec": 0, "cond": "[y <= r]", "invariant": "[x = q * y + r]"},
    {
        "module": "seq",
        "spec": 0,
        "pre": "[x = (q + 1) * y + (r - y)]",
        "mid": "[x = q * y + (r - y)]",
        "post": "[x = q * y + r]",
    },
    {"module": "assign", "spec": 0, "target": "q", "expr": "q + 1", "shape": "[x = v * y + (r - y)]"},
    {"module": "assign", "spec": 0, "target": "r", "expr": "r - y", "shape": "[x = q * y + v]"},
]
DERIVE_BOUNDS = (8, 10, 12)
# Known defect: ``--bounds`` has no effect on ``pexpr check`` or ``pexpr
# derive``.  ``cli._DefaultBounds`` is an empty dict, and ``bounds or {}`` in
# ``check_ground_property`` and ``PexprScheme`` replaces it by ``{}``, so the
# oracle always uses 0..8.  ``pexpr check --bounds 0..10`` prints 5832
# pre-states where 11^3 * 10 = 13310 are due.  The derive items still pass
# 0..10 and 0..12; their output (the final program) is right, and the traced
# ``pexpr.states_enumerated`` and the per-item times stay flat over the bound.


def division_witness(hi: int, post) -> dict | None:
    """First pre-state (in the oracle's name-sorted enumeration) from which
    the division program, run natively, violates ``post``; y >= 1 assumed."""
    span = range(0, hi + 1)
    for q0 in span:
        for r0 in span:
            for x in span:
                for y in span:
                    if y < 1:
                        continue
                    q, r = 0, x
                    while y <= r:
                        q, r = q + 1, r - y
                    if not post(x, y, q, r):
                        return {"q": q0, "r": r0, "x": x, "y": y}
    return None


def pexpr_items(root: Path) -> list[Item]:
    script = _write_json(
        root / "division.script.json",
        {
            "scheme": "pexpr",
            "variables": ["t"],
            "term": "t",
            "requires": [{"at": [], "pre": "[1 <= y]", "post": "[x = q * y + r] & [r < y]"}],
            "steps": DIVISION_STEPS,
        },
    )
    items = [
        Item(
            f"derive-0..{hi}",
            "derive",
            hi,
            ["pexpr", "derive", script, "--bounds", f"0..{hi}"],
            0,
            "derive",
            {
                "program": f"final program: {DIVISION}",
                "bounds_line": f"(refinements validated with the bounded oracle over 0..{hi})",
            },
        )
        for hi in DERIVE_BOUNDS
    ]
    program = root / "division.pgm"
    program.write_text(DIVISION + "\n")
    # The oracle's default bounds: q, r, x, y over 0..8; the precondition drops
    # y = 0.  (``--bounds`` is not passed: the program ignores it, see the note
    # at DERIVE_BOUNDS.)
    hi = 8
    holding = f"holds (bounded: 0..{hi}, {(hi + 1) ** 3 * hi} pre-states)"
    w = division_witness(hi, lambda x, y, q, r: x == q * y)
    failing = "fails (witness state: " + ", ".join(f"{k}={v}" for k, v in sorted(w.items())) + ")"
    for label, post, code, line in (
        ("holds", "[x = q * y + r] & [r < y]", 0, holding),
        ("fails", "[x = q * y]", 1, failing),
    ):
        items.append(
            Item(
                f"check-{label}",
                "check",
                hi,
                ["pexpr", "check", str(program), f"([1 <= y], {post})"],
                code,
                "pexpr-check",
                {"line": line},
            )
        )
    return items


def resolve_items(root: Path, rng: random.Random) -> list[Item]:
    return solve_items(root, rng) + entails_items(rng) + pexpr_items(root)


WORKLOADS = {
    "arn-holds": lambda root, rng: arn_holds_items(root),
    "arn-fails": lambda root, rng: arn_fails_items(root),
    "resolve": resolve_items,
}


def build(workload: str, root: Path, seed: int) -> list[Item]:
    """Write the workload's input files under ``root``; items in seed order."""
    rng = random.Random(seed)
    items = WORKLOADS[workload](root, rng)
    rng.shuffle(items)
    return items
