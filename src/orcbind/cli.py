"""Command-line front end and the JSON file formats.

Exit codes are a stable contract: 0 for success or a positive verdict, 1 for
a negative verdict or no answer, 2 for unusable input.  A scripted
derivation step that no unifier binds is a negative answer (exit 1), and so
is a replay whose steps leave specs ``engine.unresolved``.  Input
is unusable when the library raises ``orcbind.InputError``: the parsers
raise it for unparsable text and for text nested deeper than
``orcbind.MAX_NESTING``, ``arn`` for a network, point or formula unfit
for a check, ``muller`` for a guard whose disjunctive normal form has more
than ``muller.MAX_CUBES`` cubes, ``engine`` for a step naming a missing
clause or spec and for repeated clause names, and this module for broken
files (JSON nested too deeply for the decoder among them), for an
``--output`` path it cannot write (``_json_writer``) and for
JSON shapes it cannot decode, from a whole file down to one name
(``_decoding``); ``main`` maps it to exit code 2.  A limit that would make
a verdict vacuous (``--max-answers`` below 1, ``--max-depth`` or ``--fuel``
below 0) exits 2 from argument parsing (``_at_least``), as an empty
``--bounds`` range exits 2 from ``parse_bounds``.
Verdicts produced by bounded oracles are printed with an explicit
``bounded`` qualifier.

Transition guards in automaton JSON are written in the formula syntax of
``ltl`` and must not use ``X`` or ``U``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from . import FrozenMap, InputError, arn, engine, ltl, pexpr
from .engine import Answer, Clause, DerivationFailed, Query, Repository, solve, solve_scripted
from .muller import (
    AllNonempty,
    Explicit,
    FinalFamily,
    GenBuchi,
    ImpliesFamily,
    MullerAutomaton,
    ProductFamily,
    check_automaton,
)
from .sigcat import ActionSignature

# ---------------------------------------------------------------------------
# Decoding JSON shapes


@contextmanager
def _decoding(what: str, prefixed=()):
    """Read a JSON shape: a field that is missing, of the wrong type or
    naming nothing is unusable input, reported as ``WHAT: reason``.  An
    ``InputError`` raised inside passes through as it is, unless it is one
    of the ``prefixed`` types."""
    try:
        yield
    except prefixed as e:
        raise InputError(f"{what}: {e}") from e
    except InputError:
        raise
    except (AttributeError, LookupError, RecursionError, TypeError, ValueError) as e:
        raise InputError(f"{what}: {e}") from e  # RecursionError: a state nested too deeply


def _name(value) -> str:
    """A point, clause or message name, which is a JSON string."""
    if isinstance(value, str):
        return value
    raise TypeError(f"expected a name, got {value!r}")


def _integer(value) -> int:
    """A JSON integer; ``true`` and ``false`` are not integers."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"expected an integer, got {value!r}")


def _names(values) -> frozenset[str]:
    """A JSON list of names."""
    if isinstance(values, list):
        return frozenset(map(_name, values))
    raise TypeError(f"expected a list of names, got {values!r}")


# ---------------------------------------------------------------------------
# Automaton JSON


def _state_to_json(q):
    if isinstance(q, tuple):
        return [_state_to_json(x) for x in q]
    return q


def _state_from_json(q):
    if isinstance(q, list):
        return tuple(_state_from_json(x) for x in q)
    return q


def family_to_json(f: FinalFamily):
    if isinstance(f, AllNonempty):
        return "all-nonempty"
    if isinstance(f, ImpliesFamily):
        return f"implies({f.trigger}->{f.required})"
    if isinstance(f, Explicit):
        return sorted(
            (sorted(map(_state_to_json, s), key=repr) for s in f.sets), key=repr
        )
    if isinstance(f, GenBuchi):
        return {"gen-buchi": [sorted(map(_state_to_json, s), key=repr) for s in f.sets]}
    if isinstance(f, ProductFamily):
        return {"product": [[i, family_to_json(sub)] for i, sub in f.parts]}
    raise InputError(f"unserializable final family {f!r}")


def family_from_json(data) -> FinalFamily:
    if data == "all-nonempty":
        return AllNonempty()
    if isinstance(data, str) and data.startswith("implies(") and data.endswith(")"):
        body = data[len("implies(") : -1]
        if "->" not in body:
            raise InputError(f"malformed implies family: {data!r}")
        trigger, required = body.split("->", 1)
        return ImpliesFamily(trigger.strip(), required.strip())
    if isinstance(data, list):
        return Explicit(frozenset(frozenset(map(_state_from_json, s)) for s in data))
    if isinstance(data, dict) and "gen-buchi" in data:
        return GenBuchi(tuple(frozenset(map(_state_from_json, s)) for s in data["gen-buchi"]))
    if isinstance(data, dict) and "product" in data:
        return ProductFamily(tuple((i, family_from_json(sub)) for i, sub in data["product"]))
    raise InputError(f"unrecognized final family: {data!r}")


def automaton_to_json(a: MullerAutomaton):
    return {
        "actions": sorted(a.signature.actions),
        "states": sorted(map(_state_to_json, a.states), key=repr),
        "initial": sorted(map(_state_to_json, a.initial), key=repr),
        "transitions": [
            [_state_to_json(src), ltl.render_formula(g), _state_to_json(dst)]
            for src, g, dst in a.transitions
        ],
        "final": family_to_json(a.final),
    }


def automaton_from_json(data) -> MullerAutomaton:
    with _decoding("bad automaton", ltl.FormulaSyntaxError):
        sig = ActionSignature(frozenset(data["actions"]))
        keywords = sorted(sig.actions & ltl.KEYWORDS)
        if keywords:  # a guard could not name it, and a rendered guard would not read back
            raise ValueError(f"the action {keywords[0]!r} is a keyword of formulas")
        states = frozenset(map(_state_from_json, data["states"]))
        initial = frozenset(map(_state_from_json, data["initial"]))
        transitions = tuple(
            (_state_from_json(src), ltl.parse_formula(g), _state_from_json(dst))
            for src, g, dst in data["transitions"]
        )
        final = family_from_json(data["final"])
        final.check_states(states)
        automaton = MullerAutomaton(sig, states, transitions, initial, final)
        check_automaton(automaton)
        return automaton


# ---------------------------------------------------------------------------
# Network JSON


def port_to_json(p: arn.Port):
    return {"published": sorted(p.published), "delivered": sorted(p.delivered)}


def port_from_json(data) -> arn.Port:
    return arn.Port(_names(data.get("published", [])), _names(data.get("delivered", [])))


def network_to_json(n: arn.Arn):
    return {
        "points": {x: port_to_json(p) for x, p in n.port_of.items()},
        "processes": {
            name: {"points": sorted(proc.points), "automaton": automaton_to_json(proc.automaton)}
            for name, proc in n.process_of.items()
        },
        "connections": {
            name: {
                "points": sorted(n.incidence_of[name]),
                "messages": sorted(conn.messages),
                "automaton": automaton_to_json(conn.automaton),
                "attachments": conn.attachment_of,
            }
            for name, conn in n.connection_of.items()
        },
    }


def network_from_json(data) -> arn.Arn:
    with _decoding("bad network"):
        ports = {x: port_from_json(p) for x, p in data.get("points", {}).items()}
        processes = {}
        incidence = {}
        for name, pd in data.get("processes", {}).items():
            points = _names(pd["points"])
            proc_ports = {x: ports[x] for x in points if x in ports}
            automaton = automaton_from_json(pd["automaton"])
            processes[name] = arn.Process(proc_ports, automaton)
            incidence[name] = points
        connections = {}
        for name, cd in data.get("connections", {}).items():
            connections[name] = arn.Connection(
                _names(cd["messages"]),
                automaton_from_json(cd["automaton"]),
                {x: {m: _name(pm) for m, pm in mu.items()} for x, mu in cd.get("attachments", {}).items()},
            )
            incidence[name] = _names(cd["points"])
        return arn.Arn(ports, processes, connections, incidence)


def spec_from_json(data) -> arn.ArnSpec:
    with _decoding("bad spec", ltl.FormulaSyntaxError):
        return arn.ArnSpec(_name(data["point"]), ltl.parse_formula(data["formula"]))


# ---------------------------------------------------------------------------
# Repository / query / script files


def _read_text(path: Path) -> str:
    """A file's text; a file that is missing, unreadable or not UTF-8 text
    is unusable input."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError as e:
        raise InputError(f"no such file: {path}") from e
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from e


def _json_writer(text: str | None):
    """The writer of ``--output`` JSON to the path ``text``, or None without
    one.  A directory, or a path whose parent is not a directory, is unusable
    input before any work; so is a write that fails."""
    if text is None:
        return None
    path = Path(text)
    if path.is_dir():
        raise InputError(f"{path}: is a directory")
    if not path.parent.is_dir():
        raise InputError(f"{path}: no such directory: {path.parent}")

    def write(data):
        try:
            path.write_text(json.dumps(data, indent=2) + "\n")
        except OSError as e:
            raise InputError(f"{path}: {e.strerror or e}") from e

    return write


def _load_json(path: Path) -> dict:
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: {e}") from e
    except RecursionError as e:  # the decoder recurses once per bracket
        raise InputError(f"{path}: JSON nested too deeply") from e
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object")
    return data


def _network_ref(data, base: Path, loaded: dict, what: str) -> arn.Arn:
    """The network that ``data`` names by a path relative to ``base``; a
    missing ``network`` field raises ``KeyError``, and a field that is no
    name or a file that gives no network is reported as ``WHAT network:
    reason``.  ``loaded`` holds the networks built so far by path, so each
    file is read and built once."""
    ref = data["network"]
    with _decoding(f"{what} network", InputError):
        path = base / _name(ref)
        if path not in loaded:
            loaded[path] = network_from_json(_load_json(path))
    return loaded[path]


def load_network(path: Path) -> arn.Arn:
    return network_from_json(_load_json(path))


def load_repository(path: Path) -> Repository:
    data = _load_json(path)
    if data.get("scheme", "arn") != "arn":
        raise InputError("only arn-scheme repositories are file-loadable")
    base = path.parent
    clauses = []
    networks = {}  # clauses that name one file share its network
    with _decoding("bad repository"):
        for cd in data.get("clauses", ()):
            try:
                name = _name(cd["name"])
                clauses.append(
                    Clause(
                        name,
                        _network_ref(cd, base, networks, f"clause {name!r}"),
                        spec_from_json(cd["provides"]),
                        tuple(spec_from_json(r) for r in cd.get("requires", ())),
                        hints=tuple(map(_repository_hint, cd.get("hints", ()))),
                    )
                )
            except KeyError as e:
                raise InputError(f"clause missing field: {e}") from e
    return Repository(tuple(clauses))


def _hint(data) -> FrozenMap:
    """The correspondence ``{message: message}`` of a repository hint or a
    script step, each a JSON object with a ``correspondence`` field."""
    return FrozenMap({m: _name(pm) for m, pm in data["correspondence"].items()})


def _repository_hint(data) -> FrozenMap:
    with _decoding(f"bad hint {data!r}"):
        return _hint(data)


def load_query(path: Path) -> Query:
    data = _load_json(path)
    if data.get("scheme", "arn") != "arn":
        raise InputError("only arn-scheme queries are file-loadable")
    with _decoding("bad query"):
        try:
            net = _network_ref(data, path.parent, {}, f"query {path}")
        except KeyError as e:
            raise InputError(f"query {path} missing field: {e}") from e
        return Query(net, tuple(spec_from_json(s) for s in data.get("requires", ())))


_DEFAULT_BOUNDS = "{}..{}".format(*pexpr.BOUNDS)
_BOUNDS_HELP = (
    f"range LO..HI of every variable (default {_DEFAULT_BOUNDS}); "
    "write a negative bound with '=', as --bounds=-2..2"
)


def _at_least(low: int):
    """An argparse ``type``: an integer of at least ``low``.  A smaller
    limit (no answer sought, a negative depth or fuel) would make the verdict
    say nothing, so it is refused."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def parse_bounds(text: str) -> tuple[int, int]:
    """``LO..HI`` as a pair; an empty range would make every bounded check
    hold vacuously, so it is refused."""
    try:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
    except ValueError as e:
        raise InputError(f"bad bounds {text!r}, expected LO..HI") from e
    if lo > hi:
        raise InputError(f"bad bounds {text!r}: the range is empty")
    return lo, hi


def load_pexpr_script(path: Path):
    data = _load_json(path)
    if data.get("scheme") != "pexpr":
        raise InputError("derivation scripts must declare scheme: pexpr")
    with _decoding("bad derivation script", pexpr.ProgramSyntaxError):
        variables = tuple(data.get("variables", ()))
        term = pexpr.parse_program(data["term"], variables)
        requires = tuple(
            pexpr.PSpec(
                _position(s.get("at", []), term),
                pexpr.parse_condition(s["pre"]),
                pexpr.parse_condition(s["post"]),
            )
            for s in data["requires"]
        )
        steps = data["steps"]
    return term, requires, decode_steps(steps, pexpr_step)


def _position(value, term) -> pexpr.Position:
    """A position of the term, which is a JSON list of integers."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list of integers, got {value!r}")
    pos = tuple(map(_integer, value))
    pexpr.subterm_at(term, pos)
    return pos


def decode_steps(steps, decode) -> list:
    """Script steps as ``(clause, spec_index, hint)`` triples, each read by
    the scheme's ``decode``; a step it cannot read is unusable input."""
    if not isinstance(steps, list):
        raise InputError(f"bad steps {steps!r}: expected a JSON list")
    triples = []
    for step in steps:
        with _decoding(f"bad step {step!r}", InputError):
            if not isinstance(step, dict):
                raise TypeError("expected a JSON object")
            triples.append(decode(step))
    return triples


def pexpr_step(step: dict):
    """A Hoare-module step: ``expr`` is an expression, the condition fields
    are conditions, and every other field passes through as written;
    ``pexpr.hoare_module`` decides which kinds exist and what each needs."""
    params = {}
    for key, value in step.items():
        if key == "expr":
            value = pexpr.parse_aexp(value)
        elif key in ("pre", "mid", "post", "cond", "invariant", "shape"):
            value = pexpr.parse_condition(value)
        elif key == "target":
            value = _name(value)
        params[key] = value
    return pexpr.hoare_module(step["module"], params), _integer(step.get("spec", 0)), None


def arn_step(step: dict, repository: Repository):
    """A repository clause by name, with an optional correspondence hint."""
    hint = _hint(step) if "correspondence" in step else None
    return repository.clause(step["clause"]), _integer(step.get("spec", 0)), hint


# ---------------------------------------------------------------------------
# Trace rendering


def render_step(index: int, step) -> str:
    clause_line = f"{step.clause_name}"
    left = f"<{step.unifier.theta1.source.render()} | {step.selected.render()}>"
    right = f"[{clause_line}]"
    top = f"{left}   x   {right}"
    morphism = f"theta1 = {step.unifier.theta1.render()}"
    bar = "-" * max(len(top), 24)
    derived = ", ".join(s.render() for s in step.derived.requires) or "(empty)"
    bottom = f"<{step.derived.orc.render()} | {derived}>"
    return f"step {index}:\n  {top}\n  {bar} {morphism}\n  {bottom}"


def render_answer(answer: Answer) -> str:
    lines = [render_step(i, s) for i, s in enumerate(answer.steps, start=1)]
    lines.append(f"computed answer: {answer.composed.render()}")
    lines.append(f"final orchestration: {answer.final.render()}")
    return "\n".join(lines)


def trace_to_json(answers, partial=None, end=None):
    out = {"answers": []}
    for a in answers:
        out["answers"].append(
            {
                "steps": [
                    {
                        "clause": s.clause_name,
                        "selected": s.selected.render(),
                        "morphism": s.unifier.theta1.render(),
                        "derived_requires": [r.render() for r in s.derived.requires],
                    }
                    for s in a.steps
                ],
                "computed": a.composed.render(),
                "final": a.final.render(),
            }
        )
    if partial:
        out["unresolved"] = [s.render() for s in partial]
    if end is not None:
        out["search"] = {"status": end.status, "cut": end.cut, "max_depth": end.max_depth}
    return out


def print_partial(steps, unresolved) -> None:
    """A derivation that is no answer: its steps and the specs it leaves."""
    print("=== partial derivation (no answer) ===")
    for i, s in enumerate(steps, start=1):
        print(render_step(i, s))
    for s in unresolved:
        print(f"unresolved: {s.render()}")


# What a replay that leaves specs unresolved prints last.
NO_REPLAY_ANSWER = "no answer: the script leaves specs unresolved"


def render_search_end(end) -> str:
    """Why a search that found no answer ended."""
    if end.status == "exhausted":
        return "search exhausted"
    plural = "" if end.cut == 1 else "s"
    return f"{end.cut} derivation{plural} cut at depth {end.max_depth}"


# ---------------------------------------------------------------------------
# Commands


def cmd_arn(args) -> int:
    net = load_network(Path(args.network))
    if args.subcommand == "validate":
        issues = arn.validate(net)
        if issues:
            for issue in issues:
                print(issue)
            return 1
        print("OK")
        return 0
    # check NET POINT FORMULA
    spec = arn.ArnSpec(args.point, ltl.parse_formula(args.formula))
    witness = arn.counterexample(net, spec)
    if witness is None:
        print(f"holds: {spec.render()}")
        return 0
    print(f"fails: {spec.render()}")
    print(f"counterexample trace: {ltl.render_lasso(witness)}")
    return 1


def cmd_ltl(args) -> int:
    f1 = ltl.parse_formula(args.formula)
    f2 = ltl.parse_formula(args.formula2) if args.subcommand == "entails" else None
    if args.subcommand == "sat":
        witness = ltl.satisfiable(f1)
        if witness is None:
            print("unsatisfiable")
            return 1
        print(f"satisfiable: {ltl.render_lasso(witness)}")
        return 0
    sig = ActionSignature(ltl.atoms_of(f1) | ltl.atoms_of(f2))
    witness = ltl.satisfiable(ltl.land(f1, ltl.lnot(f2)), sig)
    if witness is None:
        print("yes")
        return 0
    print("no")
    print(f"counterexample trace: {ltl.render_lasso(witness)}")
    return 1


def cmd_solve(args) -> int:
    write_output = _json_writer(args.output)
    scheme = arn.ArnScheme()
    query = load_query(Path(args.query))
    repository = load_repository(Path(args.repository))
    issues = arn.validate(query.orc)
    if issues:
        raise InputError("query network is not well-formed: " + "; ".join(issues))
    with _decoding("query spec", InputError):
        for spec in query.requires:
            arn.check_spec(query.orc, spec)
    validated = set()  # ids of the shared networks already validated
    for clause in repository.clauses:
        if id(clause.orc) not in validated:
            validated.add(id(clause.orc))
            issues = arn.validate(clause.orc)
            if issues:
                raise InputError(f"clause {clause.name!r} network is not well-formed: " + "; ".join(issues))
        with _decoding(f"clause {clause.name!r} spec", InputError):
            for spec in (clause.provides, *clause.requires):
                arn.check_spec(clause.orc, spec)

    end = None
    if args.script:
        steps = _load_json(Path(args.script)).get("steps", [])
        steps = decode_steps(steps, lambda step: arn_step(step, repository))
        answer, final = solve_scripted(scheme, query, steps)
        trail, unresolved = answer.steps, list(engine.unresolved(scheme, final))
        answers = [] if unresolved else [answer]
    else:
        answers, end = solve(
            scheme,
            query,
            repository,
            max_depth=args.max_depth,
            max_answers=args.max_answers,
        )
        trail = end.steps
        unresolved = [] if answers else list(engine.unresolved(scheme, end.query))

    for i, a in enumerate(answers, start=1):
        print(f"=== answer {i} ===")
        print(render_answer(a))
    if not answers:
        print_partial(trail, unresolved)
    if write_output:
        write_output(trace_to_json(answers, partial=unresolved, end=end))
    if not answers:
        print(f"no answer within limits ({render_search_end(end)})" if end else NO_REPLAY_ANSWER)
        return 1
    return 0


def cmd_pexpr(args) -> int:
    bounds = parse_bounds(args.bounds)
    if args.subcommand == "derive":
        write_output = _json_writer(args.output)
        term, requires, steps = load_pexpr_script(Path(args.script))
        scheme = pexpr.PexprScheme(bounds)
        answer, final = solve_scripted(scheme, Query(term, requires), steps)
        unresolved = list(engine.unresolved(scheme, final))
        if unresolved:
            print_partial(answer.steps, unresolved)
            if write_output:
                write_output(trace_to_json([], partial=unresolved))
            print(NO_REPLAY_ANSWER)
            return 1
        print(render_answer(answer))
        print(f"final program: {pexpr.render_program(answer.final)}")
        lo, hi = bounds
        print(f"(refinements validated with the bounded oracle over {lo}..{hi})")
        if write_output:
            write_output(trace_to_json([answer]))
        return 0

    # check PROGRAM SPEC
    term = pexpr.parse_program(_read_text(Path(args.program)).strip())
    spec = pexpr.parse_spec(args.spec)
    verdict = pexpr.check_ground_property(term, spec, bounds, args.fuel)
    if isinstance(verdict, pexpr.Holds):
        print(f"holds (bounded: {args.bounds}, {verdict.states_checked} pre-states)")
        return 0
    if isinstance(verdict, pexpr.Fails):
        state = ", ".join(f"{k}={v}" for k, v in sorted(verdict.state.items()))
        print(f"fails (witness state: {state})")
        return 1
    print(f"inconclusive (bounded: {args.bounds}; {verdict.out_of_fuel_states} runs out of fuel)")
    return 1


# ---------------------------------------------------------------------------
# Entry point


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use."""
    parser = argparse.ArgumentParser(prog="orcbind")
    sub = parser.add_subparsers(dest="command", required=True)

    p_arn = sub.add_parser("arn", help="validate networks, check point properties")
    arn_sub = p_arn.add_subparsers(dest="subcommand", required=True)
    v = arn_sub.add_parser("validate")
    v.add_argument("network")
    c = arn_sub.add_parser("check")
    c.add_argument("network")
    c.add_argument("point")
    c.add_argument("formula")

    p_ltl = sub.add_parser("ltl", help="satisfiability and entailment of formulas")
    ltl_sub = p_ltl.add_subparsers(dest="subcommand", required=True)
    s = ltl_sub.add_parser("sat")
    s.add_argument("formula")
    e = ltl_sub.add_parser("entails")
    e.add_argument("formula")
    e.add_argument("formula2")

    p_solve = sub.add_parser("solve", help="resolve a query against a repository")
    p_solve.add_argument("query")
    p_solve.add_argument("repository")
    p_solve.add_argument("--script", default=None, help="scripted derivation steps (JSON)")
    p_solve.add_argument("--max-depth", type=_at_least(0), default=engine.MAX_DEPTH)
    p_solve.add_argument("--max-answers", type=_at_least(1), default=engine.MAX_ANSWERS)
    p_solve.add_argument("--output", default=None, help="write machine-readable trace JSON")

    p_pex = sub.add_parser("pexpr", help="program derivation and bounded checking")
    pex_sub = p_pex.add_subparsers(dest="subcommand", required=True)
    d = pex_sub.add_parser("derive")
    d.add_argument("script")
    d.add_argument("--bounds", default=_DEFAULT_BOUNDS, help=_BOUNDS_HELP)
    d.add_argument("--output", default=None)
    k = pex_sub.add_parser("check")
    k.add_argument("program")
    k.add_argument("spec")
    k.add_argument("--bounds", default=_DEFAULT_BOUNDS, help=_BOUNDS_HELP)
    k.add_argument("--fuel", type=_at_least(0), default=pexpr.FUEL)

    return parser


def main(argv=None) -> int:
    # The parser is built once per process: a CLI process calls main once and
    # pays one build either way, while in-process callers would rebuild it on
    # every call.  parse_args keeps no state between calls; each returns a
    # fresh Namespace.
    args = build_parser().parse_args(argv)
    try:
        if args.command == "arn":
            return cmd_arn(args)
        if args.command == "ltl":
            return cmd_ltl(args)
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "pexpr":
            return cmd_pexpr(args)
    except DerivationFailed as e:
        print(e)
        return 1
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
