"""The journey-planning worked example: its networks, automata and specs.

This module builds the networks and automata that the benchmark and the
tests share.  The example's clauses and its client query are not built
here: they are read from ``examples/data/services.repo.json`` and
``traveller.query.json``, the files users run.

The JP process automaton and the channel automata follow the published
drawings; the MS, TS and T process automata are engineered fixtures (the
drawings never give them) built so that Map Services answers every route
query and Transport System delivers timetables for every route it hears.
"""

from __future__ import annotations

from . import ltl
from .arn import Arn, Connection, Port, Process, qualified_signature
from .muller import AllNonempty, ImpliesFamily, MullerAutomaton, cofree_expansion, product
from .sigcat import TRUE, ActionSignature, Atom, SignatureMorphism, land, lnot, lor


def channel_message_automaton(m: str) -> MullerAutomaton:
    """Per-message channel behaviour: immediate delivery of every publication.

    All non-empty state sets are final.
    """
    sig = ActionSignature(frozenset({f"{m}!", f"{m}?"}))
    pub, dlv = Atom(f"{m}!"), Atom(f"{m}?")
    return MullerAutomaton(
        sig,
        frozenset({"q0", "q1"}),
        (
            ("q0", lnot(pub), "q0"),
            ("q0", pub, "q1"),
            ("q1", land(pub, dlv), "q1"),
            ("q1", land(lnot(pub), dlv), "q0"),
        ),
        frozenset({"q0"}),
        AllNonempty(),
    )


def channel_automaton(messages) -> MullerAutomaton:
    """Product of the per-message automata, expanded to the channel's signature."""
    full = ActionSignature(
        frozenset(f"{m}!" for m in messages) | frozenset(f"{m}?" for m in messages)
    )
    parts = []
    for m in sorted(messages):
        a = channel_message_automaton(m)
        inclusion = SignatureMorphism(a.signature, full, {x: x for x in a.signature.actions})
        parts.append(cofree_expansion(a, inclusion))
    return product(parts, signature=full)


def connection(messages, attachments) -> Connection:
    return Connection(frozenset(messages), channel_automaton(messages), attachments)


# -- ports -------------------------------------------------------------------

PORT_JP1 = Port(frozenset({"directions"}), frozenset({"planJourney"}))
PORT_JP2 = Port(frozenset({"getRoutes"}), frozenset({"routes", "timetables"}))
PORT_R1 = Port(frozenset({"routes"}), frozenset({"getRoutes"}))
PORT_R2 = Port(frozenset({"timetables"}), frozenset({"routes"}))
PORT_MS1 = PORT_R1
PORT_TS1 = PORT_R2
PORT_T1 = Port(frozenset({"getRoute"}), frozenset({"route"}))
PORT_TR1 = Port(frozenset({"route"}), frozenset({"getRoute"}))


# -- processes ----------------------------------------------------------------


def jp_automaton() -> MullerAutomaton:
    """The journey-planner behaviour: on a plan request, query routes, wait
    for routes and timetables, then reply with directions.

    Final-state sets are the non-empty sets containing q0 whenever they
    contain q5.
    """
    ports = {"JP1": PORT_JP1, "JP2": PORT_JP2}
    sig = qualified_signature(ports)
    pj = Atom("JP1.planJourney?")
    dr = Atom("JP1.directions!")
    gr = Atom("JP2.getRoutes!")
    rt = Atom("JP2.routes?")
    tt = Atom("JP2.timetables?")
    trans = (
        ("q0", lnot(pj), "q0"),
        ("q0", pj, "q1"),
        ("q1", gr, "q2"),
        ("q2", land(lnot(rt), lnot(tt)), "q2"),
        ("q2", land(rt, tt), "q5"),
        ("q2", land(rt, lnot(tt)), "q3"),
        ("q2", land(lnot(rt), tt), "q4"),
        ("q3", tt, "q5"),
        ("q3", lnot(tt), "q3"),
        ("q4", rt, "q5"),
        ("q4", lnot(rt), "q4"),
        ("q5", lnot(dr), "q5"),
        ("q5", dr, "q0"),
    )
    states = frozenset({"q0", "q1", "q2", "q3", "q4", "q5"})
    return MullerAutomaton(sig, states, trans, frozenset({"q0"}), ImpliesFamily("q5", "q0"))


def responder_automaton(point: str, request: str, response: str, ports) -> MullerAutomaton:
    """Fixture: owes a response after every request; final sets never let the
    owing state persist alone."""
    sig = qualified_signature(ports)
    req = Atom(f"{point}.{request}?")
    rsp = Atom(f"{point}.{response}!")
    trans = (
        ("idle", g_or_not(req, rsp), "idle"),
        ("idle", land(req, lnot(rsp)), "owing"),
        ("owing", rsp, "idle"),
        ("owing", lnot(rsp), "owing"),
    )
    return MullerAutomaton(
        sig, frozenset({"idle", "owing"}), trans, frozenset({"idle"}), ImpliesFamily("owing", "idle")
    )


def g_or_not(req, rsp):
    # requests answered on the spot keep the responder idle
    return lor(lnot(req), rsp)


def ms_process() -> Process:
    ports = {"MS1": PORT_MS1}
    return Process(ports, responder_automaton("MS1", "getRoutes", "routes", ports))


def ts_process() -> Process:
    ports = {"TS1": PORT_TS1}
    return Process(ports, responder_automaton("TS1", "routes", "timetables", ports))


def jp_process() -> Process:
    return Process({"JP1": PORT_JP1, "JP2": PORT_JP2}, jp_automaton())


def traveller_process() -> Process:
    """Fixture: fully permissive client behaviour."""
    ports = {"T1": PORT_T1}
    sig = qualified_signature(ports)
    aut = MullerAutomaton(
        sig, frozenset({"s"}), (("s", TRUE, "s"),), frozenset({"s"}), AllNonempty()
    )
    return Process(ports, aut)


# -- networks -----------------------------------------------------------------


def journey_planner_net() -> Arn:
    """The journey-planner module's network: process JP wired through
    connection C to the requires-points R1 and R2."""
    return Arn(
        {"JP1": PORT_JP1, "JP2": PORT_JP2, "R1": PORT_R1, "R2": PORT_R2},
        {"JP": jp_process()},
        {
            "C": connection(
                {"g", "r", "t"},
                {
                    "JP2": {"g": "getRoutes", "r": "routes", "t": "timetables"},
                    "R1": {"g": "getRoutes", "r": "routes"},
                    "R2": {"r": "routes", "t": "timetables"},
                },
            )
        },
        {"JP": {"JP1", "JP2"}, "C": {"JP2", "R1", "R2"}},
    )


def journey_planner_ground_net() -> Arn:
    """The ground extension: MS and TS attached where R1 and R2 were."""
    return Arn(
        {"JP1": PORT_JP1, "JP2": PORT_JP2, "MS1": PORT_MS1, "TS1": PORT_TS1},
        {"JP": jp_process(), "MS": ms_process(), "TS": ts_process()},
        {
            "C": connection(
                {"g", "r", "t"},
                {
                    "JP2": {"g": "getRoutes", "r": "routes", "t": "timetables"},
                    "MS1": {"g": "getRoutes", "r": "routes"},
                    "TS1": {"r": "routes", "t": "timetables"},
                },
            )
        },
        {"JP": {"JP1", "JP2"}, "MS": {"MS1"}, "TS": {"TS1"}, "C": {"JP2", "MS1", "TS1"}},
    )


def traveller_net() -> Arn:
    """The client network: process T wired through a binary connection to the
    requires-point R1."""
    return Arn(
        {"T1": PORT_T1, "R1": PORT_TR1},
        {"T": traveller_process()},
        {
            "CT": connection(
                {"g", "r"},
                {"T1": {"g": "getRoute", "r": "route"}, "R1": {"g": "getRoute", "r": "route"}},
            )
        },
        {"T": {"T1"}, "CT": {"T1", "R1"}},
    )


def ms_net() -> Arn:
    return Arn({"MS1": PORT_MS1}, {"MS": ms_process()}, {}, {"MS": {"MS1"}})


def ts_net() -> Arn:
    return Arn({"TS1": PORT_TS1}, {"TS": ts_process()}, {}, {"TS": {"TS1"}})


# -- specifications -----------------------------------------------------------

RHO_T1 = ltl.parse_formula("G(getRoute? -> F route!)")
RHO_JP = ltl.parse_formula("G(planJourney? -> F directions!)")
RHO_JP1 = ltl.parse_formula("G(getRoutes? -> F routes!)")
RHO_JP2 = ltl.parse_formula("G(routes? -> F timetables!)")
RHO_MS = RHO_JP1
RHO_TS = RHO_JP2
