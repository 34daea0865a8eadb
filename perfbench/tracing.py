"""Per-layer spans and counters, installed from outside the program.

``install`` replaces each traced function in every ``orcbind`` module
namespace that binds it (``muller.product`` is also bound in ``arn``, ``ltl``
and ``travel``), and traced methods on their classes.  A wrapper records a
span only while an item is being traced; otherwise it calls straight
through.  Spans nest: a span's self time is its duration minus the time of
the spans it encloses, so self times add up to the traced item time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict


class ItemTrace:
    """Spans and counters of one traced item execution."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self._seen: set = set()

    def note_args(self, key) -> None:
        """Count a call of an LTL decision procedure, and whether an earlier
        call of this item had the same arguments."""
        self.counts["ltl.decision_calls"] += 1
        if key in self._seen:
            self.counts["ltl.repeat_calls"] += 1
        else:
            self._seen.add(key)


class Tracer:
    def __init__(self):
        self.item: ItemTrace | None = None
        self._stack: list[list[float]] = []  # enclosed-span time per open span

    def begin(self) -> ItemTrace:
        self.item = ItemTrace()
        self._stack = [[0.0]]
        return self.item

    def end(self, elapsed: float) -> None:
        """Close the item; time outside every span is charged to ``cli.main``."""
        self.item.self_s["cli.main"] += elapsed - self._stack[0][0]
        self.item = None
        self._stack = []

    def span(self, fn, name, after=None, key=None, counted=True):
        """Wrap ``fn`` in a span called ``name``.

        ``after(trace, args, result)`` derives counters from a result; its own
        time is charged to no span.  ``key(args)`` makes the call count
        towards ``ltl.repeat_call_frac``.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            trace = self.item
            if trace is None:
                return fn(*args, **kwargs)
            if counted:
                trace.calls[name] += 1
            if key is not None:
                trace.note_args((name, key(args, kwargs)))
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._stack.pop()
                trace.self_s[name] += duration - frame[0]
                if self._stack:
                    self._stack[-1][0] += duration
            if after is not None:
                hook_start = time.perf_counter()
                after(trace, args, result)
                if self._stack:
                    self._stack[-1][0] += time.perf_counter() - hook_start
            return result

        return traced

    def counting_generator(self, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for value in fn(*args, **kwargs):
                if self.item is not None:
                    self.item.counts[counter] += 1
                yield value

        return traced


def _formula_key(args, kwargs):
    return args + tuple(sorted(kwargs.items()))


def _product_sizes(trace, args, result):
    trace.counts["muller.product_states"] += len(result.states)
    trace.counts["muller.product_transitions"] += len(result.transitions)


def _tableau_size(trace, args, result):
    trace.counts["ltl.tableau_states"] += len(result.states)


def _apex_size(trace, args, result):
    n = len(result.apex.actions)
    trace.maxima["sigcat.apex_actions_max"] = max(n, trace.maxima.get("sigcat.apex_actions_max", 0))


def _candidates(trace, args, result):
    trace.counts["engine.unify_candidates"] += len(result)


def _accepted(trace, args, result):
    trace.counts["engine.unify_accepted"] += len(result)


def install(orcbind_modules: dict, guard_mask):
    """Patch the traced functions of the given ``orcbind`` modules; returns
    the tracer.  ``guard_mask`` is the untraced original, used to measure
    reachability of observed automata without recording spans."""
    tracer = Tracer()
    m = orcbind_modules
    cli, sigcat, muller, ltl, arn, engine, pexpr = (
        m[k] for k in ("cli", "sigcat", "muller", "ltl", "arn", "engine", "pexpr")
    )

    def reachable_share(trace, args, result):
        succ: dict = {}
        for src, g, dst in result.transitions:
            if guard_mask(g, result.signature):
                succ.setdefault(src, set()).add(dst)
        seen = set(result.initial)
        frontier = list(seen)
        while frontier:
            for nxt in succ.get(frontier.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        trace.counts["arn.observed_reachable"] += len(seen)
        trace.counts["arn.observed_states"] += len(result.states)

    functions = [
        # (defining module, attribute, span, keyword options)
        (cli, "load_network", "cli.load", {}),
        (cli, "load_repository", "cli.load", {}),
        (cli, "load_query", "cli.load", {}),
        (cli, "load_pexpr_script", "cli.load", {}),
        (cli, "render_answer", "cli.render", {}),
        (cli, "render_step", "cli.render", {}),
        (cli, "trace_to_json", "cli.render", {}),
        (ltl, "render_lasso", "cli.render", {}),
        (sigcat, "colimit", "sigcat.colimit", {"after": _apex_size}),
        (muller, "guard_mask", "muller.guard_mask", {}),
        (muller, "mask_to_guard", "muller.mask_to_guard", {}),
        (muller, "product", "muller.product", {"after": _product_sizes}),
        (muller, "reduct", "muller.reduct", {}),
        (muller, "cofree_expansion", "muller.cofree_expansion", {}),
        # every emptiness search runs find_accepted_lasso once; is_empty only wraps it
        (muller, "is_empty", "muller.emptiness", {"counted": False}),
        (muller, "find_accepted_lasso", "muller.emptiness", {}),
        (ltl, "to_automaton", "ltl.to_automaton", {"after": _tableau_size, "key": _formula_key}),
        (ltl, "holds", "ltl.holds", {}),
        (ltl, "counterexample", "ltl.counterexample", {}),
        (ltl, "satisfiable", "ltl.satisfiable", {"key": _formula_key}),
        (ltl, "entails", "ltl.entails", {"key": _formula_key}),
        (ltl, "valid", "ltl.valid", {"key": _formula_key}),
        (arn, "validate", "arn.validate", {}),
        (arn, "glue", "arn.glue", {}),
        (arn, "observed_automaton", "arn.observed_automaton", {"after": reachable_share}),
        (engine, "solve", "engine.solve", {}),
        (engine, "solve_scripted", "engine.solve", {}),
        (engine, "unify", "engine.unify", {"after": _accepted}),
        (engine, "resolve", "engine.resolve", {}),
        (pexpr, "entails_conditions", "pexpr.entails_conditions", {}),
        (pexpr, "check_ground_property", "pexpr.check_ground_property", {}),
        (pexpr, "interpret", "pexpr.interpret", {}),
    ]
    for module, attr, name, options in functions:
        original = getattr(module, attr)
        _rebind(m.values(), original, tracer.span(original, name, **options))
    enumerate_states = pexpr.enumerate_states
    _rebind(m.values(), enumerate_states, tracer.counting_generator(enumerate_states, "pexpr.states_enumerated"))

    methods = [
        (muller.MullerAutomaton, "edge_masks", "muller.edge_masks", {}),
        (arn.ArnScheme, "candidate_unifiers", "engine.candidate_unifiers", {"after": _candidates}),
        (pexpr.PexprScheme, "candidate_unifiers", "engine.candidate_unifiers", {"after": _candidates}),
        (arn.ArnScheme, "is_trivial", "engine.is_trivial", {}),
        (pexpr.PexprScheme, "is_trivial", "engine.is_trivial", {}),
    ]
    for cls, attr, name, options in methods:
        setattr(cls, attr, tracer.span(cls.__dict__[attr], name, **options))
    return tracer


def _rebind(modules, original, replacement):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def orcbind_modules() -> dict:
    return {
        name.split(".", 1)[1]: module
        for name, module in sys.modules.items()
        if name.startswith("orcbind.")
    }


# ---------------------------------------------------------------------------
# Per-layer metrics

TIMES = {
    "muller.product_s": "muller.product",
    "muller.guard_mask_s": "muller.guard_mask",
    "muller.reduct_s": "muller.reduct",
    "muller.mask_to_guard_s": "muller.mask_to_guard",
    "muller.emptiness_s": "muller.emptiness",
    "ltl.holds_s": "ltl.holds",
    "ltl.counterexample_s": "ltl.counterexample",
    "ltl.to_automaton_s": "ltl.to_automaton",
    "engine.solve_s": "engine.solve",
    "arn.glue_s": "arn.glue",
    "arn.validate_s": "arn.validate",
    "pexpr.entails_conditions_s": "pexpr.entails_conditions",
    "pexpr.check_ground_property_s": "pexpr.check_ground_property",
    "sigcat.colimit_s": "sigcat.colimit",
    "muller.cofree_expansion_s": "muller.cofree_expansion",
    "arn.observed_automaton_s": "arn.observed_automaton",
    "cli.load_s": "cli.load",
    "cli.render_s": "cli.render",
}
CALLS = {
    "muller.product_calls": "muller.product",
    "muller.guard_mask_calls": "muller.guard_mask",
    "muller.emptiness_calls": "muller.emptiness",
    "ltl.to_automaton_calls": "ltl.to_automaton",
    "ltl.entails_calls": "ltl.entails",
    "ltl.valid_calls": "ltl.valid",
    "engine.unify_calls": "engine.unify",
    "engine.resolve_calls": "engine.resolve",
    "engine.is_trivial_calls": "engine.is_trivial",
    "arn.glue_calls": "arn.glue",
    "arn.validate_calls": "arn.validate",
    "pexpr.entails_conditions_calls": "pexpr.entails_conditions",
    "pexpr.interpret_calls": "pexpr.interpret",
}
COUNTS = (
    "muller.product_states",
    "muller.product_transitions",
    "ltl.tableau_states",
    "engine.unify_candidates",
    "pexpr.states_enumerated",
)
RATIOS = {
    # metric: (numerator counter, denominator counter)
    "arn.observed_reachable_frac": ("arn.observed_reachable", "arn.observed_states"),
    "ltl.repeat_call_frac": ("ltl.repeat_calls", "ltl.decision_calls"),
    "engine.unify_accepted_frac": ("engine.unify_accepted", "engine.unify_candidates"),
}
MAXIMA = ("sigcat.apex_actions_max",)
UNITS = {**{k: "s" for k in TIMES}, **{k: "count" for k in (*CALLS, *COUNTS, *MAXIMA)}, **{k: "ratio" for k in RATIOS}}


def item_counts(trace: ItemTrace) -> dict:
    """Every counter of one execution, by metric name (times excluded)."""
    out = {k: trace.calls[span] for k, span in CALLS.items()}
    out.update({k: trace.counts[k] for k in COUNTS})
    out.update({k: trace.maxima.get(k, 0) for k in MAXIMA})
    for num, den in RATIOS.values():
        out[num] = trace.counts[num]
        out[den] = trace.counts[den]
    return out


def layer_metrics(per_item: list[tuple[dict, dict]]) -> dict:
    """Per-layer metrics for one pass over all items.

    ``per_item`` holds, for each item, its median self time per span and the
    counters of its first traced execution.  Times and counts add up over
    items, maxima take the largest, ratios divide summed counters (0 when
    nothing was counted).
    """
    out = {}
    for metric, span in TIMES.items():
        out[metric] = sum(times.get(span, 0.0) for times, _ in per_item)
    for metric in (*CALLS, *COUNTS):
        out[metric] = sum(counts[metric] for _, counts in per_item)
    for metric in MAXIMA:
        out[metric] = max((counts[metric] for _, counts in per_item), default=0)
    for metric, (num, den) in RATIOS.items():
        total = sum(counts[den] for _, counts in per_item)
        out[metric] = sum(counts[num] for _, counts in per_item) / total if total else 0.0
    return out
