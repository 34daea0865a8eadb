"""orcbind: discovery and binding of service orchestrations by resolution.

Library layers:

* ``sigcat``   -- action signatures, signature morphisms, finite colimits
* ``muller``   -- Muller automata with symbolic guards over powerset alphabets
* ``ltl``      -- linear temporal logic over action signatures
* ``arn``      -- asynchronous relational networks (hypergraphs of processes
                  and connections) and their observed behaviour
* ``pexpr``    -- while-language program expressions, Hoare-style modules and
                  a bounded correctness oracle
* ``engine``   -- scheme-generic clauses, queries, unification, resolution
* ``cli``      -- file formats and the ``orcbind`` command-line front end
* ``travel``   -- the journey-planning worked example (networks, clauses and a
                  query) that the tests and the benchmark build on

Two primitives are shared by every layer: ``FrozenMap``, the one type in
which a frozen value holds a finite map, and ``InputError``, the root of
every error about unusable input.
"""

__version__ = "0.1.0"


class FrozenMap(dict):
    """An immutable, hashable ``dict`` built from a mapping or from pairs.

    It iterates in key order, so equal maps iterate, render and hash alike
    whatever order they were built in; every mutator raises ``TypeError``."""

    __slots__ = ()

    def __init__(self, data=()):
        super().__init__(sorted(dict(data).items()))

    def __hash__(self):
        return hash(tuple(self.items()))

    def __reduce__(self):  # else copy and pickle rebuild by item assignment
        return FrozenMap, (dict(self),)

    def _immutable(self, *args, **kwargs):
        raise TypeError("FrozenMap is immutable")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _immutable


class InputError(ValueError):
    """Input a command cannot act on: unparsable text, or a network, point or
    formula unfit for the check asked of it.  The CLI maps it to exit code 2."""
