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
"""

__version__ = "0.1.0"


class InputError(ValueError):
    """Input a command cannot act on: unparsable text, or a network, point or
    formula unfit for the check asked of it.  The CLI maps it to exit code 2."""
