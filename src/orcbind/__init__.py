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
* ``travel``   -- the networks and automata of the journey-planning worked
                  example, which the tests and the benchmark build on; its
                  clauses and query are read from ``examples/data``

Two primitives are shared by every layer: ``FrozenMap``, the one type in
which a frozen value holds a finite map, and ``InputError``, the root of
every error about unusable input.  Two more serve the parsers and renderers
of the surface syntaxes (formulas in ``ltl``, programs in ``pexpr``):
``Tokens``, the one scanner and cursor, which words every syntax error and
refuses text nested deeper than ``MAX_NESTING``, and ``Operator``, an entry
of a syntax's precedence table.
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


class Operator:
    """A binary operator of a surface syntax, as its parser reads it and its
    renderer writes it: a ``precedence`` (higher binds tighter), an
    ``associativity``, ``"left"``, ``"right"`` or ``"flat"`` (a run of the
    operator is one n-ary node), and the ``build`` of its node, called with
    the operands.  An operand slot admits, unbracketed, the operators of
    precedence at least ``left`` or ``right``."""

    __slots__ = ("precedence", "associativity", "build", "left", "right")

    def __init__(self, precedence: int, associativity: str, build):
        self.precedence, self.associativity, self.build = precedence, associativity, build
        self.left = precedence + (associativity != "left")
        self.right = precedence + (associativity != "right")

    def bracket(self, text: str, lowest: int) -> str:
        """The rendered ``text`` of this operator's node, in a slot that
        admits precedence ``lowest`` and above."""
        return f"({text})" if self.precedence < lowest else text


# The deepest nesting the parsers read: brackets, the bodies of ``if`` and
# ``while``, unary operators and the operands after a binary operator each
# read one level deeper, so a right-associative chain nests once per
# operator and a left-associative one once.  Nesting within this limit keeps
# the later walkers of the tree (renderers, hashing, ``repr``, the tableau,
# the oracles) inside the interpreter's default recursion limit; a
# left-associative chain, read in a loop, still makes a tree as deep as it
# is long.
MAX_NESTING = 100


class Tokens:
    """The tokens of one text and a cursor over them.

    ``pattern`` matches one token after optional white space, with one named
    group per kind; a token is a pair ``(kind, text)``, and the last is
    ``("end", "")``.  Every syntax error is an ``error`` whose text comes
    from ``expected``.  Readers go one level deeper through ``nested``;
    past ``MAX_NESTING`` levels the text is a syntax error."""

    def __init__(self, pattern, text: str, error):
        self.pattern, self.text, self.error = pattern, text, error
        self.tokens = []
        self.index = self.depth = 0
        pos, end = 0, len(text.rstrip())
        while pos < end:
            m = pattern.match(text, pos)
            if m is None:
                raise self.expected("a token", len(text) - len(text[pos:].lstrip()))
            self.tokens.append((m.lastgroup, m.group(m.lastgroup)))
            pos = m.end()
        self.tokens.append(("end", ""))

    def expected(self, what: str, offset: int | None = None):
        """The syntax error for ``what`` missing at the cursor, or at
        ``offset`` in the text: where (column, and line in a text of several
        lines), what was expected and what was found."""
        text = self.text
        if offset is not None:
            found = repr(text[offset])
        elif self.tokens[self.index][0] == "end":
            offset, found = len(text.rstrip()), "end of input"
        else:  # scan again to the cursor: tokens keep no offsets
            offset = 0
            for _ in range(self.index + 1):
                m = self.pattern.match(text, offset)
                offset = m.end()
            offset, found = m.start(m.lastgroup), repr(m.group(m.lastgroup))
        line, column = text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
        where = f"line {line}, column {column}" if "\n" in text.strip() else f"column {column}"
        return self.error(f"expected {what} at {where}, found {found}")

    def peek(self, ahead=0):
        return self.tokens[self.index + ahead]

    def take(self, text=None):
        """The next token, which must read ``text`` if given."""
        token = self.tokens[self.index]
        if text is not None and token[1] != text:
            raise self.expected(repr(text))
        self.index += 1
        return token

    def whole(self, read, *args):
        """What ``read(self, *args)`` reads, which must be the whole text."""
        node = read(self, *args)
        if self.tokens[self.index][0] != "end":
            raise self.expected("end of input")
        return node

    def nested(self, read, *args):
        """What ``read(self, *args)`` reads one level deeper."""
        if self.depth == MAX_NESTING:
            raise self.expected(f"at most {MAX_NESTING} levels of nesting")
        self.depth += 1
        node = read(self, *args)
        self.depth -= 1
        return node

    def climb(self, table, operand, lowest=0):
        """Operands joined by operators of precedence ``lowest`` and above,
        read by precedence climbing.  ``table`` maps a token's text to its
        ``Operator``; ``operand(self)`` reads one operand.  The operands
        after an operator are read one level deeper."""
        left = operand(self)
        op = table.get(self.tokens[self.index][1])
        while op is not None and op.precedence >= lowest:
            symbol = self.take()[1]
            parts = [left, self.nested(Tokens.climb, table, operand, op.right)]
            while op.associativity == "flat" and self.tokens[self.index][1] == symbol:
                self.index += 1
                parts.append(self.nested(Tokens.climb, table, operand, op.right))
            left = op.build(*parts)
            op = table.get(self.tokens[self.index][1])
        return left

    def first_of(self, *readers):
        """What the first of ``readers`` that succeeds from here reads; when
        all fail, the error of the one that read furthest, with the cursor
        left where it failed."""
        start, failures = (self.index, self.depth), []
        for read in readers:
            try:
                return read(self)
            except self.error as e:
                failures.append((self.index, e))
                self.index, self.depth = start
        self.index, error = max(failures, key=lambda failure: failure[0])
        raise error
