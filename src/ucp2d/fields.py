"""Closed-form scalar coefficient fields on the plane.

Every variable coefficient in this package (elastic moduli, lower-order
terms, manufactured solutions) is a closed-form expression in ``x`` and
``y``.  Text expressions are parsed into an immutable tree that supports
exact symbolic differentiation and vectorised evaluation, so chain-rule
manipulations downstream carry no differencing noise.

Evaluation runs a compiled program, not the tree.  On first use a field
compiles its tree once into a post-order list of its distinct subtrees
(hash-consed: equal subtrees share one step, constants compared by type
and bits so that ``0.0`` and ``-0.0`` stay apart), cached on the
instance.  Each step applies the numpy operation, and performs the
domain check, that a recursive walk of the tree would, so results and
the first domain error are the same bit for bit; the tests keep that
walker as the oracle.

Grammar, tightest binding first::

    ^ (right associative)  >  unary -  >  * /  >  + -

with parentheses, the identifiers ``x``, ``y``, ``pi``, and the
one-argument functions ``exp``, ``log``, ``sin``, ``cos``, ``sqrt``.
An expression may nest at most ``_MAX_DEPTH`` = 100 levels: operators,
calls and parenthesis groups on any path from its top to a leaf, counted
as written.  :func:`parse` rejects a deeper one with a
:class:`ParseError`, so the recursive walks over a tree (parsing,
differentiation, compilation) stay well inside Python's recursion limit.

Derivative trees fold literal subtrees and drop structurally zero terms:
a subtree whose derivative is identically zero by its structure (no
occurrence of the variable, or only under a literal-0 factor) gets the
literal ``0``, and the sum, product, quotient, power and chain rules
leave out every term with a literal-0 factor, so ``d(u*v) = u*dv`` when
``du`` is 0 and ``du - 0`` is ``du``.  Parsed trees, field arithmetic
and evaluation are not simplified.  A dropped term evaluates to +-0 or
fails, so wherever the unsimplified derivative evaluates, the folded one
gives the same bits, except that a zero result may differ in sign.  The
folded tree may evaluate where the unsimplified one fails:
``d/dx (x + sqrt(0*y))`` is 1, where the full product rule divides by
``sqrt(0)``.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FieldError",
    "ParseError",
    "EvalDomainError",
    "ScalarField",
    "parse",
    "evaluate",
    "differentiate",
]

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")
VARIABLES = ("x", "y")


class FieldError(ValueError):
    """Base class for expression-field errors."""


class ParseError(FieldError):
    """Malformed expression text; ``offset`` is the byte position at fault."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalDomainError(FieldError):
    """Evaluation left the real domain (division by zero, log/sqrt of a
    non-positive argument, non-finite result)."""


# Expression nodes.  Trees are immutable; fields may therefore be shared
# and evaluated concurrently without synchronisation.


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # "x" or "y"


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])|(?P<bad>\S))"
)

_MAX_DEPTH = 100  # levels from the top of a parsed expression to any leaf
_LEVELS = (("+", "-"), ("*", "/"))  # left-associative binary operators, loosest first


def _tokenize(text):
    """``(kind, text, offset)`` of each token, then of the end of ``text``;
    an operator's kind is the operator itself."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
        tokens.append((m[kind] if kind == "op" else kind, m[kind], m.start(kind)))
    return tokens + [("end", "", len(text))]


# One function per binding level.  Each takes the tokens, the index of its
# first token and its depth (the levels above it), and returns the node, its
# height (the levels below it, 0 for a leaf) and the index past it.  _unary
# turns a depth past the bound away before it recurses; a chain's first
# operand and a power's base sit deeper than the depth they are parsed at,
# so _chain checks depth + height as well.


def _too_deep(offset):
    return ParseError(f"expression nests deeper than {_MAX_DEPTH} levels", offset)


def _chain(tokens, i, depth, level=0):
    """The ``_LEVELS[level]`` operators between operands of the next level
    (unary terms after the last level)."""
    if level == len(_LEVELS):
        return _unary(tokens, i, depth)
    offset = tokens[i][2]
    node, height, i = _chain(tokens, i, depth, level + 1)
    while depth + height <= _MAX_DEPTH:
        op, _, offset = tokens[i]
        if op not in _LEVELS[level]:
            return node, height, i
        rhs, rhs_height, i = _chain(tokens, i + 1, depth + 1, level + 1)
        node, height = _bin(op, node, rhs), max(height, rhs_height) + 1
    raise _too_deep(offset)


def _unary(tokens, i, depth):
    """A minus before a unary term, or an atom and, after a ``^``, its
    exponent: a unary term, so that ``^`` is right associative and its
    exponent may start with a minus."""
    kind, _, offset = tokens[i]
    if depth > _MAX_DEPTH:
        raise _too_deep(offset)
    if kind == "-":
        node, height, i = _unary(tokens, i + 1, depth + 1)
        return _neg(node), height + 1, i
    node, height, i = _atom(tokens, i, depth)
    if tokens[i][0] != "^":
        return node, height, i
    expo, expo_height, i = _unary(tokens, i + 1, depth + 1)
    return _bin("^", node, expo), max(height, expo_height) + 1, i


def _expect(tokens, i, op):
    """The index past ``tokens[i]``, which must be ``op``."""
    kind, _, offset = tokens[i]
    if kind != op:
        raise ParseError(f"expected {op!r}", offset)
    return i + 1


def _atom(tokens, i, depth):
    """A number, ``pi``, a variable, a call or a parenthesised sum."""
    kind, val, offset = tokens[i]
    i += 1
    if kind == "num":
        value = float(val)
        if not math.isfinite(value):
            raise ParseError(f"number literal {val} is not finite", offset)
        return Const(value), 0, i
    if kind == "ident":
        if val in VARIABLES:
            return Var(val), 0, i
        if val == "pi":
            return Const(np.pi), 0, i
        if val not in FUNCTIONS:
            raise ParseError(f"unknown identifier {val!r}", offset)
        arg, height, i = _chain(tokens, _expect(tokens, i, "("), depth + 1)
        count = 1
        while tokens[i][0] == ",":
            _, _, i = _chain(tokens, i + 1, depth + 1)
            count += 1
        i = _expect(tokens, i, ")")
        if count != 1:
            raise ParseError(f"{val} takes 1 argument, got {count}", offset)
        return Call(val, arg), height + 1, i
    if kind == "(":
        node, height, i = _chain(tokens, i, depth + 1)
        return node, height + 1, _expect(tokens, i, ")")
    raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", offset)


def _neg(node):
    if isinstance(node, Const):
        return Const(-node.value)
    return Neg(node)


def _bin(op, lhs, rhs):
    # fold literal subtrees; leave the node intact if folding would raise
    # or give a non-finite value, so that evaluation reports it
    if isinstance(lhs, Const) and isinstance(rhs, Const):
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                value = _BINARY[op](lhs.value, rhs.value)
        except EvalDomainError:
            return Bin(op, lhs, rhs)
        if np.isfinite(value):
            return Const(value)
    return Bin(op, lhs, rhs)


def _pow(base, expo):
    base = np.asarray(base, dtype=float)
    expo = np.asarray(expo, dtype=float)
    frac = expo != np.floor(expo)
    if ((base < 0.0) & frac).any():
        raise EvalDomainError("negative base raised to a non-integer power")
    if ((base == 0.0) & (expo < 0.0)).any():
        raise EvalDomainError("zero raised to a negative power")
    return np.power(base, expo)


def _div(a, b):
    if (np.asarray(b) == 0.0).any():
        raise EvalDomainError("division by zero")
    return a / b


def _log(a):
    if (np.asarray(a) <= 0.0).any():
        raise EvalDomainError("log of a non-positive argument")
    return np.log(a)


def _sqrt(a):
    if (np.asarray(a) < 0.0).any():
        raise EvalDomainError("sqrt of a negative argument")
    return np.sqrt(a)


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div, "^": _pow}
_UNARY = {"exp": np.exp, "log": _log, "sin": np.sin, "cos": np.cos, "sqrt": _sqrt}


def _compile(*asts):
    """The program ``(slots, segments, roots)`` that :func:`_run` executes
    for one or more trees.

    Every distinct subtree owns one slot: slots 0 and 1 hold ``x`` and
    ``y``, ``slots`` holds the constants in theirs, and each step
    ``(fn, i, j, out, free)`` stores ``fn(slot i)``, or ``fn(slot i,
    slot j)`` when ``j >= 0``, in slot ``out`` and then empties the
    slots in ``free``, which no later step reads, so a run holds no more
    arrays than it needs.  Tree k's value ends up in slot ``roots[k]``,
    and ``segments[k]`` holds the steps it needs beyond those of the
    trees before it; subtrees the trees share are computed once.  Steps
    run in the post-order of first appearance, so operands come before
    their uses and the first domain error raised is the one a tree walk
    would raise.
    """
    slots, steps = [None, None], []
    by_key = {"x": 0, "y": 1}
    by_id = {}  # trees share node objects; visit each object once

    def visit(node):
        slot = by_id.get(id(node))
        if slot is not None:
            return slot
        if isinstance(node, Const):
            # by type and bits: Const(0.0) == Const(-0.0) as dataclasses
            key = (type(node.value), np.float64(node.value).tobytes())
        elif isinstance(node, Var):
            key = node.name
        elif isinstance(node, Neg):
            key = (operator.neg, visit(node.arg), -1)
        elif isinstance(node, Bin):
            key = (_BINARY[node.op], visit(node.lhs), visit(node.rhs))
        else:
            key = (_UNARY[node.fn], visit(node.arg), -1)
        slot = by_key.get(key)
        if slot is None:
            slot = by_key[key] = len(slots)
            if isinstance(node, Const):
                slots.append(node.value)
            else:
                slots.append(None)
                steps.append((*key, slot))
        by_id[id(node)] = slot
        return slot

    roots, ends = [], []
    for ast in asts:
        roots.append(visit(ast))
        ends.append(len(steps))
    last_read = {}
    for k, (_, i, j, _) in enumerate(steps):
        last_read[i] = last_read[j] = k
    free = [[] for _ in steps]
    for slot, k in last_read.items():
        if slot >= 0 and slot not in roots:
            free[k].append(slot)
    steps = [(*step, tuple(f)) for step, f in zip(steps, free)]
    segments = tuple(tuple(steps[lo:hi]) for lo, hi in zip([0, *ends], ends))
    return slots, segments, tuple(roots)


def _run(program, x, y):
    """Yield the value of each tree of ``program`` at ``(x, y)`` in turn.

    The steps of a tree's segment run only when its value is asked for,
    so a caller that checks each value before taking the next one sees
    the errors in the order that separate runs would raise them.
    """
    slots, segments, roots = program
    vals = slots.copy()
    vals[0], vals[1] = x, y
    for steps, root in zip(segments, roots):
        for fn, i, j, out, free in steps:
            vals[out] = fn(vals[i]) if j < 0 else fn(vals[i], vals[j])
            for k in free:
                vals[k] = None
        yield vals[root]


_ZERO = Const(0.0)


def _is_zero(node):
    return isinstance(node, Const) and node.value == 0.0


def _sum(op, a, b):
    """``a + b`` or ``a - b`` of derivative terms, a literal-zero term dropped."""
    if _is_zero(b):
        return _ZERO if _is_zero(a) else a
    if _is_zero(a):
        return b if op == "+" else _neg(b)
    return _bin(op, a, b)


def _times(a, b):
    """``a * b`` of derivative factors: literal 0 when either factor is."""
    return _ZERO if _is_zero(a) or _is_zero(b) else _bin("*", a, b)


def _over(a, b):
    """``a / b`` with a derivative numerator: literal 0 when ``a`` is."""
    return _ZERO if _is_zero(a) else _bin("/", a, b)


def _diff_node(node, var):
    # a subtree whose derivative is structurally zero gets the literal 0,
    # and the rules below drop the terms it would be a factor of
    if isinstance(node, Const):
        return _ZERO
    if isinstance(node, Var):
        return Const(1.0) if node.name == var else _ZERO
    if isinstance(node, Neg):
        return _sum("-", _ZERO, _diff_node(node.arg, var))
    if isinstance(node, Bin):
        u, v = node.lhs, node.rhs
        du, dv = _diff_node(u, var), _diff_node(v, var)
        if node.op in "+-":
            return _sum(node.op, du, dv)
        if node.op == "*":
            return _sum("+", _times(du, v), _times(u, dv))
        if node.op == "/":
            num = _sum("-", _times(du, v), _times(u, dv))
            return _over(num, _bin("*", v, v))
        # power: literal exponents get the plain power rule (valid for
        # negative bases); general exponents go through exp/log
        if isinstance(v, Const):
            c = v.value
            return _times(_times(Const(c), _bin("^", u, Const(c - 1.0))), du)
        term1 = _times(dv, Call("log", u))
        term2 = _over(_times(v, du), u)
        return _times(node, _sum("+", term1, term2))
    a, da = node.arg, _diff_node(node.arg, var)
    if _is_zero(da):
        return _ZERO
    if node.fn == "exp":
        return _bin("*", node, da)
    if node.fn == "log":
        return _bin("/", da, a)
    if node.fn == "sin":
        return _bin("*", Call("cos", a), da)
    if node.fn == "cos":
        return _neg(_bin("*", Call("sin", a), da))
    return _bin("/", da, _bin("*", Const(2.0), node))


def _format(node):
    # parenthesise conservatively; output re-parses to the same tree shape
    if isinstance(node, Const):
        # the magnitude as a Python float (a folded literal may be a numpy
        # scalar, whose repr does not parse); the sign, -0 included, as a
        # unary minus
        v = abs(float(node.value))
        text = str(int(v)) if v == int(v) and v < 1e16 else repr(v)
        return f"(-{text})" if math.copysign(1.0, node.value) < 0 else text
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{_format(node.arg)})"
    if isinstance(node, Bin):
        return f"({_format(node.lhs)} {node.op} {_format(node.rhs)})"
    return f"{node.fn}({_format(node.arg)})"


class ScalarField:
    """Immutable scalar function of ``(x, y)`` backed by an expression tree.

    Construct with :func:`parse`, :meth:`ScalarField.constant`, or by
    arithmetic on existing fields.  Evaluation is deterministic IEEE
    double arithmetic and accepts scalars or broadcastable arrays.
    """

    __slots__ = ("ast", "source", "_compiled")

    def __init__(self, ast, source=None):
        object.__setattr__(self, "ast", ast)
        object.__setattr__(self, "source", source if source is not None else _format(ast))
        object.__setattr__(self, "_compiled", None)

    def __setattr__(self, name, value):
        raise AttributeError("ScalarField is immutable")

    def __repr__(self):
        return f"ScalarField({self.source!r})"

    @classmethod
    def constant(cls, value):
        value = float(value)
        if not math.isfinite(value):
            raise FieldError(f"constant {value!r} is not finite")
        return cls(Const(value), source=repr(value))

    def _program(self):
        """The compiled form of the tree (see :func:`_compile`), built on
        first use."""
        if self._compiled is None:
            object.__setattr__(self, "_compiled", _compile(self.ast))
        return self._compiled

    def __call__(self, x, y):
        return evaluate(self, x, y)

    def diff(self, var):
        return differentiate(self, var)

    def is_zero(self):
        """True when the tree is the literal constant 0 (no analysis)."""
        return _is_zero(self.ast)

    def _coerce(self, other):
        if isinstance(other, ScalarField):
            return other
        return ScalarField.constant(other)

    def __add__(self, other):
        return ScalarField(_bin("+", self.ast, self._coerce(other).ast))

    def __radd__(self, other):
        return self._coerce(other).__add__(self)

    def __sub__(self, other):
        return ScalarField(_bin("-", self.ast, self._coerce(other).ast))

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        return ScalarField(_bin("*", self.ast, self._coerce(other).ast))

    def __rmul__(self, other):
        return self._coerce(other).__mul__(self)

    def __truediv__(self, other):
        return ScalarField(_bin("/", self.ast, self._coerce(other).ast))

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        return ScalarField(_neg(self.ast))


def parse(text):
    """Parse expression text into a :class:`ScalarField`.

    Raises :class:`ParseError` (with byte offset) on malformed input,
    unknown identifiers, wrong function arity, or nesting past the bound.
    """
    if not isinstance(text, str):
        raise ParseError("expression must be a string", 0)
    if not text.strip():
        raise ParseError("empty expression", 0)
    tokens = _tokenize(text)
    node, _, i = _chain(tokens, 0, 0)
    kind, val, offset = tokens[i]
    if kind != "end":
        raise ParseError(f"unexpected token {val!r}", offset)
    return ScalarField(node, source=text)


def _finite(value, field):
    """``value``, or :class:`EvalDomainError` naming ``field`` when any
    entry of it is NaN or infinite."""
    if not np.isfinite(value).all():
        raise EvalDomainError(f"non-finite value in {field.source!r}")
    return value


def evaluate(field, x, y):
    """Evaluate ``field`` at ``(x, y)``; scalars in, float out.

    Array inputs broadcast elementwise.  Domain violations raise
    :class:`EvalDomainError` instead of returning NaN/Inf.
    """
    scalar = np.isscalar(x) and np.isscalar(y)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out, = _run(field._program(), np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    out = _finite(np.asarray(out, dtype=float), field)
    if scalar:
        return float(out)
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    return out if out.shape == shape else np.broadcast_to(out, shape).copy()


class FieldGroup:
    """Several fields evaluated by one compiled program, so the subtrees
    they share are computed once per call.

    Calling the group on float arrays (or floats) ``x`` and ``y`` returns
    the list of field values in order.  Each value is checked as
    :func:`evaluate` checks it, before the steps of the next field run,
    so the first error is the one that evaluating the fields one after
    the other would raise.  Values are not broadcast: a field that does
    not vary may come back as a float.
    """

    __slots__ = ("fields", "_program")

    def __init__(self, *fields):
        self.fields = fields
        self._program = _compile(*(f.ast for f in fields))

    def __call__(self, x, y):
        values = []
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for field, value in zip(self.fields, _run(self._program, x, y)):
                values.append(_finite(value, field))
        return values

    def reads(self, var):
        """Whether the program reads ``"x"`` or ``"y"``, if only under a
        literal-0 factor, whose derivative drops it."""
        slot = VARIABLES.index(var)
        _, segments, roots = self._program
        return slot in roots or any(slot in (i, j) for steps in segments for _, i, j, _, _ in steps)

    def unchecked(self, x, y):
        """The list of field values at ``(x, y)`` that calling the group
        gives, with no value checked for finiteness: NaN and infinities
        come back as they are.  The domain checks of the steps (division
        by zero, log and sqrt of a non-positive or negative argument, a
        negative base to a non-integer power) still raise, over the whole
        of ``x`` and ``y`` at once."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return list(_run(self._program, x, y))


def differentiate(field, var):
    """Exact symbolic partial derivative with respect to ``"x"`` or ``"y"``."""
    if var not in VARIABLES:
        raise ValueError(f"var must be 'x' or 'y', got {var!r}")
    return ScalarField(_diff_node(field.ast, var))
