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
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?P<expo>[eE][+-]?\d+)?"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        if m.group("num") is not None:
            tokens.append(("num", m.group("num") + (m.group("expo") or ""), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", off)
        return self.next()

    def parse(self):
        node = self.sum_()
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", off)
        return node

    def sum_(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                node = _bin(val, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                node = _bin(val, node, self.unary())
            else:
                return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return _neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            # right associative; the exponent admits a leading unary minus
            return _bin("^", base, self.unary())
        return base

    def atom(self):
        kind, val, off = self.next()
        if kind == "num":
            value = float(val)
            if not math.isfinite(value):
                raise ParseError(f"number literal {val} is not finite", off)
            return Const(value)
        if kind == "ident":
            if val in VARIABLES:
                return Var(val)
            if val == "pi":
                return Const(np.pi)
            if val in FUNCTIONS:
                self.expect_op("(")
                args = [self.sum_()]
                while self.peek()[:2] == ("op", ","):
                    self.next()
                    args.append(self.sum_())
                self.expect_op(")")
                if len(args) != 1:
                    raise ParseError(f"{val} takes 1 argument, got {len(args)}", off)
                return Call(val, args[0])
            raise ParseError(f"unknown identifier {val!r}", off)
        if kind == "op" and val == "(":
            node = self.sum_()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", off)


def _neg(node):
    if isinstance(node, Const):
        return Const(-node.value)
    return Neg(node)


def _bin(op, lhs, rhs):
    # fold literal subtrees; leave the node intact if folding would raise
    # or give a non-finite value, so that evaluation reports it
    node = Bin(op, lhs, rhs)
    if isinstance(lhs, Const) and isinstance(rhs, Const):
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                value, = _run(_compile(node), 0.0, 0.0)
        except EvalDomainError:
            return node
        if np.isfinite(value):
            return Const(value)
    return node


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
    unknown identifiers, or wrong function arity.
    """
    if not isinstance(text, str):
        raise ParseError("expression must be a string", 0)
    if not text.strip():
        raise ParseError("empty expression", 0)
    return ScalarField(_Parser(text).parse(), source=text)


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


def differentiate(field, var):
    """Exact symbolic partial derivative with respect to ``"x"`` or ``"y"``."""
    if var not in VARIABLES:
        raise ValueError(f"var must be 'x' or 'y', got {var!r}")
    return ScalarField(_diff_node(field.ast, var))
