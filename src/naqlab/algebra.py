"""Bracketed products of nonassociative constituents and their correction series.

An observable composite field is modelled as the product of two
unobservable constituents, f^i b_i.  Powers of the composite acting on a
state are represented as explicit binary trees (bracketing is meaningful
and never silently reassociated).  Reassociating one factor per step costs
a constant, m^2, which turns the n-th power into a fully right-nested
"core" product plus a polynomial of correction terms:

    power n  ->  core_n + m^2 core_{n-2} + m^4 core_{n-4} + ...

with the expansion stopping once the residual power drops below 2.  Every
term satisfies the length balance k + 2j = n, where k is the residual
power and m^{2j} the accumulated coefficient.  The vacuum expectation of
the power is the same kind of series: the j = 0 core term and the
corrections, without the residual power-1 terms (<phi> = 0).
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterator, NamedTuple, Union

__all__ = [
    "Constituent",
    "State",
    "Product",
    "Expression",
    "SeriesTerm",
    "CorrectionSeries",
    "ExpressionError",
    "build_power_expression",
    "normalize",
    "vacuum_expectation_corrections",
    "render",
    "render_power",
]


class ExpressionError(ValueError):
    """Structurally invalid expression for the requested operation."""


class Constituent(namedtuple("Constituent", "kind constituent_index")):
    """A single nonassociative factor: kind "F" (f^i) or "B" (b_i)."""

    __slots__ = ()

    def __new__(cls, kind: str, constituent_index: str = "i"):
        if kind not in ("F", "B"):
            raise ExpressionError("constituent kind must be 'F' or 'B'")
        return tuple.__new__(cls, (kind, constituent_index))


class State(NamedTuple):
    """The state marker |psi>; always the rightmost leaf."""


class Product(NamedTuple):
    left: Expression
    right: Expression


Expression = Union[Constituent, State, Product]


class SeriesTerm(NamedTuple):
    """One term m^{2j} core_k of an n-th power, with k + 2j = n.

    k = 1 is the bare field phi and k = 0 a pure number m^{2j}.
    """

    residual_power: int
    m2_exponent: int

    def render(self, expectation: bool = False) -> str:
        """``m^2 core_2``, ``m^4``, ``m^2 phi``; as an expectation the field
        factor is ``<core_k>`` and the j = 0 core term ``<core_n>``."""
        k, j = self
        factors = [] if j == 0 else ["m^2" if j == 1 else f"m^{2 * j}"]
        if k >= 1:
            field = "phi" if k == 1 else f"core_{k}"
            factors.append(f"<{field}>" if expectation else field)
        return " ".join(factors)


class CorrectionSeries(NamedTuple):
    """Terms of an n-th power: its corrections, or its vacuum expectation."""

    terms: tuple[SeriesTerm, ...]

    def render(self) -> str:
        """The terms as a sum of vacuum expectations, e.g.
        ``<core_4> + m^2 <core_2> + m^4``; ``0`` when there are none."""
        return " + ".join(t.render(expectation=True) for t in self.terms) or "0"


# ---------------------------------------------------------------------------
# Construction and traversal
# ---------------------------------------------------------------------------


def _constituents(n: int) -> list[Constituent]:
    """f^{i1}, b_{i1}, ..., f^{in}, b_{in}: the leaves of an n-th power."""
    if n < 1:
        raise ExpressionError("empty product: power must be >= 1")
    return [Constituent(kind, f"i{k}") for k in range(1, n + 1) for kind in "FB"]


def build_power_expression(n: int) -> Expression:
    """Left-to-right product of n internally bracketed factors on a state.

    n = 2 gives ((f.b).(f.b)) |psi>; factor k carries summation index i_k.
    """
    ops = _constituents(n)
    chain = Product(ops[0], ops[1])
    for k in range(2, len(ops), 2):
        chain = Product(chain, Product(ops[k], ops[k + 1]))
    return Product(chain, State())


def _leaves(expr: Expression) -> Iterator[Expression]:
    stack = [expr]  # no recursion: a power-n tree is about 2n levels deep
    while stack:
        node = stack.pop()
        if isinstance(node, Product):
            stack += (node.right, node.left)
        else:
            yield node


def _operator_leaves(expr: Expression) -> list[Constituent]:
    """Constituent leaves in left-to-right order; validates the state position."""
    leaves = list(_leaves(expr))
    states = [i for i, leaf in enumerate(leaves) if isinstance(leaf, State)]
    if len(states) != 1 or states[0] != len(leaves) - 1:
        raise ExpressionError("state marker must be the unique rightmost leaf")
    return leaves[:-1]


def _paired_constituents(ops: list[Constituent]) -> int:
    """Validate alternating f/b pairs sharing an index; return the power n."""
    if not ops or len(ops) % 2 != 0:
        raise ExpressionError(
            "operator leaves must form (f.b) pairs; n-ary constituent "
            "chains have no defined rewrite rule"
        )
    for k in range(0, len(ops), 2):
        f, b = ops[k], ops[k + 1]
        if f.kind != "F" or b.kind != "B" or f.constituent_index != b.constituent_index:
            raise ExpressionError(
                "operator leaves must alternate f^i, b_i with matching "
                "constituent indices; n-ary chains are rejected"
            )
    return len(ops) // 2


def _core_from_leaves(ops: list[Constituent]) -> Expression:
    """The fully right-nested product of ``ops`` on the state."""
    expr: Expression = State()
    for op in reversed(ops):
        expr = Product(op, expr)
    return expr


# ---------------------------------------------------------------------------
# Correction series and vacuum expectation values
# ---------------------------------------------------------------------------


def _correction_terms(n: int) -> tuple[SeriesTerm, ...]:
    """m^{2j} core_{n-2j} for j = 1 .. n/2."""
    return tuple(SeriesTerm(n - 2 * j, j) for j in range(1, n // 2 + 1))


def normalize(expr: Expression) -> tuple[Expression, CorrectionSeries]:
    """Rewrite an n-th power expression into its core plus correction series.

    The core keeps the input's own constituent leaves (nothing is created
    or destroyed).  An input that is already fully right-nested is returned
    unchanged with an empty series.
    """
    ops = _operator_leaves(expr)
    n = _paired_constituents(ops)
    # Right-nested: no left factor down the right spine is itself a product.
    spine = expr
    while isinstance(spine, Product) and not isinstance(spine.left, Product):
        spine = spine.right
    return _core_from_leaves(ops), CorrectionSeries(_correction_terms(n) if isinstance(spine, Product) else ())


def vacuum_expectation_corrections(n: int) -> CorrectionSeries:
    """Expectation of the n-th power in the vacuum.

    The j = 0 core term followed by the correction terms; residual power-1
    terms vanish (<phi> = 0), so the pure-number term m^n survives only for
    even n.
    """
    if n < 1:
        raise ExpressionError("empty product: power must be >= 1")
    terms = (SeriesTerm(n, 0),) + _correction_terms(n)
    return CorrectionSeries(tuple(t for t in terms if t.residual_power != 1))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render(expr: Expression) -> str:
    """Text form with explicit parentheses, e.g. ``((f.b).(f.b)) |psi>``."""
    out, stack = [], [expr]  # nodes and literal text, walked as in _leaves
    while stack:
        item = stack.pop()
        if type(item) is Product:
            if type(item.right) is State:
                stack += (" |psi>", item.left)
            else:
                stack += (")", item.right, ".", item.left, "(")
        elif type(item) is Constituent:
            out.append("f" if item.kind == "F" else "b")
        else:
            out.append(item if type(item) is str else "|psi>")
    return "".join(out)


def render_power(n: int, vacuum: bool) -> str:
    """Text of the n-th power: ``core: ...`` and one line per correction term,
    or with ``vacuum`` its expectation polynomial on one line."""
    if vacuum:
        return vacuum_expectation_corrections(n).render() + "\n"
    core, series = normalize(build_power_expression(n))
    lines = ["core: " + render(core)] + [t.render() for t in series.terms]
    return "\n".join(lines) + "\n"
