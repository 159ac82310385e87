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
power and m^{2j} the accumulated coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

__all__ = [
    "Constituent",
    "State",
    "Product",
    "Expression",
    "SeriesTerm",
    "CorrectionSeries",
    "VacuumPolynomial",
    "GaugeMassTerm",
    "ExpressionError",
    "build_power_expression",
    "core_expression",
    "normalize",
    "vacuum_expectation_corrections",
    "gauge_quartic_correction",
    "render",
]


class ExpressionError(ValueError):
    """Structurally invalid expression for the requested operation."""


@dataclass(frozen=True)
class Constituent:
    """A single nonassociative factor: kind "F" (f^i) or "B" (b_i)."""

    kind: str
    constituent_index: str = "i"
    outer_index: str = ""

    def __post_init__(self):
        if self.kind not in ("F", "B"):
            raise ExpressionError("constituent kind must be 'F' or 'B'")


@dataclass(frozen=True)
class State:
    """The state marker |psi>; always the rightmost leaf."""


@dataclass(frozen=True)
class Product:
    left: "Expression"
    right: "Expression"


Expression = Union[Constituent, State, Product]


@dataclass(frozen=True)
class SeriesTerm:
    """One correction term m^{2j} * (residual power k), with k + 2j = n."""

    residual_power: int
    m2_exponent: int

    def __post_init__(self):
        if self.residual_power < 0 or self.m2_exponent < 1:
            raise ExpressionError("correction terms need k >= 0 and j >= 1")


@dataclass(frozen=True)
class CorrectionSeries:
    """Correction terms produced by normalizing an n-th power expression."""

    power: int
    terms: tuple[SeriesTerm, ...]

    def evaluate_coefficients(self, m_squared: float) -> list[tuple[int, float]]:
        """Numeric (residual_power, coefficient) pairs; zero terms dropped.

        With m_squared = 0 the whole series collapses (associative limit).
        """
        out = []
        for t in self.terms:
            coeff = m_squared**t.m2_exponent
            if coeff != 0.0:
                out.append((t.residual_power, coeff))
        return out


# ---------------------------------------------------------------------------
# Construction and traversal
# ---------------------------------------------------------------------------


def build_power_expression(n: int) -> Expression:
    """Left-to-right product of n internally bracketed factors on a state.

    n = 2 gives ((f.b).(f.b)) |psi>; factor k carries summation index i_k.
    """
    if n < 1:
        raise ExpressionError("empty product: power must be >= 1")
    factors = [
        Product(Constituent("F", f"i{k}", "alpha"), Constituent("B", f"i{k}", "beta"))
        for k in range(1, n + 1)
    ]
    chain = factors[0]
    for f in factors[1:]:
        chain = Product(chain, f)
    return Product(chain, State())


def _leaves(expr: Expression) -> Iterator[Expression]:
    if isinstance(expr, Product):
        yield from _leaves(expr.left)
        yield from _leaves(expr.right)
    else:
        yield expr


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


def core_expression(n: int) -> Expression:
    """The fully right-nested alternating product f(b(f(b(...|psi>))))."""
    if n < 1:
        raise ExpressionError("empty product: power must be >= 1")
    expr: Expression = State()
    for k in range(n, 0, -1):
        expr = Product(Constituent("B", f"i{k}", "beta"), expr)
        expr = Product(Constituent("F", f"i{k}", "alpha"), expr)
    return expr


def _core_from_leaves(ops: list[Constituent]) -> Expression:
    expr: Expression = State()
    for k in range(len(ops) - 1, -1, -2):
        expr = Product(ops[k], expr)
        expr = Product(ops[k - 1], expr)
    return expr


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def normalize(expr: Expression) -> tuple[Expression, CorrectionSeries]:
    """Rewrite an n-th power expression into its core plus correction series.

    The core keeps the input's own constituent leaves (nothing is created
    or destroyed).  An input that is already fully right-nested is returned
    unchanged with an empty series.
    """
    ops = _operator_leaves(expr)
    n = _paired_constituents(ops)
    core = _core_from_leaves(ops)
    if expr == core:
        return core, CorrectionSeries(power=n, terms=())
    terms = tuple(
        SeriesTerm(residual_power=n - 2 * j, m2_exponent=j) for j in range(1, n // 2 + 1)
    )
    return core, CorrectionSeries(power=n, terms=terms)


# ---------------------------------------------------------------------------
# Vacuum expectation values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VacuumPolynomial:
    """Correction polynomial with core expectations left opaque.

    Terms are (residual core length k, m^2 exponent j); k = 0 terms are pure
    numbers m^{2j}, and k = 1 terms have been dropped (a vacuum one-point
    expectation vanishes).
    """

    power: int
    terms: tuple[tuple[int, int], ...]

    def render(self) -> str:
        parts = []
        for k, j in self.terms:
            factors = []
            if j == 1:
                factors.append("m^2")
            elif j > 1:
                factors.append(f"m^{2 * j}")
            if k >= 2:
                factors.append(f"<core_{k}>")
            parts.append(" ".join(factors))
        return " + ".join(parts) if parts else "0"


def vacuum_expectation_corrections(n: int) -> VacuumPolynomial:
    """Expectation of the n-th power in the vacuum.

    Residual power-1 terms vanish; the pure-number term m^n survives only
    for even n.
    """
    if n < 1:
        raise ExpressionError("empty product: power must be >= 1")
    terms = []
    for j in range(0, n // 2 + 1):
        k = n - 2 * j
        if k == 1:
            continue  # <phi> = 0 in the vacuum
        terms.append((k, j))
    return VacuumPolynomial(power=n, terms=tuple(terms))


# ---------------------------------------------------------------------------
# Gauge-theory quartic reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaugeMassTerm:
    """The mass term generated from the quartic gauge self-interaction.

    The quartic color-traced term reduces exactly like the scalar fourth
    power, leaving a single j = 1 correction quadratic in the potential.
    The implied interaction radius is 1/m.
    """

    group_rank: int
    m2_exponent: int = 1

    def render(self) -> str:
        return "m^2 A^a_mu A^a_mu"

    def interaction_radius(self, m: float) -> float:
        if m <= 0:
            raise ValueError("m must be positive for a finite radius")
        return 1.0 / m

    def evaluate(self, m_squared: float) -> tuple[tuple[str, float], ...]:
        """Numeric correction terms; empty in the associative limit m^2 = 0."""
        if m_squared == 0.0:
            return ()
        return (("A^a_mu A^a_mu", m_squared**self.m2_exponent),)


def gauge_quartic_correction(group_rank: int) -> GaugeMassTerm:
    if group_rank < 2:
        raise ValueError("gauge group rank must be >= 2")
    return GaugeMassTerm(group_rank=group_rank)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render(expr: Expression) -> str:
    """Text form with explicit parentheses, e.g. ``((f.b).(f.b)) |psi>``."""
    if isinstance(expr, Constituent):
        return "f" if expr.kind == "F" else "b"
    if isinstance(expr, State):
        return "|psi>"
    if isinstance(expr.right, State):
        return f"{render(expr.left)} |psi>"
    left = render(expr.left)
    right = render(expr.right)
    return f"({left}.{right})"
