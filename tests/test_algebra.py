from collections import Counter

import pytest

from naqlab.algebra import (
    Constituent,
    ExpressionError,
    Product,
    State,
    build_power_expression,
    normalize,
    render,
    vacuum_expectation_corrections,
    _leaves,
)


def right_nested_core(n):
    """f^{i1}.(b_{i1}.(... (f^{in}.(b_{in} |psi>)))), built node by node
    from the definition of the core."""
    core = State()
    for k in range(n, 0, -1):
        core = Product(Constituent("F", f"i{k}"), Product(Constituent("B", f"i{k}"), core))
    return core


def leaf_counter(expr):
    return Counter(
        leaf.kind for leaf in _leaves(expr) if isinstance(leaf, Constituent)
    )


class TestBuildPowerExpression:
    def test_single_factor(self):
        assert render(build_power_expression(1)) == "(f.b) |psi>"

    def test_two_factors(self):
        assert render(build_power_expression(2)) == "((f.b).(f.b)) |psi>"

    def test_four_factor_leaf_sequence(self):
        expr = build_power_expression(4)
        ops = [leaf for leaf in _leaves(expr) if isinstance(leaf, Constituent)]
        assert [c.kind for c in ops] == ["F", "B"] * 4
        # each factor carries its own summation index
        assert [c.constituent_index for c in ops[::2]] == ["i1", "i2", "i3", "i4"]

    def test_zero_power_rejected(self):
        with pytest.raises(ExpressionError):
            build_power_expression(0)

    def test_unknown_constituent_kind_rejected(self):
        with pytest.raises(ExpressionError, match="^constituent kind must be 'F' or 'B'$"):
            Constituent("X")


class TestNormalize:
    def test_power_two(self):
        core, series = normalize(build_power_expression(2))
        assert core == right_nested_core(2)
        assert [(t.residual_power, t.m2_exponent) for t in series.terms] == [(0, 1)]

    def test_power_three(self):
        _, series = normalize(build_power_expression(3))
        assert [(t.residual_power, t.m2_exponent) for t in series.terms] == [(1, 1)]

    def test_power_four_hand_unrolled(self):
        # hand recursion: phi^4 -> core4 + m^2 phi^2 -> core4 + m^2 core2 + m^4
        _, series = normalize(build_power_expression(4))
        assert [(t.residual_power, t.m2_exponent) for t in series.terms] == [
            (2, 1),
            (0, 2),
        ]

    @pytest.mark.parametrize("n", (*range(1, 11), 1000))
    def test_length_conservation(self, n):
        _, series = normalize(build_power_expression(n))
        for t in series.terms:
            assert t.residual_power + 2 * t.m2_exponent == n

    @pytest.mark.parametrize("n", range(1, 11))
    def test_idempotence_on_core(self, n):
        core, series = normalize(right_nested_core(n))
        assert core == right_nested_core(n)
        assert series.terms == ()

    def test_deep_core_is_already_right_nested(self):
        # 2001 levels, past Python's default recursion limit
        _, series = normalize(right_nested_core(1000))
        assert series.terms == ()

    @pytest.mark.parametrize("n", (1, 2, 5, 8))
    def test_leaf_multiset_preserved(self, n):
        expr = build_power_expression(n)
        core, _ = normalize(expr)
        assert leaf_counter(core) == leaf_counter(expr)

    def test_associative_limit_collapses_series(self):
        for n in range(2, 8):
            _, series = normalize(build_power_expression(n))
            # every term carries m^2 at least once, so none survives m^2 = 0
            assert all(t.m2_exponent >= 1 for t in series.terms)

    def test_numeric_substitution(self):
        _, series = normalize(build_power_expression(4))
        assert [(t.residual_power, 0.5**t.m2_exponent) for t in series.terms] == [(2, 0.5), (0, 0.25)]

    def test_state_must_be_rightmost(self):
        bad = Product(State(), Constituent("F", "i1"))
        with pytest.raises(ExpressionError):
            normalize(bad)

    def test_nary_chain_rejected(self):
        # three constituents in one factor: no rewrite rule exists
        triple = Product(
            Product(Constituent("F", "i1"), Product(Constituent("B", "i1"), Constituent("F", "i2"))),
            State(),
        )
        with pytest.raises(ExpressionError):
            normalize(triple)

    def test_mismatched_pair_index_rejected(self):
        bad = Product(
            Product(Constituent("F", "i1"), Constituent("B", "i2")), State()
        )
        with pytest.raises(ExpressionError):
            normalize(bad)


class TestVacuumExpectation:
    def test_power_one_vanishes(self):
        assert vacuum_expectation_corrections(1).render() == "0"

    def test_power_three_drops_linear_term(self):
        assert vacuum_expectation_corrections(3).render() == "<core_3>"

    def test_power_four(self):
        poly = vacuum_expectation_corrections(4)
        assert poly.render() == "<core_4> + m^2 <core_2> + m^4"

    @pytest.mark.parametrize("n", range(1, 11))
    def test_pure_number_term_parity(self, n):
        poly = vacuum_expectation_corrections(n)
        has_pure = any(k == 0 for k, _ in poly.terms)
        assert has_pure == (n % 2 == 0)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_no_residual_power_one(self, n):
        poly = vacuum_expectation_corrections(n)
        assert all(k != 1 for k, _ in poly.terms)

