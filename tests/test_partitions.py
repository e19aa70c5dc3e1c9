"""Finite systems: constructors, exactness, powers."""

import math
from fractions import Fraction

import numpy as np
import pytest

from lenslab import (
    FiniteSystem,
    NegativePowerOfStochastic,
    bernoulli_system,
    rotation_system,
    system_from_matrix,
    system_from_permutation,
    system_power,
)
from lenslab import exact


def test_system_from_permutation_is_exact():
    sys = system_from_permutation(np.array([1, 2, 0]))
    assert sys.exact
    # Q[a, tau(a)] = 1: mass of cell a lands in cell tau(a)
    q = sys.Q
    assert q[0, 1] == 1 and q[1, 2] == 1 and q[2, 0] == 1


def test_a_system_builds_Q_on_each_read_and_keeps_none():
    sys = bernoulli_system(2, 3)
    q = sys.Q
    assert "Q" not in vars(sys)
    assert sys.Q is not q and np.array_equal(sys.Q, q)


def test_system_from_matrix_detects_exactness():
    q = exact.matrix_of_permutation([1, 0]).T
    sys = system_from_matrix(q)
    assert sys.exact
    b = bernoulli_system(2, 1)
    assert not b.exact


def test_system_power_exact_uses_cycle_order():
    sys = rotation_system(6, 1)
    p5 = system_power(sys, 5)
    p_neg = system_power(sys, -1)
    assert np.array_equal(p5.Q, p_neg.Q)
    ident = system_power(sys, 6)
    assert np.array_equal(ident.Q, exact.entries(exact.identity(6)))


def test_system_power_stochastic_rejects_negative():
    b = bernoulli_system(2, 1)
    with pytest.raises(NegativePowerOfStochastic):
        system_power(b, -1)


def test_system_power_stochastic_matches_matrix_power():
    b = bernoulli_system(2, 2)
    p3 = system_power(b, 3)
    assert np.array_equal(p3.Q, exact.mat_power(exact.stored(b.Q), 3).fractions)


def test_bernoulli_power_L_is_uniform():
    b = bernoulli_system(2, 3)
    p = system_power(b, 3)
    assert all(x == Fraction(1, 8) for x in np.asarray(p.Q).ravel())


def _order_oracle(perm):
    """Order of a permutation: lcm of its cycle lengths, walked cell by cell."""
    seen, order = set(), 1
    for start in range(len(perm)):
        length, j = 0, start
        while j not in seen:
            seen.add(j)
            j = int(perm[j])
            length += 1
        if length:
            order = order * length // math.gcd(order, length)
    return order


@pytest.mark.parametrize("sys", [
    rotation_system(6, 1), rotation_system(10, 4), rotation_system(7, 3),
    system_from_permutation(np.random.default_rng(12).permutation(12)),
], ids=["rot6", "rot10", "rot7", "perm12"])
def test_system_power_matches_repeated_composition(sys):
    order = _order_oracle(sys.perm)
    identity = list(range(sys.k))
    inverse = exact.invert_permutation(sys.perm)
    for n in range(-2 * order, 2 * order + 1):
        expected = np.arange(sys.k)
        for _ in range(abs(n)):
            expected = (sys.perm if n > 0 else inverse)[expected]
        power = system_power(sys, n)
        assert power.exact and list(power.perm) == list(expected), n
        assert np.array_equal(power.Q, system_from_permutation(expected).Q)
        assert (list(power.perm) == identity) == (n % order == 0)


@pytest.mark.parametrize("backend", [exact.RATIONAL, exact.FLOAT])
def test_exact_is_derived_from_the_permutation(backend):
    # However a permutation matrix's system is built, it is exact.
    q = exact.matrix_of_permutation([1, 2, 0], backend).T
    assert FiniteSystem(exact.support(q), exact.support(q.T)).exact is True
    assert system_from_matrix(q).exact and list(system_from_matrix(q).perm) == [1, 2, 0]
    assert list(system_from_permutation([1, 2, 0], backend).perm) == [1, 2, 0]
    assert system_from_matrix(exact.entries(q)).exact
    with pytest.raises(AttributeError):
        system_from_matrix(q).exact = False


def test_permutation_of_matrix_takes_one_decision_on_both_backends():
    # One entry equal to one and a row sum of one, but not a permutation row.
    rows = [[Fraction(1, 2), 1, Fraction(-1, 2)], [1, 0, 0], [0, 0, 1]]
    for q in (exact.frac_array(rows), exact.frac_array(rows).astype(float)):
        assert exact.permutation_of_matrix(exact.stored(q)) is None
        assert not system_from_matrix(q).exact
    for q in (exact.frac_array([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
              np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])):
        assert list(exact.permutation_of_matrix(exact.stored(q))) == [1, 0, 2]
    for q in (exact.frac_array([[0, 1], [0, 1]]), np.array([[0.0, 1.0], [0.0, 1.0]])):
        assert exact.permutation_of_matrix(exact.stored(q)) is None  # two rows onto one cell


@pytest.mark.parametrize("perm", [[0, 0, 2], [1, 2, 1], [-1, 0, 1], [0, 1, 3], [3, 1, 2]],
                         ids=["duplicate-low", "duplicate-high", "negative", "past-k",
                              "past-k-first"])
def test_system_from_permutation_refuses_what_is_no_permutation(perm):
    with pytest.raises(ValueError, match="permutation of 0..k-1"):
        system_from_permutation(perm)


def test_system_from_permutation_keeps_the_empty_map():
    assert system_from_permutation([]).k == 0
