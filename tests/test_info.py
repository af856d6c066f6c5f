import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secrecy_regions import DiscreteChannel, FiniteDistribution, ValidationError, entropy_bits
from conftest import degraded_binary_channel, identity_uniform_chain
from mi_oracle import JointDistribution, assemble_joint, mutual_information

# Frozen oracle values (computed independently from the definitions).
H_09_01 = 0.4689955935892812  # -0.9 log2 0.9 - 0.1 log2 0.1
BSC_01_MI = 0.5310044064107188  # 1 - h(0.1), uniform input


def test_entropy_uniform():
    probs = FiniteDistribution(np.full(8, 1 / 8)).probs
    assert entropy_bits(probs) == pytest.approx(3.0, abs=1e-12)


def test_entropy_point_mass_is_zero():
    assert entropy_bits(FiniteDistribution(np.eye(5)[2]).probs) == 0.0


def test_entropy_frozen_value():
    d = FiniteDistribution(np.array([0.9, 0.1]))
    assert entropy_bits(d.probs) == pytest.approx(H_09_01, abs=1e-12)


def test_entropy_bits_multi_axis_table():
    table = np.full((2, 2), 0.25)
    assert entropy_bits(table) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize(
    "p",
    ["x", None, [[0.5, 0.5], [1.0]], pytest.param([10**400, 0], id="10**400"),
     [np.nan, 1.0], [0.5, np.inf], [-0.5, 1.5]],
)
def test_entropy_bits_refuses_what_is_not_finite_masses(p):
    # text, ragged nesting and 10**400 used to raise from numpy; NaN and a
    # negative mass gave NaN
    with pytest.raises(ValidationError, match="finite masses"):
        entropy_bits(p)


def test_tables_refuse_bool_and_nan_entries():
    # numpy read a bool as 0 or 1; a NaN reached the normalization check
    point = np.zeros((2, 2, 2, 2), dtype=bool)
    point[..., 0, 0] = True
    spoiled = np.full((2, 2, 2, 2), 0.25)
    spoiled[0, 0, 0, 0] = np.nan
    for make, table in [(FiniteDistribution, [True, False]), (FiniteDistribution, [np.nan, 1.0]),
                        (DiscreteChannel, point), (DiscreteChannel, spoiled)]:
        with pytest.raises(ValidationError, match="array of finite numbers"):
            make(table)


def test_distribution_validation():
    with pytest.raises(ValidationError):
        FiniteDistribution(np.array([0.5, 0.6]))
    with pytest.raises(ValidationError):
        FiniteDistribution(np.array([1.1, -0.1]))
    with pytest.raises(ValidationError, match="array of finite numbers"):
        FiniteDistribution([10**400, 0])  # numpy raises OverflowError converting it


@pytest.mark.parametrize(
    "make, shape",
    [(FiniteDistribution, (0,))]
    + [(DiscreteChannel, shape) for shape in [(0, 2, 2, 2), (2, 0, 2, 2), (2, 2, 0, 2), (0,) * 4]],
)
def test_empty_tables_are_refused(make, shape):
    # an empty (x1, x2) axis used to escape as numpy's reshape ValueError
    with pytest.raises(ValidationError, match="is empty"):
        make(np.zeros(shape))


def test_channel_validation():
    t = np.full((2, 2, 2, 2), 0.25)
    DiscreteChannel(t)  # valid
    t_bad = t.copy()
    t_bad[0, 0, 0, 0] = 0.3
    with pytest.raises(ValidationError):
        DiscreteChannel(t_bad)
    t_huge = t.tolist()
    t_huge[0][0][0][0] = 10**400
    with pytest.raises(ValidationError, match="array of finite numbers"):
        DiscreteChannel(t_huge)


@pytest.mark.parametrize("axis", range(4))
def test_channel_alphabet_cap(axis):
    def channel_with(size):
        shape = [2, 2, 2, 2]
        shape[axis] = size
        t = np.zeros(shape)
        t[..., 0, 0] = 1.0  # every slice a valid distribution: only the size can be wrong
        return t

    assert DiscreteChannel(channel_with(4)).transition.shape[axis] == 4
    with pytest.raises(ValidationError, match="exceed 4 symbols"):
        DiscreteChannel(channel_with(5))


def test_channel_marginals_shapes():
    ch = degraded_binary_channel()
    assert ch.y2_marginal().shape == (2, 2, 2)
    assert np.allclose(ch.y2_marginal().sum(axis=-1), 1.0)


def _bsc_joint(p: float) -> JointDistribution:
    mass = np.array([[0.5 * (1 - p), 0.5 * p], [0.5 * p, 0.5 * (1 - p)]])
    return JointDistribution(("X", "Y"), mass)


def test_mutual_information_bsc_oracle():
    j = _bsc_joint(0.1)
    assert mutual_information(j, ["X"], ["Y"]) == pytest.approx(BSC_01_MI, abs=1e-12)


def test_mutual_information_independent_is_zero():
    j = JointDistribution(("X", "Y"), np.full((2, 3), 1 / 6))
    assert mutual_information(j, ["X"], ["Y"]) == 0.0


def test_mutual_information_symmetry():
    j = _bsc_joint(0.23)
    assert mutual_information(j, ["X"], ["Y"]) == pytest.approx(
        mutual_information(j, ["Y"], ["X"]), abs=1e-12
    )


def test_assemble_joint_is_normalized_and_markov():
    ch = degraded_binary_channel()
    aux = identity_uniform_chain(u_size=2)
    j = assemble_joint(aux, ch)
    assert j.mass.sum() == pytest.approx(1.0, abs=1e-12)
    # the chain U -> (V1,V2) -> (Y1,Y2) must hold: I(U; Y1 | V1, V2) = 0
    assert mutual_information(j, ["U"], ["Y1"], ["V1", "V2"]) == pytest.approx(0.0, abs=1e-12)


@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
@settings(max_examples=50, deadline=None)
def test_entropy_bounds_property(weights):
    p = np.array(weights) / sum(weights)
    d = FiniteDistribution(p / p.sum())
    h = entropy_bits(d.probs)
    assert -1e-12 <= h <= math.log2(len(p)) + 1e-9


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_conditioning_reduces_entropy_property(seed):
    """H(A|B) <= H(A), i.e. I(A;B) >= 0, for random joints."""
    rng = np.random.default_rng(seed)
    mass = rng.dirichlet(np.ones(12)).reshape(3, 4)
    j = JointDistribution(("A", "B"), mass)
    assert mutual_information(j, ["A"], ["B"]) >= 0.0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_chain_rule_property(seed):
    """I(A,B;C) = I(A;C) + I(B;C|A)."""
    rng = np.random.default_rng(seed)
    mass = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
    j = JointDistribution(("A", "B", "C"), mass)
    lhs = mutual_information(j, ["A", "B"], ["C"])
    rhs = mutual_information(j, ["A"], ["C"]) + mutual_information(j, ["B"], ["C"], ["A"])
    assert lhs == pytest.approx(rhs, abs=1e-10)
