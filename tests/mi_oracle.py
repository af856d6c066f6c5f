"""The independent oracle the information tests check the package against:
the seven-variable joint of an auxiliary chain composed with a channel,
built by one einsum, and conditional mutual information over its named
marginals.  It shares no code with secrecy_regions.dm, whose entropy table
(dm._entropies) it checks."""

from collections import namedtuple

import numpy as np
from scipy.special import xlogy

JointDistribution = namedtuple("JointDistribution", "names mass")


def _entropy(j: JointDistribution, group) -> float:
    """H(group) in bits, from the marginal of j over the named variables."""
    drop = tuple(i for i, name in enumerate(j.names) if name not in group)
    table = j.mass.sum(axis=drop) if drop else j.mass
    return float(-xlogy(table, table).sum() / np.log(2.0))


def mutual_information(j: JointDistribution, group_a, group_b, given=()) -> float:
    """I(A; B | C) = H(A,C) + H(B,C) - H(A,B,C) - H(C) in bits, with float
    cancellation below zero clamped to zero."""
    a, b, c = set(group_a), set(group_b), set(given)
    value = _entropy(j, a | c) + _entropy(j, b | c) - _entropy(j, a | b | c) - _entropy(j, c)
    return max(value, 0.0)


def assemble_joint(aux, ch) -> JointDistribution:
    """p(u, v1, v2, x1, x2, y1, y2) of an auxiliary chain and a channel."""
    mass = np.einsum(
        "u,uab,ax,by,xycd->uabxycd",
        aux.p_u.probs,
        aux.p_v1v2_given_u,
        aux.p_x1_given_v1,
        aux.p_x2_given_v2,
        ch.transition,
        optimize=True,
    )
    return JointDistribution(("U", "V1", "V2", "X1", "X2", "Y1", "Y2"), mass)
