import numpy as np
import pytest

from secrecy_regions import AuxiliaryChain, DiscreteChannel, FiniteDistribution


def degraded_binary_channel(p_main: float = 0.1, p_extra: float = 0.2) -> DiscreteChannel:
    """y1 = BSC(x1 xor x2, p_main); y2 = y1 through a further BSC(p_extra).

    Physically degraded, so every secrecy bound difference is non-negative
    for any product input chain.
    """
    t = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            z = x1 ^ x2
            for y1 in range(2):
                a = 1 - p_main if y1 == z else p_main
                for y2 in range(2):
                    b = 1 - p_extra if y2 == y1 else p_extra
                    t[x1, x2, y1, y2] = a * b
    return DiscreteChannel(t)


def reveal_both_channel(eaves_flip: float = 0.25) -> DiscreteChannel:
    """y1 = (x1, x2) noiselessly (4-ary); y2 = BSC(x1, eaves_flip)."""
    t = np.zeros((2, 2, 4, 2))
    for x1 in range(2):
        for x2 in range(2):
            for y2 in range(2):
                t[x1, x2, 2 * x1 + x2, y2] = (1 - eaves_flip) if y2 == x1 else eaves_flip
    return DiscreteChannel(t)


def pure_noise_y2_channel() -> DiscreteChannel:
    """y1 = (x1, x2) noiselessly; y2 uniform, independent of the inputs."""
    t = np.zeros((2, 2, 4, 2))
    for x1 in range(2):
        for x2 in range(2):
            t[x1, x2, 2 * x1 + x2, :] = 0.5
    return DiscreteChannel(t)


def identity_uniform_chain(u_size: int = 1) -> AuxiliaryChain:
    """Uniform binary v1, v2 with identity maps onto binary channel inputs."""
    return AuxiliaryChain.inner(
        FiniteDistribution(np.full(u_size, 1 / u_size)),
        np.full((u_size, 2), 0.5),
        np.full((u_size, 2), 0.5),
        np.eye(2),
        np.eye(2),
    )


@pytest.fixture
def degraded_channel():
    return degraded_binary_channel()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
