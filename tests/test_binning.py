import numpy as np
import pytest

from secrecy_regions import (
    CapExceededError,
    CodeConfig,
    ValidationError,
    decode_rx1,
    decode_rx2,
    encode,
    equivocation_exact,
    generate_codebook,
    posterior_w1w2,
    run_simulation,
    transmit,
)
from secrecy_regions.binning import channel_rng, encoder_rng
from secrecy_regions.info import DiscreteChannel
from conftest import (
    identity_uniform_chain,
    pure_noise_y2_channel,
    reveal_both_channel,
)


def make_config(**overrides):
    defaults = dict(
        n=4,
        r0=0.0,
        r1=0.5,
        r2=0.5,
        r1p=0.0,
        r2p=0.0,
        aux=identity_uniform_chain(),
        channel=pure_noise_y2_channel(),
        typicality_eps=0.1,
        seed=42,
    )
    defaults.update(overrides)
    return CodeConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValidationError):
        make_config(n=0)
    with pytest.raises(ValidationError):
        make_config(n=17)
    with pytest.raises(ValidationError):
        make_config(r1=-0.1)
    with pytest.raises(ValidationError):
        make_config(typicality_eps=0.0)


def test_message_counts_floor_with_minimum_one():
    cfg = make_config(n=4, r0=0.0, r1=0.5, r2=0.1)
    assert cfg.m0 == 1
    assert cfg.m1 == 4  # 2^(4*0.5)
    assert cfg.m2 == 1  # floor(2^0.4)
    assert cfg.realized_secret_rate() == pytest.approx(0.5)


def test_codebook_shapes_and_determinism():
    cfg = make_config(r1p=0.25)
    a = generate_codebook(cfg)
    b = generate_codebook(cfg)
    assert a.u.shape == (1, 4)
    assert a.v1.shape == (1, 4, 2, 4)
    assert a.v2.shape == (1, 4, 1, 4)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.v1, b.v1)
    assert np.array_equal(a.v2, b.v2)
    c = generate_codebook(make_config(r1p=0.25, seed=43))
    assert not (np.array_equal(a.v1, c.v1) and np.array_equal(a.v2, c.v2))


def test_codebook_memory_cap():
    with pytest.raises(CapExceededError):
        generate_codebook(make_config(n=16, r1=1.0, r1p=1.0, codebook_cap=1000))


def test_degenerate_u_alphabet_gives_constant_codewords():
    cb = generate_codebook(make_config())
    assert np.all(cb.u == cb.u[0, 0])


def test_codeword_frequencies_match_conditional():
    """Empirical v1 symbol frequencies over many draws within 3 sigma."""
    aux = identity_uniform_chain()
    cfg = make_config(n=8, r1=1.0, r1p=0.25, seed=7, aux=aux)
    cb = generate_codebook(cfg)
    bits = cb.v1.ravel()
    n = bits.size
    p = 0.5
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(bits.mean() - p) < 3 * sigma + 0.05  # small-sample slack


def test_encode_rejects_out_of_range():
    cb = generate_codebook(make_config())
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError):
        encode(cb, 0, 99, 0, rng)


def test_encode_identity_maps_reproduce_codeword():
    cfg = make_config(r1p=0.25)
    cb = generate_codebook(cfg)
    rng = np.random.default_rng(0)
    x1, x2, q, qp = encode(cb, 0, 1, 2, rng)
    assert np.array_equal(x1, cb.v1[0, 1, q])
    assert np.array_equal(x2, cb.v2[0, 2, qp])
    assert qp == 0  # singleton bin is deterministic


def test_bin_choice_uniform():
    cfg = make_config(r1p=0.5)  # m1p = 4
    cb = generate_codebook(cfg)
    rng = np.random.default_rng(123)
    qs = np.array([encode(cb, 0, 0, 0, rng)[2] for _ in range(4000)])
    counts = np.bincount(qs, minlength=4)
    expected = 1000.0
    sigma = np.sqrt(4000 * 0.25 * 0.75)
    assert np.all(np.abs(counts - expected) < 3 * sigma)


def test_transmit_noiseless_component():
    cfg = make_config()
    cb = generate_codebook(cfg)
    rng = np.random.default_rng(5)
    x1 = np.array([0, 1, 0, 1])
    x2 = np.array([1, 1, 0, 0])
    y1, _ = transmit(cb, x1, x2, rng)
    assert np.array_equal(y1, 2 * x1 + x2)


def test_decode_rx1_perfect_channel():
    """Noiseless y1 revealing both inputs: zero decoding errors for a
    codebook with distinct, composition-balanced codewords."""
    cfg = make_config(n=8, r1=0.125, r2=0.125, seed=32, typicality_eps=0.13)
    cb = generate_codebook(cfg)
    assert len(np.unique(cb.v1.reshape(-1, 8), axis=0)) == cfg.m1
    assert len(np.unique(cb.v2.reshape(-1, 8), axis=0)) == cfg.m2
    re_, rc_ = encoder_rng(cfg), channel_rng(cfg)
    rng = np.random.default_rng(1)
    for _ in range(60):
        w = (0, int(rng.integers(cfg.m1)), int(rng.integers(cfg.m2)))
        x1, x2, _, _ = encode(cb, *w, re_)
        y1, _ = transmit(cb, x1, x2, rc_)
        assert decode_rx1(cb, y1) == w


def test_decode_rx1_eps_zero_usually_fails():
    ch = reveal_both_channel(0.25)
    cfg = make_config(channel=ch, n=5, r1=0.4, r2=0.4, seed=2)
    cb = generate_codebook(cfg)
    re_, rc_ = encoder_rng(cfg), channel_rng(cfg)
    failures = 0
    for _ in range(40):
        x1, x2, _, _ = encode(cb, 0, 0, 0, re_)
        y1, _ = transmit(cb, x1, x2, rc_)
        if decode_rx1(cb, y1, eps=0.0) != (0, 0, 0):
            failures += 1
    assert failures > 30  # the empirical type is rarely exact


def test_decode_rx2_single_message_generous_eps():
    cfg = make_config()
    cb = generate_codebook(cfg)
    rng = np.random.default_rng(9)
    for _ in range(10):
        y2 = rng.integers(0, 2, size=4)
        assert decode_rx2(cb, y2, eps=1.0) == 0


def test_posterior_is_distribution():
    ch = reveal_both_channel(0.25)
    cfg = make_config(channel=ch, r1p=0.25, seed=3)
    cb = generate_codebook(cfg)
    re_, rc_ = encoder_rng(cfg), channel_rng(cfg)
    x1, x2, _, _ = encode(cb, 0, 1, 0, re_)
    _, y2 = transmit(cb, x1, x2, rc_)
    post = posterior_w1w2(cb, y2)
    assert post.shape == (cfg.m1, cfg.m2)
    assert post.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(post >= 0)


def test_posterior_cap():
    cfg = make_config(r1p=0.5, posterior_cap=4)
    cb = generate_codebook(cfg)
    with pytest.raises(CapExceededError):
        posterior_w1w2(cb, np.zeros(4, dtype=int))


def _refuse(*args, **kwargs):
    raise AssertionError("called before the tuple cap was checked")


def test_oversized_config_refused_before_allocation(monkeypatch):
    # m1*m1p = m2*m2p = 2^15 at n = 16 passes the codebook cap (about 2^20
    # symbols), but decode_rx1 would build a 2^30 x 16 tensor of codes
    cfg = make_config(n=16, r1=0.5, r1p=0.4375, r2=0.5, r2p=0.4375)
    assert cfg.m1 * cfg.m1p == cfg.m2 * cfg.m2p == 2**15
    assert 16 * (1 + 2 * 2**15) <= cfg.codebook_cap
    monkeypatch.setattr("secrecy_regions.binning.generate_codebook", _refuse)
    monkeypatch.setattr("secrecy_regions.binning.decode_rx1", _refuse)
    with pytest.raises(CapExceededError, match="tuples"):
        run_simulation(cfg, trials=1)


def test_equivocation_checks_the_tuple_cap_first(monkeypatch):
    cb = generate_codebook(make_config(r1p=0.5, posterior_cap=4))
    monkeypatch.setattr("secrecy_regions.binning.encode", _refuse)
    with pytest.raises(CapExceededError):
        equivocation_exact(cb, trials=1, seed=0)


def test_equivocation_useless_eavesdropper():
    """y2 carries nothing: the posterior stays uniform, so the equivocation
    rate equals the realized message rate exactly."""
    cfg = make_config(seed=5)
    cb = generate_codebook(cfg)
    eq = equivocation_exact(cb, trials=20, seed=11)
    assert eq == pytest.approx(cfg.realized_secret_rate(), abs=1e-12)


def test_equivocation_full_leakage():
    """y2 reveals (v1, v2) noiselessly; with singleton bins and distinct
    codewords the eavesdropper learns the messages: equivocation 0."""
    t = np.zeros((2, 2, 4, 4))
    for x1 in range(2):
        for x2 in range(2):
            t[x1, x2, 2 * x1 + x2, 2 * x1 + x2] = 1.0
    ch = DiscreteChannel(t)
    for seed in range(20):
        cfg = make_config(channel=ch, n=6, r1=0.34, r2=0.34, seed=seed)
        cb = generate_codebook(cfg)
        distinct = len(np.unique(cb.v1.reshape(-1, 6), axis=0)) == cfg.m1 and (
            len(np.unique(cb.v2.reshape(-1, 6), axis=0)) == cfg.m2
        )
        if distinct:
            assert equivocation_exact(cb, trials=10, seed=1) == pytest.approx(0.0, abs=1e-9)
            break
    else:
        pytest.fail("no seed with duplicate-free codebooks found")


def test_equivocation_bounded_by_message_entropy():
    ch = reveal_both_channel(0.25)
    cfg = make_config(channel=ch, r1p=0.1887, seed=8)
    cb = generate_codebook(cfg)
    eq = equivocation_exact(cb, trials=30, seed=2)
    assert -1e-9 <= eq <= cfg.realized_secret_rate() + 1e-9


def test_run_simulation_deterministic():
    ch = reveal_both_channel(0.25)
    cfg = make_config(channel=ch, n=6, r1=0.34, r2=0.34, r1p=0.1887, seed=77)
    a = run_simulation(cfg, trials=40)
    b = run_simulation(cfg, trials=40)
    assert a == b
    assert 0.0 <= a.pe1 <= 1.0 and 0.0 <= a.pe2 <= 1.0
    assert a.n == 6 and a.trials == 40
    assert a.secrecy_gap == pytest.approx(
        cfg.realized_secret_rate() - a.equivocation_bits_per_use, abs=1e-12
    )
