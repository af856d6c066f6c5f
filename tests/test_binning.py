import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secrecy_regions import (
    AuxiliaryChain,
    CapExceededError,
    CodeConfig,
    Codebook,
    FiniteDistribution,
    ValidationError,
    decode_rx1,
    decode_rx2,
    encode,
    generate_codebook,
    posterior_w1w2,
    run_simulation,
    transmit,
)
from secrecy_regions import binning
from secrecy_regions.binning import seed_streams
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


@pytest.mark.parametrize(
    "field, value", [("n", 2.5), ("n", True), ("n", "4"), ("seed", -1), ("seed", 1.5), ("seed", True)]
)
def test_config_rejects_a_non_integer_blocklength_or_seed(field, value):
    with pytest.raises(ValidationError, match=field if field == "seed" else "blocklength"):
        make_config(**{field: value})


def test_config_stores_numpy_integers_as_int():
    cfg = make_config(n=np.int64(4), seed=np.uint32(42))
    assert type(cfg.n) is int and type(cfg.seed) is int
    summary = run_simulation(cfg, trials=2)
    assert type(summary.n) is int
    assert summary == run_simulation(make_config(n=4, seed=42), trials=2)


def test_message_counts_floor_with_minimum_one():
    cfg = make_config(n=4, r0=0.0, r1=0.5, r2=0.1)
    assert cfg.m0 == 1
    assert cfg.m1 == 4  # 2^(4*0.5)
    assert cfg.m2 == 1  # floor(2^0.4)
    assert cfg.realized_secret_rate() == pytest.approx(0.5)


def test_message_counts_are_computed_once():
    cfg = make_config(n=4, r1=0.5, r2=0.1)
    fresh = dataclasses.replace(cfg)
    names = ("m0", "m1", "m2", "m1p", "m2p")
    counts = tuple(getattr(cfg, name) for name in names)
    assert counts == (1, 4, 1, 1, 1)
    assert tuple(cfg.__dict__[name] for name in names) == counts
    # the cache is not a field, so equality does not see it
    assert not any(name in fresh.__dict__ for name in names)
    assert cfg == fresh


def test_summary_rates_are_python_floats():
    s = run_simulation(make_config(seed=3), trials=20)
    assert type(s.secrecy_gap) is float
    assert type(s.equivocation_bits_per_use) is float
    assert "np." not in repr(s)


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


def test_codebook_memory_cap(monkeypatch):
    monkeypatch.setattr(binning, "MAX_CODEBOOK_SYMBOLS", 1000)
    with pytest.raises(CapExceededError):
        generate_codebook(make_config(n=16, r1=1.0, r1p=1.0))


@pytest.mark.parametrize(
    "name, spoil",
    [("u", lambda a: a.astype(float)), ("u", lambda a: a[:, :-1]), ("v1", lambda a: a - 1),
     ("v1", lambda a: a + 2), ("v2", lambda a: a[None]), ("v2", lambda a: None)],
)
def test_codebook_refuses_tables_that_are_not_its_symbols(name, spoil):
    # a hand-made codebook used to keep any table, and the scans indexed with it
    cb = generate_codebook(make_config())
    fields = {"config": cb.config, "u": cb.u, "v1": cb.v1, "v2": cb.v2}
    assert Codebook(**fields).u.dtype == np.int64
    with pytest.raises(ValidationError, match=f"{name} must be a"):
        Codebook(**{**fields, name: spoil(fields[name])})


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
    # a float, text or None index used to end in numpy's IndexError or a TypeError,
    # and True to pass as message 1
    for w in [(0, 99, 0), (-1, 0, 0), (0.5, 0, 0), (0, "1", 0), (0, None, 0), (0, 0, True)]:
        with pytest.raises(ValidationError, match=r"message index w[012] must be an integer"):
            encode(cb, *w, rng)


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
    y1, _ = transmit(cb, x1[None], x2[None], rng)
    assert np.array_equal(y1, [2 * x1 + x2])


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(1, 16),
    st.tuples(*[st.integers(1, 3)] * 4),
)
@settings(max_examples=40, deadline=None)
def test_transmit_stack_draws_as_one_row_calls(seed, trials, n, sizes):
    """A (B, n) stack gives the bytes of B one-row calls on a generator
    from the same seed, so run_simulation can draw the channel per chunk."""
    rng = np.random.default_rng(seed)
    nx1, nx2, ny1, ny2 = sizes
    channel = DiscreteChannel(
        rng.dirichlet(np.ones(ny1 * ny2), size=(nx1, nx2)).reshape(nx1, nx2, ny1, ny2)
    )
    aux = AuxiliaryChain.inner(
        FiniteDistribution(np.ones(1)), np.ones((1, 1)), np.ones((1, 1)),
        np.full((1, nx1), 1 / nx1), np.full((1, nx2), 1 / nx2),
    )
    cb = generate_codebook(make_config(aux=aux, channel=channel, n=n, r1=0.0, r2=0.0))
    x1 = rng.integers(0, nx1, size=(trials, n))
    x2 = rng.integers(0, nx2, size=(trials, n))
    y1, y2 = transmit(cb, x1, x2, np.random.default_rng(seed))
    assert y1.shape == y2.shape == (trials, n)
    one = np.random.default_rng(seed)
    rows = [transmit(cb, x1[i : i + 1], x2[i : i + 1], one) for i in range(trials)]
    assert y1.tobytes() == np.concatenate([r[0] for r in rows]).tobytes()
    assert y2.tobytes() == np.concatenate([r[1] for r in rows]).tobytes()


def test_decode_rx1_perfect_channel():
    """Noiseless y1 revealing both inputs: zero decoding errors for a
    codebook with distinct, composition-balanced codewords."""
    cfg = make_config(n=8, r1=0.125, r2=0.125, seed=32, typicality_eps=0.13)
    cb = generate_codebook(cfg)
    assert len(np.unique(cb.v1.reshape(-1, 8), axis=0)) == cfg.m1
    assert len(np.unique(cb.v2.reshape(-1, 8), axis=0)) == cfg.m2
    _, re_, rc_, _ = seed_streams(cfg)
    rng = np.random.default_rng(1)
    for _ in range(60):
        w = (0, int(rng.integers(cfg.m1)), int(rng.integers(cfg.m2)))
        x1, x2, _, _ = encode(cb, *w, re_)
        y1, _ = transmit(cb, x1[None], x2[None], rc_)
        assert decode_rx1(cb, y1)[0] == [w]


def test_decode_rx1_eps_zero_usually_fails():
    # the least positive eps decides as eps = 0 on every deviation that is
    # not subnormal; CodeConfig refuses eps = 0 itself
    ch = reveal_both_channel(0.25)
    cfg = make_config(channel=ch, n=5, r1=0.4, r2=0.4, seed=2,
                      typicality_eps=np.nextafter(0.0, 1.0))
    cb = generate_codebook(cfg)
    _, re_, rc_, _ = seed_streams(cfg)
    failures = 0
    for _ in range(40):
        x1, x2, _, _ = encode(cb, 0, 0, 0, re_)
        y1, _ = transmit(cb, x1[None], x2[None], rc_)
        if decode_rx1(cb, y1)[0] != [(0, 0, 0)]:
            failures += 1
    assert failures > 30  # the empirical type is rarely exact


def test_decode_rx2_single_message_generous_eps():
    cb = generate_codebook(make_config(typicality_eps=1.0))
    rng = np.random.default_rng(9)
    for _ in range(10):
        y2 = rng.integers(0, 2, size=(1, 4))
        assert decode_rx2(cb, y2) == [0]


def test_posterior_is_distribution():
    ch = reveal_both_channel(0.25)
    cfg = make_config(channel=ch, r1p=0.25, seed=3)
    cb = generate_codebook(cfg)
    _, re_, rc_, _ = seed_streams(cfg)
    x1, x2, _, _ = encode(cb, 0, 1, 0, re_)
    _, y2 = transmit(cb, x1[None], x2[None], rc_)
    post = posterior_w1w2(cb, y2)
    assert post.shape == (1, cfg.m1, cfg.m2)
    assert post.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(post >= 0)


def test_posterior_cap(monkeypatch):
    monkeypatch.setattr(binning, "MAX_TUPLES", 4)
    cb = generate_codebook(make_config(r1p=0.5))
    with pytest.raises(CapExceededError):
        posterior_w1w2(cb, np.zeros((1, 4), dtype=int))


_ROW = np.zeros((1, 4), dtype=int)
_STAGES = {
    "transmit x1": lambda cb, s: transmit(cb, s, _ROW, np.random.default_rng(0)),
    "transmit x2": lambda cb, s: transmit(cb, _ROW, s, np.random.default_rng(0)),
    "decode_rx1": decode_rx1,
    "decode_rx2": decode_rx2,
    "posterior_w1w2": posterior_w1w2,
}


@pytest.mark.parametrize("stage", _STAGES)
@pytest.mark.parametrize(
    "stack",
    [
        np.full((1, 4), -1),  # numpy would wrap it round to the last symbol
        np.full((1, 4), 7),
        np.zeros((1, 4)),
        np.zeros((1, 4), dtype=bool),
        np.zeros((1, 3), dtype=int),
        np.zeros(4, dtype=int),
        np.zeros((0, 4), dtype=int),
        [[0, 0, 0, 0], [0]],
        [["a"] * 4],
    ],
)
def test_stages_refuse_a_stack_that_is_not_b_by_n_symbols(stage, stack):
    # X1, X2 and Y2 are binary and Y1 4-ary, at n = 4
    cb = generate_codebook(make_config())
    with pytest.raises(ValidationError, match=r"\(B, 4\) stack of integer symbols"):
        _STAGES[stage](cb, stack)


@pytest.mark.parametrize("stage", _STAGES)
def test_stages_take_an_unsigned_stack_as_a_signed_one(stage):
    # uint64 codes used to add to int64 ones as floats: both decoders ended in a TypeError
    cb = generate_codebook(make_config())
    stack = np.array([[0, 1, 1, 0]])
    np.testing.assert_equal(_STAGES[stage](cb, stack.astype(np.uint64)), _STAGES[stage](cb, stack))


def test_transmit_refuses_stacks_of_unequal_trials():
    cb = generate_codebook(make_config())
    with pytest.raises(ValidationError, match="x1 stacks 1 trials and x2 2"):
        transmit(cb, _ROW, np.zeros((2, 4), dtype=int), np.random.default_rng(0))


def _refuse(*args, **kwargs):
    raise AssertionError("called before the tuple cap was checked")


def test_oversized_config_refused_before_allocation(monkeypatch):
    # m1*m1p = m2*m2p = 2^15 at n = 16 passes the codebook cap (about 2^20
    # symbols), but decode_rx1 would build a 2^30 x 16 tensor of codes
    cfg = make_config(n=16, r1=0.5, r1p=0.4375, r2=0.5, r2p=0.4375)
    assert cfg.m1 * cfg.m1p == cfg.m2 * cfg.m2p == 2**15
    assert 16 * (1 + 2 * 2**15) <= binning.MAX_CODEBOOK_SYMBOLS
    monkeypatch.setattr("secrecy_regions.binning.generate_codebook", _refuse)
    monkeypatch.setattr("secrecy_regions.binning.decode_rx1", _refuse)
    with pytest.raises(CapExceededError, match="tuples"):
        run_simulation(cfg, trials=1)


def test_typicality_scan_is_block_invariant(monkeypatch):
    """Blocks of three rows, the last one short, give the one-block mask."""
    cfg = make_config(n=6, r0=1 / 6, r1=1 / 6, r1p=1 / 6, r2=1 / 6, r2p=1 / 6,
                      aux=identity_uniform_chain(2), channel=reveal_both_channel(0.25))
    cb = generate_codebook(cfg)
    ref = cb.reference_rx1
    codes = cb.tuples * ref.shape[-1] + 2 * cb.v1[0, 0, 0] + cb.v2[0, 0, 0]
    allowed = binning._allowed_counts(ref, cfg.n, 0.3)
    whole = binning._typical_mask(codes, allowed)
    assert whole.shape == (2, 4, 4) and 0 < whole.sum() < whole.size
    monkeypatch.setattr(binning, "SCAN_CELLS", 3 * ref.size)
    assert np.array_equal(binning._typical_mask(codes, allowed), whole)


def test_marginal_prefilter_allows_exactly_the_reachable_counts():
    """A (u, v1, y1) or (u, v2, y1) cell allows exactly the sums of one
    allowed count per joint cell summed into it, capped at n: the prefilter
    rules out no typical tuple and keeps no count it could rule out."""
    rng = np.random.default_rng(4)
    for _ in range(60):
        shape = tuple(int(d) for d in rng.integers(1, 4, size=4))  # (U, V1, V2, Y1)
        n = int(rng.integers(1, 9))
        ref = rng.dirichlet(np.full(int(np.prod(shape)), 0.5)).reshape(shape)
        eps = float(rng.choice([0.02, 0.1, 0.2, abs(rng.integers(n + 1) / n - ref.flat[0])]))
        allowed = binning._allowed_counts(ref, n, eps)
        for axis in (1, 2):
            marginal = binning._marginal_allowed(allowed, shape, axis)
            groups = np.moveaxis(allowed.reshape(*shape, n + 1), axis, -2)
            for row, group in zip(marginal, groups.reshape(-1, shape[axis], n + 1)):
                reachable = {0}
                for cell in group:
                    reachable = {r + int(k) for r in reachable for k in np.flatnonzero(cell)}
                assert set(np.flatnonzero(row)) == {r for r in reachable if r <= n}


def test_run_simulation_is_chunk_invariant(monkeypatch):
    """One trial per chunk, chunks of seven with a short last one (200
    trials), and the default single chunk give one summary, with M0 = 2 and
    both bins of size 2."""
    aux = AuxiliaryChain.inner(
        FiniteDistribution(np.array([0.5, 0.5])),
        np.array([[0.7, 0.3], [0.2, 0.8]]),
        np.array([[0.4, 0.6], [0.9, 0.1]]),
        np.eye(2),
        np.eye(2),
    )
    cfg = make_config(n=6, r0=1 / 6, r1=1 / 3, r1p=1 / 6, r2=1 / 6, r2p=1 / 6, aux=aux,
                      channel=reveal_both_channel(0.25), typicality_eps=0.15, seed=11)
    assert cfg.tuple_count == 64 and 200 * 64 <= binning.TRIAL_TUPLES
    whole = run_simulation(cfg, trials=200)
    assert 0 < whole.pe1 < 1 and whole.rx1_no_candidate > 0 and whole.rx1_several > 0
    for cap in (1, 7 * 64):
        monkeypatch.setattr(binning, "TRIAL_TUPLES", cap)
        assert run_simulation(cfg, trials=200) == whole


def test_rx1_failures_split_into_no_candidate_and_several():
    """The two failure counts plus the wrong unique decodes are pe1 * trials,
    counted again here one trial at a time."""
    ch = reveal_both_channel(0.25)
    cfg = make_config(channel=ch, n=8, r1=0.25, r2=0.25, r1p=0.1887, typicality_eps=0.125, seed=3)
    trials = 200
    summary = run_simulation(cfg, trials)
    cb = generate_codebook(cfg)
    _, rng_enc, rng_ch, rng_msg = seed_streams(cfg)
    failed = wrong = 0
    for _ in range(trials):
        w = tuple(int(rng_msg.integers(m)) for m in (cfg.m0, cfg.m1, cfg.m2))
        x1, x2, _, _ = encode(cb, *w, rng_enc)
        (decoded,), _ = decode_rx1(cb, transmit(cb, x1[None], x2[None], rng_ch)[0])
        failed += decoded is None
        wrong += decoded is not None and decoded != w
    assert summary.rx1_no_candidate > 0 and summary.rx1_several > 0 and wrong > 0
    assert summary.rx1_no_candidate + summary.rx1_several == failed
    assert summary.rx1_no_candidate + summary.rx1_several + wrong == round(summary.pe1 * trials)


def test_simulation_memory_stays_bounded_at_the_benchmark_shape():
    """A chunk holds chunk x tuples rows, never trials x tuples x n values
    (256 MB at 1000 trials of n = 16)."""
    flip = 0.25
    r1p = 1.0 + flip * math.log2(flip) + (1 - flip) * math.log2(1 - flip)
    cfg = make_config(channel=reveal_both_channel(flip), n=16, r1=0.25, r2=0.25, r1p=r1p,
                      typicality_eps=0.125, seed=7)
    assert cfg.m1 * cfg.m1p * cfg.m2 == 2048
    tracemalloc.start()
    try:
        run_simulation(cfg, trials=300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


@pytest.mark.parametrize("trials", [0, -1, 2.5, True])
def test_run_simulation_rejects_a_bad_trial_count(trials):
    with pytest.raises(ValidationError, match="trials"):
        run_simulation(make_config(), trials)


def test_equivocation_useless_eavesdropper():
    """y2 carries nothing: the posterior stays uniform, so the equivocation
    rate equals the realized message rate exactly."""
    cfg = make_config(seed=5)
    eq = run_simulation(cfg, trials=20).equivocation_bits_per_use
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
            eq = run_simulation(cfg, trials=10).equivocation_bits_per_use
            assert eq == pytest.approx(0.0, abs=1e-9)
            break
    else:
        pytest.fail("no seed with duplicate-free codebooks found")


def test_equivocation_bounded_by_message_entropy():
    ch = reveal_both_channel(0.25)
    cfg = make_config(channel=ch, r1p=0.1887, seed=8)
    eq = run_simulation(cfg, trials=30).equivocation_bits_per_use
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


def _oracle_scans(cb, y1, y2):
    """decode_rx1, decode_rx2 and posterior_w1w2 written out per codeword
    tuple: each tuple's joint-type deviation from the codebook's reference
    table, and a log-likelihood sum built from the chain and channel."""
    cfg, aux, ch = cb.config, cb.config.aux, cb.channel
    n, ref1, ref2 = cfg.n, cb.reference_rx1, cb.reference_rx2
    p_y2 = ch.transition.sum(axis=2)  # W(y2 | x1, x2)
    dev1, post = {}, np.zeros((cfg.m1, cfg.m2))
    for w0 in range(cfg.m0):
        for w1 in range(cfg.m1):
            for q in range(cfg.m1p):
                for w2 in range(cfg.m2):
                    for qp in range(cfg.m2p):
                        counts = np.zeros(ref1.shape)
                        ll = 0.0
                        for t in range(n):
                            u, a, b = cb.u[w0, t], cb.v1[w0, w1, q, t], cb.v2[w0, w2, qp, t]
                            counts[u, a, b, y1[t]] += 1
                            ll += math.log(sum(
                                aux.p_x1_given_v1[a, x1] * aux.p_x2_given_v2[b, x2]
                                * p_y2[x1, x2, y2[t]]
                                for x1 in range(ch.x1_size) for x2 in range(ch.x2_size)
                            ))
                        dev1[w0, w1, q, w2, qp] = np.abs(counts / n - ref1).max()
                        post[w1, w2] += math.exp(ll)
    dev2 = []
    for w0 in range(cfg.m0):
        counts = np.zeros(ref2.shape)
        for t in range(n):
            counts[cb.u[w0, t], y2[t]] += 1
        dev2.append(np.abs(counts / n - ref2).max())
    return dev1, dev2, post / post.sum()


def _unique(hits):
    return hits[0] if len(hits) == 1 else None


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.tuples(*[st.integers(1, 3)] * 3),
    st.tuples(st.integers(2, 3), st.integers(2, 3)),
    st.sampled_from(["closest", "below closest", 0.1, 0.25, 0.5]),
)
# closest tuples that are unique, with M0 > 1: decode_rx1 returns a triple
@example(3236314158, 7, (2, 3, 1), (2, 3), "closest")
@example(1631116548, 8, (2, 1, 3), (3, 2), "closest")
@example(4047407667, 6, (3, 3, 1), (2, 2), "closest")
@settings(max_examples=80, deadline=None)
def test_scans_match_a_per_tuple_oracle(seed, n, messages, bins, eps):
    """Every decision, hit count and posterior agrees with a plain loop over
    (w0, w1, q, w2, q'), with M0 up to 3 and both bins > 1, for three trials
    scanned as one stack and as stacks of one.  "closest" puts eps exactly
    on the first trial's smallest deviation, a count boundary that only its
    closest tuples pass; one ulp below it, none of them pass.  CodeConfig
    refuses eps = 0, so an eps of 0 becomes the least positive double, which
    decides as 0 on every deviation that is not subnormal."""
    rng = np.random.default_rng(seed)
    nx1, nx2, ny1, ny2 = rng.integers(2, 4, size=4)
    nu, nv1, nv2 = rng.integers(1, 4, size=3)
    channel = DiscreteChannel(
        rng.dirichlet(np.ones(ny1 * ny2), size=(nx1, nx2)).reshape(nx1, nx2, ny1, ny2)
    )
    aux = AuxiliaryChain.inner(
        FiniteDistribution(rng.dirichlet(np.ones(nu))),
        rng.dirichlet(np.ones(nv1), size=nu),
        rng.dirichlet(np.ones(nv2), size=nu),
        rng.dirichlet(np.ones(nx1), size=nv1),
        rng.dirichlet(np.ones(nx2), size=nv2),
    )
    rates = [math.log2(m) / n for m in (*messages, *bins)]
    cfg = CodeConfig(n, *rates, aux=aux, channel=channel, seed=seed % 1000)
    assert (cfg.m0, cfg.m1, cfg.m2, cfg.m1p, cfg.m2p) == (*messages, *bins)
    cb = generate_codebook(cfg)
    _, rng_enc, rng_ch, _ = seed_streams(cfg)
    inputs = []
    for _ in range(3):
        w = tuple(int(rng.integers(m)) for m in messages)
        inputs.append(encode(cb, *w, rng_enc)[:2])
    y1s, y2s = transmit(cb, *(np.array(xs) for xs in zip(*inputs)), rng_ch)
    oracles = [_oracle_scans(cb, y1, y2) for y1, y2 in zip(y1s, y2s)]
    if isinstance(eps, str):
        eps1, eps2 = min(oracles[0][0].values()), min(oracles[0][1])
        if eps == "below closest":
            eps1, eps2 = np.nextafter(eps1, 0.0), np.nextafter(eps2, 0.0)
    else:
        eps1 = eps2 = eps
    eps1, eps2 = (max(e, np.nextafter(0.0, 1.0)) for e in (eps1, eps2))
    cb1 = generate_codebook(dataclasses.replace(cfg, typicality_eps=eps1))
    cb2 = generate_codebook(dataclasses.replace(cfg, typicality_eps=eps2))
    decoded1, hit_counts = decode_rx1(cb1, y1s)
    decoded2 = decode_rx2(cb2, y2s)
    posteriors = posterior_w1w2(cb, y2s)
    assert len(decoded1) == len(decoded2) == len(hit_counts) == len(posteriors) == 3
    for i, (dev1, dev2, post) in enumerate(oracles):
        hits1 = [(w0, w1, w2) for (w0, w1, _, w2, _), d in dev1.items() if d <= eps1]
        hits2 = [w0 for w0, d in enumerate(dev2) if d <= eps2]
        assert [decoded1[i]] == decode_rx1(cb1, y1s[i : i + 1])[0] == [_unique(hits1)]
        assert hit_counts[i] == len(hits1)
        assert [decoded2[i]] == decode_rx2(cb2, y2s[i : i + 1]) == [_unique(hits2)]
        assert posteriors[i].tobytes() == posterior_w1w2(cb, y2s[i : i + 1])[0].tobytes()
        np.testing.assert_allclose(posteriors[i], post, rtol=1e-9, atol=1e-12)
