"""Desk-scale Monte Carlo simulator of the superposition / random-binning
coding scheme on tiny discrete channels.

A codebook is drawn once per seed: common codewords u^n(w0); for each of
them a cloud of v1 codewords binned as v1^n(w0, w1, q) and likewise
v2^n(w0, w2, q').  Encoding picks the bin index at random; decoding is an
exhaustive strong-joint-typicality scan; the eavesdropper's equivocation is
measured from the exact posterior over the message pair, obtained by
summing channel likelihoods over every (w0, q, q') for each (w1, w2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import logsumexp

from .dm import AuxiliaryChain
from .errors import CapExceededError, ValidationError, is_finite_real
from .info import DiscreteChannel, entropy_bits

MAX_BLOCKLENGTH = 16
MAX_TRIALS = 100_000
DEFAULT_CODEBOOK_CAP = 1 << 21  # total codeword symbols
DEFAULT_POSTERIOR_CAP = 1 << 19  # index tuples per posterior enumeration


def _message_count(n: int, rate: float) -> int:
    # floor of 2^(n*rate), guarded against float droop just below an integer
    try:
        return max(1, int(np.floor(2.0 ** (n * rate) * (1.0 + 1e-12))))
    except OverflowError:
        raise CapExceededError(f"rate {rate} at n={n} needs more than 2^1024 messages") from None


@dataclass(frozen=True)
class CodeConfig:
    """Blocklength, nominal rates, auxiliary chain, and simulator knobs."""

    n: int
    r0: float
    r1: float
    r2: float
    r1p: float
    r2p: float
    aux: AuxiliaryChain
    channel: DiscreteChannel
    typicality_eps: float = 0.1
    seed: int = 0
    codebook_cap: int = DEFAULT_CODEBOOK_CAP
    posterior_cap: int = DEFAULT_POSTERIOR_CAP

    def __post_init__(self):
        if not 1 <= self.n <= MAX_BLOCKLENGTH:
            raise ValidationError(f"blocklength must be in 1..{MAX_BLOCKLENGTH}")
        for name in ("r0", "r1", "r2", "r1p", "r2p"):
            v = getattr(self, name)
            if not is_finite_real(v) or v < 0:
                raise ValidationError(f"rate {name} must be a finite number >= 0, got {v!r}")
        if not is_finite_real(self.typicality_eps) or self.typicality_eps <= 0:
            raise ValidationError(
                f"typicality_eps must be a finite number > 0, got {self.typicality_eps!r}"
            )
        if self.aux.kind != "inner":
            raise ValidationError("the binning scheme requires an inner-class chain")
        if (
            self.aux.p_x1_given_v1.shape[1] != self.channel.x1_size
            or self.aux.p_x2_given_v2.shape[1] != self.channel.x2_size
        ):
            raise ValidationError("auxiliary chain input alphabets do not match the channel")

    @property
    def m0(self) -> int:
        return _message_count(self.n, self.r0)

    @property
    def m1(self) -> int:
        return _message_count(self.n, self.r1)

    @property
    def m2(self) -> int:
        return _message_count(self.n, self.r2)

    @property
    def m1p(self) -> int:
        return _message_count(self.n, self.r1p)

    @property
    def m2p(self) -> int:
        return _message_count(self.n, self.r2p)

    def realized_secret_rate(self) -> float:
        """log2(M1 * M2) / n, the finite-n rate the messages actually carry."""
        return (np.log2(self.m1) + np.log2(self.m2)) / self.n


def _sample_categorical(rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw per row of a stack of categorical distributions."""
    flat = rows.reshape(-1, rows.shape[-1])
    u = rng.random(flat.shape[0])
    idx = (u[:, None] > np.cumsum(flat, axis=-1)).sum(axis=1)
    return np.minimum(idx, rows.shape[-1] - 1).reshape(rows.shape[:-1])


@dataclass(frozen=True)
class Codebook:
    """Superposition/binning codebook, regenerable bit-exactly from the seed."""

    config: CodeConfig
    u: np.ndarray = field(repr=False)  # (M0, n)
    v1: np.ndarray = field(repr=False)  # (M0, M1, M1p, n)
    v2: np.ndarray = field(repr=False)  # (M0, M2, M2p, n)

    @property
    def channel(self) -> DiscreteChannel:
        return self.config.channel

    @cached_property
    def _joint(self) -> np.ndarray:
        # p(u, v1, v2, y1, y2): built once, since the decoders ask every trial
        return self.config.aux.output_joint(self.channel)

    def reference_rx1(self) -> np.ndarray:
        """p(u, v1, v2, y1) used by the legitimate receiver's typicality test."""
        return self._joint.sum(axis=4)

    def reference_rx2(self) -> np.ndarray:
        """p(u, y2) used by the second receiver's typicality test."""
        return self._joint.sum(axis=(1, 2, 3))


def generate_codebook(cfg: CodeConfig) -> Codebook:
    """Draw the codebook from the auxiliary chain, i.i.d. across positions
    and conditioned per symbol on the governing u codeword."""
    n, m0, m1, m2, m1p, m2p = cfg.n, cfg.m0, cfg.m1, cfg.m2, cfg.m1p, cfg.m2p
    total_symbols = n * (m0 + m0 * m1 * m1p + m0 * m2 * m2p)
    if total_symbols > cfg.codebook_cap:
        raise CapExceededError(
            f"codebook needs {total_symbols} symbols, above the cap of {cfg.codebook_cap}"
        )
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(3)[0])
    aux = cfg.aux
    p_v1_u = aux.p_v1v2_given_u.sum(axis=2)
    p_v2_u = aux.p_v1v2_given_u.sum(axis=1)

    u = _sample_categorical(np.broadcast_to(aux.p_u.probs, (m0, n, aux.u_size)), rng)
    v1 = _sample_categorical(
        np.broadcast_to(p_v1_u[u][:, None, None, :, :], (m0, m1, m1p, n, aux.v1_size)), rng
    )
    v2 = _sample_categorical(
        np.broadcast_to(p_v2_u[u][:, None, None, :, :], (m0, m2, m2p, n, aux.v2_size)), rng
    )
    return Codebook(cfg, u, v1, v2)


def encoder_rng(cfg: CodeConfig) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(3)[1])


def channel_rng(cfg: CodeConfig) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(3)[2])


def encode(cb: Codebook, w0: int, w1: int, w2: int, rng: np.random.Generator):
    """Pick bin indices uniformly, then draw the channel inputs symbol-wise."""
    cfg = cb.config
    if not (0 <= w0 < cfg.m0 and 0 <= w1 < cfg.m1 and 0 <= w2 < cfg.m2):
        raise ValidationError("message index out of range")
    q = int(rng.integers(cfg.m1p))
    qp = int(rng.integers(cfg.m2p))
    v1_seq = cb.v1[w0, w1, q]
    v2_seq = cb.v2[w0, w2, qp]
    x1 = _sample_categorical(cfg.aux.p_x1_given_v1[v1_seq], rng)
    x2 = _sample_categorical(cfg.aux.p_x2_given_v2[v2_seq], rng)
    return x1, x2, q, qp


def transmit(cb: Codebook, x1: np.ndarray, x2: np.ndarray, rng: np.random.Generator):
    """Pass the inputs through the memoryless channel; returns (y1, y2)."""
    t = cb.channel.transition
    ny1, ny2 = cb.channel.y1_size, cb.channel.y2_size
    pair = _sample_categorical(t[x1, x2].reshape(len(x1), ny1 * ny2), rng)
    return pair // ny2, pair % ny2


def _typical_mask(codes: np.ndarray, ref: np.ndarray, n: int, eps: float) -> np.ndarray:
    """codes: (..., n) composite symbol indices into ref.ravel(); True where
    every empirical cell frequency is within eps of the reference."""
    k = ref.size
    flat = codes.reshape(-1, n)
    counts = (flat[:, :, None] == np.arange(k)).sum(axis=1)
    dev = np.abs(counts / n - ref.ravel()[None, :]).max(axis=1)
    return (dev <= eps).reshape(codes.shape[:-1])


def decode_rx1(cb: Codebook, y1: np.ndarray, eps: float | None = None):
    """Exhaustive joint-typicality scan at the legitimate receiver.

    Returns (w0, w1, w2) when exactly one codeword tuple is typical with
    y1^n; any other outcome (zero or several candidates) returns None.

    Peak memory: per common message it compares rows = m1*m1p*m2*m2p
    composite codes of length n against all k = |U||V1||V2||Y1| cells, a
    boolean tensor of rows*n*k bytes, beside rows*n*8 bytes of int64 codes.
    run_simulation bounds m0*rows by posterior_cap before any allocation.
    """
    cfg = cb.config
    eps = cfg.typicality_eps if eps is None else eps
    ref = cb.reference_rx1()
    nu, nv1, nv2, ny1 = ref.shape
    n = cfg.n
    hits = []
    for w0 in range(cfg.m0):
        c_u = cb.u[w0] * nv1  # (n,)
        a = (c_u[None, :] + cb.v1[w0].reshape(-1, n)) * nv2  # (M1*M1p, n)
        b = cb.v2[w0].reshape(-1, n)  # (M2*M2p, n)
        codes = (a[:, None, :] + b[None, :, :]) * ny1 + y1[None, None, :]
        mask = _typical_mask(codes, ref, n, eps)
        for ai, bi in zip(*np.nonzero(mask)):
            hits.append((w0, ai // cfg.m1p, bi // cfg.m2p))
            if len(hits) > 1:
                return None
    if len(hits) == 1:
        return hits[0]
    return None


def decode_rx2(cb: Codebook, y2: np.ndarray, eps: float | None = None):
    """Typicality scan over the common-message codewords only."""
    cfg = cb.config
    eps = cfg.typicality_eps if eps is None else eps
    ref = cb.reference_rx2()
    ny2 = ref.shape[1]
    codes = cb.u * ny2 + y2[None, :]
    mask = _typical_mask(codes, ref, cfg.n, eps)
    hits = np.nonzero(mask)[0]
    return int(hits[0]) if len(hits) == 1 else None


def _check_tuple_cap(cfg: CodeConfig) -> None:
    """Refuse a configuration whose m0*m1*m1p*m2*m2p codeword tuples exceed
    posterior_cap; decode_rx1 and posterior_w1w2 each scan all of them."""
    tuples = cfg.m0 * cfg.m1 * cfg.m1p * cfg.m2 * cfg.m2p
    if tuples > cfg.posterior_cap:
        raise CapExceededError(
            f"posterior enumeration needs {tuples} tuples, above the cap of {cfg.posterior_cap}"
        )


def posterior_w1w2(cb: Codebook, y2: np.ndarray) -> np.ndarray:
    """Exact eavesdropper posterior P(w1, w2 | y2^n, codebook), marginalized
    over the common message and both bin indices."""
    cfg = cb.config
    _check_tuple_cap(cfg)
    aux = cfg.aux
    w2_given_v = np.einsum(
        "ax,by,xyd->abd", aux.p_x1_given_v1, aux.p_x2_given_v2, cb.channel.y2_marginal()
    )
    with np.errstate(divide="ignore"):
        log_w2 = np.log(w2_given_v)
    parts = np.empty((cfg.m0, cfg.m1, cfg.m1p, cfg.m2, cfg.m2p))
    for w0 in range(cfg.m0):
        v1 = cb.v1[w0]  # (M1, M1p, n)
        v2 = cb.v2[w0]  # (M2, M2p, n)
        ll = log_w2[
            v1[:, :, None, None, :], v2[None, None, :, :, :], y2[None, None, None, None, :]
        ].sum(axis=-1)
        parts[w0] = ll
    log_post = logsumexp(parts, axis=(0, 2, 4))  # (M1, M2); uniform weights cancel
    log_post -= logsumexp(log_post)
    return np.exp(log_post)


@dataclass(frozen=True)
class SimulationSummary:
    n: int
    trials: int
    pe1: float
    pe2: float
    equivocation_bits_per_use: float
    secrecy_gap: float


def _transmissions(cb: Codebook, trials: int, rng_msg, rng_enc, rng_ch):
    """Yield ((w0, w1, w2), y1, y2) for `trials` uniformly drawn message
    triples, each encoded and sent through the channel."""
    cfg = cb.config
    for _ in range(trials):
        w0 = int(rng_msg.integers(cfg.m0))
        w1 = int(rng_msg.integers(cfg.m1))
        w2 = int(rng_msg.integers(cfg.m2))
        x1, x2, _, _ = encode(cb, w0, w1, w2, rng_enc)
        y1, y2 = transmit(cb, x1, x2, rng_ch)
        yield (w0, w1, w2), y1, y2


def equivocation_exact(cb: Codebook, trials: int, seed: int) -> float:
    """Monte Carlo average of the exact per-trial posterior entropy, in bits
    per channel use."""
    _check_tuple_cap(cb.config)
    rngs = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3))
    total = 0.0
    for _, _, y2 in _transmissions(cb, trials, *rngs):
        total += entropy_bits(posterior_w1w2(cb, y2))
    return total / (trials * cb.config.n)


def run_simulation(cfg: CodeConfig, trials: int) -> SimulationSummary:
    """Full per-configuration run: one codebook, `trials` transmissions,
    empirical error rates, and the measured equivocation rate.
    Deterministic given (cfg, trials)."""
    if trials > MAX_TRIALS:
        raise CapExceededError(f"{trials} trials, above the cap of {MAX_TRIALS}")
    _check_tuple_cap(cfg)
    cb = generate_codebook(cfg)
    rng_enc = encoder_rng(cfg)
    rng_ch = channel_rng(cfg)
    rng_msg = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(4)[3])
    err1 = err2 = 0
    eq_total = 0.0
    for sent, y1, y2 in _transmissions(cb, trials, rng_msg, rng_enc, rng_ch):
        err1 += decode_rx1(cb, y1) != sent
        err2 += decode_rx2(cb, y2) != sent[0]
        eq_total += entropy_bits(posterior_w1w2(cb, y2))
    eq_rate = eq_total / (trials * cfg.n)
    return SimulationSummary(
        n=cfg.n,
        trials=trials,
        pe1=err1 / trials,
        pe2=err2 / trials,
        equivocation_bits_per_use=eq_rate,
        secrecy_gap=cfg.realized_secret_rate() - eq_rate,
    )
