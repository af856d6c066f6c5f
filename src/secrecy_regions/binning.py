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
MAX_CODEBOOK_SYMBOLS = 1 << 21  # u, v1 and v2 symbols of one codebook
MAX_TUPLES = 1 << 19  # codeword tuples m0*m1*m1p*m2*m2p that each trial scans
SCAN_CELLS = 1 << 20  # count cells per block of a typicality scan, bounding its arrays


def _message_count(n: int, rate: float) -> int:
    # floor of 2^(n*rate), guarded against float droop just below an integer
    try:
        return max(1, int(np.floor(2.0 ** (n * rate) * (1.0 + 1e-12))))
    except OverflowError:
        raise CapExceededError(f"rate {rate} at n={n} needs more than 2^1024 messages") from None


@dataclass(frozen=True)
class CodeConfig:
    """Blocklength, nominal rates, auxiliary chain, typicality slack and seed."""

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
    def reference_rx1(self) -> np.ndarray:
        """p(u, v1, v2, y1) used by the legitimate receiver's typicality test."""
        return self.config.aux.output_joint(self.channel).sum(axis=4)

    @cached_property
    def reference_rx2(self) -> np.ndarray:
        """p(u, y2) used by the second receiver's typicality test."""
        return self.config.aux.output_joint(self.channel).sum(axis=(1, 2, 3))

    @cached_property
    def tuples(self) -> np.ndarray:
        """(M0, M1*M1p, M2*M2p, n) composite symbol (u*|V1| + v1)*|V2| + v2 of
        every codeword tuple at every position; refused above MAX_TUPLES."""
        cfg, aux, n = self.config, self.config.aux, self.config.n
        _check_tuple_cap(cfg)
        a = (self.u[:, None, :] * aux.v1_size + self.v1.reshape(cfg.m0, -1, n)) * aux.v2_size
        return a[:, :, None, :] + self.v2.reshape(cfg.m0, 1, -1, n)

    @cached_property
    def _log_y2(self) -> np.ndarray:
        # log p(y2 | v1, v2), one row per composite symbol of `tuples`
        aux = self.config.aux
        w2_given_v = np.einsum(
            "ax,by,xyd->abd", aux.p_x1_given_v1, aux.p_x2_given_v2, self.channel.y2_marginal()
        )
        with np.errstate(divide="ignore"):
            log_w2 = np.log(w2_given_v)
        return np.broadcast_to(log_w2, (aux.u_size, *log_w2.shape)).reshape(-1, log_w2.shape[-1])


def _check_tuple_cap(cfg: CodeConfig) -> None:
    """Refuse a configuration whose m0*m1*m1p*m2*m2p codeword tuples exceed
    MAX_TUPLES; decode_rx1 and posterior_w1w2 each scan all of them."""
    tuples = cfg.m0 * cfg.m1 * cfg.m1p * cfg.m2 * cfg.m2p
    if tuples > MAX_TUPLES:
        raise CapExceededError(
            f"the codeword scan needs {tuples} tuples, above the cap of {MAX_TUPLES}"
        )


def _check_symbol_cap(cfg: CodeConfig) -> None:
    total_symbols = cfg.n * (cfg.m0 + cfg.m0 * cfg.m1 * cfg.m1p + cfg.m0 * cfg.m2 * cfg.m2p)
    if total_symbols > MAX_CODEBOOK_SYMBOLS:
        raise CapExceededError(
            f"codebook needs {total_symbols} symbols, above the cap of {MAX_CODEBOOK_SYMBOLS}"
        )


def check_simulation(cfg: CodeConfig, trials: int) -> None:
    """Refuse a run before anything is drawn: trials that are not an integer
    >= 1 (ValidationError), or more than MAX_TRIALS trials, MAX_TUPLES codeword
    tuples or MAX_CODEBOOK_SYMBOLS codebook symbols (CapExceededError)."""
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ValidationError(f"trials must be an integer >= 1, got {trials!r}")
    if trials > MAX_TRIALS:
        raise CapExceededError(f"{trials} trials, above the cap of {MAX_TRIALS}")
    _check_tuple_cap(cfg)
    _check_symbol_cap(cfg)


def generate_codebook(cfg: CodeConfig) -> Codebook:
    """Draw the codebook from the auxiliary chain, i.i.d. across positions
    and conditioned per symbol on the governing u codeword."""
    _check_symbol_cap(cfg)
    n, m0, m1, m2, m1p, m2p = cfg.n, cfg.m0, cfg.m1, cfg.m2, cfg.m1p, cfg.m2p
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
    mask = np.empty(len(flat), dtype=bool)
    step = max(1, SCAN_CELLS // k)
    for start in range(0, len(flat), step):
        block = flat[start : start + step]
        rows = len(block)
        cells = block + k * np.arange(rows)[:, None]  # row r counts into bins r*k .. r*k + k - 1
        counts = np.bincount(cells.ravel(), minlength=rows * k).reshape(rows, k)
        mask[start : start + rows] = np.abs(counts / n - ref.ravel()).max(axis=1) <= eps
    return mask.reshape(codes.shape[:-1])


def decode_rx1(cb: Codebook, y1: np.ndarray, eps: float | None = None):
    """Exhaustive joint-typicality scan at the legitimate receiver.

    Returns (w0, w1, w2) when exactly one codeword tuple is typical with
    y1^n; any other outcome (zero or several candidates) returns None.

    Peak memory: the cached `tuples` table (m0*m1*m1p*m2*m2p tuples x n
    int64 symbols), one more array of that size for the trial's codes, and
    per block of tuples one int64 count array of rows x |U||V1||V2||Y1|
    cells with its float deviations; SCAN_CELLS caps the cells per block.
    MAX_TUPLES bounds the tuples before any of this is allocated.
    """
    cfg = cb.config
    eps = cfg.typicality_eps if eps is None else eps
    ref = cb.reference_rx1
    mask = _typical_mask(cb.tuples * ref.shape[-1] + y1, ref, cfg.n, eps)
    hits = np.argwhere(mask)
    if len(hits) != 1:
        return None
    w0, a, b = (int(i) for i in hits[0])
    return w0, a // cfg.m1p, b // cfg.m2p


def decode_rx2(cb: Codebook, y2: np.ndarray, eps: float | None = None):
    """Typicality scan over the common-message codewords only."""
    cfg = cb.config
    eps = cfg.typicality_eps if eps is None else eps
    ref = cb.reference_rx2
    codes = cb.u * ref.shape[1] + y2[None, :]
    mask = _typical_mask(codes, ref, cfg.n, eps)
    hits = np.nonzero(mask)[0]
    return int(hits[0]) if len(hits) == 1 else None


def posterior_w1w2(cb: Codebook, y2: np.ndarray) -> np.ndarray:
    """Exact eavesdropper posterior P(w1, w2 | y2^n, codebook), marginalized
    over the common message and both bin indices."""
    cfg = cb.config
    ll = cb._log_y2[cb.tuples, y2].sum(axis=-1)
    parts = ll.reshape(cfg.m0, cfg.m1, cfg.m1p, cfg.m2, cfg.m2p)
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


def run_simulation(cfg: CodeConfig, trials: int) -> SimulationSummary:
    """Full per-configuration run: one codebook, `trials` uniformly drawn
    message triples, each encoded, sent and decoded, giving empirical error
    rates and the Monte Carlo average of the exact posterior entropy in bits
    per channel use.  Deterministic given (cfg, trials)."""
    check_simulation(cfg, trials)
    cb = generate_codebook(cfg)
    rng_enc = encoder_rng(cfg)
    rng_ch = channel_rng(cfg)
    rng_msg = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(4)[3])
    err1 = err2 = 0
    eq_total = 0.0
    for _ in range(trials):
        sent = tuple(int(rng_msg.integers(m)) for m in (cfg.m0, cfg.m1, cfg.m2))
        x1, x2, _, _ = encode(cb, *sent, rng_enc)
        y1, y2 = transmit(cb, x1, x2, rng_ch)
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
