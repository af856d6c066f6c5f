"""Desk-scale Monte Carlo simulator of the superposition / random-binning
coding scheme on tiny discrete channels.

A codebook is drawn once per seed: common codewords u^n(w0); for each of
them a cloud of v1 codewords binned as v1^n(w0, w1, q) and likewise
v2^n(w0, w2, q').  Encoding picks the bin index at random.  Decoding is an
exhaustive strong-joint-typicality scan, decided from a table of the counts
each cell of the reference distribution allows.  At the legitimate receiver
an exact prefilter first counts every v1 row against the (u, v1, y1)
marginal and every v2 row against the (u, v2, y1) marginal; only tuples
whose two rows pass both get the full joint-type count.  The eavesdropper's
equivocation is measured from the exact posterior over the message pair,
obtained by summing channel likelihoods over every (w0, q, q') for each
(w1, w2).  The three scans take a leading trial axis, and `run_simulation`
calls them once per chunk of trials, with chunk x tuples <= TRIAL_TUPLES.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import logsumexp

from .dm import AuxiliaryChain
from .errors import CapExceededError, ValidationError, is_finite_real, is_integer
from .info import DiscreteChannel, entropy_bits

MAX_BLOCKLENGTH = 16
MAX_TRIALS = 100_000
MAX_CODEBOOK_SYMBOLS = 1 << 21  # u, v1 and v2 symbols of one codebook
MAX_TUPLES = 1 << 19  # codeword tuples m0*m1*m1p*m2*m2p that each trial scans
SCAN_CELLS = 1 << 20  # count cells per block of a typicality scan, bounding its arrays
TRIAL_TUPLES = 1 << 14  # trials x codeword tuples per chunk of run_simulation's scans


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
        if not is_integer(self.n) or not 1 <= self.n <= MAX_BLOCKLENGTH:
            raise ValidationError(
                f"blocklength must be an integer in 1..{MAX_BLOCKLENGTH}, got {self.n!r}"
            )
        if not is_integer(self.seed) or self.seed < 0:
            raise ValidationError(f"seed must be an integer >= 0, got {self.seed!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "seed", int(self.seed))
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

    @property
    def tuple_count(self) -> int:
        """m0*m1*m1p*m2*m2p codeword tuples, each scanned per trial."""
        return self.m0 * self.m1 * self.m1p * self.m2 * self.m2p

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
        # log p(y2 | v1, v2): one row per y2 symbol, one column per composite symbol of `tuples`
        aux = self.config.aux
        w2_given_v = np.einsum(
            "ax,by,xyd->abd", aux.p_x1_given_v1, aux.p_x2_given_v2, self.channel.y2_marginal()
        )
        with np.errstate(divide="ignore"):
            log_w2 = np.log(w2_given_v).reshape(-1, w2_given_v.shape[-1])
        return np.tile(log_w2.T, aux.u_size)


def _check_tuple_cap(cfg: CodeConfig) -> None:
    """Refuse a configuration whose m0*m1*m1p*m2*m2p codeword tuples exceed
    MAX_TUPLES; decode_rx1 and posterior_w1w2 each scan all of them."""
    if cfg.tuple_count > MAX_TUPLES:
        raise CapExceededError(
            f"the codeword scan needs {cfg.tuple_count} tuples, above the cap of {MAX_TUPLES}"
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
    if not is_integer(trials) or trials < 1:
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


def _allowed_counts(ref: np.ndarray, n: int, eps: float) -> np.ndarray:
    """allowed[cell, k]: is a count of k in that cell within eps of the
    reference?  The same float expression abs(k/n - ref) <= eps that a
    per-tuple test evaluates, so a lookup decides exactly as it would."""
    return np.abs(np.arange(n + 1) / n - ref.reshape(-1, 1)) <= eps


def _marginal_allowed(allowed: np.ndarray, shape: tuple, axis: int) -> np.ndarray:
    """Counts a marginal cell can hold when every joint cell summed into it
    holds an allowed count.  Each joint cell allows an interval of counts,
    since abs(k/n - ref) is monotone on each side of ref, so the marginal
    allows the integer interval [sum of lows, sum of highs]."""
    k = np.arange(allowed.shape[1])
    lo = np.where(allowed, k, allowed.shape[1]).min(axis=1)  # an empty cell rules out every count
    hi = np.where(allowed, k, -1).max(axis=1)
    lo, hi = (b.reshape(shape).sum(axis=axis).reshape(-1, 1) for b in (lo, hi))
    return (lo <= k) & (k <= hi)


def _typical_mask(codes: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """codes: (..., n) cell indices into allowed; True where every cell's
    count over the n positions is allowed."""
    k, n = allowed.shape[0], codes.shape[-1]
    flat = codes.reshape(-1, n)
    lookup = allowed.ravel()
    columns = allowed.shape[1] * np.arange(k)
    mask = np.empty(len(flat), dtype=bool)
    step = max(1, SCAN_CELLS // k)
    for start in range(0, len(flat), step):
        block = flat[start : start + step]
        rows = len(block)
        cells = block + k * np.arange(rows)[:, None]  # row r counts into bins r*k .. r*k + k - 1
        counts = np.bincount(cells.ravel(), minlength=rows * k).reshape(rows, k)
        mask[start : start + rows] = lookup[counts + columns].all(axis=1)
    return mask.reshape(codes.shape[:-1])


def decode_rx1(cb: Codebook, y1: np.ndarray, eps: float | None = None):
    """Exhaustive joint-typicality scan at the legitimate receiver.

    Returns (w0, w1, w2) when exactly one codeword tuple is typical with
    y1^n; any other outcome (zero or several candidates) returns None.
    Given a (B, n) stack of outputs, returns the list of B results and an
    int array of each trial's number of typical tuples.

    A tuple's joint type is counted only when its v1 row fits the (u, v1,
    y1) marginal and its v2 row the (u, v2, y1) marginal; a row that does
    not cannot be part of a typical tuple, so the decisions are exact.

    Peak memory: the cached `tuples` table (m0*m1*m1p*m2*m2p tuples x n
    int64 symbols), a B x tuples mask, the int64 codes of the candidates
    that pass the prefilter (at most B x tuples x n, and in the benchmark
    scenario 0.3-2 % of that), and per block of candidates one int64 count
    array of rows x |U||V1||V2||Y1| cells; SCAN_CELLS caps the cells per
    block.  MAX_TUPLES bounds the tuples before any of this is allocated,
    and run_simulation keeps B x tuples at most TRIAL_TUPLES (or B = 1).
    """
    cfg, aux = cb.config, cb.config.aux
    eps = cfg.typicality_eps if eps is None else eps
    ref = cb.reference_rx1
    n, ny1, count = cfg.n, ref.shape[-1], cfg.tuple_count
    y = np.asarray(y1).reshape(-1, n)  # (B, n); one output is a stack of one
    tuples = cb.tuples
    allowed = _allowed_counts(ref, n, eps)
    rows1 = (cb.u[:, None, :] * aux.v1_size + cb.v1.reshape(cfg.m0, -1, n)) * ny1
    rows2 = (cb.u[:, None, :] * aux.v2_size + cb.v2.reshape(cfg.m0, -1, n)) * ny1
    fits1 = _typical_mask(rows1 + y[:, None, None, :], _marginal_allowed(allowed, ref.shape, 2))
    fits2 = _typical_mask(rows2 + y[:, None, None, :], _marginal_allowed(allowed, ref.shape, 1))
    candidates = np.flatnonzero(fits1[:, :, :, None] & fits2[:, :, None, :])
    trial, tup = np.divmod(candidates, count)
    codes = tuples.reshape(-1, n)[tup] * ny1 + y[trial]
    mask = np.zeros((len(y), count), dtype=bool)
    mask.flat[candidates[_typical_mask(codes, allowed)]] = True
    hits, first = mask.sum(axis=1), mask.argmax(axis=1)
    w0, a, b = np.unravel_index(first, tuples.shape[:-1])
    decoded = [
        (int(w0[i]), int(a[i]) // cfg.m1p, int(b[i]) // cfg.m2p) if hits[i] == 1 else None
        for i in range(len(y))
    ]
    return (decoded, hits) if np.ndim(y1) == 2 else decoded[0]


def decode_rx2(cb: Codebook, y2: np.ndarray, eps: float | None = None):
    """Typicality scan over the common-message codewords only; given a
    (B, n) stack of outputs, the list of B results."""
    cfg = cb.config
    eps = cfg.typicality_eps if eps is None else eps
    ref = cb.reference_rx2
    y = np.asarray(y2).reshape(-1, cfg.n)
    mask = _typical_mask(cb.u * ref.shape[1] + y[:, None, :], _allowed_counts(ref, cfg.n, eps))
    hits, first = mask.sum(axis=1), mask.argmax(axis=1)
    decoded = [int(first[i]) if hits[i] == 1 else None for i in range(len(y))]
    return decoded if np.ndim(y2) == 2 else decoded[0]


def posterior_w1w2(cb: Codebook, y2: np.ndarray) -> np.ndarray:
    """Exact eavesdropper posterior P(w1, w2 | y2^n, codebook), marginalized
    over the common message and both bin indices; (M1, M2), or (B, M1, M2)
    for a (B, n) stack of outputs.

    Peak memory: beside the cached `tuples` table, one int64 index and one
    float64 gather of tuples x n each; the gather is made per trial, never
    for B x tuples x n at once."""
    cfg, n = cb.config, cb.config.n
    y = np.asarray(y2).reshape(-1, n)
    symbols = cb._log_y2.shape[1]  # |U||V1||V2|
    tables = cb._log_y2[y].reshape(len(y), -1)  # log p(y2[b, t] | symbol) at t*symbols + symbol
    index = cb.tuples.reshape(-1, n) + symbols * np.arange(n)
    ll = np.stack([np.take(table, index).sum(axis=-1) for table in tables])
    parts = ll.reshape(len(y), cfg.m0, cfg.m1, cfg.m1p, cfg.m2, cfg.m2p)
    log_post = logsumexp(parts, axis=(1, 3, 5))  # (B, M1, M2); uniform weights cancel
    log_post -= logsumexp(log_post, axis=(1, 2), keepdims=True)
    post = np.exp(log_post)
    return post if np.ndim(y2) == 2 else post[0]


@dataclass(frozen=True)
class SimulationSummary:
    """One run's error rates and equivocation.  rx1_no_candidate and
    rx1_several split receiver 1's failures to decode into trials where
    no codeword tuple was typical and where more than one was; the rest of
    pe1 * trials are unique decodes of the wrong message triple."""

    n: int
    trials: int
    pe1: float
    pe2: float
    equivocation_bits_per_use: float
    secrecy_gap: float
    rx1_no_candidate: int
    rx1_several: int


def run_simulation(cfg: CodeConfig, trials: int) -> SimulationSummary:
    """Full per-configuration run: one codebook, `trials` uniformly drawn
    message triples, each encoded, sent and decoded, giving empirical error
    rates and the Monte Carlo average of the exact posterior entropy in bits
    per channel use.  Trials are drawn one at a time and decoded in chunks
    of at most TRIAL_TUPLES // tuples; the chunking moves no result.
    Deterministic given (cfg, trials)."""
    check_simulation(cfg, trials)
    cb = generate_codebook(cfg)
    rng_enc = encoder_rng(cfg)
    rng_ch = channel_rng(cfg)
    rng_msg = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(4)[3])
    chunk = max(1, TRIAL_TUPLES // cfg.tuple_count)
    err1 = err2 = no_candidate = several = 0
    eq_total = 0.0
    for start in range(0, trials, chunk):
        sent, y1s, y2s = [], [], []
        for _ in range(min(chunk, trials - start)):
            w = tuple(int(rng_msg.integers(m)) for m in (cfg.m0, cfg.m1, cfg.m2))
            x1, x2, _, _ = encode(cb, *w, rng_enc)
            y1, y2 = transmit(cb, x1, x2, rng_ch)
            sent.append(w)
            y1s.append(y1)
            y2s.append(y2)
        y2s = np.array(y2s)
        decoded1, hits = decode_rx1(cb, np.array(y1s))
        decoded2 = decode_rx2(cb, y2s)
        posteriors = posterior_w1w2(cb, y2s)
        for w, d1, d2, post in zip(sent, decoded1, decoded2, posteriors):
            err1 += d1 != w
            err2 += d2 != w[0]
            eq_total += entropy_bits(post)
        no_candidate += int(np.sum(hits == 0))
        several += int(np.sum(hits > 1))
    eq_rate = eq_total / (trials * cfg.n)
    return SimulationSummary(
        n=cfg.n,
        trials=trials,
        pe1=err1 / trials,
        pe2=err2 / trials,
        equivocation_bits_per_use=eq_rate,
        secrecy_gap=cfg.realized_secret_rate() - eq_rate,
        rx1_no_candidate=no_candidate,
        rx1_several=several,
    )
