"""Deterministic random-stream management.

Every stochastic component of the simulator (each scanner, each crawler,
each experiment) draws from its own independently-seeded stream, forked
from a single root seed.  This makes simulations exactly reproducible and
— crucially for the paper's statistics — makes two vantage points differ
only because of genuine sampling, never because of stream entanglement.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RngHub", "analysis_rng", "session_uniforms", "stable_hash64"]


def stable_hash64(*parts: object) -> int:
    """A process-stable 64-bit hash of the string forms of ``parts``.

    Python's builtin ``hash`` is salted per-process, so it cannot seed
    reproducible streams; we use BLAKE2b instead.
    """
    digest = hashlib.blake2b(
        "\x1f".join(str(part) for part in parts).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def _rounded_str(value: float) -> str:
    """``str(round(value, 6))`` for a non-negative float, from one
    fixed-point format.

    From 1e-4 up to 1e15 the shortest repr of the float nearest a
    six-place decimal is that decimal without trailing zeros (distinct
    six-place decimals are 1e-6 apart, far wider than a double's
    spacing), so one ``.6f`` format gives the same text.  Outside that
    range repr switches to exponent notation; those values take the
    direct path.
    """
    if not 1e-4 <= value < 1e15:
        return str(round(value, 6))
    text = format(value, ".6f").rstrip("0")
    return text + "0" if text[-1] == "." else text


def session_uniforms(
    prefix: tuple, src_ips: np.ndarray, dst_ips: np.ndarray, timestamps: np.ndarray
) -> np.ndarray:
    """Deterministic per-session draws in [0, 1), one per row.

    Row ``i`` is ``stable_hash64(*prefix, src_ips[i], dst_ips[i],
    round(timestamps[i], 6)) / 2**64``: a session's draw is a fixed
    property of who connected where and when, so a capture stack's
    stochastic choices (Cowrie accepting a login, a firewall dropping a
    session) replay identically.  One loop hashes the exact bytes
    :func:`stable_hash64` would.
    """
    head = "".join(f"{part}\x1f" for part in prefix)
    digests = b"".join([
        hashlib.blake2b(f"{head}{src}\x1f{dst}\x1f{stamp}".encode("utf-8"), digest_size=8).digest()
        for src, dst, stamp in zip(
            src_ips.tolist(), dst_ips.tolist(), map(_rounded_str, timestamps.tolist())
        )
    ])
    return np.frombuffer(digests, ">u8") / float(1 << 64)


class RngHub:
    """Fork independent :class:`numpy.random.Generator` streams by name.

    >>> hub = RngHub(seed=7)
    >>> a = hub.fork("scanner", 1).integers(0, 100, 3)
    >>> b = RngHub(seed=7).fork("scanner", 1).integers(0, 100, 3)
    >>> (a == b).all()
    np.True_
    """

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self._seed = int(seed)

    @property
    def seed(self) -> int:
        return self._seed

    def fork(self, *tag: object) -> np.random.Generator:
        """Return a generator unique to ``tag`` (and this hub's seed)."""
        sequence = np.random.SeedSequence([self._seed, stable_hash64(*tag)])
        return np.random.default_rng(sequence)

    def subhub(self, *tag: object) -> "RngHub":
        """A child hub whose streams are disjoint from this hub's."""
        return RngHub(stable_hash64(self._seed, "subhub", *tag) % (1 << 63))

    def coverage_mask(self, tag: object, values: np.ndarray, fraction: float) -> np.ndarray:
        """Deterministic per-value Bernoulli(fraction) membership mask.

        Used for Internet-wide scan subsampling: whether a given scanner's
        campaign covers a given destination IP must be a *fixed property*
        of the (scanner, IP) pair — the same IP stays covered or skipped
        for the whole window — rather than re-rolled per event.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if fraction == 1.0:
            return np.ones(len(values), dtype=bool)
        if fraction == 0.0:
            return np.zeros(len(values), dtype=bool)
        salt = np.uint64(stable_hash64(self._seed, "coverage", tag))
        # splitmix64-style avalanche; the salt is XORed in *before* the
        # multiplies so different tags decorrelate (an additive salt after
        # the last multiply would only shift every hash by a constant).
        hashed = np.asarray(values, dtype=np.uint64) ^ salt
        hashed = (hashed + np.uint64(0x9E3779B97F4A7C15)) * np.uint64(0xBF58476D1CE4E5B9)
        hashed ^= hashed >> np.uint64(31)
        hashed *= np.uint64(0x94D049BB133111EB)
        hashed ^= hashed >> np.uint64(29)
        threshold = np.uint64(int(fraction * float(2**64 - 1)))
        return hashed < threshold


#: Root seed for analysis-side randomness (bootstrap resampling and the
#: like).  Fixed and documented here — never derived from a simulation
#: seed — so analysis draws can never entangle with the simulated
#: traffic streams, and a rerun of any analysis is reproducible on its
#: own.
_ANALYSIS_SEED = 20230901


def analysis_rng(*tag: object) -> np.random.Generator:
    """A named, reproducible stream for analysis-side randomness.

    This is the sanctioned replacement for ad-hoc
    ``np.random.default_rng(<constant>)`` seeds in analysis code (the
    lint rule RNG003 bans those): callers name their stream and get a
    generator forked from the fixed analysis seed, disjoint from every
    other named stream.

    >>> a = analysis_rng("bootstrap").integers(0, 100, 3)
    >>> b = analysis_rng("bootstrap").integers(0, 100, 3)
    >>> (a == b).all()
    np.True_
    """
    return RngHub(_ANALYSIS_SEED).fork("analysis", *tag)
