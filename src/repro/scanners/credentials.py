"""Credential dictionaries for SSH/Telnet brute-force simulation.

The paper's geography findings (Section 5.1) hinge on *which* usernames
and passwords attackers try where: most regions see "root"/"admin"/
"support", while e.g. the AWS Australia region is dominated by "mother"
and "e8ehome" — a credential used by Mirai variants against Huawei
devices.  Dialects below package those vocabularies; scanner specs pick a
dialect (optionally per target region).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import accumulate

import numpy as np

__all__ = [
    "CredentialDialect",
    "DIALECTS",
    "dialect",
    "sample_credentials_batch",
    "sample_distinct",
]


@dataclass(frozen=True)
class CredentialDialect:
    """A weighted credential vocabulary.

    ``pairs`` are (username, password) tuples ordered by decreasing
    popularity; ``weights`` give the sampling distribution (they need not
    be normalized).
    """

    name: str
    pairs: tuple[tuple[str, str], ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.pairs) != len(self.weights):
            raise ValueError("pairs and weights must align")
        if not self.pairs:
            raise ValueError("a dialect needs at least one credential")
        if any(weight <= 0 for weight in self.weights):
            raise ValueError("weights must be positive")

    def probabilities(self) -> np.ndarray:
        weights = np.asarray(self.weights, dtype=np.float64)
        return weights / weights.sum()

    def pair_array(self) -> np.ndarray:
        """``pairs`` as a 1-d object array (one tuple per element), for
        gathering sampled pairs by index."""
        cached = self.__dict__.get("_pair_array")
        if cached is None:
            cached = np.empty(len(self.pairs), dtype=object)
            cached[:] = list(self.pairs)
            object.__setattr__(self, "_pair_array", cached)
        return cached


def _geometric_weights(count: int, ratio: float = 0.62) -> tuple[float, ...]:
    """Zipf-ish popularity decay used for all dialects."""
    return tuple(ratio**rank for rank in range(count))


def _dialect(name: str, pairs: list[tuple[str, str]]) -> CredentialDialect:
    return CredentialDialect(name, tuple(pairs), _geometric_weights(len(pairs)))


DIALECTS: dict[str, CredentialDialect] = {
    dialect.name: dialect
    for dialect in (
        _dialect(
            "global-ssh",
            [
                ("root", "123456"),
                ("root", "root"),
                ("admin", "admin"),
                ("root", "password"),
                ("ubuntu", "ubuntu"),
                ("test", "test"),
                ("oracle", "oracle"),
                ("postgres", "postgres"),
                ("git", "git"),
                ("user", "user"),
                ("pi", "raspberry"),
                ("root", "admin123"),
                ("root", "1234567890"),
                ("root", "qwerty"),
                ("root", "abc123"),
                ("root", "passw0rd"),
                ("root", "letmein"),
                ("root", "toor"),
                ("root", "changeme"),
                ("root", "server"),
                ("root", "linux"),
                ("root", "cloud"),
                ("admin", "admin@123"),
                ("admin", "P@ssw0rd"),
                ("deploy", "deploy"),
                ("www", "www"),
                ("ftpuser", "ftpuser"),
                ("jenkins", "jenkins"),
                ("hadoop", "hadoop"),
                ("es", "elastic"),
                ("minecraft", "minecraft"),
                ("steam", "steam"),
                ("vagrant", "vagrant"),
                ("centos", "centos"),
                ("debian", "debian"),
                ("ec2-user", "ec2-user"),
            ],
        ),
        _dialect(
            "global-telnet",
            [
                ("root", "root"),
                ("admin", "admin"),
                ("support", "support"),
                ("root", "123456"),
                ("admin", "password"),
                ("guest", "guest"),
                ("root", "default"),
                ("user", "user"),
                ("admin", "1234"),
                ("root", "12345"),
            ],
        ),
        _dialect(
            "mirai",
            [
                ("root", "xc3511"),
                ("root", "vizxv"),
                ("root", "admin"),
                ("admin", "admin"),
                ("root", "888888"),
                ("root", "xmhdipc"),
                ("root", "juantech"),
                ("root", "123456"),
                ("root", "54321"),
                ("support", "support"),
                ("root", "7ujMko0admin"),
                ("root", "anko"),
            ],
        ),
        # Huawei-targeting Mirai variant vocabulary: the paper reports the
        # AWS Australia region dominated by "mother" and "e8ehome".
        _dialect(
            "apac-huawei",
            [
                ("mother", "fucker"),
                ("e8ehome", "e8ehome"),
                ("e8telnet", "e8telnet"),
                ("telecomadmin", "admintelecom"),
                ("root", "hi3518"),
                ("admin", "CUAdmin"),
                ("root", "huawei123"),
            ],
        ),
        _dialect(
            "apac-dvr",
            [
                ("root", "hichiphx"),
                ("admin", "tlJwpbo6"),
                ("root", "cat1029"),
                ("default", "OxhlwSG8"),
                ("root", "zsun1188"),
                ("root", "tsgoingon"),
            ],
        ),
        _dialect(
            "router-bruteforce",
            [
                ("admin", "admin123"),
                ("admin", "changeme"),
                ("cisco", "cisco"),
                ("ubnt", "ubnt"),
                ("admin", "airlive"),
                ("mikrotik", "mikrotik"),
            ],
        ),
    )
}


def dialect(name: str) -> CredentialDialect:
    """Look up a dialect by name."""
    try:
        return DIALECTS[name]
    except KeyError:
        raise KeyError(f"unknown credential dialect {name!r}") from None


def sample_distinct(
    rng: np.random.Generator, probabilities: list[float], size: int
) -> list[int]:
    """``rng.choice(len(probabilities), size, replace=False, p=probabilities)``
    as a list, computed in plain Python with numpy's exact draws.

    numpy's weighted no-replacement choice is a rejection loop: draw
    ``size - found`` uniforms with ``rng.random``, zero the weights of
    the indices found so far, take the sequential cumulative sum
    normalized by its last element, map each uniform to
    ``searchsorted(cdf, u, side="right")``, and keep each new index at
    its first occurrence.  Over a credential vocabulary (at most a few
    dozen pairs) the same arithmetic on Python floats is several times
    cheaper than the numpy call, and it consumes the generator
    identically, so the stream after the call is unchanged too.
    ``size`` must not exceed the number of positive weights.
    """
    weights = list(probabilities)
    found: list[int] = []
    while len(found) < size:
        draws = rng.random(size - len(found)).tolist()
        cdf = list(accumulate(weights))
        cdf = list(map(cdf[-1].__rtruediv__, cdf))  # each value / the total
        fresh = list(dict.fromkeys(map(partial(bisect_right, cdf), draws)))
        # A zero weight can never be drawn again, so zeroing only the
        # fresh indices keeps every found index at zero.
        for index in fresh:
            weights[index] = 0.0
        found.extend(fresh)
    return found


def sample_credentials_batch(
    rng: np.random.Generator,
    dialect_name: str,
    attempts: np.ndarray,
    distinct: bool = False,
) -> np.ndarray:
    """Draw a login sequence from a dialect for each of a batch of sessions.

    ``attempts[i]`` is session *i*'s login-attempt count; the return value
    is a 1-d object array holding one tuple of ``(username, password)``
    pairs per session (plain string pairs, the representation capture
    stacks record).  With ``distinct`` a session never repeats a pair
    (so it tries at most the dialect's vocabulary size): attackers that
    mine search engines try ~3x more *unique* passwords (Section 4.3).
    Without it, all sessions' draws collapse into a single weighted
    ``choice`` call; distinct sampling (only boosted search-engine spikes
    use it) draws session by session through :func:`sample_distinct`.
    """
    vocabulary = dialect(dialect_name)
    pairs = vocabulary.pairs
    probabilities = vocabulary.probabilities()
    attempts = np.asarray(attempts, dtype=np.int64)
    if distinct:
        attempts = np.minimum(attempts, len(pairs))
    sequences = np.empty(len(attempts), dtype=object)
    sequences.fill(())
    positive = np.flatnonzero(attempts > 0)
    if len(positive) == 0:
        return sequences
    counts = attempts[positive]
    if distinct:
        weights = probabilities.tolist()
        sequences[positive] = np.fromiter(
            (
                tuple([pairs[index] for index in sample_distinct(rng, weights, count)])
                for count in counts.tolist()
            ),
            dtype=object,
            count=len(counts),
        )
        return sequences
    drawn = vocabulary.pair_array()[
        rng.choice(len(pairs), size=int(counts.sum()), p=probabilities)
    ].tolist()
    sizes = counts.tolist()
    sequences[positive] = np.fromiter(
        (tuple(drawn[end - size:end]) for size, end in zip(sizes, accumulate(sizes))),
        dtype=object,
        count=len(sizes),
    )
    return sequences
