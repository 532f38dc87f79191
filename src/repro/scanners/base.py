"""Scanner actor model: port plans, temporal profiles, and intent synthesis.

A :class:`ScannerSpec` is one scanning campaign: an origin AS, a pool of
source IPs, a target-selection :class:`TargetStrategy`, and one
:class:`PortPlan` per destination port describing what the campaign does
after a connection opens (which protocol it speaks, which payloads or
credentials it tries, how often).

Specs are *declarative*; the simulation engine interprets them.  The
``family`` field is ground-truth provenance used only by calibration and
validation tests — the analysis pipeline never reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from repro.net.addresses import int_to_ip
from repro.net.packets import Transport
from repro.scanners.credentials import sample_credentials_batch
from repro.scanners.payloads import (
    http_payload,
    protocol_first_payload,
    render_http,
)
from repro.scanners.strategies import TargetStrategy
from repro.sim.events import IntentBatch

__all__ = ["TemporalProfile", "PortPlan", "PayloadGrid", "SearchEngineUse", "ScannerSpec"]

def _host_parts(key: tuple[str, str]) -> Optional[list[bytes]]:
    """A payload key's rendering split around its host fields.

    ``key`` is ``("http", corpus name)`` or ``("first", protocol)``.
    Rendering with the placeholder itself as the host leaves every
    ``{host}`` field in place, so the payload for host ``h`` is
    ``h.encode().join(parts)``, byte-identical to :func:`render_http` /
    :func:`protocol_first_payload` because a dotted quad holds no newline
    or brace.  None when the host's length would change the rendering
    elsewhere (an HTTP body that embeds the host under a computed
    Content-Length); such keys render per host.
    """
    kind, name = key
    if kind == "first":
        return protocol_first_payload(name, "{host}").split(b"{host}")
    template = http_payload(name).template
    normalized = template.replace("\r\n", "\n")
    if "\n\n" in normalized:
        head, body = normalized.split("\n\n", 1)
        if "{content_length}" in head and "{host}" in body:
            return None
    return render_http(template, "{host}").split(b"{host}")


class PayloadGrid:
    """Rendered first payloads per (payload key, destination), filled lazily.

    Payloads are pure functions of a key — ``("http", corpus name)`` or
    ``("first", protocol)`` — and the destination's dotted quad.  A grid
    holds one object cell per (key, destination) pair, rendered on first
    use, so a batch's payload column is one gather instead of one render
    call per session.  The simulator owns one grid over every honeypot
    address for a whole run; :meth:`PortPlan.build_intent_batch` builds a
    throwaway grid over the batch's own destinations when given none.
    """

    def __init__(self, ips: np.ndarray) -> None:
        self.ips = np.unique(np.asarray(ips, dtype=np.int64))
        width = len(self.ips)
        self._hosts: list[Optional[bytes]] = [None] * width
        self._rows: dict[tuple[str, str], int] = {}
        self._parts: list[Optional[list[bytes]]] = []
        self._keys: list[tuple[str, str]] = []
        self._cells = np.empty((0, width), dtype=object)
        self._filled = np.zeros((0, width), dtype=bool)

    def columns(self, dst_ips: np.ndarray) -> np.ndarray:
        """Grid column of every destination address (all must be in the grid)."""
        dst_ips = np.asarray(dst_ips, dtype=np.int64)
        columns = np.searchsorted(self.ips, dst_ips)
        if len(dst_ips) and not (
            columns.max() < len(self.ips) and (self.ips[columns] == dst_ips).all()
        ):
            raise KeyError("destination address outside the payload grid")
        return columns

    def row(self, key: tuple[str, str]) -> int:
        """The grid row of one payload key, added on first use."""
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = len(self._keys)
            self._keys.append(key)
            self._parts.append(_host_parts(key))
            if row == len(self._cells):
                capacity = max(8, 2 * row)
                cells = np.empty((capacity, len(self.ips)), dtype=object)
                cells[:row] = self._cells
                filled = np.zeros((capacity, len(self.ips)), dtype=bool)
                filled[:row] = self._filled
                self._cells, self._filled = cells, filled
        return row

    def http_rows(self, names: tuple[str, ...]) -> np.ndarray:
        """Grid rows of an HTTP corpus list, in list order."""
        return np.array([self.row(("http", name)) for name in names], dtype=np.int64)

    def gather(self, rows, columns: np.ndarray) -> np.ndarray:
        """Payload objects at ``(rows, columns)`` (``rows`` may be a scalar),
        rendering the cells no earlier gather filled."""
        flat = np.asarray(rows, dtype=np.int64) * len(self.ips) + columns
        filled = self._filled.reshape(-1)
        missing = flat[~filled[flat]]
        if len(missing):
            cells = self._cells.reshape(-1)
            width = len(self.ips)
            for cell in np.unique(missing).tolist():
                row, column = divmod(cell, width)
                cells[cell] = self._render(row, column)
            filled[missing] = True
        return self._cells.reshape(-1)[flat]

    def _render(self, row: int, column: int) -> bytes:
        host = self._hosts[column]
        if host is None:
            host = self._hosts[column] = int_to_ip(int(self.ips[column])).encode("ascii")
        parts = self._parts[row]
        if parts is not None:
            return host.join(parts)
        kind, name = self._keys[row]
        return http_payload(name).render(host.decode("ascii"))


@dataclass(frozen=True)
class TemporalProfile:
    """When during the week a campaign sends its traffic.

    ``mode="uniform"`` spreads sessions over the whole window;
    ``mode="burst"`` concentrates them into ``burst_count`` windows of
    ``burst_hours`` each (the "spikes" of Section 4.3);
    ``mode="diurnal"`` follows a 24-hour activity cycle peaking
    ``diurnal_peak_hour`` hours into each day — the signature of
    human-operated or workstation-hosted campaigns.
    """

    mode: str = "uniform"
    burst_count: int = 1
    burst_hours: float = 2.0
    diurnal_peak_hour: float = 14.0
    diurnal_amplitude: float = 0.8

    def __post_init__(self) -> None:
        if self.mode not in ("uniform", "burst", "diurnal"):
            raise ValueError(f"unknown temporal mode {self.mode!r}")
        if self.burst_count < 1:
            raise ValueError("burst_count must be >= 1")
        if self.burst_hours <= 0:
            raise ValueError("burst_hours must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")

    def sample_times(
        self, rng: np.random.Generator, count: int, window_hours: float
    ) -> np.ndarray:
        if count == 0:
            return np.empty(0, dtype=np.float64)
        if self.mode == "uniform":
            return rng.uniform(0.0, window_hours, size=count)
        if self.mode == "diurnal":
            return self._sample_diurnal(rng, count, window_hours)
        starts = rng.uniform(0.0, max(window_hours - self.burst_hours, 0.0), size=self.burst_count)
        picks = rng.integers(0, self.burst_count, size=count)
        offsets = rng.uniform(0.0, self.burst_hours, size=count)
        return np.clip(starts[picks] + offsets, 0.0, np.nextafter(window_hours, 0.0))

    def sample_times_grouped(
        self, rng: np.random.Generator, counts: np.ndarray, window_hours: float
    ) -> np.ndarray:
        """Sample times for many destinations at once (concatenated).

        ``counts[i]`` sessions belong to destination *i*; the result is
        the per-destination samples concatenated in order.  Uniform and
        diurnal sessions are i.i.d., so they collapse into one vectorized
        draw; burst mode keeps its per-destination burst windows (each
        destination draws its own burst starts, as the scalar path did).
        """
        total = int(np.sum(counts))
        if self.mode != "burst":
            return self.sample_times(rng, total, window_hours)
        parts = [
            self.sample_times(rng, int(count), window_hours) for count in counts
        ]
        if not parts:
            return np.empty(0, dtype=np.float64)
        return np.concatenate(parts)

    def _sample_diurnal(
        self, rng: np.random.Generator, count: int, window_hours: float
    ) -> np.ndarray:
        hours = np.arange(int(np.ceil(window_hours)))
        weights = 1.0 + self.diurnal_amplitude * np.cos(
            2.0 * np.pi * ((hours % 24) - self.diurnal_peak_hour) / 24.0
        )
        weights /= weights.sum()
        chosen_hours = rng.choice(hours, size=count, p=weights)
        times = chosen_hours + rng.uniform(0.0, 1.0, size=count)
        return np.clip(times, 0.0, np.nextafter(window_hours, 0.0))


@dataclass(frozen=True)
class PortPlan:
    """What a campaign does on one destination port.

    ``protocol`` is the application protocol actually spoken — it need not
    match the port's IANA assignment (Section 6: 15% of port-80 traffic is
    not HTTP).  Payload policy is protocol-dependent:

    * ``http_payloads`` — corpus entry names with matching
      ``http_weights``; one entry is drawn per session.
    * for SSH/Telnet, ``credential_dialect`` + ``credential_attempts``
      drive interactive logins, except for the ``banner_only_fraction`` of
      sessions that never attempt authentication (the paper's 24%/34%
      non-auth traffic on SSH/Telnet).  ``region_dialects`` overrides the
      dialect for specific destination regions — the mechanism behind the
      Asia-Pacific credential findings.
    * any other protocol sends its canonical first payload.
    """

    port: int
    protocol: str
    rate: float
    transport: Transport = Transport.TCP
    http_payloads: tuple[str, ...] = ()
    http_weights: tuple[float, ...] = ()
    credential_dialect: str = ""
    credential_attempts: tuple[int, int] = (1, 3)
    distinct_credentials: bool = False
    banner_only_fraction: float = 0.0
    region_dialects: Mapping[str, str] = field(default_factory=dict)
    #: Candidate post-login command sequences; one is chosen per session
    #: and recorded if the honeypot accepts the login (Cowrie capture).
    shell_commands: tuple[tuple[str, ...], ...] = ()
    temporal: TemporalProfile = TemporalProfile()

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError("rate must be non-negative")
        if len(self.http_payloads) != len(self.http_weights):
            raise ValueError("http_payloads and http_weights must align")
        if not 0.0 <= self.banner_only_fraction <= 1.0:
            raise ValueError("banner_only_fraction must be in [0, 1]")
        low, high = self.credential_attempts
        if low < 0 or high < low:
            raise ValueError("credential_attempts must be a (low, high) range")

    @property
    def interactive(self) -> bool:
        """True when sessions attempt logins (SSH/Telnet with a dialect)."""
        return bool(self.credential_dialect) and self.protocol in ("ssh", "telnet")

    def _http_probabilities(self) -> np.ndarray:
        cached = self.__dict__.get("_http_probability_cache")
        if cached is None:
            weights = np.asarray(self.http_weights, dtype=np.float64)
            cached = weights / weights.sum()
            object.__setattr__(self, "_http_probability_cache", cached)
        return cached

    def _command_array(self) -> np.ndarray:
        cached = self.__dict__.get("_command_array_cache")
        if cached is None:
            cached = np.empty(len(self.shell_commands), dtype=object)
            cached[:] = list(self.shell_commands)
            object.__setattr__(self, "_command_array_cache", cached)
        return cached

    def build_intent_batch(
        self,
        rng: np.random.Generator,
        timestamps: np.ndarray,
        src_ips: np.ndarray,
        dst_ips: np.ndarray,
        dst_regions: Optional[np.ndarray] = None,
        payload_grid: Optional[PayloadGrid] = None,
    ) -> IntentBatch:
        """Synthesize a whole batch of session intents in columnar form.

        The draw order is fixed and documented, so a seed always yields the
        same batch:

        1. HTTP corpora: one vectorized ``choice`` over payload names.
        2. Interactive plans: one ``random`` per session (banner gate),
           one ``integers`` batch for attempt counts over login sessions,
           then credentials per dialect in sorted dialect-name order, then
           one ``integers`` batch for shell-command choices over sessions
           that drew at least one credential.

        Payloads are gathered from ``payload_grid`` (a grid over the
        batch's own destinations when None), so each distinct (payload,
        destination) pair renders once per grid; credentials, commands
        and per-region dialects are assigned by object-array indexing.
        """
        count = len(timestamps)
        timestamps = np.asarray(timestamps, dtype=np.float64)
        src_ips = np.asarray(src_ips, dtype=np.int64)
        dst_ips = np.asarray(dst_ips, dtype=np.int64)
        credentials = np.empty(count, dtype=object)
        credentials.fill(())
        commands = np.empty(count, dtype=object)
        commands.fill(())

        grid = payload_grid if payload_grid is not None else PayloadGrid(dst_ips)
        if self.protocol == "http" and self.http_payloads:
            indices = rng.choice(len(self.http_payloads), size=count, p=self._http_probabilities())
            rows = grid.http_rows(self.http_payloads)[indices]
            payloads = grid.gather(rows, grid.columns(dst_ips))
        elif self.protocol:
            payloads = grid.gather(grid.row(("first", self.protocol)), grid.columns(dst_ips))
        else:
            payloads = np.empty(count, dtype=object)
            payloads.fill(b"")

        if self.interactive:
            login_positions = np.flatnonzero(rng.random(count) >= self.banner_only_fraction)
            if len(login_positions):
                low, high = self.credential_attempts
                attempts = rng.integers(low, high + 1, size=len(login_positions))
                if self.region_dialects and dst_regions is not None:
                    regions, inverse = np.unique(
                        np.asarray(dst_regions, dtype=object)[login_positions],
                        return_inverse=True,
                    )
                    dialects = [
                        self.region_dialects.get(region, self.credential_dialect)
                        for region in regions.tolist()
                    ]
                    ordered = sorted(set(dialects))
                    codes = np.array([ordered.index(name) for name in dialects])[inverse]
                    for code, name in enumerate(ordered):
                        group = np.flatnonzero(codes == code)
                        credentials[login_positions[group]] = sample_credentials_batch(
                            rng, name, attempts[group], distinct=self.distinct_credentials
                        )
                else:
                    credentials[login_positions] = sample_credentials_batch(
                        rng,
                        self.credential_dialect,
                        attempts,
                        distinct=self.distinct_credentials,
                    )
                if self.shell_commands:
                    # A login session drew credentials iff its attempt
                    # count is positive.
                    with_credentials = login_positions[attempts > 0]
                    if len(with_credentials):
                        choices = rng.integers(
                            len(self.shell_commands), size=len(with_credentials)
                        )
                        commands[with_credentials] = self._command_array()[choices]

        return IntentBatch(
            dst_port=self.port,
            transport=self.transport,
            protocol=self.protocol,
            timestamps=timestamps,
            src_ips=src_ips,
            dst_ips=dst_ips,
            payloads=payloads,
            credentials=credentials,
            commands=commands,
        )


@dataclass(frozen=True)
class SearchEngineUse:
    """A campaign's reliance on an Internet service search engine.

    ``engine`` is ``"censys"`` or ``"shodan"``.  With ``mode="target"``,
    the campaign mines the engine's index for extra targets and sends
    ``spike_sessions`` extra sessions at each in a burst after a random
    discovery time, trying ``unique_credential_boost``x more distinct
    credentials (Section 4.3).  Selection probabilities distinguish
    *freshly* indexed services (new query results attackers poll) from
    *stale* ones, and port-matching entries from an IP that is merely
    listed on some other port — the latter models the paper's IP-level
    reputation effect (previously-leaked HTTP pages attract extra SSH
    traffic).  Services indexed long before the window accumulate extra
    discoverers (the 7x-exploited "previously leaked" group).

    With ``mode="avoid"`` the campaign instead *skips* destinations the
    engine lists — the paper's nmap scanners (Avast, M247, CDN77) avoid
    all Censys-leaked HTTP/80 honeypots while still probing everything
    else.
    """

    engine: str
    mode: str = "target"
    fresh_match: float = 0.9
    fresh_other: float = 0.1
    stale_match: float = 0.015
    stale_other: float = 0.004
    spike_sessions: int = 20
    spike_hours: float = 2.0
    unique_credential_boost: float = 3.0

    def __post_init__(self) -> None:
        if self.engine not in ("censys", "shodan"):
            raise ValueError(f"unknown search engine {self.engine!r}")
        if self.mode not in ("target", "avoid"):
            raise ValueError(f"unknown search-engine mode {self.mode!r}")
        for name in ("fresh_match", "fresh_other", "stale_match", "stale_other"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.spike_sessions < 1:
            raise ValueError("spike_sessions must be >= 1")

    def selection_probability(self, first_indexed: float, port_match: bool) -> float:
        """Probability this campaign discovers one indexed service.

        Fresh entries (indexed during the window) are discovered at the
        fresh rates.  Stale entries gain a slow age boost: a service
        indexed for years has appeared in many historical query results.
        """
        if first_indexed >= 0:
            return self.fresh_match if port_match else self.fresh_other
        age_years = -first_indexed / 8760.0
        boost = min(0.45, 0.30 * age_years)
        if port_match:
            return min(0.9, self.stale_match + boost)
        return min(0.5, self.stale_other + boost * 0.25)

    def selection_probabilities(
        self, first_indexed: np.ndarray, port_match: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`selection_probability` over entry arrays."""
        first_indexed = np.asarray(first_indexed, dtype=np.float64)
        port_match = np.asarray(port_match, dtype=bool)
        age_years = np.maximum(-first_indexed, 0.0) / 8760.0
        boost = np.minimum(0.45, 0.30 * age_years)
        stale = np.where(
            port_match,
            np.minimum(0.9, self.stale_match + boost),
            np.minimum(0.5, self.stale_other + boost * 0.25),
        )
        fresh = np.where(port_match, self.fresh_match, self.fresh_other)
        return np.where(first_indexed >= 0, fresh, stale)


@dataclass(frozen=True)
class ScannerSpec:
    """One scanning campaign.

    ``num_sources`` source IPs are allocated from the campaign's AS by the
    engine; traffic is attributed to sources in a per-campaign random
    rotation.  ``malicious`` is ground truth for calibration only.
    ``honeypot_evasion`` models fingerprinting attackers who detect and
    avoid honeypots (a bias the paper flags as future work).
    """

    scanner_id: str
    family: str
    asn: int
    strategy: TargetStrategy
    plans: tuple[PortPlan, ...]
    num_sources: int = 1
    search_engine: Optional[SearchEngineUse] = None
    malicious: bool = False
    #: Probability the campaign fingerprints a honeypot and withholds its
    #: sessions from it (paper Section 7, "Honeypot Fingerprinting").
    #: Telescopes have nothing to fingerprint, so evasion never applies
    #: there — evasive attackers are *under*-represented at honeypots.
    honeypot_evasion: float = 0.0

    def __post_init__(self) -> None:
        if self.num_sources < 1:
            raise ValueError("num_sources must be >= 1")
        if not 0.0 <= self.honeypot_evasion <= 1.0:
            raise ValueError("honeypot_evasion must be in [0, 1]")
        if not self.plans:
            raise ValueError("a scanner needs at least one port plan")
        ports = [plan.port for plan in self.plans]
        if len(ports) != len(set(ports)):
            raise ValueError("duplicate port plans")

    def plan_for(self, port: int) -> Optional[PortPlan]:
        for plan in self.plans:
            if plan.port == port:
                return plan
        return None

    @property
    def ports(self) -> tuple[int, ...]:
        return tuple(plan.port for plan in self.plans)
