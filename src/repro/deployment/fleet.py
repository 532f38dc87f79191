"""Vantage-point fleet construction matching the paper's Table 1.

The builders here reproduce the deployment geometry exactly:

* **GreyNoise honeypots** in AWS (16 regions), Azure (3), Google (21),
  Linode (7), and a Hurricane Electric /24 (256 IPs).  Each region hosts
  4 honeypots; all four expose the Cowrie ports (SSH 22/2222, Telnet
  23/2323) and two of them additionally expose the full popular-port set
  — the paper's "4 or 2 (HTTP)" vantage counts.
* **Honeytrap /26 networks** at Stanford and Merit plus author-deployed
  equivalents in AWS and Google near Stanford and a 2-IP Google vantage
  near Merit.
* **The Orion telescope**, address-adjacent to Merit (the paper
  hypothesizes their same-AS location explains EDU↔telescope overlap).
* **The leak-experiment groups** of Section 4.3 (control / previously
  leaked / leaked), deployed in the Stanford network.

Honeypot IPs are drawn deterministically (per seed) from each provider's
address pool so that structure-sensitive scanners see realistic octet
variety.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.honeypots.base import VantagePoint
from repro.honeypots.cowrie import COWRIE_PORTS
from repro.honeypots.greynoise import GREYNOISE_DEFAULT_PORTS, GreyNoiseStack
from repro.honeypots.honeytrap import HoneytrapStack
from repro.honeypots.telescope import TelescopeStack
from repro.net.addresses import Prefix
from repro.net.geo import region
from repro.sim.events import NetworkKind
from repro.sim.rng import RngHub

__all__ = [
    "GREYNOISE_REGIONS",
    "CRAWLER_ASES",
    "LEAK_SERVICES",
    "LeakGroup",
    "LeakExperiment",
    "Deployment",
    "build_greynoise_fleet",
    "build_honeytrap_fleet",
    "MAX_TELESCOPE_SLASH24S",
    "build_telescope",
    "build_leak_experiment",
    "build_full_deployment",
]

#: GreyNoise deployment regions per network (paper Table 1).
GREYNOISE_REGIONS: dict[str, tuple[str, ...]] = {
    "hurricane": ("US-OH",),
    "aws": (
        "US-OR", "US-CA", "US-GA", "SA-BR", "ME-BH", "EU-FR", "EU-IE", "EU-DE",
        "CA-TOR", "AP-AU", "AP-SG", "AP-IN", "AP-KR", "AP-JP", "AP-HK", "AF-ZA",
    ),
    "azure": ("US-TX", "AP-SG", "AP-IN"),
    "google": (
        "US-NV", "US-UT", "US-CA", "US-OR", "US-VA", "US-SC", "US-IA", "CA-QC",
        "EU-CH", "EU-NL", "EU-DE", "EU-GB", "EU-BE", "EU-FI", "AP-AU", "AP-ID",
        "AP-SG", "AP-KR", "AP-JP", "AP-HK", "AP-TW",
    ),
    "linode": ("US-CA", "US-NY", "EU-GB", "EU-DE", "AP-IN", "AP-AU", "AP-SG"),
}

#: Address pools per network (synthetic carve-outs of the provider ASes
#: registered in :mod:`repro.net.asn`).
_NETWORK_POOLS: dict[str, str] = {
    "aws": "52.0.0.0/11",
    "google": "34.64.0.0/11",
    "azure": "20.0.0.0/11",
    "linode": "45.33.0.0/17",
    "hurricane": "64.62.0.0/17",
    "stanford": "171.64.0.0/14",
    "merit": "198.108.0.0/16",
}

#: The Orion telescope lives address-adjacent to Merit (same AS region).
#: Its /24s are drawn from this /13 (198.112.0.0 – 198.119.255.255).
TELESCOPE_BASE_PREFIX = "198.112.0.0/13"

_HONEYPOTS_PER_GREYNOISE_REGION = 4
_FULL_PORT_HONEYPOTS_PER_REGION = 2


#: The search engines' own crawler origin ASes, excluded from every
#: leak comparison (batch Table 3 and the streaming alarm) so that
#: increases are attributable to attackers.
CRAWLER_ASES: tuple[int, ...] = (398324, 10439)

#: The (protocol, port) services the leak experiment emulates, in Table
#: 3's row order.
LEAK_SERVICES: tuple[tuple[str, int], ...] = (("http", 80), ("ssh", 22), ("telnet", 23))


@dataclass(frozen=True)
class LeakGroup:
    """One group of 3 leaked honeypots: a single engine may index a
    single protocol/port on these IPs; everything else is blocked."""

    engine: str
    protocol: str
    port: int
    ips: tuple[int, ...]


@dataclass(frozen=True)
class LeakExperiment:
    """The Section 4.3 experiment layout."""

    control_ips: tuple[int, ...]
    previously_leaked_ips: tuple[int, ...]
    leak_groups: tuple[LeakGroup, ...]

    @property
    def leaked_ips(self) -> tuple[int, ...]:
        return tuple(ip for group in self.leak_groups for ip in group.ips)

    @property
    def all_ips(self) -> tuple[int, ...]:
        return self.control_ips + self.previously_leaked_ips + self.leaked_ips

    def group_for(self, ip: int) -> Optional[LeakGroup]:
        for group in self.leak_groups:
            if ip in group.ips:
                return group
        return None


@dataclass
class Deployment:
    """The complete deployed fleet for one simulation."""

    honeypots: list[VantagePoint] = field(default_factory=list)
    telescope: Optional[VantagePoint] = None
    leak_experiment: Optional[LeakExperiment] = None

    @property
    def all_vantages(self) -> list[VantagePoint]:
        vantages = list(self.honeypots)
        if self.telescope is not None:
            vantages.append(self.telescope)
        return vantages

    def honeypots_in(self, network: str, region_code: Optional[str] = None) -> list[VantagePoint]:
        return [
            vantage
            for vantage in self.honeypots
            if vantage.network == network
            and (region_code is None or vantage.region_code == region_code)
        ]

    def networks(self) -> list[str]:
        return sorted({vantage.network for vantage in self.honeypots})


class _AddressAllocator:
    """Deterministic, collision-free honeypot address allocation.

    Each (network, region) pair gets its own /24 slice of the network
    pool; honeypots land on randomized host octets inside it so the fleet
    contains structural variety (including occasional .0 and .255 hosts,
    which some scanners treat specially).
    """

    def __init__(self, hub: RngHub, start_indexes: Optional[dict[str, int]] = None) -> None:
        self._hub = hub
        self._start_indexes = start_indexes or {}
        self._region_counter: dict[str, int] = {}
        self._used: set[int] = set()

    def slash24_for(self, network: str, region_code: str) -> Prefix:
        pool = Prefix.parse(_NETWORK_POOLS[network])
        index = self._region_counter.setdefault(network, self._start_indexes.get(network, 0))
        self._region_counter[network] = index + 1
        base = pool.first + (index + 1) * 4096  # one /20 stride per region
        if base + 255 > pool.last:
            raise RuntimeError(f"{network} address pool exhausted")
        return Prefix(base & ~0xFF, 24)

    def pick_hosts(self, block: Prefix, count: int, tag: str) -> np.ndarray:
        rng = self._hub.fork("deploy", tag)
        hosts = rng.choice(np.arange(block.first, block.last + 1), size=count, replace=False)
        hosts = np.sort(hosts.astype(np.uint32))
        for host in hosts:
            if int(host) in self._used:
                raise RuntimeError(f"address collision at {host}")
            self._used.add(int(host))
        return hosts


def build_greynoise_fleet(hub: RngHub) -> list[VantagePoint]:
    """All GreyNoise honeypots of Table 1, one vantage point per IP."""
    allocator = _AddressAllocator(hub.subhub("greynoise"))
    vantages: list[VantagePoint] = []
    for network, region_codes in GREYNOISE_REGIONS.items():
        if network == "hurricane":
            continue  # the /24 is built below
        for region_code in region_codes:
            block = allocator.slash24_for(network, region_code)
            hosts = allocator.pick_hosts(
                block, _HONEYPOTS_PER_GREYNOISE_REGION, f"{network}:{region_code}"
            )
            for index, host in enumerate(hosts):
                ports = (
                    GREYNOISE_DEFAULT_PORTS
                    if index < _FULL_PORT_HONEYPOTS_PER_REGION
                    else frozenset(COWRIE_PORTS)
                )
                vantages.append(
                    VantagePoint(
                        vantage_id=f"gn-{network}-{region_code}-{index}",
                        network=network,
                        kind=NetworkKind.CLOUD,
                        region_code=region_code,
                        continent=region(region_code).continent.value,
                        ips=np.asarray([host], dtype=np.uint32),
                        stack=GreyNoiseStack(ports),
                    )
                )
    # Hurricane Electric: a full /24 of GreyNoise sensors.
    he_block = Prefix.parse("64.62.10.0/24")
    he_region = GREYNOISE_REGIONS["hurricane"][0]
    for offset, host in enumerate(he_block):
        vantages.append(
            VantagePoint(
                vantage_id=f"gn-hurricane-{he_region}-{offset}",
                network="hurricane",
                kind=NetworkKind.CLOUD,
                region_code=he_region,
                continent=region(he_region).continent.value,
                ips=np.asarray([host], dtype=np.uint32),
                stack=GreyNoiseStack(GREYNOISE_DEFAULT_PORTS),
            )
        )
    return vantages


#: Honeytrap deployments: (name, network, kind, region, #IPs).
_HONEYTRAP_SITES: tuple[tuple[str, str, NetworkKind, str, int], ...] = (
    ("ht-stanford", "stanford", NetworkKind.EDU, "US-WEST", 64),
    ("ht-aws-west", "aws", NetworkKind.CLOUD, "US-WEST", 64),
    ("ht-google-west", "google", NetworkKind.CLOUD, "US-WEST", 64),
    ("ht-merit", "merit", NetworkKind.EDU, "US-EAST", 64),
    ("ht-google-east", "google", NetworkKind.CLOUD, "US-EAST", 2),
)


def build_honeytrap_fleet(hub: RngHub) -> list[VantagePoint]:
    """The /26 Honeytrap networks (one vantage point per IP)."""
    # AWS/Google blocks start past the GreyNoise fleet's allocations.
    allocator = _AddressAllocator(hub.subhub("honeytrap"), {"aws": 24, "google": 24})
    vantages: list[VantagePoint] = []
    for site_id, network, kind, region_code, count in _HONEYTRAP_SITES:
        block = allocator.slash24_for(network, region_code)
        hosts = allocator.pick_hosts(block, count, site_id)
        for index, host in enumerate(hosts):
            vantages.append(
                VantagePoint(
                    vantage_id=f"{site_id}-{index}",
                    network=network,
                    kind=kind,
                    region_code=region_code,
                    continent=region(region_code).continent.value,
                    ips=np.asarray([host], dtype=np.uint32),
                    stack=HoneytrapStack(),
                )
            )
    return vantages


#: The real Orion's size in /24s, and the largest telescope the builder
#: lays out (the simulation schema bounds ``--telescope`` by it).
MAX_TELESCOPE_SLASH24S = 1856


def build_telescope(num_slash24s: int = 16) -> VantagePoint:
    """The Orion telescope as one vantage spanning ``num_slash24s`` /24s.

    The real Orion spans 1,856 /24s (475K IPs); the default is scaled for
    tractable simulation and is a constructor parameter everywhere.

    The /24s are chosen to preserve the *address-structure variety* the
    Figure 1 analyses need even at small scale: for each /16 inside the
    telescope's /13 we include its ``x.y.0.0/24`` (containing the
    first-of-/16 address Mirai prefers) and its ``x.y.255.0/24``
    (containing any-octet-255 addresses); the remaining budget is spread
    evenly across the range.
    """
    if not 1 <= num_slash24s <= MAX_TELESCOPE_SLASH24S:
        raise ValueError(f"num_slash24s must be in [1, {MAX_TELESCOPE_SLASH24S}]")
    base = Prefix.parse(TELESCOPE_BASE_PREFIX)
    total_slash24s = base.num_addresses // 256

    chosen: list[int] = []  # /24 indexes within the /13
    slash16_count = total_slash24s // 256
    for slash16 in range(slash16_count):
        if len(chosen) < num_slash24s:
            chosen.append(slash16 * 256)  # x.y.0.0/24
        if len(chosen) < num_slash24s:
            chosen.append(slash16 * 256 + 255)  # x.y.255.0/24
    if len(chosen) < num_slash24s:
        remaining = num_slash24s - len(chosen)
        taken = set(chosen)
        fillers = (
            index
            for index in np.linspace(0, total_slash24s - 1, total_slash24s, dtype=int)
            if index not in taken
        )
        spread = np.linspace(0, total_slash24s - 1, remaining * 4, dtype=int)
        for index in spread:
            if int(index) not in taken:
                chosen.append(int(index))
                taken.add(int(index))
                if len(chosen) == num_slash24s:
                    break
        for index in fillers:
            if len(chosen) == num_slash24s:
                break
            chosen.append(int(index))
            taken.add(int(index))
    chosen = sorted(chosen[:num_slash24s])

    blocks = [
        np.arange(base.first + index * 256, base.first + index * 256 + 256, dtype=np.uint32)
        for index in chosen
    ]
    ips = np.concatenate(blocks)
    return VantagePoint(
        vantage_id="orion",
        network="orion",
        kind=NetworkKind.TELESCOPE,
        region_code="US-EAST",
        continent=region("US-EAST").continent.value,
        ips=ips,
        stack=TelescopeStack(),
    )


#: Leak experiment protocols and ports (Section 4.3 methodology) in build
#: order, which fixes each group's IPs; ``LEAK_SERVICES`` is Table 3's order.
_LEAK_SERVICES: tuple[tuple[str, int], ...] = (("ssh", 22), ("telnet", 23), ("http", 80))
_LEAK_INTERACTIVE_PORTS = frozenset({22, 23})


def build_leak_experiment(hub: RngHub) -> tuple[list[VantagePoint], LeakExperiment]:
    """Deploy the control / previously-leaked / leaked honeypot groups.

    All 33 honeypots live in the Stanford network (the paper deploys them
    there because cloud IPs have uncontrollable service histories) and
    emulate SSH/22, Telnet/23, and HTTP/80 interactively.
    """
    # Stanford blocks start past the Honeytrap /26's allocation.
    allocator = _AddressAllocator(hub.subhub("leak"), {"stanford": 4})
    block_a = allocator.slash24_for("stanford", "US-WEST")
    block_b = allocator.slash24_for("stanford", "US-WEST")
    hosts = np.concatenate(
        [allocator.pick_hosts(block_a, 17, "leak-a"), allocator.pick_hosts(block_b, 16, "leak-b")]
    )
    control = tuple(int(ip) for ip in hosts[:8])
    previously = tuple(int(ip) for ip in hosts[8:15])
    leaked_pool = [int(ip) for ip in hosts[15:33]]

    groups: list[LeakGroup] = []
    cursor = 0
    for engine in ("censys", "shodan"):
        for protocol, port in _LEAK_SERVICES:
            groups.append(
                LeakGroup(
                    engine=engine,
                    protocol=protocol,
                    port=port,
                    ips=tuple(leaked_pool[cursor : cursor + 3]),
                )
            )
            cursor += 3

    experiment = LeakExperiment(
        control_ips=control,
        previously_leaked_ips=previously,
        leak_groups=tuple(groups),
    )
    vantages = [
        VantagePoint(
            vantage_id=f"leak-{index}",
            network="stanford",
            kind=NetworkKind.EDU,
            region_code="US-WEST",
            continent=region("US-WEST").continent.value,
            ips=np.asarray([ip], dtype=np.uint32),
            stack=HoneytrapStack(interactive_ports=_LEAK_INTERACTIVE_PORTS),
        )
        for index, ip in enumerate(experiment.all_ips)
    ]
    return vantages, experiment


def build_full_deployment(
    hub: RngHub,
    num_telescope_slash24s: int = 16,
    include_leak_experiment: bool = True,
) -> Deployment:
    """Assemble the complete Table 1 deployment."""
    deployment = Deployment()
    deployment.honeypots.extend(build_greynoise_fleet(hub))
    deployment.honeypots.extend(build_honeytrap_fleet(hub))
    if include_leak_experiment:
        leak_vantages, experiment = build_leak_experiment(hub)
        deployment.honeypots.extend(leak_vantages)
        deployment.leak_experiment = experiment
    deployment.telescope = build_telescope(num_telescope_slash24s)
    return deployment
