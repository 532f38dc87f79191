"""Target-selection strategies.

A scanner's *strategy* answers one question: given the set of observable
destination IPs, how much traffic does each receive?  The paper documents
several distinct mechanisms, all expressible as multiplicative weights:

* **Internet-wide subsampling** — most campaigns scan a random fraction of
  IPv4 and are "not expected to target all honeypots within a region"
  (Section 4.4).  Coverage is a fixed property of the (scanner, IP) pair.
* **Network-type selection** — many attackers avoid telescopes entirely
  (Section 5.2, Tables 8-10); botnets do not.
* **Address-structure filters** — avoidance of any-octet-255 addresses,
  trailing-.255 addresses, and preference for the first address of a /16
  (Section 4.2, Figure 1).
* **Geographic discrimination** — region- and continent-level weights
  (Section 5.1, Tables 4-5): e.g. Emirates Internet targets only Mumbai.
* **Single-target latching** — the Tsunami botnet sends an order of
  magnitude more traffic to one IP in a /24 (Section 4.2, Figure 1d).
* **Block coverage** — some campaigns sweep contiguous /16s instead of
  hash-sampling, which correlates their visits to adjacent networks
  (the paper's Merit/Orion same-AS overlap effect, Table 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.net.addresses import (
    vector_ends_in_255,
    vector_has_255_octet,
    vector_is_first_of_slash16,
)
from repro.sim.events import NetworkKind
from repro.sim.rng import RngHub, stable_hash64

__all__ = ["TargetSet", "StructureBias", "TargetStrategy", "CoverageModel"]


@dataclass(frozen=True)
class TargetSet:
    """The destination universe a scanner can see for one port.

    Arrays are parallel, one entry per observable destination IP.
    ``kind_codes`` uses the index of :data:`KIND_ORDER`; ``continents``
    and ``regions`` hold string codes.  Built once per port by the engine
    and shared across scanners.
    """

    ips: np.ndarray
    kind_codes: np.ndarray
    regions: np.ndarray
    continents: np.ndarray
    networks: np.ndarray

    def __post_init__(self) -> None:
        length = len(self.ips)
        for name in ("kind_codes", "regions", "continents", "networks"):
            if len(getattr(self, name)) != length:
                raise ValueError(f"TargetSet array {name} misaligned")

    def __len__(self) -> int:
        return len(self.ips)

    def matches(self, name: str, values) -> np.ndarray:
        """Mask of destinations whose ``name`` field (``"regions"``,
        ``"continents"`` or ``"networks"``) is one of ``values``.

        Each field is integer-coded once per target set, so the many
        strategies evaluated against one port's targets compare codes
        instead of strings.
        """
        coding = self.__dict__.get("_codings", {}).get(name)
        if coding is None:
            labels, inverse = np.unique(getattr(self, name), return_inverse=True)
            coding = ({label: code for code, label in enumerate(labels.tolist())}, inverse)
            self.__dict__.setdefault("_codings", {})[name] = coding
        codes, inverse = coding
        wanted = [codes[value] for value in values if value in codes]
        if len(wanted) == 1:
            return inverse == wanted[0]
        return np.isin(inverse, wanted)


KIND_ORDER: tuple[NetworkKind, ...] = (
    NetworkKind.CLOUD,
    NetworkKind.EDU,
    NetworkKind.TELESCOPE,
)
KIND_INDEX = {kind: index for index, kind in enumerate(KIND_ORDER)}


@dataclass(frozen=True)
class StructureBias:
    """Multiplicative weights from address structure.

    Factors are multipliers relative to a structurally-unremarkable
    address: ``any_255_factor=1/9`` makes any-octet-255 addresses 9x less
    likely (the paper's 445/SMB observation); ``slash16_first_factor=10``
    makes ``x.y.0.0`` 10x more likely (Mirai on port 22).
    """

    any_255_factor: float = 1.0
    trailing_255_factor: float = 1.0
    slash16_first_factor: float = 1.0

    def weights(self, ips: np.ndarray) -> np.ndarray:
        result = np.ones(len(ips), dtype=np.float64)
        if self.any_255_factor != 1.0:
            result[vector_has_255_octet(ips)] *= self.any_255_factor
        if self.trailing_255_factor != 1.0:
            result[vector_ends_in_255(ips)] *= self.trailing_255_factor
        if self.slash16_first_factor != 1.0:
            result[vector_is_first_of_slash16(ips)] *= self.slash16_first_factor
        return result

    @property
    def is_identity(self) -> bool:
        return (
            self.any_255_factor == 1.0
            and self.trailing_255_factor == 1.0
            and self.slash16_first_factor == 1.0
        )


@dataclass(frozen=True)
class CoverageModel:
    """How a campaign subsamples the address space.

    ``mode="hash"`` covers each IP independently with probability
    ``fraction`` (ZMap-style random subsampling).  ``mode="blocks"``
    covers whole prefix blocks of ``block_bits`` length with probability
    ``fraction``, modelling range-sweeping campaigns whose visits to
    address-adjacent networks (e.g. Merit and the Orion telescope, which
    share an AS) are correlated.
    """

    fraction: float = 1.0
    mode: str = "hash"
    block_bits: int = 16

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("coverage fraction must be in (0, 1]")
        if self.mode not in ("hash", "blocks"):
            raise ValueError(f"unknown coverage mode {self.mode!r}")
        if not 1 <= self.block_bits <= 31:
            raise ValueError("block_bits must be in [1, 31]")

    def mask(self, hub: RngHub, tag: object, ips: np.ndarray) -> np.ndarray:
        if self.fraction == 1.0:
            return np.ones(len(ips), dtype=bool)
        if self.mode == "hash":
            return hub.coverage_mask(tag, ips, self.fraction)
        blocks = np.asarray(ips, dtype=np.uint64) >> np.uint64(32 - self.block_bits)
        return hub.coverage_mask((tag, "blocks"), blocks, self.fraction)


@dataclass(frozen=True)
class TargetStrategy:
    """Composite target-selection policy for one scanner.

    The final per-IP weight is the product of the coverage mask, the
    network-kind weight, geographic weights, structural weights, and any
    latch boost.  A weight of zero means the scanner never contacts the
    address.
    """

    coverage: CoverageModel = CoverageModel()
    kind_weights: Mapping[NetworkKind, float] = field(default_factory=dict)
    region_weights: Mapping[str, float] = field(default_factory=dict)
    continent_weights: Mapping[str, float] = field(default_factory=dict)
    exclusive_regions: tuple[str, ...] = ()
    exclusive_networks: tuple[str, ...] = ()
    structure: StructureBias = StructureBias()
    latch_count: int = 0
    latch_multiplier: float = 1.0
    latch_exclusive: bool = False

    def weights(self, hub: RngHub, tag: object, targets: TargetSet) -> np.ndarray:
        """Per-destination traffic weights for this scanner over ``targets``."""
        result = self.coverage.mask(hub, tag, targets.ips).astype(np.float64)

        if self.kind_weights:
            kind_vector = np.ones(len(KIND_ORDER), dtype=np.float64)
            for kind, weight in self.kind_weights.items():
                kind_vector[KIND_INDEX[kind]] = weight
            result *= kind_vector[targets.kind_codes]

        if self.continent_weights:
            for continent_code, weight in self.continent_weights.items():
                result[targets.matches("continents", (continent_code,))] *= weight

        if self.region_weights:
            for region_code, weight in self.region_weights.items():
                result[targets.matches("regions", (region_code,))] *= weight

        if self.exclusive_regions:
            result[~targets.matches("regions", self.exclusive_regions)] = 0.0

        if self.exclusive_networks:
            result[~targets.matches("networks", self.exclusive_networks)] = 0.0

        if not self.structure.is_identity:
            result *= self.structure.weights(targets.ips)

        if self.latch_count > 0 and len(targets):
            result = self._apply_latch(hub, tag, targets, result)
        return result

    def _apply_latch(
        self, hub: RngHub, tag: object, targets: TargetSet, weights: np.ndarray
    ) -> np.ndarray:
        """Boost (or isolate) a few deterministic favourite targets.

        Favourites are chosen by hashing (scanner, IP) so that a botnet
        keeps hammering the *same* victim all week — the Tsunami pattern.
        Only candidates the scanner would otherwise contact are eligible.
        """
        eligible = np.flatnonzero(weights > 0)
        if eligible.size == 0:
            return weights
        salt = stable_hash64(hub.seed, "latch", tag)
        scores = (targets.ips[eligible].astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) ^ np.uint64(salt)
        order = np.argsort(scores, kind="stable")
        chosen = eligible[order[: self.latch_count]]
        if self.latch_exclusive:
            result = np.zeros_like(weights)
            result[chosen] = weights[chosen] * self.latch_multiplier
            return result
        weights = weights.copy()
        weights[chosen] *= self.latch_multiplier
        return weights
