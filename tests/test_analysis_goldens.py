"""Golden digests of every captured-traffic analysis, pinned bit for bit.

Each analysis output is reduced to a canonical text encoding and its
sha256 is pinned.  The encoding is at least as strict as equality:
floats are written with ``float.hex`` (so every bit counts), sets are
sorted, dict items are sorted by key, and tuples and lists stay
distinct.  Where an output's order is part of its contract — tag
sources and unique credentials per group iterate in first-sighting or
group order, top commands and the tag distribution rank by count — that
order is pinned too.

Every pin must hold twice: on the simulator's table-backed dataset, and
on the same rows written to NDJSON and read back (``write_events`` →
``read_events`` → ``AnalysisDataset(events=...)``), the one place where
rows become tables.  The cases cover the Section 3.3 comparisons
(Tables 2, 4, 5, 7 and 10), the Section 3.2 label and everything built
on it, the per-source and set analyses, and the rendered text of every
experiment ``tests/test_experiments.py`` runs on the shared fixtures.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from collections.abc import Mapping
from typing import Any, Callable

import numpy as np
import pytest

from repro.analysis.campaigns import infer_campaigns
from repro.analysis.commands import command_summary
from repro.analysis.coverage import greedy_deployment, group_coverage
from repro.analysis.dataset import AnalysisDataset
from repro.analysis.geography import (
    build_region_profiles,
    geo_similarity,
    most_different_regions,
)
from repro.analysis.leak import leak_report, unique_credentials_per_group
from repro.analysis.neighborhoods import neighborhood_report
from repro.analysis.networks import network_type_report, telescope_as_report
from repro.analysis.overlap import attacker_overlap, scanner_overlap
from repro.analysis.ports import methodology_numbers, protocol_breakdown
from repro.analysis.summary import vantage_summary
from repro.analysis.tags import tag_distribution, tag_sources
from repro.analysis.temporal import year_over_year_shift
from repro.analysis.timeseries import find_diurnal_sources, hourly_matrix
from repro.experiments import ALL_EXPERIMENTS
from repro.incident.pipeline import detect_incidents
from repro.io.records import read_events, write_events
from repro.sim.events import NetworkKind


# ----------------------------------------------------------------------
# canonical encoding
# ----------------------------------------------------------------------

def canonical(value: Any) -> str:
    """A deterministic text encoding that distinguishes every value
    equality distinguishes (and every float bit)."""
    if value is None:
        return "None"
    if isinstance(value, (bool, np.bool_)):
        return repr(bool(value))
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, (int, np.integer)):
        return repr(int(value))
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (str, bytes)):
        return repr(value)
    if isinstance(value, np.ndarray):
        return f"array{value.shape}{canonical(value.tolist())}"
    if dataclasses.is_dataclass(value):
        fields = ",".join(
            f"{field.name}={canonical(getattr(value, field.name))}"
            for field in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({fields})"
    if isinstance(value, Mapping):
        items = sorted(
            (canonical(key), canonical(item)) for key, item in value.items()
        )
        return "{" + ",".join(f"{key}:{item}" for key, item in items) + "}"
    if isinstance(value, (set, frozenset)):
        return "set{" + ",".join(sorted(canonical(item) for item in value)) + "}"
    if isinstance(value, tuple):
        return "(" + ",".join(canonical(item) for item in value) + ")"
    if isinstance(value, list):
        return "[" + ",".join(canonical(item) for item in value) + "]"
    raise TypeError(f"no canonical encoding for {type(value).__name__}")


def digest(value: Any) -> str:
    if isinstance(value, str):
        text = value
    else:
        text = canonical(value)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def ordered(mapping: Mapping) -> tuple:
    """A mapping plus its key order, for outputs whose order is pinned."""
    return (dict(mapping), tuple(mapping))


def ranked(mapping: Mapping) -> tuple:
    """A mapping plus its value order, for outputs ranked by value whose
    ties have no pinned order."""
    return (dict(mapping), tuple(mapping.values()))


# ----------------------------------------------------------------------
# the analyses
# ----------------------------------------------------------------------

def _reputation(dataset: AnalysisDataset):
    oracle = dataset.reputation_oracle()
    return (list(oracle._seen_ips.items()), oracle.malicious_ips(), oracle.counts())


def _source_sets(dataset: AnalysisDataset):
    kinds = (NetworkKind.CLOUD, NetworkKind.EDU)
    return [
        (
            port,
            kind,
            dataset.sources_on_port(port, kind),
            dataset.malicious_sources_on_port(port, kind),
        )
        for port in (22, 23, 80, 443, 2323, 7547)
        for kind in kinds
    ]


def _hourly(dataset: AnalysisDataset):
    return hourly_matrix(dataset, [vantage.vantage_id for vantage in dataset.vantages])


#: name -> analysis of one dataset; every case runs on the 2021 and the
#: 2020 fixture.
DATASET_CASES: dict[str, Callable[[AnalysisDataset], Any]] = {
    "neighborhood_report": neighborhood_report,
    "neighborhood_report[k=1]": lambda d: neighborhood_report(d, k=1),
    "neighborhood_report[k=5]": lambda d: neighborhood_report(d, k=5),
    "neighborhood_report[alpha=0.01]": lambda d: neighborhood_report(d, alpha=0.01),
    "neighborhood_report[bonferroni=False]": lambda d: neighborhood_report(d, bonferroni=False),
    "neighborhood_report[max_honeypots=2]":
        lambda d: neighborhood_report(d, max_honeypots_per_neighborhood=2),
    "build_region_profiles[median]": lambda d: build_region_profiles(d, aggregate="median"),
    "build_region_profiles[sum]": lambda d: build_region_profiles(d, aggregate="sum"),
    "geo_similarity": geo_similarity,
    "most_different_regions": most_different_regions,
    "network_type_report": network_type_report,
    "telescope_as_report": telescope_as_report,
    "tag_sources": lambda d: ordered(tag_sources(d)),
    "tag_distribution": lambda d: ranked(tag_distribution(tag_sources(d))),
    "infer_campaigns[1]": lambda d: infer_campaigns(d, min_size=1),
    "infer_campaigns[2]": lambda d: infer_campaigns(d, min_size=2),
    "infer_campaigns[5]": lambda d: infer_campaigns(d, min_size=5),
    "command_summary[1]": lambda d: command_summary(d, top=1),
    "command_summary[3]": lambda d: command_summary(d, top=3),
    "command_summary[10]": lambda d: command_summary(d, top=10),
    "command_summary[25]": lambda d: command_summary(d, top=25),
    "leak_report": leak_report,
    "leak_report[alpha=0.01]": lambda d: leak_report(d, alpha=0.01),
    "unique_credentials[22]": lambda d: ordered(unique_credentials_per_group(d, port=22)),
    "unique_credentials[23]": lambda d: ordered(unique_credentials_per_group(d, port=23)),
    "unique_credentials[80]": lambda d: ordered(unique_credentials_per_group(d, port=80)),
    "vantage_summary": vantage_summary,
    "scanner_overlap": scanner_overlap,
    "attacker_overlap": attacker_overlap,
    "protocol_breakdown": protocol_breakdown,
    "methodology_numbers": methodology_numbers,
    "hourly_matrix": _hourly,
    "find_diurnal_sources": find_diurnal_sources,
    "find_diurnal_sources[min_events=10]":
        lambda d: find_diurnal_sources(d, min_events=10, min_strength=0.1),
    "group_coverage": group_coverage,
    "group_coverage[all]": lambda d: group_coverage(d, vantage_prefix=None),
    "greedy_deployment": greedy_deployment,
    "greedy_deployment[all]":
        lambda d: greedy_deployment(d, vantage_prefix=None, target_fraction=1.0),
    "source_sets": _source_sets,
    "reputation_oracle": _reputation,
    "detect_incidents": lambda d: detect_incidents(d).audit.to_ndjson(),
}

#: Experiment ids rendered per fixture year (the drivers
#: ``tests/test_experiments.py`` runs on each shared fixture).
EXPERIMENTS: dict[int, tuple[str, ...]] = {
    2021: ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10", "T11",
           "F1", "M1", "X1", "X2", "X4"),
    2020: ("T12", "T13", "T16"),
    2022: ("T14", "T15", "T17"),
}


GOLDENS: dict[str, str] = {
    "F1@2021": "46f4655efe36d0402ef31338651f37f2bcd9adac9cb52ae08a5bb38e4b5ec8dd",
    "M1@2021": "c353dbc2e02d5a7e0c225fa724187f1b0883cbbba548de94ceb8d60ac4b9424b",
    "T10@2021": "c06c3ed06b64c83906b17fd1fb88c4aabf538bdba1cffdee065faaf0dad44591",
    "T11@2021": "0adfa0cc95846e85897af5d309d88a84daffe83abc228eadb8ca7ca3eb1fe729",
    "T12@2020": "75e2e6ebed52214a4d1896f87464e39e3b9b519214e4879cc46988d501c0d150",
    "T13@2020": "8722b5cddf4923426bf4d3d49cc90fa6ea927c5993f7bf158ecfe6c9fa4c8494",
    "T14@2022": "22e97fc53a2c25bab751fd0a68e820702dc982dfea362771a64b3a08d6a68115",
    "T15@2022": "df5b78f0ba8cf31b4d96a301bcee7de20487e23a3ca821cb912bd725e0e7aad7",
    "T16@2020": "d22219eb57e1cbcac75001e8926aa3b96e763d1b40125874b17d956bd3b4f58b",
    "T17@2022": "a6ccb207ebe1c8fe614aa72c50563dde437377037a88369382a73e60e6de380a",
    "T1@2021": "868533ccfc8361d4cad92ab36ba9ed214b618d96d12fd08f4f8c6250c78eca3e",
    "T2@2021": "07cb524303dacfe489d5501466dfe0b80e04eae841efefe8a69112dcb8639910",
    "T3@2021": "6348e788a26bc0a47d21f1f3f93e9f9799b7fa1e2a5772ca31d3e8945fc449c4",
    "T4@2021": "575130f0865d817610c02542220f83b0d4212ec6677c8651a82a5266984913ad",
    "T5@2021": "811d1e6e537e9a5a2ff7efef1ad401e2606a2cea85ce7899d6dee20a50a271f0",
    "T6@2021": "69df79b51005b1f0b6aa6eecfe6d2ee54ba84a5dbf5f8c4310d6215fe607e5f4",
    "T7@2021": "0b021203206987d8d4639d195f8bd9e277e87ee58e4a14ed3d5516c56e0d06e4",
    "T8@2021": "7dd4ce5fb2795ba0c304a48697fa5f5a86cf975ca264f4ad4ae9aed175631dc3",
    "T9@2021": "01978e8556738569c81541c7a422111aa7533adabb4e254cee6a55e4f84d2a44",
    "X1@2021": "80c64eada9d2b26029599f7d9ab2f33a73d3f66076359c1a8e115f97ae18042f",
    "X2@2021": "7ce75cf076e56968afa6eee649447eedcc58a6b7564a843ec2f70b556c8546bf",
    "X4@2021": "00486eca05360a508914f45c8a0b66f2759ce403b907c90f5a347d5a2bfce827",
    "attacker_overlap@2020": "b57b23ab191b77b8f4ef14a056e0c0d9465b005722bcc3a7e3f70743e4d43099",
    "attacker_overlap@2021": "2f46b66bfb86b1fdec2f8ec0ec877a7db02868cda5f1669ea2e98cdf96a934ea",
    "build_region_profiles[median]@2020":
        "c85000ee27a33ad9aec5f3039533132132060b56f43246cc6ae6674b825565a6",
    "build_region_profiles[median]@2021":
        "4ebf4f65e478e7c69815e7ee4179d78a779b98b6c0536a5491bfb71fa4786406",
    "build_region_profiles[sum]@2020":
        "67a617a9a6afade0de0d82c82f4d902609a87af85ab2c026aa3ddd4912771dda",
    "build_region_profiles[sum]@2021":
        "e2c2cd4f12f3b905d60869756644edb43dffb21641f4ac7aa85b1d2d08285113",
    "command_summary[10]@2020": "503a51f74b606df7e315d12864cc7e2b15cf4aab8056dba8ce3f37e2ee47db52",
    "command_summary[10]@2021": "dee3c0cdf7e719e7453f21474541a5bcb05b7f9249021de8dcf638a9700b1f5a",
    "command_summary[1]@2020": "234201e91f85f39208458b6d0f5e82f5e4feb7d20a03d260df21d5fad53aedfc",
    "command_summary[1]@2021": "67a201b7feda1567465b574447fbb641182049208ffa5952d21d44c407aac038",
    "command_summary[25]@2020": "4ac6430af74e99e0e17d70df7753715b492566c9d65327a59999c16752751d21",
    "command_summary[25]@2021": "5ae4ad0cbefceeba36e09110b56a615aa3be13c601f91c3e9251487e0ddf995f",
    "command_summary[3]@2020": "05fda7d4696a4290e49324c457ff1ea160b5161c834e479d26d8375945cff1c3",
    "command_summary[3]@2021": "613e556600b6b6be2632626f470065fc16edbd9ed5a316b28a45525025aa1d09",
    "detect_incidents@2020": "35010e8b9470c9d3fa2d8db90769b2541368f2682726dec94b9227997c35fd6f",
    "detect_incidents@2021": "1998faf6a9d60567bd0d97b355c1b74773265b6b0190b0aaf7a23e1d6855f34e",
    "find_diurnal_sources@2020":
        "72922be75c5f0df58e0565a0490be57244a39fb0e7879df5be9df0db599be999",
    "find_diurnal_sources@2021":
        "72922be75c5f0df58e0565a0490be57244a39fb0e7879df5be9df0db599be999",
    "find_diurnal_sources[min_events=10]@2020":
        "955b61646248a7af165794cdd03da7698605632b8a0ee5d4c678b21b4cdd8a34",
    "find_diurnal_sources[min_events=10]@2021":
        "962089963b132156d2825925f669f3b3abf511e9e39a0e96003949a50a0c828c",
    "geo_similarity@2020": "24ea26d83f1900fa1d4cad6e1464132c38d7b0080b81b52fde64144e1f7cec4a",
    "geo_similarity@2021": "c2715f851a270ad4dd516512454d5acf4019cdbabcd44faedd3f6011aa5a344b",
    "greedy_deployment@2020": "cb661f3311922a475beba8c70d36c125bf938586b982d8a9c50ce1d6f1be79be",
    "greedy_deployment@2021": "88d82c6280a060a511cfcf292e3920291263f31810c0e65a63fa925667541f51",
    "greedy_deployment[all]@2020":
        "a26c8875b87fe2823107da2b3cbe2d294caf7bfc080ab1c71c40a13e59caff14",
    "greedy_deployment[all]@2021":
        "a977d2fa05dbc2e01420fe990c60438373bd9feb0dd1da7ee563f061679d40bd",
    "group_coverage@2020": "d34c9d1471bbd2610e56c9fb9b27b48d94a322b537aafbee1f5b38b041d3edad",
    "group_coverage@2021": "c448dbbc5b52e6c4fc6573612b68cd8aec84f984d2adcb46402cbab99159da8b",
    "group_coverage[all]@2020": "60ee64a109023f1cc0ff00282344a5887ac5c645f51e04efb0185ae51459296f",
    "group_coverage[all]@2021": "4ac6ab1a628c7c7f5258184138089b651a2b35153a00f87a1f6775a24e865a72",
    "hourly_matrix@2020": "7b3389aad3dd71baafac7c61a16e1888cdec60d6eff949db40b37bdb50d75823",
    "hourly_matrix@2021": "3656d3b7b0401f1ff8e3f4f9764b8d950257dd4cfd7e1408800b09841b80e749",
    "infer_campaigns[1]@2020": "a69775a860f7ba965c45dd82a76cb6a6f0743148db588ad79720a861ecf0fdea",
    "infer_campaigns[1]@2021": "42a7f3acc74b290a2f64fa1ee029734830cd40ae57f0d13388ff5572171b1696",
    "infer_campaigns[2]@2020": "810cb202e2609ff1fa1395906e0778413356c55e92e09222470fcf1eac05cba7",
    "infer_campaigns[2]@2021": "1c0e46b77a3e619a2b81c4f0ffe5b29cda528d175bcce2f022f197e0070cfaaa",
    "infer_campaigns[5]@2020": "c1a324b431eed8ba0d8c5bd71a1279a273c10beba5c37d0635f8bbfd72658f61",
    "infer_campaigns[5]@2021": "a3f58d0ee8aa92d989385276b2356f628f80aff5daa49983441dfc2820ae9585",
    "leak_report@2020": "e46667d6856ed03bc8d3a865b41301b426548adadf1862bdc4546dc56bead7b3",
    "leak_report@2021": "e46667d6856ed03bc8d3a865b41301b426548adadf1862bdc4546dc56bead7b3",
    "leak_report[alpha=0.01]@2020":
        "3245b55d9085de68b2d71ada77756bcbd4e4526b457b037cae888bd55494ec55",
    "leak_report[alpha=0.01]@2021":
        "3245b55d9085de68b2d71ada77756bcbd4e4526b457b037cae888bd55494ec55",
    "methodology_numbers@2020": "ab967015c3abfedc9e187c29a63c6afaaf87d39a57153487c89de72b60be2996",
    "methodology_numbers@2021": "dd642c9424c11e610b86a6eea7a3cf0c7e875593334e8ed4fbba1ef54f3953ee",
    "most_different_regions@2020":
        "5d6a9ee6485b6e922d2fc013ae6859aedf7d88b60c22f5bb1734ea21a7cc7695",
    "most_different_regions@2021":
        "2892d1b2e69b3c130af968f406f83dd1b13946fe8c0519b48c7657caaa6ea8f8",
    "neighborhood_report@2020": "7bdd273538e71b141649b9fe13f8e823549597a365839a6a0743b19e264aa667",
    "neighborhood_report@2021": "beecb20ab4f8648513e456ca8b5ec19d7a1ae8281ff807becfa628b256bedee0",
    "neighborhood_report[alpha=0.01]@2020":
        "73a3dededd78298047144ede43f950e6dc3f92ec1c0e675c5c4355d18f258c27",
    "neighborhood_report[alpha=0.01]@2021":
        "d775183a80510e39e7c198411fd651582bc381809c2a7cb237f59294758963a8",
    "neighborhood_report[bonferroni=False]@2020":
        "1364a25a91fcdd98f9770b817badc4bd2a217ef822eddefcb102fe67cb4a6de1",
    "neighborhood_report[bonferroni=False]@2021":
        "0697a4584ed93e84baa232f1a09bf74f92831ef2cb0e88ab4e399e258d2b60e4",
    "neighborhood_report[k=1]@2020":
        "120d1772fcaafd7594f3246afb8d9159c650437c5eb69088fcf595e27a0d5f6d",
    "neighborhood_report[k=1]@2021":
        "0273b7dea7e54b9a40447d295536da57bd69180c37af07be58192b20dd632a1f",
    "neighborhood_report[k=5]@2020":
        "9d3c75e094e7d470935e9544263daa4c1c388f10e6863967d7399b4909c4b7bf",
    "neighborhood_report[k=5]@2021":
        "d8ce0f98ba9e9ad197e18f0c2e8940c661a6bb10e4e45011abff77036b03c952",
    "neighborhood_report[max_honeypots=2]@2020":
        "3b0155d8eb2bf9085768c478678c19467ac1bcbbcee5be31b8039dde203a1fa6",
    "neighborhood_report[max_honeypots=2]@2021":
        "2c11584f138836f9319780f67cbd5eec256898e491b9366b02e7f49c5cbd4b32",
    "network_type_report@2020": "96c4344538c6990610278fe5bf665b09cc1fd4969c40426c9f6cded9994a23ce",
    "network_type_report@2021": "96c4344538c6990610278fe5bf665b09cc1fd4969c40426c9f6cded9994a23ce",
    "protocol_breakdown@2020": "791a4c48dfab6133bcdcd8f6f43fa98a9f23bb4f6724e78983e0c1cbcd867b5b",
    "protocol_breakdown@2021": "791a4c48dfab6133bcdcd8f6f43fa98a9f23bb4f6724e78983e0c1cbcd867b5b",
    "reputation_oracle@2020": "19017108e46cbe5a644a3fac73ac0415dfb942eadff84593e0fd20299d046a09",
    "reputation_oracle@2021": "1a5ef1790bb0a377c60fded6a1ecc7c3858fe2cae1d567e60ffef27fee8e5917",
    "scanner_overlap@2020": "64dd0d76b1ab9cd459f136c3bbc4b7b56da551335db2b8a88d1596c0ac83e1ee",
    "scanner_overlap@2021": "2156fa3f8cf87ced844e9407182bde2e812214d5dc34dc56753ae2410094c234",
    "source_sets@2020": "0fdac78a067499fcd54cd2ada84023ff9cfee31fdbc7dfa5a8a030cb7d0a549f",
    "source_sets@2021": "f454230ec45e6152ba3d81f4ca35d1011148eea5f5b4eb53d9dabfd2db336204",
    "tag_distribution@2020": "6c4025da9ffc409b305a03a11732956a962eda9da443ed558c57949a4de707b4",
    "tag_distribution@2021": "59289525aae0b43d4964e32839a0d41b9e0f8fba5f3a39935d2dca1f542f267f",
    "tag_sources@2020": "0415cf038a12c26c512255c4bdb56632f43649f25b66a21ed4a6c557e9a2eea2",
    "tag_sources@2021": "4e08782569408bc9775990399c4a9121484c44eee7eec504b80421f6be3aafaf",
    "telescope_as_report@2020": "4b21fbff35786aae534bd07057d9975eaf70baacb3140fdf70af5754e3bf85e0",
    "telescope_as_report@2021": "4b21fbff35786aae534bd07057d9975eaf70baacb3140fdf70af5754e3bf85e0",
    "unique_credentials[22]@2020":
        "f2bfd6ca70aef322971bdb5b9bf8eaab727e4ac3e1e7d1b93a886f0d8fa4e6a4",
    "unique_credentials[22]@2021":
        "f2bfd6ca70aef322971bdb5b9bf8eaab727e4ac3e1e7d1b93a886f0d8fa4e6a4",
    "unique_credentials[23]@2020":
        "0bc3c67b211f70366eb95899c1bc178339fc30f061f3490eaf2e04e264b2ad17",
    "unique_credentials[23]@2021":
        "0bc3c67b211f70366eb95899c1bc178339fc30f061f3490eaf2e04e264b2ad17",
    "unique_credentials[80]@2020":
        "eaa93a80470970712547a81a75ae160f05f49e3731cb84212d39927479d58ae2",
    "unique_credentials[80]@2021":
        "eaa93a80470970712547a81a75ae160f05f49e3731cb84212d39927479d58ae2",
    "vantage_summary@2020": "e3ad96ecb8882ce63bbd92f19bbdb73795b3d08c91b639f1c9e0e183eb391d11",
    "vantage_summary@2021": "fd7428f12e08020b978e752353010666bbfa9796c1f0d5280e55b9028e7bde10",
    "year_over_year_shift@2020-2021":
        "3d0b6ed9c72ce4e78703e244d7d0349f1b50ef78c5971b099ca3c3e50e9b8a36",
}


# ----------------------------------------------------------------------
# fixtures: each shared context, and its NDJSON twin
# ----------------------------------------------------------------------

def _ndjson_twin(context, directory) -> AnalysisDataset:
    """The context's captured rows through the release format and back."""
    path = directory / f"events-{context.config.year}.ndjson.gz"
    write_events(path, context.result.events())
    dataset = context.dataset
    return AnalysisDataset(
        events=read_events(path),
        vantages=dataset.vantages,
        window=dataset.window,
        telescope=dataset.telescope,
        leak_experiment=dataset.leak_experiment,
    )


@pytest.fixture(scope="module")
def contexts(small_context, small_context_2020, small_context_2022, tmp_path_factory):
    """``(year, form) -> context``, built lazily: ``form`` is ``"tables"``
    (the shared fixture) or ``"ndjson"`` (its twin, same everything but
    the dataset)."""
    shared = {2021: small_context, 2020: small_context_2020, 2022: small_context_2022}
    directory = tmp_path_factory.mktemp("goldens")
    built: dict[tuple[int, str], Any] = {}

    def get(year: int, form: str):
        key = (year, form)
        if key not in built:
            context = shared[year]
            if form == "ndjson":
                context = dataclasses.replace(
                    context, dataset=_ndjson_twin(context, directory)
                )
            built[key] = context
        return built[key]

    return get


FORMS = ("tables", "ndjson")


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("year", (2021, 2020))
@pytest.mark.parametrize("name", sorted(DATASET_CASES))
def test_analysis_digest(contexts, name, year, form):
    dataset = contexts(year, form).dataset
    assert digest(DATASET_CASES[name](dataset)) == GOLDENS[f"{name}@{year}"]


@pytest.mark.parametrize("form", FORMS)
def test_year_over_year_digest(contexts, form):
    shifts = year_over_year_shift(
        contexts(2020, form).dataset, contexts(2021, form).dataset
    )
    assert digest(shifts) == GOLDENS["year_over_year_shift@2020-2021"]


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize(
    "year,experiment_id",
    [(year, experiment_id) for year, ids in EXPERIMENTS.items() for experiment_id in ids],
)
def test_experiment_digest(contexts, year, experiment_id, form):
    context = contexts(year, form)
    if experiment_id == "X1" and context.dataset.tables is None:
        pytest.skip("the blocklist analyses need a table-backed dataset")
    output = ALL_EXPERIMENTS[experiment_id](context)
    assert digest(output.render()) == GOLDENS[f"{experiment_id}@{year}"]
