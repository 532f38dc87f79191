#!/usr/bin/env python3
"""Run real honeypots on loopback and attack them with a simulated botnet.

Starts asyncio honeypots (HTTP responder, Telnet login emulator, SSH
banner sensor, and a raw first-payload catcher on an "8080" port), then
replays a small simulated campaign against them over actual TCP sockets.
The captured events flow through the same detection stack the paper's
analyses use: LZR fingerprinting + the vetted IDS ruleset.

Run:  python examples/live_honeypot.py
"""

import asyncio
from collections import Counter

import numpy as np

from repro.detection.classify import MaliciousnessClassifier
from repro.detection.fingerprint import fingerprint
from repro.honeypots.live import (
    FirstPayloadService,
    HttpService,
    LiveHoneypot,
    SshBannerService,
    TelnetService,
    replay_intents,
)
from repro.scanners.base import PortPlan


def build_campaign(rng: np.random.Generator):
    """A miniature mixed campaign: crawlers, exploits, botnet logins,
    and an unexpected-protocol probe (TLS aimed at the HTTP port)."""
    crawler = PortPlan(80, "http", 1.0,
                       http_payloads=("root-get", "robots", "probe001"),
                       http_weights=(0.5, 0.3, 0.2))
    exploit = PortPlan(80, "http", 1.0,
                       http_payloads=("log4shell", "gpon-rce"), http_weights=(0.6, 0.4))
    botnet = PortPlan(23, "telnet", 1.0, credential_dialect="mirai",
                      credential_attempts=(2, 3))
    ssh_probe = PortPlan(22, "ssh", 1.0, credential_dialect="global-ssh",
                         banner_only_fraction=1.0)
    unexpected = PortPlan(8080, "tls", 1.0)

    def sessions(plan, count, hour, first_source):
        """``count`` sessions toward 127.0.0.1 from consecutive sources."""
        batch = plan.build_intent_batch(rng, np.full(count, hour),
                                        first_source + np.arange(count),
                                        np.full(count, 0x7F000001))
        return list(batch.intents())

    return (sessions(crawler, 6, 0.1, 0x0A000001) + sessions(exploit, 4, 0.2, 0x0A000101)
            + sessions(botnet, 3, 0.3, 0x0A000201) + sessions(ssh_probe, 1, 0.4, 0x0A000301)
            + sessions(unexpected, 1, 0.5, 0x0A000401))


async def main() -> None:
    honeypot = LiveHoneypot(
        services={
            0: HttpService(),          # "port 80"
            -1: TelnetService(),       # "port 23"
            -2: SshBannerService(),    # "port 22"
            -3: FirstPayloadService(),  # "port 8080"
        }
    )
    async with honeypot:
        port_map = {
            80: honeypot.bound_ports[0],
            23: honeypot.bound_ports[-1],
            22: honeypot.bound_ports[-2],
            8080: honeypot.bound_ports[-3],
        }
        print("live honeypots listening:",
              ", ".join(f"{logical}->127.0.0.1:{actual}" for logical, actual in port_map.items()))
        intents = build_campaign(np.random.default_rng(7))
        replayed = await replay_intents(intents, port_map)
        await honeypot.stop()
        print(f"replayed {replayed} sessions over real sockets\n")

    classifier = MaliciousnessClassifier()
    protocols: Counter = Counter()
    verdicts: Counter = Counter()
    for event in honeypot.events:
        protocols[fingerprint(event.payload) or "none"] += 1
        verdicts["malicious" if classifier.is_malicious(event) else "benign/unknown"] += 1

    print(f"captured {len(honeypot.events)} events")
    print("fingerprinted protocols:", dict(protocols))
    print("verdicts:", dict(verdicts))
    logins = [event for event in honeypot.events if event.credentials]
    print("credentials harvested:",
          [credential for event in logins for credential in event.credentials])


if __name__ == "__main__":
    asyncio.run(main())
