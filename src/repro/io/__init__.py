"""Dataset serialization (the released scan-traffic format)."""

from repro.io.pcaplite import intents_to_packets, packets_to_flows, read_packets, write_packets
from repro.io.records import event_to_record, read_events, record_to_event, write_events
from repro.io.table import EventTable

__all__ = [
    "event_to_record", "read_events", "record_to_event", "write_events",
    "intents_to_packets", "packets_to_flows", "read_packets", "write_packets",
    "EventTable",
]
