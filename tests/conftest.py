"""Shared fixtures: one small simulated dataset reused across tests.

Building a simulation is the expensive step, so integration tests share a
session-scoped context at a reduced population scale and telescope size.
Capture-stack unit tests share :func:`capture_row`, which runs one
session through a stack's batch capture.
"""

import numpy as np
import pytest

from repro.experiments.context import ExperimentConfig, get_context
from repro.io.table import EventTable
from repro.sim.events import IntentBatch

SMALL = ExperimentConfig(year=2021, scale=0.25, telescope_slash24s=8, seed=1234)
SMALL_2020 = ExperimentConfig(year=2020, scale=0.25, telescope_slash24s=8, seed=1234)
SMALL_2022 = ExperimentConfig(year=2022, scale=0.25, telescope_slash24s=8, seed=1234)


@pytest.fixture(scope="session")
def small_context():
    """A small 2021 simulation shared by all integration tests."""
    return get_context(SMALL)


@pytest.fixture(scope="session")
def small_context_2020():
    return get_context(SMALL_2020)


@pytest.fixture(scope="session")
def small_context_2022():
    return get_context(SMALL_2022)


@pytest.fixture(scope="session")
def dataset(small_context):
    return small_context.dataset


def one_row_batch(intent):
    """A one-row :class:`IntentBatch` holding ``intent``."""
    def cell(value):
        column = np.empty(1, dtype=object)
        column[0] = value
        return column

    return IntentBatch(
        dst_port=intent.dst_port, transport=intent.transport, protocol=intent.protocol,
        timestamps=np.array([intent.timestamp]),
        src_ips=np.array([intent.src_ip], dtype=np.int64),
        dst_ips=np.array([intent.dst_ip], dtype=np.int64),
        payloads=cell(intent.payload),
        credentials=cell(tuple(credential.as_tuple() for credential in intent.credentials)),
        commands=cell(intent.commands),
    )


def capture_row(vantage, intent, src_asn=1):
    """Capture ``intent`` through ``vantage.stack.capture_batch`` as a
    one-row batch: the recorded row, or None when the stack drops it."""
    table = EventTable.for_vantage(vantage)
    vantage.stack.capture_batch(
        one_row_batch(intent), np.array([src_asn], dtype=np.int64), table
    )
    return table.materialize()[0] if len(table) else None
