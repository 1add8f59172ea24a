"""A controller processor: one per connected I/O device (Figure 4).

The processor bundles the scheduling table, the request and response channels,
the global timer and the execution module (synchroniser + fault recovery +
EXU).  It registers one simulation event per distinct start time of its
scheduling table; when the event fires it first drains the request channel
(setting enable bits) and then lets the synchroniser execute the due entries on
the device.
"""

from __future__ import annotations

from typing import List, Optional

from repro.hardware.channels import RequestChannel, ResponseChannel
from repro.hardware.devices import IODevice
from repro.hardware.execution import ExecutionRecord, ExecutionUnit, FaultRecoveryUnit, Synchroniser
from repro.hardware.faults import FaultInjector
from repro.hardware.memory import ControllerMemory
from repro.hardware.scheduling_table import SchedulingTable
from repro.hardware.timer import GlobalTimer
from repro.sim.engine import Simulator


class ControllerProcessor:
    """The per-device processing element of the I/O controller."""

    def __init__(
        self,
        device: IODevice,
        memory: ControllerMemory,
        *,
        table_capacity: int = 4096,
        request_latency: int = 1,
        response_latency: int = 1,
        fault_injector: Optional[FaultInjector] = None,
        missing_request_policy: str = "skip",
        timer: Optional[GlobalTimer] = None,
    ):
        self.device = device
        self.memory = memory
        self.table = SchedulingTable(capacity=table_capacity)
        self.request_channel = RequestChannel(latency=request_latency)
        self.response_channel = ResponseChannel(latency=response_latency)
        self.timer = timer or GlobalTimer()
        self.fault_recovery = FaultRecoveryUnit(missing_request_policy=missing_request_policy)
        self.exu = ExecutionUnit(device)
        self.fault_injector = fault_injector or FaultInjector()
        self.synchroniser: Optional[Synchroniser] = None

    # -- phase 3: run-time execution -----------------------------------------------

    def attach(self, simulator: Simulator) -> None:
        """Register the timed-execution events of every table entry."""
        self.synchroniser = Synchroniser(
            table=self.table,
            memory=self.memory,
            exu=self.exu,
            fault_recovery=self.fault_recovery,
            fault_injector=self.fault_injector,
            trace=simulator.trace,
            name=f"processor:{self.device.name}",
        )
        start_times = sorted({entry.start_time for entry in self.table.entries()})
        for start_time in start_times:
            simulator.at(
                start_time,
                lambda t=start_time: self._on_trigger(t),
                label=f"{self.device.name}@{start_time}",
            )

    def send_request(self, time: int, task_name: str) -> None:
        """An application CPU requests (enables) a pre-loaded task at ``time``."""
        self.request_channel.push(time, kind="io-request", task=task_name)

    def _on_trigger(self, time: int) -> None:
        self.timer.set(time)
        for message in self.request_channel.pop_available(time):
            self.table.enable(message.payload["task"])
        assert self.synchroniser is not None, "attach() must be called before running"
        for record in self.synchroniser.execute_due(time):
            if record.executed:
                self.response_channel.push(
                    record.finished_at,
                    kind="io-response",
                    task=record.entry.task_name,
                    job_index=record.entry.job_index,
                    values=[operation.value for operation in record.operations],
                )

    # -- results -------------------------------------------------------------------

    @property
    def records(self) -> List[ExecutionRecord]:
        return list(self.synchroniser.records) if self.synchroniser is not None else []
