"""Real-UDP transport: the simulator's tick loop over loopback sockets.

`run_udp` drives `runner.drive` with one bound socket per sensor as its
channel and the vehicle node's socket as its delivery: each tick waits for
the wall clock, then drains whatever datagrams have arrived and names their
source by sender address.  Datagrams from unknown senders are dropped.
Timing is therefore not deterministic; this mode exists to show the wire
format and the vehicle node work over a real network, and it tracks the
simulated channel statistically, not bit for bit.  Socket errors propagate
to the caller.
"""

import contextlib
import math
import socket
import time

from .runner import RunResult, drive
from .scenario import Scenario
from .wire import SteeringCommand, encode_command
from .world import ConfigError

_RECV_BYTES = 1500


class _SocketChannel:
    """A sensor's socket, connected to the vehicle's: send() sends a command's text."""

    def __init__(self, sock):
        self.sock = sock

    def send(self, source_id, cmd: SteeringCommand, now: float):
        self.sock.send(encode_command(cmd).encode("utf-8"))

    def next_delivery(self) -> float:
        """Any time: a datagram may arrive on any tick, so every tick runs."""
        return -math.inf


def _bound(stack, host, port):
    sock = stack.enter_context(socket.socket(socket.AF_INET, socket.SOCK_DGRAM))
    sock.bind((host, port))
    return sock


def run_udp(scenario: Scenario, out_dir=None, pace: float = 1.0) -> RunResult:
    """Execute one scenario over loopback UDP, paced to wall clock / pace.

    pace must be finite and positive; pace > 1 runs faster than real time,
    with extra scheduling jitter.  Ports come from the scenario's udp section;
    port 0 picks free ephemeral ports, so parallel test runs never collide.
    """
    if not (math.isfinite(pace) and pace > 0.0):
        raise ConfigError(f"pace must be finite and positive, got {pace!r}")
    host = scenario.udp.host
    base = scenario.udp.sensor_port_base
    with contextlib.ExitStack() as stack:
        vehicle = _bound(stack, host, scenario.udp.vehicle_port)
        vehicle.setblocking(False)
        channels = []
        sources = {}
        for idx, cfg in enumerate(scenario.sensors):
            sock = _bound(stack, host, base + idx if base else 0)
            sock.connect(vehicle.getsockname())  # now named as recvfrom names it, even on 0.0.0.0
            channels.append(_SocketChannel(sock))
            sources[sock.getsockname()] = cfg.sensor_id
        t0 = time.monotonic()

        def deliver(now):
            delay = t0 + now / pace - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            out = []
            while True:
                try:
                    data, addr = vehicle.recvfrom(_RECV_BYTES)
                except BlockingIOError:
                    return out
                source_id = sources.get(addr)
                if source_id is not None:
                    out.append((source_id, data))

        return drive(scenario, channels, deliver, out_dir)
