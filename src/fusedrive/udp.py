"""Real-UDP transport: the simulator's tick loop over loopback sockets.

`run_udp` drives `runner.drive` over the seeded channels `run` uses, so a
UDP run loses, delays and coasts exactly as `run` does and writes the same
files.  Only the crossing is real: each pair a tick delivers is sent as its
command's text from that sensor's socket, received at the vehicle node's
socket, named by sender address, checked against the text sent, and decoded
by the node.  Datagrams from unknown senders are dropped.  A datagram that
has not arrived within a second, or arrives changed, is an OSError that
names its sensor, as is any other socket error.
"""

import collections
import contextlib
import math
import socket
import time

from .runner import RunResult, drive, simulated_channels
from .scenario import Scenario
from .wire import encode_command, merge_deliveries
from .world import ConfigError

_RECV_BYTES = 1500
_TIMEOUT_S = 1.0


def _bound(stack, host, port):
    sock = stack.enter_context(socket.socket(socket.AF_INET, socket.SOCK_DGRAM))
    sock.bind((host, port))
    return sock


def run_udp(scenario: Scenario, out_dir=None, pace: float = 1.0) -> RunResult:
    """Execute one scenario over loopback UDP, paced to wall clock / pace.

    pace must be finite and positive; pace > 1 runs faster than real time.
    Ports come from the scenario's udp section; port 0 picks free ephemeral
    ports, so parallel test runs never collide.
    """
    if not (math.isfinite(pace) and pace > 0.0):
        raise ConfigError(f"pace must be finite and positive, got {pace!r}")
    host = scenario.udp.host
    base = scenario.udp.sensor_port_base
    with contextlib.ExitStack() as stack:
        vehicle = _bound(stack, host, scenario.udp.vehicle_port)
        vehicle.settimeout(_TIMEOUT_S)
        senders = {}
        sources = {}
        for idx, cfg in enumerate(scenario.sensors):
            sock = _bound(stack, host, base + idx if base else 0)
            sock.connect(vehicle.getsockname())  # now named as recvfrom names it, even on 0.0.0.0
            senders[cfg.sensor_id] = sock
            sources[sock.getsockname()] = cfg.sensor_id
        arrived = {source_id: collections.deque() for source_id in senders}
        channels = simulated_channels(scenario)
        t0 = time.monotonic()

        def deliver(now):
            delay = t0 + now / pace - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = [(source_id, encode_command(cmd).encode("utf-8"))
                    for source_id, cmd in merge_deliveries(channels, now)]
            for source_id, text in sent:
                senders[source_id].send(text)
            received = []
            for source_id, text in sent:
                while not arrived[source_id]:
                    try:
                        data, addr = vehicle.recvfrom(_RECV_BYTES)
                    except TimeoutError:
                        raise OSError(f"datagram from sensor {source_id!r} not received "
                                      f"within {_TIMEOUT_S} s") from None
                    if addr in sources:
                        arrived[sources[addr]].append(data)
                data = arrived[source_id].popleft()
                if data != text:
                    raise OSError(f"datagram from sensor {source_id!r} arrived changed: "
                                  f"{data!r}, sent {text!r}")
                received.append((source_id, data))
            return received

        return drive(scenario, channels, deliver, out_dir)
