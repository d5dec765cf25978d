"""Real-UDP transport: the simulator's tick loop over loopback sockets.

`run_udp` runs `runner.run`, so a UDP run loses, delays and coasts on the
seeded channels exactly as `run` does and writes the same files.  Only the
crossing is real: `run` hands each tick's deliveries to a hook that carries
one datagram at a time.  It sends a pair as its command's text from that
sensor's socket, receives at the vehicle node's socket until a datagram
arrives from that sensor's address, checks it against the text sent,
decodes it for the node, and only then sends the next pair.  Datagrams
from any other address are dropped.  A datagram that has not arrived within
a second of its own send, or arrives changed, is an OSError that names its
sensor, as is any other socket error.
"""

import contextlib
import math
import socket
import threading
import time

from .runner import RunResult, run
from .scenario import Scenario
from .wire import decode_command, encode_command
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
    It must also keep scenario.duration / pace s from now below
    threading.TIMEOUT_MAX on the monotonic clock, past which time.sleep fails.
    Ports come from the scenario's udp section; port 0 picks free ephemeral
    ports, so parallel test runs never collide.  One datagram is in flight at
    a time, and each has 1 s from its own send to arrive.
    """
    if not (math.isfinite(pace) and pace > 0.0):
        raise ConfigError(f"pace must be finite and positive, got {pace!r}")
    if scenario.duration / pace >= threading.TIMEOUT_MAX - time.monotonic():
        raise ConfigError(f"pace {pace!r} stretches the {scenario.duration} s run "
                          f"past the longest wait the clock allows")
    host = scenario.udp.host
    base = scenario.udp.sensor_port_base
    with contextlib.ExitStack() as stack:
        vehicle = _bound(stack, host, scenario.udp.vehicle_port)
        senders = {}
        for idx, cfg in enumerate(scenario.sensors):
            sock = _bound(stack, host, base + idx if base else 0)
            sock.connect(vehicle.getsockname())  # now named as recvfrom names it, even on 0.0.0.0
            senders[cfg.sensor_id] = sock, sock.getsockname()
        t0 = time.monotonic()

        def cross(now, pairs):
            delay = t0 + now / pace - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            arrived = []
            for source_id, cmd in pairs:
                text = encode_command(cmd).encode("utf-8")
                sock, address = senders[source_id]
                sock.send(text)
                deadline = time.monotonic() + _TIMEOUT_S
                addr = None
                while addr != address:
                    left = deadline - time.monotonic()
                    try:
                        if left <= 0.0:
                            raise TimeoutError
                        vehicle.settimeout(left)
                        data, addr = vehicle.recvfrom(_RECV_BYTES)
                    except TimeoutError:
                        raise OSError(f"datagram from sensor {source_id!r} not received "
                                      f"within {_TIMEOUT_S} s") from None
                if data != text:
                    raise OSError(f"datagram from sensor {source_id!r} arrived changed: "
                                  f"{data!r}, sent {text!r}")
                arrived.append((source_id, decode_command(data)))
            return arrived

        return run(scenario, out_dir, cross)
