"""Vehicle-control node: per-source commands, fusion policies, and the drive log.

The node keeps the latest scaled command per source and re-fuses on every
command it receives; a socket's text is decoded before it reaches the node
(udp.py).  Raw powers divide by 3.0 on ingest so full commanded power maps
to about a third of the motor range.  When fusion degenerates (nobody
confident, nobody active) the node holds the last applied powers and marks
the log row with a trailing -1, instead of stopping the vehicle.

The node records each command in its DriveLog, which keeps the records in
typed columns and formats them as rows only as they are read: once per
written run, by runner.write_outputs in this process or, on a spare CPU, in
the run's formatter child, a chunk of records at a time.
"""

import math
from array import array

from .perception import INFRASTRUCTURE, ONBOARD
from .wire import ZERO, SteeringCommand, format_field

MAXIMUM_CONFIDENCE = "maximum_confidence"
SIMPLE_AVERAGE = "simple_average"
CONFIDENCE_WEIGHTED = "confidence_weighted"

DRIVE_LOG_HEADER = (
    "time,left,right,"
    "piLeft,piRight,piConf,piP,piI,piD,"
    "cam0Left,cam0Right,cam0Conf,cam0P,cam0I,cam0D,"
    "cam1Left,cam1Right,cam1Conf,cam1P,cam1I,cam1D"
)


def log_slots(sensors):
    """Source ids of the drive log's column groups (pi, cam0, cam1), None for
    an empty one: the onboard sensor, then the infrastructure ones in order."""
    onboard = [s.sensor_id for s in sensors if s.camera.kind == ONBOARD]
    infra = [s.sensor_id for s in sensors if s.camera.kind == INFRASTRUCTURE]
    if len(onboard) > 1 or len(infra) > 2:
        raise ValueError("the drive log holds one onboard and two "
                         "infrastructure columns at most")
    return tuple((onboard + [None])[:1] + (infra + [None, None])[:2])


def fuse_max(commands):
    """Adopt the most confident of the commands (one per source, in source
    order) outright; later sources win ties.

    Returns None when every stored confidence is zero (nothing to trust).
    The pick is max(reversed(commands), key=confidence), taken in one pass
    with the same comparison: a source replaces the pick only when its
    confidence is greater.
    """
    chosen = None
    trusted = False
    for cmd in reversed(commands):
        confidence = cmd.confidence
        if confidence != 0:
            trusted = True
        if chosen is None or confidence > chosen.confidence:
            chosen = cmd
    if not trusted:
        return None
    return chosen.left, chosen.right


def fuse_simple_avg(commands):
    """Average the stored commands over the sources that report confidence.

    The numerator sums every stored command (inactive ones are zero) while
    the denominator counts only sources with nonzero confidence, so a
    confident-free source inflates nothing but a zero-confidence positive
    command is spread over the others.  Returns None when no source reports
    confidence.
    """
    count = left = right = 0
    for cmd_left, cmd_right, confidence, _, _, _ in commands:
        if confidence != 0:
            count += 1
        left += cmd_left
        right += cmd_right
    if count == 0:
        return None
    return left / count, right / count


def fuse_weighted(commands):
    """Confidence-weighted average of the stored commands.

    Returns None when the confidences sum to zero.
    """
    total = left = right = 0
    for cmd_left, cmd_right, confidence, _, _, _ in commands:
        total += confidence
        left += confidence * cmd_left
        right += confidence * cmd_right
    if total == 0:
        return None
    return left / total, right / total


_POLICY_FNS = {
    MAXIMUM_CONFIDENCE: fuse_max,
    SIMPLE_AVERAGE: fuse_simple_avg,
    CONFIDENCE_WEIGHTED: fuse_weighted,
}
POLICIES = tuple(_POLICY_FNS)


def drive_tick(commands, policy: str, previous):
    """Fuse the stored commands into applied motor powers.

    Returns ((left, right), degenerate).  Fused powers truncate to integers
    and clamp to the motor range [0, 255].  A degenerate fusion holds the
    previous powers: nobody to trust, or huge finite commands whose
    weighted sums overflow to inf or nan.
    """
    fused = _POLICY_FNS[policy](commands)
    if fused is None:
        return previous, True
    left, right = fused
    if not (math.isfinite(left) and math.isfinite(right)):
        return previous, True
    return (min(255, max(0, int(left))), min(255, max(0, int(right)))), False


# Drive-log text of raw / 3.0 for every raw value whose third lies in the
# motor range [0, 255]: the scaled powers and confidences that really flow.
_THIRDS = {k: format_field(k / 3.0) for k in range(766)}


class DriveLog:
    """A node's drive log: one record per command, formatted only when read.

    A record is (now, k, left, right, cmd, degenerate): cmd, as received,
    fills source k's slot under the applied powers.  slots maps the log
    column groups to source positions, n_sources for an empty one.

    Records are appended straight into typed columns, 60 bytes each: now
    in array('d'), cmd's six fields in turn in the one array('d') commands,
    and k, the applied powers (0-255) and the flag in array('B').  Every
    field a sensor sends is a float (see VehicleNode.handle_datagram), so it
    reads back as itself.  Iterating formats the rows one at a time and
    keeps none.
    """

    def __init__(self, n_sources, slots):
        self.now = array("d")
        self.source = array("B" if n_sources < 256 else "Q")
        self.left = array("B")
        self.right = array("B")
        self.commands = array("d")
        self.degenerate = array("B")
        self.columns = (self.now, self.source, self.left, self.right, self.commands,
                        self.degenerate)
        self.blank_texts = ("0,0,0,0,0,0",) * (n_sources + 1)  # the slots' before any record
        self._slots = slots

    def append(self, now, k, applied, cmd, degenerate):
        """Record cmd from source k at now, under the applied (left, right)."""
        self.now.append(now)
        self.source.append(k)
        self.left.append(applied[0])
        self.right.append(applied[1])
        self.commands.extend(cmd)
        self.degenerate.append(degenerate)

    def __len__(self):
        return len(self.now)

    def records(self, start=0):
        """The records from start on, in order, each cmd a tuple of six floats."""
        commands = iter(self.commands[6 * start:])
        return zip(self.now[start:], self.source[start:], self.left[start:],
                   self.right[start:], zip(*[commands] * 6), self.degenerate[start:])

    def rows(self, start=0, texts=None):
        """The rows of the records from start on; iterating gives them all.
        texts, each slot's text as the records before start left it (None:
        blank_texts), is updated in place for the next call to go on from.

        A slot text is format_field of each scaled field.  A raw left, right
        or confidence that is a key of _THIRDS takes its text from there;
        any other (negative, non-integral, huge) is formatted.  A float equal
        to a key k has the value k, and every k is exact in a float, so
        raw / 3.0 is the float k / 3.0 and format_field gives it the table's
        text.  -0.0 finds key 0, and both format as "0".  format_field gives
        a float that is not integral its repr, so when p, i and d are all
        such floats the slot takes their reprs directly; otherwise each goes
        through format_field.
        """
        texts = list(self.blank_texts) if texts is None else texts
        a, b, c = self._slots
        for now, k, left, right, cmd, degenerate in self.records(start):
            raw_left, raw_right, raw_confidence, p, i, d = cmd
            scaled = (f"{_THIRDS.get(raw_left) or format_field(raw_left / 3.0)},"
                      f"{_THIRDS.get(raw_right) or format_field(raw_right / 3.0)},"
                      f"{_THIRDS.get(raw_confidence) or format_field(raw_confidence / 3.0)}")
            if not (p.is_integer() or i.is_integer() or d.is_integer()):
                texts[k] = f"{scaled},{p!r},{i!r},{d!r}"
            else:
                texts[k] = f"{scaled},{format_field(p)},{format_field(i)},{format_field(d)}"
            yield (f"{now:.6f},{left},{right},{texts[a]},{texts[b]},{texts[c]}"
                   f"{',-1' if degenerate else ''}")

    __iter__ = rows


class VehicleNode:
    """Receives commands, keeps each source's latest one, fuses them, and
    records each command in its drive log.

    commands holds, per source in source_ids order (which fixes the max
    tie-break), the command fusion reads.  slot_ids maps the three log
    column groups (pi, cam0, cam1) to source ids, as log_slots gives them.
    """

    def __init__(self, source_ids, policy: str, slot_ids):
        if policy not in _POLICY_FNS:
            raise ValueError(f"unknown fusion policy {policy!r}")
        self._index = {sid: k for k, sid in enumerate(source_ids)}
        if len(self._index) != len(source_ids):
            raise ValueError("duplicate source ids")
        self.policy = policy
        self.applied = (0, 0)
        self.commands = [ZERO] * len(source_ids)
        self.log = DriveLog(len(source_ids),
                            [self._index.get(sid, len(source_ids)) for sid in slot_ids])

    def ingest(self, source_id, cmd: SteeringCommand):
        """Store a command from one of source_ids, scaling powers and
        confidence by 1/3; returns the source's position.

        A source counts only while it commands positive power; anything
        else (zero-reports included) parks it on the zero command.
        """
        k = self._index[source_id]
        raw_left, raw_right, raw_confidence, p, i, d = cmd
        left, right = raw_left / 3.0, raw_right / 3.0
        scaled = SteeringCommand(left, right, raw_confidence / 3.0, p, i, d)
        self.commands[k] = scaled if left > 0 or right > 0 else ZERO
        return k

    def handle_datagram(self, source_id, cmd: SteeringCommand, now: float):
        """Ingest one command, as sent or as decoded from its text at the
        socket, and apply fused powers; records one log row.

        A sensor's command and its decoded text give the same row.  A sensor
        sends six finite floats (powers: whole numbers within 2**53 of 100;
        confidence: a whole number in 0-100; the zero command: 0.0s).  For
        each such v, float(format_field(v)) == v, and the node reads v only
        by v / 3.0, > 0, != 0 and format_field(v).
        """
        k = self.ingest(source_id, cmd)
        self.applied, degenerate = drive_tick(self.commands, self.policy, self.applied)
        self.log.append(now, k, self.applied, cmd, degenerate)
        return self.applied
