"""Power rails and data channels that exist only across a locked interface.

Two fixed rails cross the interface: the main 48 V rail rated 500 W and the
auxiliary 24 V rail rated 50 W. Two data channels cross it as well:
Ethernet for payload traffic and CAN for interface-to-interface interlock
coordination; Frame enforces the purpose split by kind. Contacts
repeat the base sequence three times around the ring, so mating at any
120-degree rotation slot lands every contact on a peer of the same role.

Power is ideal budget accounting: no voltage drop, no transients.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .errors import (
    FramingError,
    NotConnectedError,
    ParameterError,
    UnreachableError,
)

RAIL_RATINGS_W = {48.0: 500.0, 24.0: 50.0}
RAIL_NAMES = {48.0: "main", 24.0: "auxiliary"}

CHANNEL_PURPOSES = {"ethernet": "payload", "can": "interlock"}
FRAME_LIMITS_B = {"can": 8, "ethernet": 1500}
DEFAULT_HOP_LATENCY_S = 0.001

BASE_CONTACTS = (
    "power_48v",
    "power_return",
    "power_24v",
    "can_high",
    "can_low",
    "ethernet_pair",
)


class PowerBus:
    """Allocation ledger for one rail; grants never exceed the rating.

    A bus serves until ChannelSet.disconnect clears `connected`.
    """

    def __init__(self, voltage_v: float = 48.0):
        rating = RAIL_RATINGS_W.get(voltage_v)
        if rating is None:
            raise ParameterError(
                f"no {voltage_v} V rail; rails are {sorted(RAIL_RATINGS_W)} V"
            )
        self.name = RAIL_NAMES[voltage_v]
        self.voltage_v = voltage_v
        self.capacity_w = rating
        self.connected = True
        self._grants: dict[int, float] = {}
        self._next_id = 1

    @property
    def allocated_w(self) -> float:
        """The granted watts added left to right, in grant order (the
        builtin sum compensates float rounding since Python 3.12)."""
        total = 0.0
        for watts in self._grants.values():
            total += watts
        return total

    def request_power(self, watts: float) -> int | None:
        """Grant id when the connected rail can carry the load, else None."""
        if not self.connected:
            raise NotConnectedError(f"{self.name} bus is not connected")
        if not (math.isfinite(watts) and watts > 0.0):
            raise ParameterError("watts must be positive and finite")
        if self.allocated_w + watts > self.capacity_w:
            return None
        gid = self._next_id
        self._next_id += 1
        self._grants[gid] = watts
        return gid

    def release_power(self, grant_id: int) -> None:
        if not self.connected:
            raise NotConnectedError(f"{self.name} bus is not connected")
        if grant_id not in self._grants:
            raise ParameterError(f"unknown or already released grant {grant_id}")
        del self._grants[grant_id]

    def grants(self) -> dict[int, float]:
        """Outstanding grants: grant id -> watts."""
        return dict(self._grants)


def contact_ring() -> tuple[str, ...]:
    """Full ring layout: the base sequence repeated for each 120-degree slot."""
    return BASE_CONTACTS * 3


class ChannelSet:
    """The power rails bound across one locked interface."""

    def __init__(self):
        self.buses: dict[float, PowerBus] = {rail: PowerBus(rail) for rail in RAIL_RATINGS_W}

    def disconnect(self) -> None:
        for bus in self.buses.values():
            bus.connected = False


def connect(state) -> ChannelSet:
    """Bind the power buses across an interface that has reached locked.

    state only needs a phase attribute (duck-typed to avoid a dependency on
    the FSM module). Any other phase refuses with NotConnectedError.
    """
    phase = getattr(state, "phase", None)
    if phase != "locked":
        raise NotConnectedError(f"channels require a locked interface, got {phase!r}")
    return ChannelSet()


@dataclass(frozen=True)
class Frame:
    """One message on a crossing bus."""

    channel: str
    source: str
    dest: str
    payload: bytes
    timestamp_s: float = 0.0

    def __post_init__(self):
        limit = FRAME_LIMITS_B.get(self.channel)
        if limit is None:
            raise ParameterError(
                f"unknown channel {self.channel!r}; expected can or ethernet"
            )
        if not isinstance(self.payload, bytes):
            raise ParameterError("payload must be bytes")
        if len(self.payload) > limit:
            raise FramingError(
                f"{self.channel} frame of {len(self.payload)} B exceeds {limit} B"
            )
        if not math.isfinite(self.timestamp_s) or self.timestamp_s < 0.0:
            raise ParameterError("timestamp_s must be finite and >= 0")

    @property
    def purpose(self) -> str:
        return CHANNEL_PURPOSES[self.channel]


@dataclass(frozen=True)
class Delivery:
    path: tuple[str, ...]
    hops: int
    latency_s: float


def shortest_path(neighbors, src, dst) -> tuple | None:
    """Fewest-hop path from src to dst, or None when dst is not reachable.

    Breadth-first over neighbors(node), visiting each node's neighbours in
    the order given, so among equal-length paths the one through earlier
    neighbours wins. The search stops as soon as it reaches dst.
    """
    if src == dst:
        return (src,)
    parent = {src: None}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        for nxt in neighbors(cur):
            if nxt not in parent:
                parent[nxt] = cur
                if nxt == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(parent[path[-1]])
                    return tuple(reversed(path))
                queue.append(nxt)
    return None


def send_frame(frame: Frame, topology) -> Delivery:
    """Deliver a frame along the fewest-hop locked path between its endpoints.

    topology needs a has_node(node) method and a path(src, dst) method that
    returns the fewest-hop path over link-up interfaces as a tuple of nodes,
    or None when there is none: the path shortest_path finds. ModuleGraph.path
    answers it from the single derived cache of the assembly, one walk of
    its Locked forest. Each hop takes DEFAULT_HOP_LATENCY_S. Unknown
    endpoints raise NotConnectedError; a missing path raises
    UnreachableError.
    """
    src, dst = frame.source, frame.dest
    for node in (src, dst):
        if not topology.has_node(node):
            raise NotConnectedError(f"node {node!r} is not on the network")
    path = topology.path(src, dst)
    if path is None:
        raise UnreachableError(f"no linked path from {src!r} to {dst!r}")
    hops = len(path) - 1
    return Delivery(path=path, hops=hops, latency_s=hops * DEFAULT_HOP_LATENCY_S)
