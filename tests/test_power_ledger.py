"""Property test of the power ledgers under random route scripts.

A small graph is docked at random (parallel interfaces and loops included),
then a random script of route_power, release_route, dock, unlock and undock
runs on it. After every step, each rail ledger of each connected interface
must hold exactly the watts of the routes still outstanding across it that
this connection granted (an interface docked again gets new ledgers, whose
grant ids start over), a route_power that grants nothing (None or an error)
must leave every ledger as it was, and at the end releasing every route must
bring every ledger back to 0.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docksim.assembly import Module, ModuleGraph, Pose, Port
from docksim.errors import DocksimError, NotConnectedError

MODULES = ("a", "b", "c", "d")
PORTS = ("p0", "p1", "p2")

refs = st.tuples(st.sampled_from(MODULES), st.sampled_from(PORTS))
# module pairs, docked in turn through the next free port of each end
docks = st.lists(
    st.tuples(st.sampled_from(MODULES), st.sampled_from(MODULES)).filter(lambda ab: ab[0] != ab[1]),
    min_size=2, max_size=6,
)
# whole watts, so every ledger sum is exact in any order; the 24 V rail
# carries 50 W, the 48 V rail 500 W
requests = st.tuples(
    st.sampled_from(MODULES), st.sampled_from(MODULES),
    st.sampled_from((10.0, 20.0, 45.0, 120.0, 250.0, 400.0)),
    st.sampled_from((48.0, 48.0, 24.0)),
).filter(lambda r: r[0] != r[1])
OPS = {
    "route": st.builds(lambda r: ("route", *r), requests),
    "release": st.builds(lambda i: ("release", i), st.integers(0, 7)),
    "unlock": st.builds(lambda r: ("unlock", *r), refs),
    "undock": st.builds(lambda r: ("undock", *r), refs),
    # dock one of the first interfaces again, on the same two ports
    "dock": st.builds(lambda i: ("dock", i), st.integers(0, 7)),
}
# routes three times as often as each other op, so ledgers fill up and
# routes get denied part-way along their path
script_ops = st.sampled_from(("route",) * 3 + ("release", "unlock", "undock", "dock")).flatmap(
    OPS.get)


def make_graph(dock_list) -> ModuleGraph:
    ports = tuple(Port(p, Pose.from_xyz_rpy(x=1.0 + k)) for k, p in enumerate(PORTS))
    g = ModuleGraph()
    for mid in MODULES:
        g.add_module(Module(mid, "link", ports))
    used = dict.fromkeys(MODULES, 0)
    for a, b in dock_list:
        if used[a] < len(PORTS) and used[b] < len(PORTS):
            assert g.dock(a, PORTS[used[a]], b, PORTS[used[b]]).accepted
            used[a] += 1
            used[b] += 1
    return g


def channels_of(graph: ModuleGraph, edge):
    """The channels of the interface's current connection, or None."""
    return graph.edge_info(edge).channels if edge in graph.edges() else None


def check_ledgers(graph: ModuleGraph, outstanding: list) -> None:
    for edge in graph.edges():
        channels = graph.edge_info(edge).channels
        if channels is None:
            continue
        for rail_v, bus in channels.buses.items():
            held = {
                gid: route.watts
                for route, issuers in outstanding if route.rail_v == rail_v
                for (ek, gid), issuer in zip(route.grants, issuers)
                if ek == edge and issuer is channels
            }
            assert bus.grants() == held
            assert bus.allocated_w == sum(held.values())
            assert bus.allocated_w <= bus.capacity_w


def apply(graph: ModuleGraph, op: tuple, outstanding: list, first_edges: tuple) -> None:
    kind = op[0]
    if kind == "route":
        before = graph.power_allocations()
        try:
            route = graph.route_power(*op[1:4], rail_v=op[4])
        except DocksimError:
            route = None
        if route is None:
            assert graph.power_allocations() == before
        else:  # the connection each grant was made on, seen from outside
            outstanding.append((route, [channels_of(graph, ek) for ek, _ in route.grants]))
    elif kind == "release":
        if not outstanding:
            return
        route, issuers = outstanding.pop(op[1] % len(outstanding))
        if all(channels_of(graph, ek) is c for (ek, _), c in zip(route.grants, issuers)):
            graph.release_route(route)
        else:  # an interface on the path is gone (maybe docked again), and its grants with it
            with pytest.raises(NotConnectedError):
                graph.release_route(route)
    elif kind == "dock":
        ref_a, ref_b = first_edges[op[1] % len(first_edges)]
        try:
            graph.dock(*ref_a, *ref_b)
        except DocksimError:
            pass
    else:
        try:
            getattr(graph, kind)(*op[1:])
        except DocksimError:
            pass


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(docks, st.lists(script_ops, min_size=10, max_size=30))
def test_ledgers_hold_exactly_the_outstanding_routes(dock_list, script):
    graph = make_graph(dock_list)
    first_edges = graph.edges()
    outstanding: list = []
    for op in script:
        apply(graph, op, outstanding, first_edges)
        check_ledgers(graph, outstanding)
    while outstanding:
        apply(graph, ("release", 0), outstanding, first_edges)
        check_ledgers(graph, outstanding)
    assert all(w == 0.0 for _, _, w in graph.power_allocations())
