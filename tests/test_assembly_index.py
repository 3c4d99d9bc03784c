"""Property test of ModuleGraph's locked-adjacency index.

Random scripts of dock, unlock, undock and reconfigure run on a small graph.
After every step the traversal queries must agree with brute-force oracles
built from the public edges() and edge_info(): neighbours, the route_power
and send_frame paths (the shortest path whose module ids come first in
order), and the modules that undocking each docked port would strand, in
every reconfigure and for every port. _edge_between must pick the first
Locked interface in dock order, which the script records itself. The same
scripts run again on graphs with a random set of anchors.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docksim.assembly import Module, ModuleGraph, Pose, Port
from docksim.bus import Frame, send_frame
from docksim.errors import DocksimError, UnreachableError

MODULES = ("a", "b", "c", "d")
PORTS = ("p0", "p1", "p2")

refs = st.tuples(st.sampled_from(MODULES), st.sampled_from(PORTS))
dock_op = st.builds(lambda a, b: ("dock", *a, *b), refs, refs)
undock_op = st.builds(lambda r: ("undock", *r), refs)
script_ops = st.one_of(
    dock_op,
    undock_op,
    st.builds(lambda r: ("unlock", *r), refs),
    st.builds(lambda plan: ("reconfigure", plan),
              st.lists(st.one_of(dock_op, undock_op), min_size=1, max_size=3)),
)


def make_graph(anchors=("a",)) -> ModuleGraph:
    ports = tuple(Port(p, Pose.from_xyz_rpy(x=1.0 + k)) for k, p in enumerate(PORTS))
    g = ModuleGraph()
    for mid in MODULES:
        grounded = mid in anchors
        g.add_module(Module(mid, "link", ports, grounded=grounded,
                            world_pose=Pose.identity() if grounded else None))
    return g


def oracle_locked_edges(graph: ModuleGraph) -> tuple:
    return tuple(e for e in graph.edges() if graph.edge_info(e).locked)


def oracle_neighbors(graph: ModuleGraph, module_id: str) -> tuple[str, ...]:
    out = set()
    for ref_a, ref_b in oracle_locked_edges(graph):
        if ref_a[0] == module_id:
            out.add(ref_b[0])
        if ref_b[0] == module_id:
            out.add(ref_a[0])
    return tuple(sorted(out))


def oracle_paths(graph: ModuleGraph) -> dict:
    """(src, dst) -> among the fewest-hop locked paths, the one whose id
    sequence sorts first; pairs with no path are left out."""
    adj = {mid: oracle_neighbors(graph, mid) for mid in graph.modules()}
    best = {}

    def extend(path):
        key = (path[0], path[-1])
        if key not in best or (len(path), path) < (len(best[key]), best[key]):
            best[key] = path
        for nxt in adj[path[-1]]:
            if nxt not in path:
                extend(path + (nxt,))

    for src in adj:
        extend((src,))
    return best


def oracle_anchored(graph: ModuleGraph, locked) -> set[str]:
    """Modules joined to an anchor through the given locked interfaces."""
    reached = {mid for mid in MODULES if graph.module(mid).grounded}
    grew = True
    while grew:
        grew = False
        for ref_a, ref_b in locked:
            if (ref_a[0] in reached) != (ref_b[0] in reached):
                reached |= {ref_a[0], ref_b[0]}
                grew = True
    return reached


def check_reconfigure(graph: ModuleGraph, before: dict, report) -> None:
    """Replay the plan on a copy of the interfaces: each undock must report
    exactly the modules that removing its interface cuts from every anchor."""
    docked = dict(before)  # frozenset interface -> locked
    for step in report.steps:
        if step.op[0] == "dock":
            if step.applied:
                docked[frozenset((step.op[1:3], step.op[3:5]))] = True
            continue
        ref = step.op[1:]
        edge = next((e for e in docked if ref in e), None)
        if edge is None:
            assert not step.applied and step.stranded == ()
            continue
        locked = [tuple(e) for e, lk in docked.items() if lk]
        cut = [tuple(e) for e, lk in docked.items() if lk and e != edge]
        expected = tuple(sorted(oracle_anchored(graph, locked) - oracle_anchored(graph, cut)))
        assert step.stranded == expected
        assert step.applied == (not expected)
        if step.applied:
            del docked[edge]


def check_strands(graph: ModuleGraph) -> None:
    """Every docked port: the modules undocking it would cut from every anchor."""
    docked = {e: graph.edge_info(e).locked for e in graph.edges()}
    locked = [e for e, lk in docked.items() if lk]
    anchored = oracle_anchored(graph, locked)
    for edge in docked:
        kept = oracle_anchored(graph, [e for e in locked if e != edge])
        for ref in edge:
            assert graph._would_strand(ref) == anchored - kept


def check_paths(graph: ModuleGraph) -> None:
    paths = oracle_paths(graph)
    modules = graph.modules()
    for src in modules:
        for dst in modules:
            if src == dst:
                continue
            expected = paths.get((src, dst))
            if expected is None:
                with pytest.raises(UnreachableError):
                    graph.route_power(src, dst, 1.0)
                with pytest.raises(UnreachableError):
                    send_frame(Frame("can", src, dst, b""), graph)
                continue
            route = graph.route_power(src, dst, 1.0)
            assert route.path == expected
            graph.release_route(route)
            assert send_frame(Frame("can", src, dst, b""), graph).path == expected


def apply(graph: ModuleGraph, op: tuple, dock_order: list) -> None:
    """Run one script step; keep dock_order, the docked interfaces oldest first."""

    def docked(a, pa, b, pb):
        dock_order.append(frozenset(((a, pa), (b, pb))))

    def undocked(m, p):
        dock_order[:] = [e for e in dock_order if (m, p) not in e]

    kind = op[0]
    try:
        if kind == "dock":
            if graph.dock(*op[1:]).accepted:
                docked(*op[1:])
        elif kind == "undock":
            graph.undock(*op[1:])
            undocked(*op[1:])
        elif kind == "unlock":
            graph.unlock(*op[1:])
        else:
            before = {frozenset(e): graph.edge_info(e).locked for e in graph.edges()}
            report = graph.reconfigure(op[1])
            check_reconfigure(graph, before, report)
            for step in report.steps:
                if step.applied:
                    (docked if step.op[0] == "dock" else undocked)(*step.op[1:])
    except DocksimError:
        pass


def check_index(graph: ModuleGraph, dock_order: list) -> None:
    locked = oracle_locked_edges(graph)
    assert graph.locked_edges() == locked
    for mid in MODULES:
        assert graph.neighbors(mid) == oracle_neighbors(graph, mid)
        for other in oracle_neighbors(graph, mid):
            first = next(
                e for e in dock_order
                if {r[0] for r in e} == {mid, other} and tuple(sorted(e)) in locked
            )
            edge = graph._edge_between(mid, other)
            assert graph.edge_info(edge).locked
            assert edge == tuple(sorted(first))


def run_script(anchors, script) -> None:
    graph = make_graph(anchors)
    dock_order: list = []
    check_index(graph, dock_order)
    check_paths(graph)
    for op in script:
        apply(graph, op, dock_order)
        check_index(graph, dock_order)
        check_paths(graph)
        check_strands(graph)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(script_ops, max_size=25))
def test_locked_index_matches_brute_force_oracle(script):
    run_script(("a",), script)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sets(st.sampled_from(MODULES), max_size=3), st.lists(script_ops, min_size=8, max_size=25))
def test_strands_and_paths_with_any_anchors(anchors, script):
    # no anchor, several anchors, and long scripts that undock inside
    # loops and between anchored sides
    run_script(anchors, script)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sets(st.tuples(st.sampled_from("abcdef"), st.sampled_from("abcdef"))
               .filter(lambda pair: pair[0] < pair[1])))
def test_paths_take_the_lowest_ids_among_the_shortest(pairs):
    # six modules docked along a random simple graph: squares and longer
    # cycles give equal-length paths through different modules
    ports = tuple(Port(f"p{k}", Pose.from_xyz_rpy(x=1.0 + k)) for k in range(5))
    graph = ModuleGraph()
    for mid in "fedcba":  # insertion order is not id order
        graph.add_module(Module(mid, "link", ports))
    used = {mid: 0 for mid in "abcdef"}
    for a, b in sorted(pairs):
        if used[a] < len(ports) and used[b] < len(ports):
            assert graph.dock(a, f"p{used[a]}", b, f"p{used[b]}").accepted
            used[a] += 1
            used[b] += 1
    check_paths(graph)
