"""Property test of ModuleGraph's locked-adjacency index and its cached walk.

Random scripts of dock, unlock, undock and reconfigure run on a small graph.
After every step the traversal queries must agree with brute-force oracles
built from the public edges() and edge_info(): neighbours, the route_power
and send_frame paths (the shortest path whose module ids come first in
order), and the modules that undocking each docked port would strand, in
every reconfigure and for every port. _edge_between must pick the first
Locked interface in dock order, which the script records itself. The world
poses and statics of the scripted graph, which answered every earlier query
from its cached walk, must match those of a fresh graph that replays the
script so far, bit for bit or error for error. The same scripts run again on
graphs with a random set of anchors. Direct tests count the walks that the
benchmark's assembly build and queries make, and check that path searches
breadth-first only on a component whose neighbour graph has a loop.
"""
import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assembly_oracle import perfbench_inputs, truss_ports
from docksim import assembly
from docksim.assembly import GRAVITY_M_S2, Module, ModuleGraph, Pose, Port
from docksim.bus import Frame, send_frame
from docksim.errors import DocksimError, IndeterminateError, UnreachableError, UnsupportedError
from docksim.loads import Wrench

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


def placed_bits(graph: ModuleGraph) -> list:
    """world_poses and propagate_wrench under gravity: their bits, or the error."""
    out = []
    for query in (
        lambda: [(mid, pose.matrix.tobytes()) for mid, pose in graph.world_poses().items()],
        lambda: repr(graph.propagate_wrench(gravity=GRAVITY_M_S2)),
    ):
        try:
            out.append(query())
        except DocksimError as err:
            out.append((type(err), str(err)))
    return out


def run_script(anchors, script) -> None:
    graph = make_graph(anchors)
    dock_order: list = []
    check_index(graph, dock_order)
    check_paths(graph)
    placed_bits(graph)
    for i, op in enumerate(script):
        apply(graph, op, dock_order)
        check_index(graph, dock_order)
        check_paths(graph)
        check_strands(graph)
        fresh = make_graph(anchors)
        for done in script[:i + 1]:
            apply(fresh, done, [])
        assert placed_bits(graph) == placed_bits(fresh)


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


def truss_assembly():
    """The assembly_mix build of seed 1 and its plan: 320 truss nodes, every
    25th docked to its host twice with the first interface unlocked."""
    plan = perfbench_inputs().assembly_plan(1)
    ports = truss_ports()
    graph = ModuleGraph()
    for mid in plan["modules"]:
        grounded = mid == "m0"
        graph.add_module(Module(mid, "truss_node" if grounded else "link", ports,
                                grounded=grounded,
                                world_pose=Pose.identity() if grounded else None))
    for step in plan["build"]:
        if step[0] == "dock":
            assert graph.dock(*step[1:]).accepted
        else:
            a, b = step[1:]
            assert graph.dock(a, "e0", b, "w1").accepted
            assert graph.dock(a, "e1", b, "w0").accepted
            graph.unlock(a, "e0")
    return graph, plan


def count_walks(monkeypatch) -> list:
    """Wrap _Forest.__init__; the list gets one entry per walk."""
    walks = []
    init = assembly._Forest.__init__

    def counting(self, graph):
        walks.append(graph)
        init(self, graph)

    monkeypatch.setattr(assembly._Forest, "__init__", counting)
    return walks


class TestOneWalk:
    def test_one_walk_serves_every_query_until_the_graph_changes(self, monkeypatch):
        graph, plan = truss_assembly()
        walks = count_walks(monkeypatch)
        graph.world_poses()
        graph.propagate_wrench(external={m: Wrench(*w) for m, w in plan["wrenches"].items()},
                               gravity=GRAVITY_M_S2)
        pairs = [(a, b, 10.0, 48.0) for a, b in plan["pairs"]]
        for src, dst, watts, rail in pairs + plan["routes"]:
            route = graph.route_power(src, dst, watts, rail_v=rail)
            if route is not None:
                graph.release_route(route)
        for channel, src, dst, size in plan["frames"]:
            send_frame(Frame(channel, src, dst, bytes(size)), graph)
        for mid in graph.modules():
            graph.neighbors(mid)
        assert len(walks) == 1

        # each change costs one more walk, made by the first query after it
        changes = [lambda op=op: graph.reconfigure([op]) for op in plan["relocate"][:6]]
        changes += [lambda ref=ref: graph.unlock(*ref) for ref in plan["unlocks"][:3]]
        for walked, change in enumerate(changes, start=2):
            change()
            # a relocation's new interface closes a loop until the old one
            # goes, and an unlock can cut a loaded part loose from the anchor
            with contextlib.suppress(IndeterminateError):
                graph.world_poses()
            with contextlib.suppress(IndeterminateError, UnsupportedError):
                graph.propagate_wrench(gravity=GRAVITY_M_S2)
            for src, dst, _, _ in plan["routes"][:20]:
                with contextlib.suppress(UnreachableError):
                    route = graph.route_power(src, dst, 1.0)
                    graph.release_route(route)
                with contextlib.suppress(UnreachableError):
                    send_frame(Frame("can", src, dst, b""), graph)
            for mid in graph.modules():
                graph.neighbors(mid)
            assert len(walks) == walked

    def test_inconsistent_loop_routes_but_never_places(self, monkeypatch):
        # two interfaces between a and b whose port offsets disagree: paths
        # come from the walk alone, so only the geometry refuses
        graph = make_graph(("a",))
        assert graph.dock("a", "p0", "b", "p1").accepted
        assert graph.dock("a", "p1", "b", "p0").accepted
        walks = count_walks(monkeypatch)
        for _ in range(2):
            route = graph.route_power("a", "b", 1.0)
            assert route.path == ("a", "b")
            graph.release_route(route)
            assert send_frame(Frame("can", "b", "a", b""), graph).path == ("b", "a")
            for query in (graph.world_poses, graph.propagate_wrench):
                with pytest.raises(IndeterminateError,
                                   match="^loop through 'b' closes with inconsistent geometry$"):
                    query()
        assert len(walks) == 1

    def test_world_poses_returns_a_copy(self):
        graph = make_graph(("a",))
        assert graph.dock("a", "p0", "b", "p1").accepted
        assert graph.dock("b", "p0", "c", "p1").accepted
        load = {"c": Wrench(fz_n=-10.0)}
        before = graph.propagate_wrench(load)
        poses = graph.world_poses()
        poses["b"] = Pose.from_xyz_rpy(x=100.0)
        del poses["c"]
        assert graph.propagate_wrench(load) == before
        assert set(graph.world_poses()) == {"a", "b", "c"}


def spy_searches(monkeypatch) -> list:
    """Wrap the breadth-first search path falls back to; one entry per search."""
    searches = []
    search = assembly.shortest_path

    def spying(neighbors, src, dst):
        searches.append((src, dst))
        return search(neighbors, src, dst)

    monkeypatch.setattr(assembly, "shortest_path", spying)
    return searches


def doubly_locked_pair() -> ModuleGraph:
    """a and b share the truss pair a.e0-b.w1 and a.e1-b.w0, both Locked, and
    b holds c; d is docked to nothing."""
    ports = truss_ports()
    graph = ModuleGraph()
    graph.add_module(Module("a", "truss_node", ports, grounded=True,
                            world_pose=Pose.identity()))
    for mid in "bcd":
        graph.add_module(Module(mid, "link", ports))
    for a, pa, b, pb in (("a", "e0", "b", "w1"), ("a", "e1", "b", "w0"), ("b", "e0", "c", "w1")):
        assert graph.dock(a, pa, b, pb).accepted
    return graph


def locked_triangle() -> ModuleGraph:
    """a, b and c Locked in a cycle; d is docked to nothing."""
    graph = make_graph(("a",))
    for a, pa, b, pb in (("a", "p0", "b", "p1"), ("b", "p0", "c", "p1"), ("c", "p0", "a", "p1")):
        assert graph.dock(a, pa, b, pb).accepted
    return graph


class TestWalkIndex:
    @pytest.mark.parametrize("build,searched", [(doubly_locked_pair, False),
                                                (locked_triangle, True)])
    def test_only_a_neighbour_loop_is_searched(self, build, searched, monkeypatch):
        # two interfaces between one pair of modules make no neighbour loop
        graph = build()
        searches = spy_searches(monkeypatch)
        expected = oracle_paths(graph)
        for src in graph.modules():
            assert graph.neighbors(src) == oracle_neighbors(graph, src)
            for dst in graph.modules():
                assert graph.path(src, dst) == expected.get((src, dst))
        assert bool(searches) == searched

    def test_unknown_module_raises_key_error(self):
        graph = locked_triangle()
        for query in (lambda: graph.neighbors("z"), lambda: graph.path("z", "a"),
                      lambda: graph.path("a", "z")):
            with pytest.raises(KeyError):
                query()
