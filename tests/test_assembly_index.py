"""Property test of ModuleGraph's locked-adjacency index.

Random scripts of dock, unlock, undock and reconfigure run on a small graph.
After every step the traversal queries must agree with a brute-force oracle
built from the public edges() and edge_info(), and _edge_between must pick
the first Locked interface in dock order, which the script records itself.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from docksim.assembly import Module, ModuleGraph, Pose, Port
from docksim.errors import DocksimError

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


def make_graph() -> ModuleGraph:
    ports = tuple(Port(p, Pose.from_xyz_rpy(x=1.0 + k)) for k, p in enumerate(PORTS))
    g = ModuleGraph()
    for mid in MODULES:
        grounded = mid == "a"
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
            for step in graph.reconfigure(op[1]).steps:
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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(script_ops, max_size=25))
def test_locked_index_matches_brute_force_oracle(script):
    graph = make_graph()
    dock_order: list = []
    check_index(graph, dock_order)
    for op in script:
        apply(graph, op, dock_order)
        check_index(graph, dock_order)
