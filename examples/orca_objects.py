"""Programming with Orca-style shared objects (the paper's model).

Five of the paper's six applications are Orca programs: communication is
hidden behind shared objects that the runtime replicates (reads local,
writes totally ordered) or keeps at one owner (all operations RPC).

This example builds a tiny branch-and-bound skeleton from two objects —
a replicated incumbent *bound* (read constantly, improved rarely) and an
owned central *job queue* (every fetch is a write) — and shows how the
placement decision interacts with the NUMA gap.

Run: ``python examples/orca_objects.py``
"""

from orca import ObjectSpec, OrcaEnv, Placement, choose_placement
from repro import das_topology
from repro.runtime import Machine

BOUND = ObjectSpec(
    name="bound",
    initial=lambda: {"value": 10_000},
    reads={"get": lambda s: s["value"]},
    writes={"improve": lambda s, v: s.__setitem__("value", min(s["value"], v))},
)

QUEUE = ObjectSpec(
    name="queue",
    initial=lambda: {"jobs": list(range(96))},
    reads={"remaining": lambda s: len(s["jobs"])},
    writes={"pop": lambda s: s["jobs"].pop(0) if s["jobs"] else None},
    op_bytes=64,
)


def worker(ctx, placements):
    env = OrcaEnv(ctx, [BOUND, QUEUE], placements)
    done = 0
    while True:
        job = yield from env.invoke("queue", "pop")
        if job is None:
            break
        # Read the incumbent bound before searching (read-heavy!).
        bound = yield from env.invoke("bound", "get")
        yield ctx.compute(2e-3)
        done += 1
        if job % 17 == 0 and job < bound:  # a rare improvement
            yield from env.invoke("bound", "improve", job)
    return done


def run(placements, label):
    topo = das_topology(clusters=4, cluster_size=4,
                        wan_latency_ms=10.0, wan_bandwidth_mbyte_s=1.0)
    machine = Machine(topo)
    for r in topo.ranks():
        machine.spawn(r, lambda ctx: worker(ctx, placements))
    machine.run()
    jobs = sum(machine.results())
    print(f"{label:38s} runtime {machine.runtime()*1000:8.1f} ms, "
          f"{machine.stats.inter.messages:4d} WAN msgs "
          f"({jobs} jobs)")
    return machine.runtime()


def main() -> None:
    print("Orca placement study: replicated bound + owned queue vs. naive\n")
    good = run({"bound": Placement(replicated=True, home=0),
                "queue": Placement(replicated=False, home=0)},
               "bound replicated / queue owned (RTS)")
    bad1 = run({"bound": Placement(replicated=False, home=0),
                "queue": Placement(replicated=False, home=0)},
               "both owned (every read a WAN RPC)")
    bad2 = run({"bound": Placement(replicated=True, home=0),
                "queue": Placement(replicated=True, home=0)},
               "both replicated (queue pops broadcast)")
    print(f"\nRTS-style placement wins: {bad1 / good:.2f}x vs all-owned, "
          f"{bad2 / good:.2f}x vs all-replicated.")
    print("choose_placement() encodes the heuristic:",
          choose_placement(reads_per_write=20, num_ranks=16),
          choose_placement(reads_per_write=0.1, num_ranks=16))


if __name__ == "__main__":
    main()
