"""spawn_vehicle as it was before it gathered the live positions once.

Each try resolves its entrance lane and scans every slot again through
euclidean_dist. It is the bit-exact reference for the library's spawn: the
same placement test, and the same random draws in the same order.
"""

from intersim.dynamics import PHASE_APPROACH, V_MAX, VehicleState
from intersim.geometry import Pose2, euclidean_dist
from intersim.scene import SPAWN_TRIES, route_from_entry


def spawn_by_rejection(network, states, rng, min_sep):
    """Up to SPAWN_TRIES random placements on random entrance lanes, each
    resolving its lane and scanning every live vehicle again."""
    entries = [f"{name}:{aid}.in" for name in network.names for aid in network.open_arms(name)]
    for _ in range(SPAWN_TRIES):
        ref = entries[rng.integers(len(entries))]
        _, lane = network.resolve(ref)
        t = rng.uniform(0.05, 0.95)
        x = lane.p0[0] + t * (lane.p1[0] - lane.p0[0])
        y = lane.p0[1] + t * (lane.p1[1] - lane.p0[1])
        if any(
            s is not None and euclidean_dist((x, y), (s.pose.x, s.pose.y)) < min_sep
            for s in states
        ):
            continue
        name, lane_id = ref.split(":")
        refs = route_from_entry(network, name, lane_id.split(".")[0], rng)
        return VehicleState(
            Pose2(x, y, lane.heading),
            float(rng.uniform(0.0, V_MAX)),
            goal_ref=refs[0],
            target_lane_seq=refs[1:],
            phase=PHASE_APPROACH,
        )
    return None
