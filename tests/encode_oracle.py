"""The per-row state encoders that encode_many replaced.

encode_row and encode_row_adaptive build one encoding at a time into a
zeroed array, reading every opponent and resolving its goal lane again for
each row. They are the bit-exact references for the library's encoders:
the same float expressions, in a separate code path.
"""

import math

import numpy as np

from intersim.imitation import (
    EGO_BLOCK,
    LANE_WIDTH_SCALE_M,
    N_LAYOUT_KINDS,
    POS_SCALE_M,
    SENTINEL_DX_M,
    SLOT_WIDTH,
    SPEED_SCALE,
    _PHASE_INDEX,
    _lane_tracking,
)
from intersim.planner import BEHAVIORAL_LEVELS


def opponent_order(states, i):
    """Opponents sorted by distance then bearing, then slot."""
    ex, ey = states[i].pose.x, states[i].pose.y
    rows = []
    for j, o in enumerate(states):
        if j == i or o is None:
            continue
        dx, dy = o.pose.x - ex, o.pose.y - ey
        rows.append((math.hypot(dx, dy), math.atan2(dy, dx), j))
    rows.sort()
    return [j for _, _, j in rows]


def encode_common(states, i, network, m_near, slot_width, tail):
    """Ego block plus opponent slots shared by both encoding variants."""
    st = states[i]
    lay, lane = network.resolve(st.goal_ref)
    x, y, th = st.pose.x, st.pose.y, st.pose.theta
    c, s = math.cos(th), math.sin(th)
    out = np.zeros(EGO_BLOCK + slot_width * m_near + tail)
    out[0] = (x - lay.center[0]) / POS_SCALE_M
    out[1] = (y - lay.center[1]) / POS_SCALE_M
    out[2] = c
    out[3] = s
    out[4] = st.speed / SPEED_SCALE
    gx = (lane.ref_point[0] - x) / POS_SCALE_M
    gy = (lane.ref_point[1] - y) / POS_SCALE_M
    out[5] = gx
    out[6] = gy
    out[7] = gx * c + gy * s
    out[8] = -gx * s + gy * c
    out[9 + _PHASE_INDEX[st.phase]] = 1.0
    e_y, e_psi = _lane_tracking(lane, x, y, th)
    out[12] = max(-2.0, min(2.0, e_y / LANE_WIDTH_SCALE_M))
    out[13] = math.cos(e_psi)
    out[14] = math.sin(e_psi)
    order = opponent_order(states, i)
    base = EGO_BLOCK
    for slot in range(m_near):
        if slot < len(order):
            o = states[order[slot]]
            dx = (o.pose.x - x) / POS_SCALE_M
            dy = (o.pose.y - y) / POS_SCALE_M
            _, olane = network.resolve(o.goal_ref)
            ogx = (olane.ref_point[0] - o.pose.x) / POS_SCALE_M
            ogy = (olane.ref_point[1] - o.pose.y) / POS_SCALE_M
            out[base] = dx
            out[base + 1] = dy
            out[base + 2] = dx * c + dy * s
            out[base + 3] = -dx * s + dy * c
            out[base + 4] = math.cos(o.pose.theta - th)
            out[base + 5] = math.sin(o.pose.theta - th)
            out[base + 6] = o.speed / SPEED_SCALE
            out[base + 7] = ogx * c + ogy * s
            out[base + 8] = -ogx * s + ogy * c
        else:
            far = SENTINEL_DX_M / POS_SCALE_M
            out[base] = far
            out[base + 2] = far
            out[base + 4] = 1.0
        base += slot_width
    return out, lay, order, base


def encode_row(states, i, k, network, m_near):
    if k not in BEHAVIORAL_LEVELS:
        raise ValueError(f"encoding defined for levels {BEHAVIORAL_LEVELS}, got {k}")
    out, lay, _, base = encode_common(
        states, i, network, m_near, SLOT_WIDTH, N_LAYOUT_KINDS + len(BEHAVIORAL_LEVELS)
    )
    out[base + lay.label - 1] = 1.0
    out[base + N_LAYOUT_KINDS + k - 1] = 1.0
    return out


def encode_row_adaptive(states, i, estimates, network, m_near):
    out, lay, order, base = encode_common(states, i, network, m_near, SLOT_WIDTH + 1, N_LAYOUT_KINDS)
    for slot in range(min(m_near, len(order))):
        pos = EGO_BLOCK + (SLOT_WIDTH + 1) * slot + SLOT_WIDTH
        out[pos] = -1.0 if estimates.get(order[slot], 1) == 1 else 1.0
    out[base + lay.label - 1] = 1.0
    return out
