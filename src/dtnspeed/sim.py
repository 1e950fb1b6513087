"""Epidemic broadcast over billiard / random-walk mobile nodes.

Nodes move at constant speed in a D-dimensional box with specular wall
reflection, redrawing an isotropic direction at Poisson rate tau.  Two
nodes within the radio range exchange the beacon instantaneously, and a
flood infects the whole connected component of the proximity graph.

Each node owns an independent RNG stream, so trajectories are invariant
under time-step refinement: only contact detection depends on dt.

One step (`advance` then `flood`) is O(n) numpy work and O(n) memory when
nodes are sparse: `advance` moves all nodes as arrays and loops in Python
only over the direction changes, and `flood` finds neighbours on a
linked-cell grid of at most 16 cells per node instead of an n x n
distance matrix.  Every range decision is the same float comparison as
the dense one, so records do not depend on the grid.
"""

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

CENTER = "center"
UNIFORM_RANDOM = "uniform"


class ConfigError(ValueError):
    """A simulation configuration violates its invariants."""


@dataclass(frozen=True)
class SimConfig:
    d: int
    box_length: float
    n: int
    v: float
    tau: float
    radio_range: float = 1.0
    dt: float = 0.05
    t_max: float = 1000.0
    seed: int = 0
    source_placement: str = CENTER

    def __post_init__(self):
        problems = []
        if self.d not in (1, 2, 3):
            problems.append(f"d must be 1, 2 or 3, got {self.d}")
        if self.radio_range <= 0.0:
            problems.append(f"radio_range must be > 0, got {self.radio_range}")
        elif self.box_length <= 2.0 * self.radio_range:
            problems.append(
                f"box_length must exceed 2*radio_range, got L={self.box_length}"
            )
        if self.n < 2:
            problems.append(f"n must be >= 2, got {self.n}")
        if self.v <= 0.0:
            problems.append(f"v must be > 0, got {self.v}")
        if self.tau < 0.0:
            problems.append(f"tau must be >= 0, got {self.tau}")
        if self.dt <= 0.0:
            problems.append(f"dt must be > 0, got {self.dt}")
        elif self.radio_range > 0.0 and self.v > 0.0 and (
            self.dt > 0.1 * self.radio_range / self.v + 1e-15
        ):
            problems.append(
                f"dt={self.dt} exceeds the contact-miss guard "
                f"0.1*radio_range/v = {0.1 * self.radio_range / self.v}"
            )
        if self.t_max <= 0.0:
            problems.append(f"t_max must be > 0, got {self.t_max}")
        if self.source_placement not in (CENTER, UNIFORM_RANDOM):
            problems.append(
                f"source_placement must be {CENTER!r} or {UNIFORM_RANDOM!r}, "
                f"got {self.source_placement!r}"
            )
        if problems:
            raise ConfigError("; ".join(problems))


@dataclass(frozen=True)
class InfectionRecord:
    """Per-node first reception: when, and how far from the source origin."""

    node_id: int
    infection_time: float
    distance: float


@dataclass
class World:
    """Full mutable simulation state; confined to one thread."""

    config: SimConfig
    time: float
    positions: np.ndarray        # (n, d), componentwise in [0, L]
    directions: np.ndarray       # (n, d), unit vectors
    next_turn_time: np.ndarray   # (n,), +inf when tau = 0
    infected: np.ndarray         # (n,) bool, monotone
    infection_time: np.ndarray   # (n,), nan until infected
    turn_count: np.ndarray       # (n,) int, diagnostics
    source_index: int
    source_origin: np.ndarray    # source position at t = 0
    node_rngs: List[np.random.Generator] = field(repr=False, default_factory=list)


def _isotropic_direction(rng, d):
    if d == 1:
        return np.array([1.0 if rng.random() < 0.5 else -1.0])
    if d == 2:
        angle = rng.uniform(0.0, 2.0 * math.pi)
        return np.array([math.cos(angle), math.sin(angle)])
    while True:
        vec = rng.normal(size=3)
        norm = np.linalg.norm(vec)
        if norm > 1e-12:
            return vec / norm


def _turn_increment(rng, tau):
    return rng.exponential(1.0 / tau) if tau > 0.0 else math.inf


def init_world(config):
    """Build the t = 0 world: uniform positions, isotropic directions,
    exponential turn schedule, source infected at time 0.  Deterministic
    given the seed."""
    n, d, length = config.n, config.d, config.box_length
    root = np.random.SeedSequence(config.seed)
    children = root.spawn(n + 1)
    placement_rng = np.random.Generator(np.random.PCG64(children[0]))
    node_rngs = [np.random.Generator(np.random.PCG64(c)) for c in children[1:]]

    positions = placement_rng.uniform(0.0, length, size=(n, d))
    if config.source_placement == CENTER:
        positions[0] = 0.5 * length

    directions = np.empty((n, d))
    next_turn = np.empty(n)
    for i, rng in enumerate(node_rngs):
        directions[i] = _isotropic_direction(rng, d)
        next_turn[i] = _turn_increment(rng, config.tau)

    infected = np.zeros(n, dtype=bool)
    infected[0] = True
    infection_time = np.full(n, math.nan)
    infection_time[0] = 0.0

    return World(
        config=config,
        time=0.0,
        positions=positions,
        directions=directions,
        next_turn_time=next_turn,
        infected=infected,
        infection_time=infection_time,
        turn_count=np.zeros(n, dtype=np.int64),
        source_index=0,
        source_origin=positions[0].copy(),
        node_rngs=node_rngs,
    )


def fold_positions(positions, directions, length):
    """Specular reflection: fold raw positions into [0, L], flipping the
    matching direction components on odd-numbered mirror images.  Each
    axis folds independently (corner bounces compose).  Components inside
    (0, L] are their own fold, so only the others are folded."""
    outside = (positions <= 0.0) | (positions > length)
    if outside.any():
        period = 2.0 * length
        folded = np.mod(positions[outside], period)
        over = folded > length
        folded[over] = period - folded[over]
        positions[outside] = folded
        outside[outside] = over  # now the components that reflect
        directions[outside] = -directions[outside]


def advance(world):
    """Advance every node by one dt: straight motion with wall reflection,
    with Poisson direction changes applied at their exact scheduled times
    (any number per step).  Mutates and returns the world.

    Turns are taken in rounds.  Each round moves every node whose next
    turn falls inside the step to that turn time with one array move, then
    redraws those nodes' directions and turn times from their own RNG
    streams.  One array move then carries all n nodes to the step end;
    nodes that did not turn move by exactly v*dt.  The step is O(n) array
    work plus a Python loop over the turns alone."""
    config = world.config
    dt = config.dt
    if world.time + dt > config.t_max + 1e-9 * max(1.0, config.t_max):
        raise ConfigError("advance would step past t_max")
    end = world.time + dt

    last_turn = np.full(config.n, world.time)
    turned = (world.next_turn_time < end).nonzero()[0]
    due = turned
    while due.size:
        step = config.v * (world.next_turn_time[due] - last_turn[due])
        pos = world.positions[due] + world.directions[due] * step[:, None]
        # fancy indexing copies; the folded directions are dropped
        # because every due node draws a new one below
        fold_positions(pos, world.directions[due], config.box_length)
        world.positions[due] = pos
        last_turn[due] = world.next_turn_time[due]
        directions, increments = [], []
        for i in due:
            rng = world.node_rngs[i]
            directions.append(_isotropic_direction(rng, config.d))
            increments.append(_turn_increment(rng, config.tau))
        world.directions[due] = directions
        world.next_turn_time[due] = last_turn[due] + increments
        world.turn_count[due] += 1
        due = due[world.next_turn_time[due] < end]

    # nodes that did not turn move by exactly v*dt; end - time can differ
    # from dt in the last bit
    step = np.full(config.n, config.v * dt)
    step[turned] = config.v * (end - last_turn[turned])
    world.positions += world.directions * step[:, None]
    fold_positions(world.positions, world.directions, config.box_length)

    world.time = end
    return world


# Relative slack on the cell side, so that rounding in a cell index can
# never put two points at distance exactly r in non-adjacent cells.
_CELL_MARGIN = 1e-6
# Grid size cap, in cells per point: when (L/r)^D is far above the point
# count, cells grow past r so that building the grid stays O(n).
_CELLS_PER_POINT = 16


def _cell_ids(points, scale, cells, strides):
    """Flat ids of the cells holding points, in a grid of `cells` cells per
    axis padded by one cell on every side (the padding takes the dilation
    spill)."""
    idx = (points * scale + 1.0).astype(np.intp)
    np.maximum(idx, 1, out=idx)
    np.minimum(idx, cells, out=idx)
    return idx @ strides


def _dilated(ids, size, strides):
    """Occupancy of the cells in ids, grown by one cell along each axis.
    Flat shifts may also mark padding cells; that only adds candidates."""
    near = np.zeros(size, dtype=bool)
    near[ids] = True
    for s in strides:
        grown = near.copy()
        grown[s:] |= near[:-s]
        grown[:-s] |= near[s:]
        near = grown
    return near


def _within_range(query, target, radio_range, box_length):
    """Boolean mask over the query rows: True where some target row lies
    within radio_range, decided by the same ((a-b)**2).sum() <= r**2 test
    on the same floats as a dense distance matrix would.

    Broad phase on a linked-cell grid of cells at least r wide: queries in
    a cell next to a target's cell become candidates, and only they are
    tested, against the targets next to a candidate's cell.  Pairs within
    r always sit in adjacent cells, so none is dropped."""
    mask = np.zeros(len(query), dtype=bool)
    if not len(query) or not len(target):
        return mask
    d = query.shape[1]
    cells = int(box_length / (radio_range * (1.0 + _CELL_MARGIN)))
    cap = int((_CELLS_PER_POINT * (len(query) + len(target))) ** (1.0 / d))
    cells = max(1, min(cells, cap))
    scale = cells / box_length
    side = cells + 2
    strides = [side**k for k in range(d - 1, -1, -1)]
    size = side**d

    query_ids = _cell_ids(query, scale, cells, strides)
    target_ids = _cell_ids(target, scale, cells, strides)
    candidates = _dilated(target_ids, size, strides)[query_ids].nonzero()[0]
    if candidates.size:
        nearby = target[_dilated(query_ids[candidates], size, strides)[target_ids]]
        d2 = ((query[candidates][:, None, :] - nearby[None, :, :]) ** 2).sum(axis=2)
        mask[candidates] = (d2 <= radio_range**2).any(axis=1)
    return mask


def flood(world):
    """Infect every node in a connected component (unit-disk graph on the
    current positions) that touches an infected node; instantaneous
    multi-hop relay.  Returns the new records; idempotent when no new
    contact exists.

    The seed wave is the susceptibles in range of an infected node; the
    closure is a breadth-first search whose every level queries the
    still-unreached susceptibles against the nodes reached last.  Both use
    the linked-cell query `_within_range`, so a call is O(n) array work
    when nodes are sparse."""
    records = []
    if world.infected.all():
        return records
    config = world.config
    pos = world.positions
    sus_idx = (~world.infected).nonzero()[0]
    sus_pos = pos[sus_idx]

    reached = _within_range(
        sus_pos, pos[world.infected], config.radio_range, config.box_length
    )
    frontier = reached.nonzero()[0]
    if not frontier.size:
        return records
    while frontier.size:
        unreached = (~reached).nonzero()[0]
        hit = _within_range(
            sus_pos[unreached], sus_pos[frontier],
            config.radio_range, config.box_length,
        )
        frontier = unreached[hit]
        reached[frontier] = True

    now = world.time
    origin = world.source_origin
    for k in np.flatnonzero(reached):
        i = int(sus_idx[k])
        world.infected[i] = True
        world.infection_time[i] = now
        dist = float(np.linalg.norm(pos[i] - origin))
        records.append(InfectionRecord(node_id=i, infection_time=now, distance=dist))
    return records


def run_epidemic(config):
    """Full run: init, flood at t = 0, then alternate advance and flood
    until t_max or total infection.  Records sorted by infection time."""
    world = init_world(config)
    records = [
        InfectionRecord(node_id=world.source_index, infection_time=0.0, distance=0.0)
    ]
    records.extend(flood(world))
    while (
        world.time + config.dt <= config.t_max + 1e-9 * max(1.0, config.t_max)
        and not world.infected.all()
    ):
        advance(world)
        records.extend(flood(world))
    records.sort(key=lambda r: (r.infection_time, r.node_id))
    return records


def write_records(stream, rows):
    """Serialize (run_seed, record) rows as CSV with full double precision."""
    stream.write("run_seed,node_id,infection_time,distance\n")
    for seed, rec in rows:
        stream.write(
            f"{seed},{rec.node_id},{rec.infection_time:.17g},{rec.distance:.17g}\n"
        )
