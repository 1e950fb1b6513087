"""Epidemic broadcast over billiard / random-walk mobile nodes.

Nodes move at constant speed in a D-dimensional box with specular wall
reflection, redrawing an isotropic direction at Poisson rate tau.  Two
nodes within the radio range exchange the beacon instantaneously, and a
flood infects the whole connected component of the proximity graph.

Each node owns an independent RNG stream, so trajectories are invariant
under time-step refinement: only contact detection depends on dt.

One step is O(n) numpy work and O(n) memory when nodes are sparse.
`advance` runs every step: it moves all nodes as arrays and walks only
the direction changes, on Python floats.  `flood` is the only neighbour
query, on a linked-cell grid of at most 16 cells per node (`_nearest_d2`)
instead of an n x n distance matrix.  Below the percolation threshold
most steps bring no contact.  A flood that finds nothing keeps the pairs
its query found near as a watch list, and until the nodes can have moved
far enough for another pair to close in, later floods check only those
pairs.  It also bounds, from the distance between the infected and the
unreached nodes and the speed bound v, how many of the next floods must
find nothing, and `run_epidemic` skips them.  Every range decision is the
same float comparison as the dense one, and a watched or skipped flood is
an empty one, so records do not depend on the grid, the watch or the
horizon.

`run_epidemic` runs all the seeds of a batch in lockstep: their motion
arrays are stacked into one World, and each run's World holds row views
of that stack, so one `advance` moves them all while each run floods on
its own rows.  Code that moves nodes therefore writes those arrays only
in place, never rebinding one.

The module does no I/O: `cli.write_records` writes the records as CSV.
"""

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

CENTER = "center"
UNIFORM_RANDOM = "uniform"


class ConfigError(ValueError):
    """A simulation configuration violates its invariants."""


def _is_int(x):
    """True for a Python or numpy integer; a bool is not a count."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


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
        # written so that NaN fails every check; every float must be finite
        problems = []
        if not _is_int(self.d) or self.d not in (1, 2, 3):
            problems.append(f"d must be the integer 1, 2 or 3, got {self.d!r}")
        range_ok = 0.0 < self.radio_range < math.inf
        if not range_ok:
            problems.append(
                f"radio_range must be finite and > 0, got {self.radio_range}"
            )
        elif not 2.0 * self.radio_range < self.box_length < math.inf:
            problems.append(
                f"box_length must be finite and exceed 2*radio_range, "
                f"got L={self.box_length}"
            )
        if not _is_int(self.n) or not self.n >= 2:
            problems.append(f"n must be an integer >= 2, got {self.n!r}")
        v_ok = 0.0 < self.v < math.inf
        if not v_ok:
            problems.append(f"v must be finite and > 0, got {self.v}")
        if not 0.0 <= self.tau < math.inf:
            problems.append(f"tau must be finite and >= 0, got {self.tau}")
        if not 0.0 < self.dt < math.inf:
            problems.append(f"dt must be finite and > 0, got {self.dt}")
        elif range_ok and v_ok and (
            self.dt > 0.1 * self.radio_range / self.v + 1e-15
        ):
            problems.append(
                f"dt={self.dt} exceeds the contact-miss guard "
                f"0.1*radio_range/v = {0.1 * self.radio_range / self.v}"
            )
        if not 0.0 < self.t_max < math.inf:
            problems.append(f"t_max must be finite and > 0, got {self.t_max}")
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
    """Full mutable simulation state; confined to one thread.

    In a lockstep batch (`run_epidemic`), positions, directions,
    next_turn_time and turn_count are row views of the batch's stacked
    World, so they are only ever updated in place."""

    config: SimConfig
    time: float
    positions: np.ndarray        # (n, d), componentwise in [0, L]
    directions: np.ndarray       # (n, d), unit vectors
    next_turn_time: np.ndarray   # (n,), +inf when tau = 0
    infected: np.ndarray         # (n,) bool, monotone; node 0 is the source
    turn_count: np.ndarray       # (n,) int, diagnostics
    source_origin: np.ndarray    # source position at t = 0
    quiet_floods: int = 0        # next floods known to find nothing
    steps: int = 0               # advance calls so far
    # (unreached ids, infected ids, steps) of the pairs an empty flood
    # found near; it holds while only advance moves nodes and only flood
    # infects them, so code that edits either by hand sets it to None
    watch: Optional[tuple] = None
    node_rngs: List[np.random.Generator] = field(repr=False, default_factory=list)


def _isotropic_direction(rng, d):
    """A uniform unit vector, as a list of d Python floats."""
    if d == 1:
        return [1.0 if rng.random() < 0.5 else -1.0]
    if d == 2:
        angle = rng.uniform(0.0, 2.0 * math.pi)
        return [math.cos(angle), math.sin(angle)]
    while True:
        vec = rng.normal(size=3)
        norm = np.linalg.norm(vec)
        if norm > 1e-12:
            return (vec / norm).tolist()


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

    return World(
        config=config,
        time=0.0,
        positions=positions,
        directions=directions,
        next_turn_time=next_turn,
        infected=infected,
        turn_count=np.zeros(n, dtype=np.int64),
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


def _within_t_max(time, config):
    """True while `time` is not past t_max, with a relative slack of 1e-9
    so that a run of t_max/dt steps is not cut short by rounding."""
    return time <= config.t_max + 1e-9 * max(1.0, config.t_max)


def _move_row(pos, dirn, step, length):
    """pos += dirn*step and then fold_positions, on one node's row of
    Python floats, in place: the same floats in the same operation order
    (Python's float % is numpy's float mod)."""
    period = 2.0 * length
    for a, p in enumerate(pos):
        p += dirn[a] * step
        if p <= 0.0 or p > length:
            p %= period
            if p > length:
                p = period - p
                dirn[a] = -dirn[a]
        pos[a] = p


def _walk_turns(world, turning, end):
    """Walk each turning node from world.time to `end` on Python floats:
    move to the turn, fold, redraw the direction and the next turn time
    from its own RNG stream, and at the last leg move to `end`.  Updates
    the turn schedule and counts; returns the rows of positions and
    directions at `end`."""
    config = world.config
    v, length = config.v, config.box_length
    positions = world.positions[turning].tolist()
    directions = world.directions[turning].tolist()
    next_turn = world.next_turn_time[turning].tolist()
    turns = [0] * len(next_turn)
    for k, i in enumerate(turning.tolist()):
        rng = world.node_rngs[i]
        pos, dirn, turn, t = positions[k], directions[k], next_turn[k], world.time
        while turn < end:
            _move_row(pos, dirn, v * (turn - t), length)
            directions[k] = dirn = _isotropic_direction(rng, config.d)
            t, turn = turn, turn + _turn_increment(rng, config.tau)
            turns[k] += 1
        _move_row(pos, dirn, v * (end - t), length)
        next_turn[k] = turn
    world.next_turn_time[turning] = next_turn
    world.turn_count[turning] += turns
    return positions, directions


def advance(world):
    """Advance every node by one dt: straight motion with wall reflection,
    with Poisson direction changes applied at their exact scheduled times
    (any number per step).  Mutates and returns the world.

    One array move and one fold carry all n nodes by exactly v*dt (end -
    time can differ from dt in the last bit).  A node whose next turn
    falls inside the step instead walks its turns one at a time on Python
    floats (`_walk_turns`), and its row is written over the array's.  The
    step is O(n) array work plus a Python loop over the turns.

    The world may be the stack of a lockstep batch, whose arrays the runs
    hold row views of: every array is updated in place, never rebound."""
    config = world.config
    end = world.time + config.dt
    if not _within_t_max(end, config):
        raise ConfigError("advance would step past t_max")

    turning = (world.next_turn_time < end).nonzero()[0]
    walked = _walk_turns(world, turning, end) if turning.size else None
    world.positions += world.directions * (config.v * config.dt)
    fold_positions(world.positions, world.directions, config.box_length)
    if walked is not None:
        world.positions[turning], world.directions[turning] = walked

    world.time = end
    world.steps += 1
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


def _pair_d2(near, far):
    """((a-b)**2).sum() of every (near row, far row) pair, from the
    transposed (d, m) arrays: one axis at a time, summed in axis order,
    the floats of the dense matrix without its slow reduction over d <= 3."""
    delta = near[0][:, None] - far[0]
    d2 = delta * delta
    for k in range(1, len(near)):
        delta = near[k][:, None] - far[k]
        d2 += delta * delta
    return d2


def _nearest_d2(query, target, reach, box_length):
    """Least ((a-b)**2).sum() from each query row to the target rows near
    it, +inf where no target is near; the same floats as a dense distance
    matrix would hold.  Also returns the block it compared, as the
    candidate query rows and the nearby target rows.

    Broad phase on a linked-cell grid of cells at least `reach` wide:
    queries in a cell next to a target's cell become candidates, and only
    they are compared, against the targets next to a candidate's cell.
    Pairs within reach always sit in adjacent cells, so every pair outside
    the block is farther apart than reach, a row whose nearest target lies
    within reach gets that target's d2, and any other row gets +inf or the
    true d2 of a target beyond reach.  Either way min(sqrt(d2), reach)
    never exceeds the distance to the nearest target."""
    nearest = np.full(len(query), math.inf)
    candidates = nearby = np.empty(0, dtype=np.intp)
    if not len(query) or not len(target):
        return nearest, candidates, nearby
    d = query.shape[1]
    cells = int(box_length / (reach * (1.0 + _CELL_MARGIN)))
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
        nearby = _dilated(query_ids[candidates], size, strides)[target_ids].nonzero()[0]
        nearest[candidates] = _pair_d2(query[candidates].T, target[nearby].T).min(axis=1)
    return nearest, candidates, nearby


# Most floods a horizon may skip after one flood that found nothing, and
# the steps a watch list lives.  A longer horizon widens the query's reach
# and so its candidate block and watch list.  Median perfbench pass_s over
# seeds 0-3 (2-core x86-64): figure 3.01 / 2.72 / 2.65 s and large-n 0.90
# / 0.89 / 1.02 s at 4 / 8 / 16.
_HORIZON_STEPS = 8


def flood(world):
    """Infect every node in a connected component (unit-disk graph on the
    current positions) that touches an infected node; instantaneous
    multi-hop relay.  Returns the new records, in node order and all at
    the current time; idempotent when no new contact exists.

    The closure is a breadth-first search with the infected nodes as level
    0: every level queries the still-unreached susceptibles against the
    nodes reached last with the linked-cell query `_nearest_d2`, so a
    call is O(n) array work when nodes are sparse.  A node is reached when
    its d2 <= r**2; the query's reach R is wider than r, which leaves that
    decision as it is, since a row whose nearest target lies within R gets
    the dense float.

    A node moves at speed v along a continuous path: a turn splits the
    path without lengthening it, and a wall fold is 1-Lipschitz on each
    axis, so a node moves at most v*dt per step, and a pair closes by at
    most h = 2*v*dt per step (plus the clock's rounding in dt).  The
    infected set changes only in a flood that reaches someone, so two
    bounds hold while no flood does:

    - Watch list (after Verlet's neighbour list with a skin).  When level
      0 reaches no one, its query's block is kept in world.watch as node
      ids: every unreached-infected pair outside it was farther apart than
      R.  `age` steps later such a pair is still farther apart than
      outer = R - age*h, so while outer - r - 1e-9*L >= 0 (1e-9*L is
      slack for rounding in the positions) only the block pairs can be in
      range.  A later flood then computes their d2, the same floats as
      the query's, and if none is <= r**2 it is exactly an empty flood and
      returns without a query.  Otherwise the search runs; a hit clears
      the watch and a miss keeps a new one.
    - Gap horizon.  An empty flood also sets world.quiet_floods to how
      many of the next floods provably find nothing too (every flood
      resets it to 0).  gap = min(sqrt(least block d2), outer) - r -
      1e-9*L bounds how far every unreached-infected pair is from
      contact, with outer = R on a flood that ran the search.  Every pair
      stays out of range for k steps with k*h < gap, so the next min(K, k)
      floods find nothing, and `run_epidemic` skips them.
      R = r + h*(K+1), with K = _HORIZON_STEPS.

    Skipped and watched floods are exactly the empty ones, so the records
    and the trajectories stay as they are."""
    world.quiet_floods = 0
    records = []
    if world.infected.all():
        return records
    config = world.config
    r, length = config.radio_range, config.box_length
    slack = 1e-9 * length
    hop = 2.0 * config.v * (config.dt + math.ulp(2.0 * config.t_max))
    reach = r + hop * (_HORIZON_STEPS + 1)
    pos = world.positions

    def quiet_floods(least, outer):
        gap = min(math.sqrt(least), outer) - r - slack
        return min(_HORIZON_STEPS, int(gap / (hop * (1.0 + 1e-9)))) if gap >= 0.0 else 0

    if world.watch is not None:
        unreached, infected, taken = world.watch
        outer = reach - (world.steps - taken) * hop
        if outer - r - slack >= 0.0:
            least = _pair_d2(pos[unreached].T, pos[infected].T).min(initial=math.inf)
            if least > r**2:
                world.quiet_floods = quiet_floods(least, outer)
                return records
    world.watch = None
    unreached = (~world.infected).nonzero()[0]
    infected = world.infected.nonzero()[0]
    level = pos[infected]
    reached = []
    while True:
        d2, candidates, nearby = _nearest_d2(pos[unreached], level, reach, length)
        hit = d2 <= r**2
        frontier = unreached.compress(hit)
        if not frontier.size:
            break
        reached.extend(frontier.tolist())
        unreached = unreached.compress(~hit)
        level = pos[frontier]
    if not reached:
        world.watch = (unreached[candidates], infected[nearby], world.steps)
        world.quiet_floods = quiet_floods(d2.min(), reach)
        return records

    now = world.time
    origin = world.source_origin
    for i in sorted(reached):
        world.infected[i] = True
        dist = float(np.linalg.norm(pos[i] - origin))
        records.append(InfectionRecord(node_id=i, infection_time=now, distance=dist))
    return records


def _stack(worlds):
    """One World whose motion arrays are the worlds' arrays stacked row
    by row, each world's arrays rebound to its rows of them, so that one
    `advance` of the stack moves every world.  The worlds share their
    config apart from the seed, and so their clock.  The stack holds no
    infection state and is never flooded."""
    first = worlds[0]
    stack = World(
        config=first.config,
        time=first.time,
        positions=np.concatenate([w.positions for w in worlds]),
        directions=np.concatenate([w.directions for w in worlds]),
        next_turn_time=np.concatenate([w.next_turn_time for w in worlds]),
        infected=None,
        turn_count=np.concatenate([w.turn_count for w in worlds]),
        source_origin=None,
        steps=first.steps,
        node_rngs=[rng for w in worlds for rng in w.node_rngs],
    )
    n = first.config.n
    for k, world in enumerate(worlds):
        rows = slice(k * n, (k + 1) * n)
        world.positions = stack.positions[rows]
        world.directions = stack.directions[rows]
        world.next_turn_time = stack.next_turn_time[rows]
        world.turn_count = stack.turn_count[rows]
    return stack


def run_epidemic(config, runs=1):
    """Full runs with seeds config.seed .. config.seed + runs - 1, in
    lockstep; returns one record list per seed, in seed order.

    Each run is init, flood at t = 0, then advance every step until t_max
    or total infection, flooding after each step unless an earlier flood
    set `world.quiet_floods`.  Skipped floods are exactly the empty ones,
    so the records equal those of a flood on every step.  The runs share
    their clock, so one `advance` of a stacked World (`_stack`) moves
    every run still going; each run floods on its own rows.  A run leaves
    the stack when a flood infects its last node, and the stack is rebuilt
    from the others.  Every node keeps its own RNG stream and every float
    operation is elementwise, so each run's records, clock, step and turn
    counts equal those of the same seed run alone.

    Records are in (infection_time, node_id) order, the source first: each
    flood returns its wave in node order at one time, and the waves are
    appended in time order."""
    if not _is_int(runs) or runs < 1:
        raise ConfigError(f"runs must be an integer >= 1, got {runs!r}")
    results, live = [], []
    for k in range(runs):
        world = init_world(replace(config, seed=config.seed + k))
        records = [InfectionRecord(node_id=0, infection_time=0.0, distance=0.0)]
        records.extend(flood(world))
        results.append(records)
        if not world.infected.all():
            live.append((world, records))
    stack = None
    while live and _within_t_max(live[0][0].time + config.dt, config):
        if stack is None:
            stack = _stack([w for w, _ in live])
        advance(stack)
        finished = False
        for world, records in live:
            world.time, world.steps = stack.time, stack.steps
            if world.quiet_floods:
                world.quiet_floods -= 1
                continue
            wave = flood(world)
            if wave:
                records.extend(wave)
                finished = finished or world.infected.all()
        if finished:
            live = [(w, r) for w, r in live if not w.infected.all()]
            stack = None
    return results
