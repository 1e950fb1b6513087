"""Epidemic broadcast over billiard / random-walk mobile nodes.

Nodes move at constant speed in a D-dimensional box with specular wall
reflection, redrawing an isotropic direction at Poisson rate tau.  Two
nodes within the radio range exchange the beacon instantaneously, and a
flood infects the whole connected component of the proximity graph.

Each node owns an independent RNG stream, so trajectories are invariant
under time-step refinement: only contact detection depends on dt.

One step is O(n) numpy work and O(n) memory when nodes are sparse.
`advance` runs every step: it moves all nodes with one array operation,
and the rest of its work is row-local: it folds only the components that
left the box, and walks each node whose direction changes on Python
floats from its own row, then writes that row back.  `flood` is the only
neighbour query, on a linked-cell grid of at most 16 cells per node
(`_near_pairs`) instead of an n x n distance matrix: a node is compared
only with the nodes in the cells next to its own, so the query's work
follows the pairs it finds.  Below the percolation threshold most steps
bring no contact.  A flood keeps the unreached-infected pairs that lie
within its query's reach as a watch list, and until the nodes can have
moved far enough for another pair to close in (up to 33 steps), later
floods look only at those pairs: an empty flood returns
from them, and a flood with a contact takes its first wave from them and
follows the rest of the wave from the new nodes alone.  A flood also
bounds, from the distance between the infected and the unreached nodes
and the speed bound v, the first step at which a pair can come within
range, and a flood at an earlier step returns nothing at once.  Every
range decision is the same float comparison as the dense one, and a
flood the horizon cuts short is an empty one, so records do not depend
on the grid, the watch or the horizon.

`run_epidemic` runs the seeds of a batch in lockstep, as one World that
stacks their runs: rows k*n .. k*n+n-1 of every per-node array are run
k, and source_origin has one row per run.  A plain World is a stack of
one.  One `advance` moves every run and one `flood` floods every run:
it compares nodes only with nodes of their own run, and it returns
records keyed by stack row.  The stack is the only live copy of its
runs' state: a run's World gets its rows back (`_unstack`) when the run
leaves the stack and when the batch ends.

The module does no I/O: `cli.write_records` writes the records as CSV.
"""

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np


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
        if not _is_int(self.seed) or not self.seed >= 0:
            problems.append(f"seed must be an integer >= 0, got {self.seed!r}")
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

    A World may be the stack of a lockstep batch (`_stack`): it then
    holds R = len(positions) // n runs, rows k*n .. k*n+n-1 of each
    per-node array being run k, and source_origin holds one row per run.
    A plain World is a stack of one."""

    config: SimConfig
    time: float
    positions: np.ndarray        # (R*n, d), componentwise in [0, L]
    directions: np.ndarray       # (R*n, d), unit vectors
    next_turn_time: np.ndarray   # (R*n,), +inf when tau = 0
    infected: np.ndarray         # (R*n,) bool, monotone; row k*n is a source
    turn_count: np.ndarray       # (R*n,) int, diagnostics
    source_origin: np.ndarray    # source position at t = 0: (d,), or (R, d)
    steps: int = 0               # advance calls so far
    # (unreached rows, infected rows, taken, due): the pairs flood watches,
    # the step from which they hold every pair that could be within its
    # query's reach, and the first step at which a pair can be in range
    # (the gap horizon); it holds while only advance moves nodes and only
    # flood infects them, so code that edits either by hand sets it to None
    watch: Optional[tuple] = None
    node_rngs: List[np.random.Generator] = field(repr=False, default_factory=list)


def _isotropic_direction(rng, d):
    """A uniform unit vector, as a list of d Python floats."""
    if d == 1:
        return [1.0 if rng.random() < 0.5 else -1.0]
    if d == 2:
        # numpy's uniform(0, 2*pi) is 0.0 + 2*pi*random(): the same float
        angle = 2.0 * math.pi * rng.random()
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
    exponential turn schedule, and the source, node 0, at the centre of
    the box and infected at time 0.  Deterministic given the seed."""
    n, d, length = config.n, config.d, config.box_length
    root = np.random.SeedSequence(config.seed)
    children = root.spawn(n + 1)
    placement_rng = np.random.Generator(np.random.PCG64(children[0]))
    node_rngs = [np.random.Generator(np.random.PCG64(c)) for c in children[1:]]

    positions = placement_rng.uniform(0.0, length, size=(n, d))
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
    (0, L] are their own fold, so only the others are folded, one at a
    time on Python floats through flat views of the two C-contiguous
    arrays: a step's work is two reductions plus its wall crossings
    (Python's float % is numpy's float mod)."""
    if positions.min() > 0.0 and positions.max() <= length:
        return
    flat, flat_dirs = positions.reshape(-1), directions.reshape(-1)
    period = 2.0 * length
    for k in ((flat <= 0.0) | (flat > length)).nonzero()[0].tolist():
        p = flat.item(k) % period
        if p > length:
            p = period - p
            flat_dirs[k] = -flat_dirs.item(k)
        flat[k] = p


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
    """Walk each turning node, a list of rows, from world.time to `end` on
    Python floats: move to the turn, fold, redraw the direction and the
    next turn time from its own RNG stream, and at the last leg move to
    `end`.  Updates the node's turn schedule and count; returns (row,
    position, direction) at `end` for each node."""
    config = world.config
    d, v, tau, length = config.d, config.v, config.tau, config.box_length
    next_turn, walked = world.next_turn_time, []
    for i in turning:
        rng = world.node_rngs[i]
        pos, dirn = world.positions[i].tolist(), world.directions[i].tolist()
        turn, t, turns = next_turn.item(i), world.time, 0
        while turn < end:
            _move_row(pos, dirn, v * (turn - t), length)
            dirn = _isotropic_direction(rng, d)
            t, turn = turn, turn + _turn_increment(rng, tau)
            turns += 1
        _move_row(pos, dirn, v * (end - t), length)
        next_turn[i] = turn
        world.turn_count[i] += turns
        walked.append((i, pos, dirn))
    return walked


def advance(world):
    """Advance every node by one dt: straight motion with wall reflection,
    with Poisson direction changes applied at their exact scheduled times
    (any number per step).  Mutates and returns the world.

    One array move and one fold carry all nodes by exactly v*dt (end -
    time can differ from dt in the last bit).  A node whose next turn
    falls inside the step instead walks its turns one at a time on Python
    floats from its position at world.time (`_walk_turns`), and its row
    is written over the array's after the fold.  Past the array move, the
    step's work is row-local: the fold touches only the components that
    left the box, and the Python loop runs over the turns."""
    config = world.config
    end = world.time + config.dt
    if not _within_t_max(end, config):
        raise ConfigError("advance would step past t_max")

    turning = (world.next_turn_time < end).nonzero()[0].tolist()
    walked = _walk_turns(world, turning, end)
    world.positions += world.directions * (config.v * config.dt)
    fold_positions(world.positions, world.directions, config.box_length)
    for i, pos, dirn in walked:
        world.positions[i], world.directions[i] = pos, dirn

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
    ids = idx[:, 0] * strides[0]
    for a in range(1, len(strides)):
        ids += idx[:, a] * strides[a]
    return ids


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
    """((a-b)**2).sum() over the first axis of (d, ...) arrays that
    broadcast against each other: one axis at a time, summed in axis order,
    the floats of the dense matrix without its slow reduction over d <= 3.
    Pass (d, m, 1) and (d, k) for all m x k pairs, or two (d, m) arrays for
    m row pairs; both give each pair the same float."""
    delta = near[0] - far[0]
    d2 = delta * delta
    for k in range(1, len(near)):
        delta = near[k] - far[k]
        d2 += delta * delta
    return d2


def _near_pairs(points, query, target, reach, box_length, n):
    """Every (query row, target row) pair of one run with ((a-b)**2).sum()
    <= reach**2, as three arrays: query rows, target rows and that d2, the
    same float a dense distance matrix would hold.  query and target are
    ascending rows of `points`, which holds runs of n rows each (row k*n
    .. k*n+n-1 is run k; n = len(points) for one run), and each run's
    pairs are those of its own query, as if the other runs were not there.

    Broad phase on a linked-cell grid of cells at least `reach` wide, one
    block of cells per run, sized from the points per run: queries in a
    cell next to a target's cell become candidates.  Narrow phase, cell
    by cell: each candidate is compared only with the targets in its 3^d
    neighbour cells, read from a cell table of the targets (their rows
    sorted by cell, and each cell's start in that order), as one ragged
    list of (candidate, target) pairs and one `_pair_d2` over it, so the
    work follows the pairs near a candidate, not the run's targets.
    Pairs within reach always sit in adjacent cells, so no pair within
    reach is left out, and each pair is listed once.  Cells of different
    runs are never adjacent, so a run's candidates meet only its own
    targets.  Pairs come in candidate order, and a candidate's in cell
    order, then target order."""
    if not len(query) or not len(target):
        return query[:0], target[:0], np.empty(0)
    d = points.shape[1]
    runs = len(points) // n
    cells = int(box_length / (reach * (1.0 + _CELL_MARGIN)))
    cap = int((_CELLS_PER_POINT * n) ** (1.0 / d))
    cells = max(1, min(cells, cap))
    scale = cells / box_length
    side = cells + 2
    strides = [side**k for k in range(d - 1, -1, -1)]
    size = side**d

    ids = _cell_ids(points, scale, cells, strides)
    ids += np.arange(0, runs * size, size).repeat(n)
    query_ids, target_ids = ids[query], ids[target]
    near = _dilated(target_ids, runs * size, strides)[query_ids]
    candidates = query[near]
    if not candidates.size:
        return query[:0], target[:0], np.empty(0)
    # the cell table: targets sorted by cell, cell c's at starts[c] onwards
    by_cell = target[target_ids.argsort(kind="stable")]
    counts = np.bincount(target_ids, minlength=runs * size)
    starts = counts.cumsum() - counts
    # a candidate's cell is interior, so its 3^d neighbours stay in its block
    offsets = np.zeros(1, dtype=np.intp)
    for s in strides:
        offsets = (offsets[:, None] + np.array([-s, 0, s])).ravel()
    cell = (query_ids[near][:, None] + offsets).ravel()
    took = counts[cell]
    ends = took.cumsum()
    # pair k, the j-th of the pairs listed for `cell`, takes the target at
    # by_cell[starts[cell] + j], with j = k - (ends - took) of its cell
    slots = np.arange(ends[-1]) + (starts[cell] - ends + took).repeat(took)
    rows = candidates.repeat(took.reshape(len(candidates), -1).sum(axis=1))
    cols = by_cell[slots]
    d2 = _pair_d2(points.take(rows, 0).T, points.take(cols, 0).T)
    keep = d2 <= reach**2
    return rows[keep], cols[keep], d2[keep]


def _run_pairs(points, near, far, reach, n):
    """Every (near row, far row) pair of one run with ((a-b)**2).sum() <=
    reach**2, as a list of (near rows, far rows, d2) triples, one for each
    run with rows in both lists.  near and far are ascending rows of
    `points`, which holds runs of n rows each, so searchsorted cuts each
    list into runs, and each run is one dense `_pair_d2` block of its own
    rows.  `flood`'s search makes each of its levels after the first with
    it, near the unreached rows and far the rows reached last, and
    concatenates the parts once, not once per level."""
    bounds = np.arange(n, len(points), n)
    near_cuts = [0, *near.searchsorted(bounds).tolist(), len(near)]
    far_cuts = [0, *far.searchsorted(bounds).tolist(), len(far)]
    parts = []
    for a, b, c, e in zip(near_cuts, near_cuts[1:], far_cuts, far_cuts[1:]):
        if a < b and c < e:
            block_near, block_far = near[a:b], far[c:e]
            # computed far x near, so the long axis (a search level's
            # unreached rows) is numpy's inner loop; take is the fast gather
            d2 = _pair_d2(
                points.take(block_far, 0).T[..., None], points.take(block_near, 0).T
            ).T
            rows, cols = (d2 <= reach**2).nonzero()
            parts.append((block_near[rows], block_far[cols], d2[rows, cols]))
    return parts


# Most steps a gap horizon may skip after a flood, and the steps a watch
# list lives.  A longer horizon lets more floods return at once and spares
# more grid queries, but it widens the query's reach, and so the pairs the
# query finds and the watch list each flood compares.  At K = 32 with the
# cell-local query, against K = 8 with a dense candidate x target block per
# run, perfbench read `figure` pass_s 1.182 -> 1.037 s and `large-n` 0.535
# -> 0.484 s (medians of 10 and 8 alternating pairs, 2-core x86-64); K = 64
# did no better on `large-n` in process.  The records do not depend on K.
_HORIZON_STEPS = 32


def _hop_reach(config):
    """(h, R): the most a pair closes in one step, 2*v*dt plus the clock's
    rounding in dt, and the reach of `flood`'s grid query, R = r + h*(K+1)
    with K = _HORIZON_STEPS."""
    hop = 2.0 * config.v * (config.dt + math.ulp(2.0 * config.t_max))
    return hop, config.radio_range + hop * (_HORIZON_STEPS + 1)


def flood(world):
    """Infect every node in a connected component (unit-disk graph on the
    current positions) that touches an infected node; instantaneous
    multi-hop relay.  Returns the new records, in row order and all at
    the current time; idempotent when no new contact exists.

    The world may be a lockstep stack of R = len(positions) // n runs
    (`_stack`): rows k*n .. k*n+n-1 are run k, and nodes of different
    runs never meet.  A record's node_id is its stack row, which for a
    plain World is the node id, and its distance is measured from the
    origin of that row's run (source_origin holds one row per run).

    The closure is a breadth-first search with the infected nodes as level
    0.  A node is reached when its d2 <= r**2 to a node of the level
    before, the same float comparison as on a dense distance matrix.
    Level 1 comes from unreached-infected pairs within the reach R > r of
    the linked-cell query `_near_pairs`, which serves every run of the
    stack at once, or from the watch list below, so a call is O(n) array
    work when nodes are sparse.  Each later level is one compare of the
    whole stack, the nodes still unreached against the nodes reached
    last, by `_run_pairs`: each run's rows meet only its own, so only a
    run whose wave goes on compares anything.  Below the threshold the
    frontier is a few nodes, but the level still compares every unreached
    node of its run, O(n) work per level, and at worst a run's block
    holds unreached x frontier floats.

    A node moves at speed v along a continuous path: a turn splits the
    path without lengthening it, and a wall fold is 1-Lipschitz on each
    axis, so a node moves at most v*dt per step, and a pair closes by at
    most h = 2*v*dt per step (plus the clock's rounding in dt).  Two
    bounds follow:

    - Watch list (after Verlet's neighbour list with a skin).  world.watch
      holds row pairs and the step `taken` from which every
      unreached-infected pair outside them was farther apart than R: the
      query's pairs within R when it ran, and after a contact the pairs
      the search compared within R, added to the old ones whose node is
      still unreached (the old `taken` is kept, which is conservative).
      `age` steps later an outside pair is still farther apart than
      outer = R - age*h, so while outer - r - 1e-9*L >= 0 (1e-9*L is
      slack for rounding in the positions and in d2) only the watched
      pairs can be in range, and level 1 is their d2 <= r**2, with no
      grid query.  Only a flood whose watch has expired, or the first
      one, runs the query, and its pairs make a new watch.  A stack has
      one watch for all its runs.
    - Gap horizon.  A flood also stores in the watch the step `due`
      before which no flood can find a contact, and a flood at an
      earlier step returns [] at once.  gap = min(sqrt(least watched
      d2), outer) - r - 1e-9*L bounds how far every unreached-infected
      pair of every run is from contact, with outer = R on a flood that
      ran the query, and after a contact the watch it keeps.  Every pair
      stays out of range for k steps with k*h < gap, so due = steps + 1
      + min(K, k), or steps + 1 when gap < 0.  R = r + h*(K+1), with
      K = _HORIZON_STEPS.  The horizon counts steps, not floods, so a
      caller may advance any number of steps between floods.

    Floods cut short by the horizon and watched floods are exactly the
    empty ones, and a watched contact reaches the nodes a query would,
    so the records and the trajectories stay as they are."""
    if world.watch is not None and world.steps < world.watch[3]:
        return []
    config = world.config
    n, r, length = config.n, config.radio_range, config.box_length
    slack = 1e-9 * length
    hop, reach = _hop_reach(config)
    pos = world.positions

    outer = -math.inf
    if world.watch is not None:
        pair_u, pair_i, taken, _ = world.watch
        outer = reach - (world.steps - taken) * hop
    if outer - r - slack >= 0.0:
        d2 = _pair_d2(pos.take(pair_u, 0).T, pos.take(pair_i, 0).T)
    else:
        outer, taken = reach, world.steps
        unreached = (~world.infected).nonzero()[0]
        infected = world.infected.nonzero()[0]
        pair_u, pair_i, d2 = _near_pairs(pos, unreached, infected, reach, length, n)
    records = []
    least = d2.min(initial=math.inf)
    if least <= r**2:
        reached = np.zeros(len(pos), dtype=bool)
        reached[pair_u[d2 <= r**2]] = True
        frontier = reached.nonzero()[0]
        unreached = (~(world.infected | reached)).nonzero()[0]
        levels = [(pair_u, pair_i, d2)]
        while frontier.size and unreached.size:
            level = _run_pairs(pos, unreached, frontier, reach, n)
            for near, _, close in level:
                # pairs within r are within reach R > r, so among the close ones
                reached[near[close <= r**2]] = True
            levels += level
            hit = reached[unreached]
            frontier, unreached = unreached[hit], unreached[~hit]
        pair_u, pair_i, d2 = map(np.concatenate, zip(*levels))
        kept = ~reached[pair_u]
        least = d2.min(initial=math.inf, where=kept)
        pair_u, pair_i = pair_u[kept], pair_i[kept]
        # the distance is np.linalg.norm's float: the square root of the dot
        origins = world.source_origin.reshape(-1, pos.shape[1])
        for i in reached.nonzero()[0].tolist():
            world.infected[i] = True
            delta = pos[i] - origins[i // n]
            records.append(InfectionRecord(i, world.time, math.sqrt(delta.dot(delta))))
    gap = min(math.sqrt(least), outer) - r - slack
    due = world.steps + 1
    if gap >= 0.0:
        due += min(_HORIZON_STEPS, int(gap / (hop * (1.0 + 1e-9))))
    world.watch = (pair_u, pair_i, taken, due)
    return records


def _stack(worlds):
    """One World whose arrays are the worlds' arrays stacked row by row,
    run k in rows k*n .. k*n+n-1, so that one `advance` or `flood` of the
    stack moves or floods every run.  The worlds share their config
    apart from the seed, and so their clock.  source_origin holds one row
    per world; the stack starts with no watch, and so with no gap horizon:
    its first flood runs a grid query.

    The stack is the only live copy of its runs' state: the worlds are
    left as they were until `_unstack` writes the stack back to them."""
    first = worlds[0]
    return World(
        config=first.config,
        time=first.time,
        positions=np.concatenate([w.positions for w in worlds]),
        directions=np.concatenate([w.directions for w in worlds]),
        next_turn_time=np.concatenate([w.next_turn_time for w in worlds]),
        infected=np.concatenate([w.infected for w in worlds]),
        turn_count=np.concatenate([w.turn_count for w in worlds]),
        source_origin=np.stack([w.source_origin for w in worlds]),
        steps=first.steps,
        node_rngs=[rng for w in worlds for rng in w.node_rngs],
    )


def _unstack(stack, worlds):
    """Write the stack of `worlds` (`_stack`) back to them: each world gets
    its rows of every per-node array, copied into its own arrays, and the
    stack's clock and step count, so that it is the World of its seed run
    alone, up to this step."""
    n = stack.config.n
    for k, world in enumerate(worlds):
        rows = slice(k * n, (k + 1) * n)
        world.positions[:] = stack.positions[rows]
        world.directions[:] = stack.directions[rows]
        world.next_turn_time[:] = stack.next_turn_time[rows]
        world.infected[:] = stack.infected[rows]
        world.turn_count[:] = stack.turn_count[rows]
        world.node_rngs[:] = stack.node_rngs[rows]
        world.time, world.steps = stack.time, stack.steps


# Most seeds one lockstep batch holds; a longer run_epidemic steps its
# seeds in batches of this many, one after the other, so that its memory
# does not grow with `runs` (each World holds n + 1 PCG64 generators).
# 100 runs at n = 160 (D=2, L=80, tau=0.1, t_max=1000, seed 0; 2-core
# x86-64), with one flood of the stack per step: max RSS 54.3 MB in one
# batch, 47.4 MB at 64, 43.3 MB at 32 and 40.8 MB at 16, and CPU times of
# 4.3-4.9 s in two rounds, within the machine's drift, the 64-run batches
# the fastest in both (6.2-6.7 s at 64 when each run flooded alone).
_LOCKSTEP_RUNS = 64


def _run_lockstep(config, seeds):
    """The runs of `seeds` in lockstep (`run_epidemic`), one record list
    per seed, in seed order.  `live` holds the batch indices of the runs
    in the stack, in stack order."""
    n = config.n
    worlds = [init_world(replace(config, seed=seed)) for seed in seeds]
    results = [[InfectionRecord(node_id=0, infection_time=0.0, distance=0.0)] for _ in seeds]
    live = list(range(len(seeds)))
    stack = _stack(worlds)
    while True:
        wave = flood(stack)
        if wave:
            for record in wave:
                k, node = divmod(record.node_id, n)
                if k:  # run 0's rows are its node ids
                    record = InfectionRecord(node, record.infection_time, record.distance)
                results[live[k]].append(record)
            done = stack.infected.reshape(len(live), n).all(axis=1)
            if done.any():
                _unstack(stack, [worlds[k] for k in live])
                live = [k for k, gone in zip(live, done.tolist()) if not gone]
                if not live:
                    return results
                stack = _stack([worlds[k] for k in live])
        if not _within_t_max(stack.time + config.dt, config):
            break
        advance(stack)
    _unstack(stack, [worlds[k] for k in live])
    return results


def run_epidemic(config, runs=1):
    """Full runs with seeds config.seed .. config.seed + runs - 1, in
    lockstep batches of at most _LOCKSTEP_RUNS seeds; returns one record
    list per seed, in seed order.

    Each run is init, flood at t = 0, then advance and flood every step
    until t_max or total infection.  A flood before the step its gap
    horizon allows returns nothing at once, and such floods are exactly
    the empty ones.  The runs of a batch share their clock, so they are
    stacked into one World (`_stack`) and each step makes one `advance`
    and one `flood` of the stack, whose records are mapped from stack
    rows back to (run, node).
    A run leaves the stack when a flood infects its last node: the stack
    is written back to its runs' Worlds (`_unstack`) and rebuilt from the
    others, and the last stack is written back when the batch ends, so
    each World that `init_world` returned ends in its run's final state.
    Every node keeps its own RNG stream, every float operation is
    elementwise, and every contact is decided within one run on the same
    float, so each run's records, clock, step and turn counts equal those
    of the same seed run alone.

    Records are in (infection_time, node_id) order, the source first: each
    flood returns its wave in node order at one time, and the waves are
    appended in time order."""
    if not _is_int(runs) or runs < 1:
        raise ConfigError(f"runs must be an integer >= 1, got {runs!r}")
    results = []
    for first in range(0, runs, _LOCKSTEP_RUNS):
        last = min(runs, first + _LOCKSTEP_RUNS)
        results.extend(_run_lockstep(config, range(config.seed + first, config.seed + last)))
    return results
