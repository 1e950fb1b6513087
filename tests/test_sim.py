import math
from dataclasses import replace

import numpy as np
import pytest

from dtnspeed.cli import write_records
import dtnspeed.sim as sim_module
from dtnspeed.sim import (
    ConfigError,
    InfectionRecord,
    SimConfig,
    advance,
    flood,
    fold_positions,
    init_world,
    run_epidemic,
)


def small_config(**overrides):
    base = dict(
        d=2, box_length=10.0, n=8, v=1.0, tau=0.0, dt=0.05, t_max=50.0, seed=42
    )
    base.update(overrides)
    return SimConfig(**base)


def bfs_oracle(positions, seeds, radius):
    """Plain adjacency-list BFS closure, independent of the flood code."""
    n = len(positions)
    adj = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if math.dist(positions[i], positions[j]) <= radius:
                adj[i].append(j)
                adj[j].append(i)
    seen = set(seeds)
    queue = list(seeds)
    while queue:
        i = queue.pop()
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                queue.append(j)
    return seen


def dense_flood(world):
    """Reference flood on dense susceptible x infected and susceptible x
    susceptible distance matrices, O(n^2) per call."""
    records = []
    if world.infected.all():
        return records
    r2 = world.config.radio_range ** 2
    pos = world.positions
    sus_idx = np.flatnonzero(~world.infected)
    inf_pos = pos[world.infected]
    sus_pos = pos[sus_idx]
    d2 = ((sus_pos[:, None, :] - inf_pos[None, :, :]) ** 2).sum(axis=2)
    wave = (d2 <= r2).any(axis=1)
    if not wave.any():
        return records
    d2_sus = ((sus_pos[:, None, :] - sus_pos[None, :, :]) ** 2).sum(axis=2)
    adj = d2_sus <= r2
    reached = wave.copy()
    frontier = wave
    while True:
        frontier = adj[:, frontier].any(axis=1) & ~reached
        if not frontier.any():
            break
        reached |= frontier
    for k in np.flatnonzero(reached):
        i = int(sus_idx[k])
        world.infected[i] = True
        dist = float(np.linalg.norm(pos[i] - world.source_origin))
        records.append(
            InfectionRecord(node_id=i, infection_time=world.time, distance=dist)
        )
    return records


def unskipped_flood(world):
    """`flood` with its gap horizon cleared first: the watch list is kept,
    but the flood never returns early."""
    if world.watch is not None:
        world.watch = (*world.watch[:3], world.steps)
    return flood(world)


def every_step_run(config, flood_step=unskipped_flood):
    """Reference run: `advance` then `flood_step` on every step, with no
    horizon; `init_world` is looked up on the module so that a test's
    monkeypatched world is used here too."""
    world = sim_module.init_world(config)
    records = [InfectionRecord(node_id=0, infection_time=0.0, distance=0.0)]
    records.extend(flood_step(world))
    while (world.time + config.dt <= sim_module._time_limit(config)
           and not world.infected.all()):
        advance(world)
        records.extend(flood_step(world))
    return records


def place_nodes(monkeypatch, positions, directions):
    """Make `init_world` start every run from nodes placed by hand."""

    def place(config):
        world = init_world(config)
        world.positions[:] = positions
        world.directions[:] = directions
        world.source_origin = world.positions[0].copy()
        return world

    monkeypatch.setattr(sim_module, "init_world", place)


def seed_sequence_world(config):
    """Reference init_world: the generators built one SeedSequence child
    and one PCG64 at a time, child 0 placing the nodes."""
    n, d, length = config.n, config.d, config.box_length
    children = np.random.SeedSequence(config.seed).spawn(n + 1)
    placement, *node_rngs = [np.random.Generator(np.random.PCG64(c)) for c in children]
    positions = placement.uniform(0.0, length, size=(n, d))
    positions[0] = 0.5 * length
    directions = np.array([sim_module._isotropic_direction(rng, d) for rng in node_rngs])
    next_turn = np.array([sim_module._turn_increment(rng, config.tau) for rng in node_rngs])
    infected = np.zeros(n, dtype=bool)
    infected[0] = True
    return sim_module.World(
        config=config, time=0.0, positions=positions, directions=directions,
        next_turn_time=next_turn, infected=infected,
        turn_count=np.zeros(n, dtype=np.int64), source_origin=positions[0].copy(),
        node_rngs=node_rngs,
    )


def _move_node_reference(world, i, duration):
    world.positions[i] += world.directions[i] * (world.config.v * duration)
    fold_positions(
        world.positions[i : i + 1], world.directions[i : i + 1],
        world.config.box_length,
    )


def per_node_advance(world):
    """Reference advance: quiet nodes move as one array, each turning node
    walks its turns one at a time."""
    config = world.config
    end = world.time + config.dt
    turning = np.flatnonzero(world.next_turn_time < end)
    quiet = np.ones(config.n, dtype=bool)
    quiet[turning] = False
    pos = world.positions[quiet] + world.directions[quiet] * (config.v * config.dt)
    dirn = world.directions[quiet]
    fold_positions(pos, dirn, config.box_length)
    world.positions[quiet] = pos
    world.directions[quiet] = dirn
    for i in turning:
        t_node = world.time
        rng = world.node_rngs[i]
        while world.next_turn_time[i] < end:
            _move_node_reference(world, i, world.next_turn_time[i] - t_node)
            t_node = world.next_turn_time[i]
            world.directions[i] = sim_module._isotropic_direction(rng, config.d)
            world.next_turn_time[i] = t_node + sim_module._turn_increment(
                rng, config.tau
            )
            world.turn_count[i] += 1
        _move_node_reference(world, i, end - t_node)
    world.time = end


def numpy_turn_advance(world):
    """Reference advance: each turning node walks its turns on numpy row
    views, then one array move of per-node lengths and one fold carry all
    nodes to the step end."""
    config = world.config
    v, length = config.v, config.box_length
    end = world.time + config.dt
    step = np.full(len(world.positions), v * config.dt)
    for i in (world.next_turn_time < end).nonzero()[0]:
        rng = world.node_rngs[i]
        pos, dirn = world.positions[i : i + 1], world.directions[i : i + 1]
        t = world.time
        while world.next_turn_time[i] < end:
            turn = world.next_turn_time[i]
            pos += dirn * (v * (turn - t))
            fold_positions(pos, dirn, length)
            dirn[0] = sim_module._isotropic_direction(rng, config.d)
            world.next_turn_time[i] = turn + sim_module._turn_increment(rng, config.tau)
            world.turn_count[i] += 1
            t = turn
        step[i] = v * (end - t)
    world.positions += world.directions * step[:, None]
    fold_positions(world.positions, world.directions, length)
    world.time = end


class TestSimConfig:
    def test_valid(self):
        small_config()

    def test_violations_are_listed(self):
        with pytest.raises(ConfigError) as err:
            SimConfig(d=2, box_length=1.5, n=1, v=1.0, tau=0.0, dt=0.5, t_max=0.0)
        message = str(err.value)
        assert "box_length" in message
        assert "n must be" in message
        assert "t_max" in message

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name", ["box_length", "v", "tau", "radio_range", "dt", "t_max"]
    )
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            small_config(**{name: value})

    @pytest.mark.parametrize(
        "name,value", [("d", 2.0), ("d", True), ("n", 2.5), ("n", 8.0), ("n", True)]
    )
    def test_rejects_non_integer_counts(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be"):
            small_config(**{name: value})
        small_config(**{name: np.int64(2)})  # numpy integers are integers

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None, "3"])
    def test_rejects_a_seed_that_is_not_a_count(self, seed):
        with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
            small_config(seed=seed)
        small_config(seed=0)
        small_config(seed=np.int64(3))  # numpy integers are integers

    def test_contact_miss_guard(self):
        with pytest.raises(ConfigError):
            small_config(dt=0.2)
        small_config(dt=0.1)  # boundary is allowed


class TestInitWorld:
    def test_deterministic(self):
        a = init_world(small_config())
        b = init_world(small_config())
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.directions, b.directions)
        assert np.array_equal(a.next_turn_time, b.next_turn_time)

    def test_seed_changes_state(self):
        a = init_world(small_config(seed=1))
        b = init_world(small_config(seed=2))
        assert not np.array_equal(a.positions, b.positions)

    def test_billiard_has_no_scheduled_turns(self):
        w = init_world(small_config(tau=0.0))
        assert np.all(np.isinf(w.next_turn_time))

    def test_turn_schedule_drawn_for_positive_tau(self):
        w = init_world(small_config(tau=0.5))
        assert np.all(np.isfinite(w.next_turn_time))

    def test_source_at_center(self):
        w = init_world(small_config())
        assert np.allclose(w.positions[0], 5.0)
        assert np.allclose(w.source_origin, 5.0)

    def test_source_infected_at_zero(self):
        w = init_world(small_config())
        assert w.infected[0]
        assert not w.infected[1:].any()

    def test_unit_directions(self):
        for d in (1, 2, 3):
            w = init_world(small_config(d=d, n=50))
            norms = np.linalg.norm(w.directions, axis=1)
            assert np.allclose(norms, 1.0, atol=1e-12)

    def test_planar_direction_draw_is_numpy_uniform(self):
        # 2*pi*random() is the float numpy's uniform(0, 2*pi) draws, from
        # the same stream position
        for seed in range(200):
            rng = np.random.default_rng(seed)
            reference = np.random.default_rng(seed)
            for _ in range(200):
                angle = reference.uniform(0.0, 2.0 * math.pi)
                assert sim_module._isotropic_direction(rng, 2) == [
                    math.cos(angle), math.sin(angle)
                ]
            assert rng.bit_generator.state == reference.bit_generator.state

    def test_spatial_direction_is_a_fixed_order_normalisation(self):
        # each normal draw over sqrt(x*x + y*y + z*z), summed in that
        # order, so a D=3 run does not depend on the BLAS build behind
        # np.linalg.norm (whose norm differs in the last bit on about a
        # tenth of these draws on one x86-64 OpenBLAS)
        rng = np.random.default_rng(9)
        reference = np.random.default_rng(9)
        for _ in range(20000):
            vec = reference.normal(size=3)
            norm = np.sqrt(vec[0] * vec[0] + vec[1] * vec[1] + vec[2] * vec[2])
            assert sim_module._isotropic_direction(rng, 3) == (vec / norm).tolist()
        assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("count", [1, 2, 161, 10241])
    @pytest.mark.parametrize(
        "seed", [0, 1, 12345, 2**32 - 1, 2**32, 2**64 + 5, 2**127 + 11, 2**160 + 7]
    )
    def test_spawn_state_is_numpy_seed_sequence(self, seed, count):
        # the guard against a numpy release that changes SeedSequence
        children = np.random.SeedSequence(seed).spawn(count)
        want = np.stack([c.generate_state(4, np.uint64) for c in children])
        got = sim_module._spawn_state(seed, count)
        assert got.dtype == np.uint64
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "d, tau, seed", [(2, 0.1, 3), (3, 1.0, 11), (2, 0.1, 2**64 + 5)]
    )
    def test_streams_are_seed_sequence_children(self, d, tau, seed):
        cfg = SimConfig(d=d, box_length=30.0, n=161, v=1.0, tau=tau, seed=seed)
        world, want = init_world(cfg), seed_sequence_world(cfg)
        for name in ("positions", "directions", "next_turn_time", "infected",
                     "turn_count", "source_origin"):
            got, expected = getattr(world, name), getattr(want, name)
            assert got.dtype == expected.dtype, name
            assert got.tobytes() == expected.tobytes(), name
        assert (world.time, world.steps, world.watch) == (want.time, want.steps, want.watch)
        assert len(world.node_rngs) == cfg.n
        for rng, reference in zip(world.node_rngs, want.node_rngs):
            assert rng.bit_generator.state == reference.bit_generator.state
            assert rng.random() == reference.random()
            assert rng.exponential(2.0) == reference.exponential(2.0)
            assert rng.normal(size=3).tobytes() == reference.normal(size=3).tobytes()

    def test_mean_position_of_large_sample(self):
        L, n = 10.0, 100_000
        w = init_world(
            SimConfig(
                d=2,
                box_length=L,
                n=n,
                v=1.0,
                tau=0.0,
                dt=0.05,
                t_max=1.0,
                seed=123,
            )
        )
        # every node but the source, which sits at the centre
        sigma = L / math.sqrt(12.0 * (n - 1))
        assert np.all(np.abs(w.positions[1:].mean(axis=0) - L / 2.0) < 3.0 * sigma)


class TestAdvance:
    def test_specular_reflection_near_wall(self):
        w = init_world(small_config(n=2, dt=0.05, v=1.0))
        eps = w.config.dt * w.config.v  # step length
        w.positions[1] = [10.0 - 0.5 * eps, 5.0]
        w.directions[1] = [1.0, 0.0]
        advance(w)
        assert w.positions[1][0] == pytest.approx(10.0 - 0.5 * eps, abs=1e-12)
        assert w.directions[1][0] == -1.0

    def test_containment_and_speed_conservation(self):
        cfg = small_config(n=30, tau=0.4, t_max=20.0)
        w = init_world(cfg)
        for _ in range(int(cfg.t_max / cfg.dt)):
            advance(w)
            assert np.all(w.positions >= 0.0)
            assert np.all(w.positions <= cfg.box_length)
            assert np.allclose(np.linalg.norm(w.directions, axis=1), 1.0, atol=1e-12)

    def test_turn_free_displacement(self):
        cfg = small_config(n=2, tau=0.0)
        w = init_world(cfg)
        w.positions[1] = [5.0, 5.0]
        w.directions[1] = [math.sqrt(0.5), math.sqrt(0.5)]
        before = w.positions[1].copy()
        advance(w)
        moved = np.linalg.norm(w.positions[1] - before)
        assert moved == pytest.approx(cfg.v * cfg.dt, abs=1e-9)

    def test_poisson_turn_counts(self):
        cfg = SimConfig(
            d=2, box_length=20.0, n=100, v=1.0, tau=0.1, dt=0.1, t_max=1000.0, seed=7
        )
        w = init_world(cfg)
        steps = int(cfg.t_max / cfg.dt)
        for _ in range(steps):
            advance(w)
        expected = cfg.tau * cfg.t_max
        mean = w.turn_count.mean()
        # mean of n Poisson(100) counts: std of the mean is sqrt(100/n)
        assert abs(mean - expected) < 3.0 * math.sqrt(expected / cfg.n)

    def test_past_t_max_rejected(self):
        cfg = small_config(t_max=0.1, dt=0.05)
        w = init_world(cfg)
        advance(w)
        advance(w)
        with pytest.raises(ConfigError):
            advance(w)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bit_identical_to_per_node_turns(self, d):
        cfg = SimConfig(
            d=d, box_length=6.0, n=30, v=1.3, tau=5.0, dt=0.075, t_max=30.0, seed=d
        )
        fast, reference = init_world(cfg), init_world(cfg)
        most_turns_in_a_step = 0
        for _ in range(200):
            before = reference.turn_count.copy()
            advance(fast)
            per_node_advance(reference)
            most_turns_in_a_step = max(
                most_turns_in_a_step, int((reference.turn_count - before).max())
            )
            for name in ("positions", "directions", "next_turn_time", "turn_count"):
                got, want = getattr(fast, name), getattr(reference, name)
                assert got.tobytes() == want.tobytes(), name
            assert fast.time == reference.time
        assert most_turns_in_a_step >= 2

    @pytest.mark.parametrize("tau", [0.1, 5.0])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bit_identical_to_numpy_turns(self, d, tau):
        # the Python-float walk against the numpy row-view walk, from
        # nodes that start on the walls at 0 and L
        cfg = SimConfig(
            d=d, box_length=4.0, n=40, v=1.3, tau=tau, dt=0.075, t_max=30.0, seed=d
        )
        fast, reference = init_world(cfg), init_world(cfg)
        for world in (fast, reference):
            world.positions[1:21:2, 0] = 0.0
            world.positions[2:21:2, d - 1] = cfg.box_length
        for _ in range(300):
            advance(fast)
            numpy_turn_advance(reference)
            for name in ("positions", "directions", "next_turn_time", "turn_count"):
                got, want = getattr(fast, name), getattr(reference, name)
                assert got.tobytes() == want.tobytes(), name
            assert fast.time == reference.time
        assert reference.turn_count.sum() > cfg.n

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_turn_and_wall_crossing_in_one_step(self, d):
        # on a stack of three runs, rows that turn in a step also cross a
        # wall in that step's array move: the fold then reflects their
        # stale rows, which the walked rows must overwrite, so the stack
        # stays bit-equal to the numpy row-view walk
        cfg = SimConfig(
            d=d, box_length=4.0, n=30, v=1.3, tau=5.0, dt=0.075, t_max=30.0, seed=7
        )
        fast, reference = (
            sim_module._stack([init_world(replace(cfg, seed=s)) for s in (7, 8, 9)])
            for _ in range(2)
        )
        for world in (fast, reference):
            world.positions[::2, 0] = 0.01
            world.directions[::2, 0] = -np.abs(world.directions[::2, 0])
        both = 0
        for _ in range(200):
            end = fast.time + cfg.dt
            moved = fast.positions + fast.directions * (cfg.v * cfg.dt)
            crossing = ((moved <= 0.0) | (moved > cfg.box_length)).any(axis=1)
            both += int((crossing & (fast.next_turn_time < end)).sum())
            advance(fast)
            numpy_turn_advance(reference)
            for name in ("positions", "directions", "next_turn_time", "turn_count"):
                got, want = getattr(fast, name), getattr(reference, name)
                assert got.tobytes() == want.tobytes(), name
        assert both >= 5

    @pytest.mark.parametrize("offset", [0, -1])
    def test_turn_skip_at_the_step_end(self, offset, monkeypatch):
        # a turn at exactly `end` waits for the next step, and one an ulp
        # before it is walked in this one; either way bit-equal to the
        # per-node walker
        cfg = SimConfig(d=2, box_length=6.0, n=30, v=1.3, tau=5.0, dt=0.075, t_max=30.0)
        fast, reference = init_world(cfg), init_world(cfg)
        end = fast.time + cfg.dt
        turn = end if offset == 0 else math.nextafter(end, -math.inf)
        for world in (fast, reference):
            world.next_turn_time[:] = end + 1.0
            world.next_turn_time[7] = turn
        walked = []
        walk = sim_module._walk_turns
        monkeypatch.setattr(
            sim_module, "_walk_turns",
            lambda world, turning, end: walked.append(turning) or walk(world, turning, end),
        )
        advance(fast)
        per_node_advance(reference)
        assert walked == ([] if offset == 0 else [[7]])
        assert fast.turn_count.tolist() == reference.turn_count.tolist()
        assert fast.turn_count[7] == (0 if offset == 0 else 1)
        for name in ("positions", "directions", "next_turn_time"):
            assert getattr(fast, name).tobytes() == getattr(reference, name).tobytes(), name

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_billiard_stack_walks_no_node(self, d, monkeypatch):
        cfg = SimConfig(d=d, box_length=4.0, n=30, v=1.3, tau=0.0, dt=0.075, t_max=30.0)
        seeds = (4, 5, 6)
        stack = sim_module._stack([init_world(replace(cfg, seed=s)) for s in seeds])
        alone = [init_world(replace(cfg, seed=s)) for s in seeds]
        monkeypatch.setattr(sim_module, "_walk_turns", None)
        for _ in range(200):
            advance(stack)
            for world in alone:
                per_node_advance(world)
        for k, world in enumerate(alone):
            rows = slice(k * cfg.n, (k + 1) * cfg.n)
            for name in ("positions", "directions", "next_turn_time", "turn_count"):
                got, want = getattr(stack, name)[rows], getattr(world, name)
                assert got.tobytes() == want.tobytes(), name
        assert not stack.turn_count.any()

    def test_mirror_trajectory_equivalence(self):
        # folded billiard position == free-space position passed through
        # the 2L-periodic folding map, at every step
        cfg = small_config(n=3, tau=0.0, t_max=40.0, seed=17)
        w = init_world(cfg)
        free = w.positions.copy()
        velocity = w.directions.copy() * cfg.v
        for _ in range(int(cfg.t_max / cfg.dt)):
            advance(w)
            free += velocity * cfg.dt
            folded = np.mod(free, 2.0 * cfg.box_length)
            over = folded > cfg.box_length
            folded[over] = 2.0 * cfg.box_length - folded[over]
            assert np.allclose(w.positions, folded, atol=1e-9)

    def test_trajectories_invariant_under_dt_refinement(self):
        coarse_cfg = small_config(n=10, tau=0.3, t_max=5.0, dt=0.1)
        fine_cfg = small_config(n=10, tau=0.3, t_max=5.0, dt=0.025)
        wc, wf = init_world(coarse_cfg), init_world(fine_cfg)
        for _ in range(50):
            advance(wc)
        for _ in range(200):
            advance(wf)
        assert np.allclose(wc.positions, wf.positions, atol=1e-9)
        assert np.allclose(wc.next_turn_time, wf.next_turn_time, atol=1e-9)


class ComparedArray(np.ndarray):
    """An array that counts the `<=` comparisons made on it or its views:
    fold_positions makes one only when it does not return early."""

    compares = 0

    def __le__(self, other):
        ComparedArray.compares += 1
        return super().__le__(other)


class TestFoldPositions:
    def test_multiple_bounces_in_one_fold(self):
        pos = np.array([[23.0]])
        dirn = np.array([[1.0]])
        fold_positions(pos, dirn, 10.0)
        assert pos[0, 0] == pytest.approx(3.0)

    def test_matches_whole_array_fold(self):
        # reference: fold every component, inside the box or not, on
        # stacks with no component, one component or many outside the box:
        # the fold's early return, a lone wall crossing or edge value (a
        # lone -0.0 must still fold to +0.0), and many bounces mixed with
        # the edge values.  The fold returns early exactly when no
        # component is outside (0, L]: on the all-interior stacks, one of
        # them all 5e-324 and L, the smallest and largest inside values
        length = 10.0
        period = 2.0 * length
        rng = np.random.default_rng(5)
        edges = [
            0.0, -0.0, length, 2.0 * length, -length, 1e-300, -1e-300,
            5e-324, -5e-324, math.nextafter(length, math.inf), 3.0 * length,
        ]
        for d in (1, 2, 3):
            inside = rng.uniform(1e-9, length, (120, d))
            inside[0, d - 1] = length  # L is inside the box
            stacks = [inside, np.resize([5e-324, length], (7, d))]
            for value in [-0.3, length + 0.3, *edges]:
                one = inside.copy()
                one[rng.integers(120), rng.integers(d)] = value
                stacks.append(one)
            many = np.concatenate(
                [rng.uniform(-35.0, 45.0, 400 * d), edges * d, rng.uniform(-35.0, 45.0, 10)]
            )
            stacks.append(many[: len(many) // d * d].reshape(-1, d))
            assert ((stacks[-1] <= 0.0) | (stacks[-1] > length)).sum() > 200
            for raw in stacks:
                dirn = rng.choice([-1.0, 1.0], size=raw.shape)
                want_pos = np.mod(raw, period)
                over = want_pos > length
                want_pos[over] = period - want_pos[over]
                want_dir = np.where(over, -dirn, dirn)
                pos = raw.copy().view(ComparedArray)
                ComparedArray.compares = 0
                fold_positions(pos, dirn, length)
                outside = ((raw <= 0.0) | (raw > length)).any()
                assert ComparedArray.compares == int(outside), (d, raw)
                assert pos.tobytes() == want_pos.tobytes(), d
                assert dirn.tobytes() == want_dir.tobytes(), d

    def test_negative_fold(self):
        pos = np.array([[-2.5]])
        dirn = np.array([[-1.0]])
        fold_positions(pos, dirn, 10.0)
        assert pos[0, 0] == pytest.approx(2.5)
        assert dirn[0, 0] == 1.0


class TestFlood:
    def test_chain_infected_at_once(self):
        w = init_world(small_config(n=3))
        w.positions[0] = [1.0, 5.0]
        w.positions[1] = [1.9, 5.0]
        w.positions[2] = [2.8, 5.0]
        w.source_origin = w.positions[0].copy()
        records = flood(w)
        assert {r.node_id for r in records} == {1, 2}
        assert all(r.infection_time == w.time for r in records)

    def test_idempotent_when_out_of_range(self):
        w = init_world(small_config(n=3))
        w.positions[0] = [1.0, 1.0]
        w.positions[1] = [5.0, 5.0]
        w.positions[2] = [9.0, 9.0]
        assert flood(w) == []
        assert flood(w) == []

    def test_distance_measured_from_source_origin(self):
        w = init_world(small_config(n=2))
        w.source_origin = np.array([0.0, 5.0])
        w.positions[0] = [1.0, 5.0]
        w.positions[1] = [1.8, 5.0]
        records = flood(w)
        assert records[0].distance == pytest.approx(1.8)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_bfs_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 60))
        cfg = SimConfig(
            d=2, box_length=12.0, n=n, v=1.0, tau=0.0, dt=0.05, t_max=1.0, seed=seed
        )
        w = init_world(cfg)
        flood(w)
        oracle = bfs_oracle(
            [tuple(p) for p in w.positions], {0}, cfg.radio_range
        )
        assert set(np.flatnonzero(w.infected)) == oracle

    @pytest.mark.parametrize(
        "d,box_length,radio_range",
        [
            (1, 30.0, 1.0),
            (2, 12.0, 1.0),
            (3, 6.0, 1.0),
            # radio range that does not divide the box
            (1, 10.0, 3.0),
            (2, 7.3, 1.7),
            (3, 5.5, 1.2),
            # boxes one and two cells wide
            (1, 2.0000001, 1.0),
            (2, 2.0000001, 1.0),
            (3, 2.5, 1.0),
        ],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_bfs_oracle_all_dims(self, d, box_length, radio_range, seed):
        rng = np.random.default_rng(100 + seed)
        cfg = SimConfig(
            d=d, box_length=box_length, n=int(rng.integers(5, 60)), v=1.0,
            tau=0.0, dt=0.05, t_max=1.0, radio_range=radio_range, seed=seed,
        )
        w = init_world(cfg)
        flood(w)
        oracle = bfs_oracle([tuple(p) for p in w.positions], {0}, radio_range)
        assert set(np.flatnonzero(w.infected)) == oracle

    @pytest.mark.parametrize(
        "d,box_length,radio_range,offset",
        [
            (1, 10.0, 1.0, 0.0),
            (2, 10.0, 1.0, 0.25),
            (3, 7.0, 1.0, 0.0),
            (2, 7.25, 0.5, 0.125),
            (3, 4.75, 0.75, 0.5),
        ],
    )
    def test_lattice_at_exact_range(self, d, box_length, radio_range, offset):
        # lattice neighbours sit exactly radio_range apart, from wall to
        # wall, so chains cross cell edges at distance exactly r
        steps = int((box_length - offset) / radio_range)
        axis = offset + radio_range * np.arange(steps + 1)
        lattice = np.stack(np.meshgrid(*[axis] * d), axis=-1).reshape(-1, d)
        keep = np.random.default_rng(d).random(len(lattice)) < 0.6
        keep[:2] = True
        points = lattice[keep]
        cfg = SimConfig(
            d=d, box_length=box_length, n=len(points), v=1.0, tau=0.0,
            dt=0.05, t_max=1.0, radio_range=radio_range,
        )
        w = init_world(cfg)
        w.positions[:] = points
        w.source_origin = points[0].copy()
        flood(w)
        oracle = bfs_oracle([tuple(p) for p in points], {0}, radio_range)
        assert set(np.flatnonzero(w.infected)) == oracle
        assert len(oracle) > 1

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_nodes_on_the_walls(self, d):
        # chain along axis 0 from the wall at 0 to the wall at L; the far
        # corner nodes and the centre node are off the chain except in D=1
        length = 10.0
        chain = np.zeros((11, d))
        chain[:, 0] = np.arange(11.0)
        corners = np.full((2, d), length)
        corners[1, 0] = length - 1.0
        stray = np.full((1, d), 0.5 * length)
        points = np.vstack([chain, corners, stray])
        cfg = SimConfig(d=d, box_length=length, n=len(points), v=1.0, tau=0.0)
        w = init_world(cfg)
        w.positions[:] = points
        flood(w)
        oracle = bfs_oracle([tuple(p) for p in points], {0}, 1.0)
        assert set(np.flatnonzero(w.infected)) == oracle
        # on a line every node is within range of the chain
        assert oracle == (set(range(len(points))) if d == 1 else set(range(11)))

    @pytest.mark.parametrize("reach", [10.0, 1.0, 0.5, 0.05])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_nearest_d2_matches_dense(self, d, reach):
        # the grid query returns exactly the pairs within reach, each once,
        # with the dense matrix's exact float; at reach 0.05 the grid is
        # capped at _CELLS_PER_POINT cells per point in D=2 and D=3, so its
        # cells are wider than the reach
        rng = np.random.default_rng(d)
        query = rng.uniform(0.0, 10.0, size=(200, d))
        target = rng.uniform(0.0, 10.0, size=(100, d))
        # points on the walls at 0 and L, some of them coincident, and
        # targets a little off queries, so that small reaches find pairs
        query[:4], target[:4] = 0.0, 0.0
        query[4:8], target[4:8] = 10.0, 10.0
        query[8:12, 0], target[8:12, 0] = 0.0, 10.0
        target[12:40] = np.clip(
            query[12:40] + rng.uniform(-0.02, 0.02, size=(28, d)), 0.0, 10.0
        )
        pairs = ((query[:, None, :] - target[None, :, :]) ** 2).sum(axis=2)
        # one run of 300 points: the queries in rows 0-199, the targets after
        points = np.vstack([query, target])
        rows, cols, d2 = sim_module._near_pairs(
            points, np.arange(200), np.arange(200, 300), reach, 10.0, 300
        )
        cols = cols - 200
        within = pairs <= reach**2
        assert within.any()
        assert sorted(zip(rows.tolist(), cols.tolist())) == list(zip(*within.nonzero()))
        np.testing.assert_array_equal(d2, pairs[rows, cols])

    def test_fully_infected_world(self, monkeypatch):
        # no unreached node: flood builds no grid, reaches no one and
        # leaves the nodes as they are
        w = init_world(small_config(n=5))
        w.infected[:] = True
        before = (w.positions.copy(), w.directions.copy(), w.time, w.steps)

        def no_grid(*args):
            raise AssertionError("grid built for a fully infected world")

        monkeypatch.setattr(sim_module, "_cell_ids", no_grid)
        assert flood(w) == []
        assert flood(w) == []
        assert w.infected.all()
        assert np.array_equal(w.positions, before[0])
        assert np.array_equal(w.directions, before[1])
        assert (w.time, w.steps) == before[2:]

    def test_infection_monotone(self):
        # each call records only nodes not infected before it, and the
        # infected set only grows, by exactly the recorded nodes
        cfg = small_config(n=25, t_max=20.0)
        w = init_world(cfg)
        previous = w.infected.copy()
        for _ in range(200):
            records = flood(w)
            new = [r.node_id for r in records]
            assert not previous[new].any()
            assert np.all(w.infected >= previous)
            assert set(np.flatnonzero(w.infected & ~previous)) == set(new)
            previous = w.infected.copy()
            advance(w)
        assert previous.sum() > 1


    @pytest.mark.parametrize(
        "d,box_length,n,tau",
        [(1, 40.0, 20, 0.5), (2, 15.0, 40, 0.2), (2, 30.0, 80, 2.0), (3, 8.0, 40, 1.0)],
    )
    def test_watch_holds_every_pair_that_can_close_in(
        self, d, box_length, n, tau, monkeypatch
    ):
        # after every flood, every unreached-infected pair within outer =
        # R - age*h of the watch (less the rounding slack) is a watched
        # pair, checked against all pairs; watched pairs are unreached-
        # infected, and some contacts are found from the watch alone; at
        # every step before the horizon's due step, which the flood returns
        # from at once, no unreached-infected pair is within r
        cfg = SimConfig(d=d, box_length=box_length, n=n, v=1.0, tau=tau,
                        dt=0.05, t_max=60.0, seed=7)
        hop, reach = sim_module._hop_reach(cfg)
        slack = 1e-9 * box_length
        w = init_world(cfg)
        queried, hit_steps, skipped = [], [], 0
        near_pairs = sim_module._near_pairs

        def logged_near_pairs(*args):
            queried.append(w.steps)
            return near_pairs(*args)

        monkeypatch.setattr(sim_module, "_near_pairs", logged_near_pairs)
        while True:
            before = w.watch
            if flood(w):
                hit_steps.append(w.steps)
            pair_u, pair_i, taken, due = w.watch
            assert due > w.steps
            assert not w.infected[pair_u].any()
            assert w.infected[pair_i].all()
            outer = reach - (w.steps - taken) * hop
            unreached = np.flatnonzero(~w.infected)
            infected = np.flatnonzero(w.infected)
            pos = w.positions
            d2 = ((pos[unreached][:, None, :] - pos[infected][None, :, :]) ** 2).sum(axis=2)
            rows, cols = (d2 <= (outer - slack) ** 2).nonzero()
            watched = set(zip(pair_u.tolist(), pair_i.tolist()))
            close = set(zip(unreached[rows].tolist(), infected[cols].tolist()))
            assert close <= watched, w.steps
            if before is not None and w.steps < before[3]:
                assert w.watch is before
                assert not (d2 <= cfg.radio_range**2).any(), w.steps
                skipped += 1
            if w.infected.all() or not w.time + cfg.dt <= sim_module._time_limit(cfg):
                break
            advance(w)
        assert len(hit_steps) > 2
        assert set(hit_steps) - set(queried)
        assert skipped > 0

    @pytest.mark.parametrize("every", [2, 3, 9, sim_module._HORIZON_STEPS + 1])
    @pytest.mark.parametrize(
        "d,box_length,n,tau", [(1, 40.0, 20, 0.5), (2, 15.0, 40, 0.2), (3, 8.0, 40, 1.0)]
    )
    def test_flood_every_few_steps(self, d, box_length, n, tau, every):
        # a caller that advances `every` steps between floods: the gap
        # horizon counts steps, not floods, so each flood reaches exactly
        # the nodes a dense flood of the same world reaches
        cfg = SimConfig(d=d, box_length=box_length, n=n, v=1.0, tau=tau,
                        dt=0.05, t_max=60.0, seed=7)
        w = init_world(cfg)
        hits = 0
        while True:
            dense = replace(w, infected=w.infected.copy())
            records = flood(w)
            assert records == dense_flood(dense), w.steps
            assert np.array_equal(w.infected, dense.infected)
            hits += bool(records)
            if w.infected.all() or not (
                w.time + every * cfg.dt <= sim_module._time_limit(cfg)
            ):
                break
            for _ in range(every):
                advance(w)
        assert hits > 2

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_near_pairs_keeps_runs_apart(self, d):
        # a query over three runs of n rows returns exactly each run's own
        # query, pairs and d2 floats alike; run 1's points are run 0's, so
        # every point of run 1 coincides with one of run 0
        rng = np.random.default_rng(10 + d)
        n, length, reach = 60, 6.0, 1.5
        first = rng.uniform(0.0, length, size=(n, d))
        points = np.vstack([first, first, rng.uniform(0.0, length, size=(n, d))])
        split = rng.random(3 * n) < 0.3
        query, target = (~split).nonzero()[0], split.nonzero()[0]
        stacked = sim_module._near_pairs(points, query, target, reach, length, n)
        want = [], [], []
        for k in range(3):
            rows = slice(k * n, (k + 1) * n)
            near, far, d2 = sim_module._near_pairs(
                points[rows], (~split[rows]).nonzero()[0], split[rows].nonzero()[0],
                reach, length, n,
            )
            assert len(d2)
            want[0].append(near + k * n)
            want[1].append(far + k * n)
            want[2].append(d2)
        for got, parts in zip(stacked, want):
            np.testing.assert_array_equal(got, np.concatenate(parts))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_stack_flood_keeps_runs_apart(self, d):
        # run 0 infects a chain along axis 0 in one flood, three levels
        # deep; run 1's unreached nodes sit on exactly those positions, out
        # of range of run 1's source but within the query's reach of it, so
        # the query compares them; no run-1 node may be infected, and run 0
        # must get the records it gets alone
        cfg = SimConfig(d=d, box_length=10.0, n=5, v=1.0, tau=0.0)
        chain = np.full((5, d), 5.0)
        chain[:, 0] = [2.0, 2.9, 3.8, 4.7, 9.0]
        alone = init_world(cfg)
        alone.positions[:] = chain
        alone.source_origin = chain[0].copy()
        worlds = [init_world(cfg), init_world(replace(cfg, seed=1))]
        worlds[0].positions[:] = chain
        worlds[0].source_origin = chain[0].copy()
        worlds[1].positions[:] = np.vstack([chain[:1] - 1.5 * np.eye(d)[:1], chain[:4]])
        worlds[1].source_origin = worlds[1].positions[0].copy()
        stack = sim_module._stack(worlds)
        records = flood(stack)
        assert records == flood(alone)
        assert [r.node_id for r in records] == [1, 2, 3]
        # run 1 read through the stack, and through its World written back
        assert stack.infected[cfg.n:].tolist() == [True] + [False] * 4
        sim_module._unstack(stack, worlds)
        assert worlds[1].infected.tolist() == [True] + [False] * 4
        # later floods of the stack, answered from its watch, agree too
        for _ in range(3):
            advance(stack)
            advance(alone)
            assert flood(stack) == flood(alone)
        assert stack.infected[cfg.n:].tolist() == [True] + [False] * 4
        sim_module._unstack(stack, worlds)
        assert worlds[1].infected.tolist() == [True] + [False] * 4
        assert np.array_equal(worlds[0].positions, alone.positions)
        assert worlds[0].steps == alone.steps == 3

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_stack_flood_searches_runs_to_their_own_depths(self, d):
        # one flood of four runs along axis 0, with r = 1: run 0's wave is
        # three levels deep, run 1's two, run 2's four, which infects its
        # last node, and run 3 has nodes within the query's reach but none
        # in range; every run gets the records and the infected nodes it
        # gets flooded alone, and so do the next floods, which its watch
        # answers without a grid query
        cfg = SimConfig(d=d, box_length=10.0, n=5, v=1.0, tau=0.0)
        chains = [
            [2.0, 2.9, 3.8, 4.7, 9.0],
            [2.0, 2.9, 3.8, 6.0, 8.0],
            [2.0, 2.9, 3.8, 4.7, 5.6],
            [2.0, 3.5, 5.0, 6.5, 8.0],
        ]

        def placed(seed, xs):
            world = init_world(replace(cfg, seed=seed))
            world.positions[:] = 5.0
            world.positions[:, 0] = xs
            world.source_origin = world.positions[0].copy()
            return world

        alone = [placed(k, xs) for k, xs in enumerate(chains)]
        stack = sim_module._stack([placed(k, xs) for k, xs in enumerate(chains)])

        def by_run(records):
            runs = [[] for _ in chains]
            for rec in records:
                k, node = divmod(rec.node_id, cfg.n)
                runs[k].append(replace(rec, node_id=node))
            return runs

        for step in range(5):
            if step:
                for world in [stack, *alone]:
                    advance(world)
            records = by_run(flood(stack))
            if not step:
                assert [[rec.node_id for rec in recs] for recs in records] == [
                    [1, 2, 3], [1, 2], [1, 2, 3, 4], []
                ]
            assert records == [flood(world) for world in alone]
            assert np.array_equal(
                stack.infected, np.concatenate([w.infected for w in alone])
            )
        assert stack.watch[2] == 0


class TestRunEpidemic:
    def test_initially_connected_pair(self):
        cfg = small_config(n=2, seed=3)
        w = init_world(cfg)
        # place node 1 within range of the source at t=0 by seed search
        records = None
        for seed in range(50):
            cfg = small_config(n=2, seed=seed)
            w = init_world(cfg)
            if np.linalg.norm(w.positions[1] - w.positions[0]) <= 1.0:
                records = run_epidemic(cfg)[0]
                break
        assert records is not None, "no seed produced an initially connected pair"
        assert [r.infection_time for r in records] == [0.0, 0.0]

    def test_source_record_first(self):
        records = run_epidemic(small_config())[0]
        assert records[0].node_id == 0
        assert records[0].infection_time == 0.0
        assert records[0].distance == 0.0

    def test_sorted_by_time(self):
        # strict (infection_time, node_id) order: no caller re-sorts
        for d, box_length, n in [(1, 40.0, 20), (2, 10.0, 20), (3, 6.0, 30)]:
            cfg = small_config(d=d, box_length=box_length, n=n, tau=0.5, t_max=60.0)
            keys = [(r.infection_time, r.node_id) for r in run_epidemic(cfg)[0]]
            assert all(a < b for a, b in zip(keys, keys[1:])), d
            assert len({t for t, _ in keys}) > 2, d

    def test_reproducible(self):
        cfg = small_config(n=20, t_max=30.0)
        assert run_epidemic(cfg) == run_epidemic(cfg)

    def test_each_node_recorded_once(self):
        records = run_epidemic(small_config(n=20, t_max=30.0))[0]
        ids = [r.node_id for r in records]
        assert len(ids) == len(set(ids))

    def test_dense_billiard_completes(self):
        # nu = 0.1 on a 20x20 box: billiard trajectories meet everyone
        for seed in range(5):
            cfg = SimConfig(
                d=2,
                box_length=20.0,
                n=40,
                v=1.0,
                tau=0.0,
                dt=0.05,
                t_max=2000.0,
                seed=seed,
            )
            assert len(run_epidemic(cfg)[0]) == cfg.n

    @pytest.mark.parametrize(
        "d,box_length,n,tau",
        [(1, 40.0, 20, 0.1), (2, 20.0, 40, 0.1), (2, 9.0, 12, 5.0), (3, 8.0, 30, 0.5)],
    )
    def test_records_match_dense_flood(self, d, box_length, n, tau):
        cfg = SimConfig(
            d=d, box_length=box_length, n=n, v=1.0, tau=tau, dt=0.05,
            t_max=300.0, seed=4,
        )
        records = run_epidemic(cfg)[0]
        assert every_step_run(cfg, dense_flood) == records
        assert len(records) > 1

    @pytest.mark.parametrize(
        "d,box_length,n,tau,radio_range,seed",
        [
            (1, 40.0, 20, 0.1, 1.0, 1),
            (1, 30.0, 25, 2.0, 1.7, 2),
            (1, 2.5, 4, 0.0, 1.2, 3),
            (2, 20.0, 40, 0.1, 1.0, 1),
            (2, 9.0, 12, 5.0, 1.0, 2),
            (2, 40.0, 160, 0.1, 1.0, 3),
            (2, 25.0, 60, 0.3, 1.2, 1),
            (2, 2.5, 5, 1.0, 1.2, 2),
            (3, 8.0, 30, 0.5, 1.0, 3),
            (3, 12.0, 40, 0.2, 3.0, 1),
            (3, 7.0, 20, 0.0, 3.0, 2),
            (3, 15.0, 60, 1.0, 1.7, 3),
        ],
    )
    def test_matches_every_step_loop(self, d, box_length, n, tau, radio_range, seed):
        # the skipped floods are exactly the empty ones: r not dividing L,
        # boxes one or two cells wide, tau from billiard to fast turning
        cfg = SimConfig(
            d=d, box_length=box_length, n=n, v=1.0, tau=tau,
            radio_range=radio_range, dt=0.05, t_max=100.0, seed=seed,
        )
        records = run_epidemic(cfg)[0]
        assert records == every_step_run(cfg)
        # the default flood shares the watch list; the dense one has none
        assert records == every_step_run(cfg, flood_step=dense_flood)
        assert len(records) > 1

    @pytest.mark.parametrize(
        "d,box_length,n,tau", [(1, 40.0, 20, 0.1), (2, 20.0, 40, 0.1), (3, 8.0, 30, 0.5)]
    )
    def test_flood_is_the_only_neighbour_query(self, d, box_length, n, tau, monkeypatch):
        # every grid query happens inside a flood call, some floods are
        # answered by the watch list without a query, and the floods that
        # provably find nothing, with nodes still unreached, compare no pair
        # at all: the gap horizon returns from them at once
        calls = {"flood": 0, "advance": 0, "inside": 0, "outside": 0,
                 "pair_d2": 0, "watched": 0, "skipped": 0}
        in_flood = [False]
        near_pairs, pair_d2, real_flood, real_advance = (
            sim_module._near_pairs, sim_module._pair_d2, sim_module.flood,
            sim_module.advance,
        )

        def counted_near_pairs(*args):
            calls["inside" if in_flood[0] else "outside"] += 1
            return near_pairs(*args)

        def counted_pair_d2(*args):
            calls["pair_d2"] += 1
            return pair_d2(*args)

        def counted_flood(world):
            calls["flood"] += 1
            inside, compared = calls["inside"], calls["pair_d2"]
            unreached = not world.infected.all()
            in_flood[0] = True
            try:
                return real_flood(world)
            finally:
                in_flood[0] = False
                if calls["inside"] == inside:
                    if calls["pair_d2"] > compared:
                        calls["watched"] += 1
                    else:
                        calls["skipped"] += unreached

        def counted_advance(world):
            calls["advance"] += 1
            return real_advance(world)

        monkeypatch.setattr(sim_module, "_near_pairs", counted_near_pairs)
        monkeypatch.setattr(sim_module, "_pair_d2", counted_pair_d2)
        monkeypatch.setattr(sim_module, "flood", counted_flood)
        monkeypatch.setattr(sim_module, "advance", counted_advance)
        cfg = SimConfig(
            d=d, box_length=box_length, n=n, v=1.0, tau=tau, dt=0.05,
            t_max=100.0, seed=4,
        )
        assert len(run_epidemic(cfg)[0]) > 1
        assert calls["outside"] == 0
        assert calls["watched"] > 0
        assert calls["inside"] > 0
        assert calls["skipped"] > 0
        # one flood per step, and the flood at t = 0
        assert calls["flood"] == calls["advance"] + 1

    # Two nodes that close at 2*v from r + 2*v*dt*j +- 1e-12 (r = 1, v*dt
    # = 0.05), so that contact falls on the last step a horizon may skip or
    # on the first step it must not skip.
    GAPS = [
        (1.0 + 0.1 * j + sign * 1e-12, j if sign < 0 else j + 1)
        for j in range(sim_module._HORIZON_STEPS + 2)
        for sign in (-1.0, 1.0)
    ]

    @staticmethod
    def two_node_run(monkeypatch, lead, heading_0, heading_1, gap):
        """Node 1 at `lead`, node 0 gap behind it along heading_0; returns
        run_epidemic's records after checking them against every_step_run."""
        d = len(lead)
        positions = np.array([lead - gap * heading_0, lead])
        place_nodes(monkeypatch, positions, np.array([heading_0, heading_1]))
        # 40 steps: past the latest contact, K + 1 steps plus two to the wall
        cfg = SimConfig(d=d, box_length=10.0, n=2, v=1.0, tau=0.0, dt=0.05, t_max=2.0)
        records = run_epidemic(cfg)[0]
        assert records == every_step_run(cfg)
        assert records == every_step_run(cfg, flood_step=dense_flood)
        assert len(records) == 2
        return records

    @pytest.mark.parametrize("gap,contact_step", GAPS)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_head_on_approach(self, d, gap, contact_step, monkeypatch):
        heading = np.ones(d) / math.sqrt(d)
        records = self.two_node_run(monkeypatch, np.full(d, 5.0), heading, -heading, gap)
        assert records[1].infection_time == pytest.approx(0.05 * contact_step)

    @pytest.mark.parametrize("gap,contact_step", GAPS)
    @pytest.mark.parametrize("wall_steps", [0, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_approach_after_wall_reflection(
        self, d, wall_steps, gap, contact_step, monkeypatch
    ):
        # both nodes head +x, so the gap holds until node 1 reaches the
        # wall x = L after wall_steps steps; it reflects and closes head-on
        heading = np.eye(d)[0]
        lead = np.full(d, 5.0)
        lead[0] = 10.0 - 0.05 * wall_steps
        records = self.two_node_run(monkeypatch, lead, heading, heading, gap)
        steps = contact_step + wall_steps if contact_step else 0
        assert records[1].infection_time == pytest.approx(0.05 * steps)

    @pytest.mark.parametrize("gap,contact_step", GAPS)
    @pytest.mark.parametrize("d", [2, 3])
    def test_approach_after_corner_bounce(self, d, gap, contact_step, monkeypatch):
        # node 1 starts in the corner heading out along the diagonal, so its
        # first step reflects off every wall at once
        heading = np.ones(d) / math.sqrt(d)
        records = self.two_node_run(monkeypatch, np.full(d, 10.0), heading, heading, gap)
        assert records[1].infection_time == pytest.approx(0.05 * contact_step)

    # Node 2 closes head-on on the source from r + 2*v*dt*j +- 1e-12.  For
    # j = 8 and 9 contact falls well inside the life of a watch list taken
    # at step 0, and is found from it.  For j = K and K + 1 with K =
    # _HORIZON_STEPS it falls on the last step the watch is valid (K), and
    # is found from it, on the first step it has expired (K + 1), or, from
    # beyond its reach R, one step later.
    WATCH_GAPS = [
        (1.0 + 0.1 * j + sign * 1e-12, j if sign < 0 else j + 1)
        for j in (8, 9, sim_module._HORIZON_STEPS, sim_module._HORIZON_STEPS + 1)
        for sign in (-1.0, 1.0)
    ]

    @pytest.mark.parametrize("gap,contact_step", WATCH_GAPS)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_watch_list_expires_in_time(self, d, gap, contact_step, monkeypatch):
        # node 1 trails the source at r + 0.05 on a parallel course: that
        # watched pair stays out of range and keeps every flood on the watch
        # list, with no flood skipped; node 2 must still be caught on time,
        # and a contact at step K comes from the watch list, not a query
        heading = np.eye(d)[0]
        source = np.full(d, 5.0)
        positions = np.array(
            [source, source - 1.05 * heading, source + gap * heading]
        )
        place_nodes(monkeypatch, positions, np.array([heading, heading, -heading]))
        queried, flooding = [], []
        near_pairs, real_flood = sim_module._near_pairs, sim_module.flood

        def logged_near_pairs(*args):
            queried.append(flooding[-1].steps)
            return near_pairs(*args)

        def logged_flood(world):
            flooding.append(world)
            return real_flood(world)

        monkeypatch.setattr(sim_module, "_near_pairs", logged_near_pairs)
        monkeypatch.setattr(sim_module, "flood", logged_flood)
        cfg = SimConfig(d=d, box_length=10.0, n=3, v=1.0, tau=0.0, dt=0.05, t_max=2.0)
        records = run_epidemic(cfg)[0]
        # no query between the watch taken at step 0 and its expiry at K + 1;
        # node 2 reaches node 1 about 10 steps after its own contact, so a
        # run whose first contact comes before step K ends before K + 1
        horizon = sim_module._HORIZON_STEPS
        if contact_step < horizon:
            assert queried == [0]
        else:
            assert queried[:2] == [0, horizon + 1]
        assert records == every_step_run(cfg, flood_step=dense_flood)
        assert [r.node_id for r in records[:2]] == [0, 2]
        assert records[1].infection_time == pytest.approx(0.05 * contact_step)

    @pytest.mark.parametrize("delay", range(1, sim_module._HORIZON_STEPS + 1))
    @pytest.mark.parametrize("d", [2, 3])
    def test_second_contact_right_after_a_first(self, d, delay, monkeypatch):
        # node 1 closes head-on on the source and is reached at step 3;
        # node 2 runs beside the source, just out of its range, and comes
        # within range of node 1 `delay` steps later: the horizon a contact
        # sets must not skip that flood.  Along axis 0, node 1 is 0.95
        # ahead of the source at step 3 and node 2 is `ahead`; off axis 0,
        # node 2 is `side` away, so node 1 reaches it when their gap along
        # axis 0 is at most 0.1 (r = 1), half a step before `delay`.
        ahead = 0.95 - 0.1 * delay
        side = math.sqrt(1.0 - 0.05**2)
        heading = np.eye(d)[0]
        source = np.full(d, 3.0)
        beside = source + ahead * heading
        beside[1] += side
        positions = np.array([source, source + (1.25 * heading), beside])
        place_nodes(monkeypatch, positions, np.array([heading, -heading, heading]))
        cfg = SimConfig(d=d, box_length=10.0, n=3, v=1.0, tau=0.0, dt=0.05, t_max=2.0)
        records = run_epidemic(cfg)[0]
        assert records == every_step_run(cfg)
        assert records == every_step_run(cfg, flood_step=dense_flood)
        assert [r.node_id for r in records] == [0, 1, 2]
        assert records[1].infection_time == pytest.approx(0.05 * 3)
        assert records[2].infection_time == pytest.approx(0.05 * (3 + delay))

    def test_refinement_shifts_times_by_at_most_coarse_steps(self):
        cfg = small_config(n=25, box_length=8.0, t_max=60.0, dt=0.08, seed=2)
        fine = small_config(n=25, box_length=8.0, t_max=60.0, dt=0.02, seed=2)
        coarse_times = {r.node_id: r.infection_time for r in run_epidemic(cfg)[0]}
        fine_times = {r.node_id: r.infection_time for r in run_epidemic(fine)[0]}
        for node, t_fine in fine_times.items():
            if node in coarse_times:
                # finer sampling can only catch contacts earlier, and the
                # coarse run can lag by contact-detection granularity
                assert coarse_times[node] >= t_fine - 1e-9

    @pytest.mark.parametrize(
        "d,box_length,n,tau", [(1, 40.0, 12, 0.5), (2, 20.0, 40, 0.0),
                               (2, 20.0, 40, 0.3), (3, 8.0, 40, 1.0)]
    )
    def test_radio_range_is_a_length_unit(self, d, box_length, n, tau):
        # doubling the box, the range and the speed doubles every length
        # exactly (a power of two) and leaves every time alone: the same
        # nodes are infected at the same times, at twice the distance
        kwargs = dict(d=d, n=n, tau=tau, t_max=200.0, seed=3)
        unit = run_epidemic(SimConfig(**kwargs, box_length=box_length, v=1.0), runs=4)
        doubled = run_epidemic(
            SimConfig(**kwargs, box_length=2.0 * box_length, radio_range=2.0, v=2.0),
            runs=4,
        )
        assert doubled == [
            [replace(r, distance=2.0 * r.distance) for r in records] for records in unit
        ]
        assert any(len(records) > 1 for records in unit)


class TestLockstep:
    @staticmethod
    def captured_worlds(monkeypatch):
        """Every world `init_world` builds from now on, in build order."""
        worlds = []
        real_init_world = sim_module.init_world

        def capture(config):
            worlds.append(real_init_world(config))
            return worlds[-1]

        monkeypatch.setattr(sim_module, "init_world", capture)
        return worlds

    @pytest.mark.parametrize("tau", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize(
        "d,box_length,n,t_max", [(1, 25.0, 8, 15.0), (2, 12.0, 12, 40.0), (3, 7.0, 14, 60.0)]
    )
    def test_batch_equals_each_seed_alone(self, d, box_length, n, tau, t_max, monkeypatch):
        # one stacked advance moves every run of the batch; each run must
        # still be exactly its seed run alone, by run_epidemic and by the
        # stack-free every_step_run, in records, clock, steps and turns
        cfg = SimConfig(
            d=d, box_length=box_length, n=n, v=1.0, tau=tau, dt=0.05,
            t_max=t_max, seed=5,
        )
        worlds = self.captured_worlds(monkeypatch)
        batch = run_epidemic(cfg, runs=6)
        batch_worlds = worlds[:]
        assert [w.config.seed for w in batch_worlds] == list(range(5, 11))
        for world, records in zip(batch_worlds, batch):
            seed_cfg = replace(cfg, seed=world.config.seed)
            del worlds[:]
            assert run_epidemic(seed_cfg) == [records]
            assert every_step_run(seed_cfg) == records
            assert len(worlds) == 2
            for alone in worlds:
                assert alone.time == world.time
                assert alone.steps == world.steps
                assert np.array_equal(alone.turn_count, world.turn_count)
                assert np.array_equal(alone.positions, world.positions)
                assert np.array_equal(alone.infected, world.infected)
        # the runs leave the batch at different steps, and some reach t_max
        # with nodes left unreached
        finished = [w for w in batch_worlds if w.infected.all()]
        assert len({w.steps for w in finished}) > 1
        assert len(finished) < len(batch_worlds)

    def test_stack_arrays_may_be_rebound(self, monkeypatch):
        # the stack is the only live copy of its runs' state: an advance
        # that rebinds the stack's arrays instead of writing them in place
        # still leaves each seed's records and World as its seed run alone,
        # also for the runs that outlive a restack
        cfg = SimConfig(d=2, box_length=12.0, n=12, v=1.0, tau=0.1, t_max=40.0, seed=5)
        real_advance = sim_module.advance

        def rebinding_advance(world):
            real_advance(world)
            world.positions = world.positions.copy()
            world.turn_count = world.turn_count.copy()
            return world

        worlds = self.captured_worlds(monkeypatch)
        monkeypatch.setattr(sim_module, "advance", rebinding_advance)
        batch = run_epidemic(cfg, runs=4)
        batch_worlds = worlds[:]
        monkeypatch.setattr(sim_module, "advance", real_advance)
        for world, records in zip(batch_worlds, batch):
            del worlds[:]
            assert run_epidemic(replace(cfg, seed=world.config.seed)) == [records]
            (alone,) = worlds
            assert np.array_equal(alone.positions, world.positions)
            assert np.array_equal(alone.turn_count, world.turn_count)
            assert alone.steps == world.steps
        # some run leaves the stack before another, so a restack happens
        assert len({w.steps for w in batch_worlds}) > 1

    def test_batches_past_the_cap_equal_each_seed_alone(self, monkeypatch):
        # a run count past the lockstep cap is stepped in batches of at
        # most the cap, and each seed's records are still its own
        cfg = SimConfig(d=1, box_length=12.0, n=4, v=1.0, tau=0.5, t_max=10.0, seed=3)
        runs = sim_module._LOCKSTEP_RUNS + 3
        batches = []
        real_run_lockstep = sim_module._run_lockstep

        def logged_run_lockstep(config, seeds):
            batches.append(seeds)
            return real_run_lockstep(config, seeds)

        monkeypatch.setattr(sim_module, "_run_lockstep", logged_run_lockstep)
        batch = run_epidemic(cfg, runs=runs)
        assert [len(seeds) for seeds in batches] == [sim_module._LOCKSTEP_RUNS, 3]
        assert len(batch) == runs
        for k, records in enumerate(batch):
            assert run_epidemic(replace(cfg, seed=3 + k)) == [records]
        assert len({len(records) for records in batch}) > 1

    def test_batch_floods_fewer_times_than_its_seeds_alone(self, monkeypatch):
        # one flood per step serves every run of the batch, so a 6-seed
        # batch floods and queries less often than its seeds run one by one
        calls = {"flood": 0, "query": 0}
        real_flood, near_pairs = sim_module.flood, sim_module._near_pairs

        def counted_flood(world):
            calls["flood"] += 1
            return real_flood(world)

        def counted_near_pairs(*args):
            calls["query"] += 1
            return near_pairs(*args)

        monkeypatch.setattr(sim_module, "flood", counted_flood)
        monkeypatch.setattr(sim_module, "_near_pairs", counted_near_pairs)
        cfg = SimConfig(d=2, box_length=20.0, n=30, v=1.0, tau=0.1, t_max=100.0, seed=2)
        batch = run_epidemic(cfg, runs=6)
        in_batch = dict(calls)
        calls.update(flood=0, query=0)
        alone = [run_epidemic(replace(cfg, seed=seed))[0] for seed in range(2, 8)]
        assert batch == alone
        assert in_batch["flood"] < calls["flood"]
        assert in_batch["query"] < calls["query"]

    @staticmethod
    def counted_queries(monkeypatch):
        """Count `_near_pairs` calls from here on, in a one-item list."""
        queries, near_pairs = [0], sim_module._near_pairs

        def counted_near_pairs(*args):
            queries[0] += 1
            return near_pairs(*args)

        monkeypatch.setattr(sim_module, "_near_pairs", counted_near_pairs)
        return queries

    @pytest.mark.parametrize(
        "d,box_length,n,tau", [(1, 40.0, 20, 0.5), (2, 15.0, 40, 0.2), (3, 8.0, 40, 1.0)]
    )
    def test_records_do_not_depend_on_the_horizon(self, d, box_length, n, tau, monkeypatch):
        # K = _HORIZON_STEPS decides only which floods are skipped or answered
        # from the watch, and those are the empty ones: a lockstep batch
        # whose runs leave the stack at different steps gets the same
        # records at K = 1, 8 and 32, each run those of its seed stepped
        # and flooded alone; K changes the number of grid queries
        cfg = SimConfig(d=d, box_length=box_length, n=n, v=1.0, tau=tau,
                        dt=0.05, t_max=60.0, seed=5)
        alone = [every_step_run(replace(cfg, seed=5 + k)) for k in range(4)]
        assert all(len(records) == n for records in alone)
        assert len({records[-1].infection_time for records in alone}) == 4
        queries = self.counted_queries(monkeypatch)
        counts = []
        for horizon in (1, 8, 32):
            monkeypatch.setattr(sim_module, "_HORIZON_STEPS", horizon)
            queries[0] = 0
            assert run_epidemic(cfg, runs=4) == alone, horizon
            counts.append(queries[0])
        assert counts[0] > counts[1] > counts[2]

    def test_grid_query_count(self, monkeypatch):
        # an exact work count, free of timing noise: the `figure` scenario
        # tau = 0, nu = 0.025, L = 80 (n = 160) as one batch of 4 runs
        # makes 138 grid queries (500 at K = 8)
        queries = self.counted_queries(monkeypatch)
        cfg = SimConfig(d=2, box_length=80.0, n=160, v=1.0, tau=0.0, seed=0)
        batch = run_epidemic(cfg, runs=4)
        assert [len(records) for records in batch] == [160] * 4
        assert queries[0] == 138

    @pytest.mark.parametrize("runs", [0, -1, 1.5, True, "2"])
    def test_bad_run_count_refused(self, runs):
        with pytest.raises(ConfigError, match="runs must be an integer >= 1"):
            run_epidemic(small_config(), runs=runs)

    def test_run_infected_by_the_first_flood_never_steps(self, monkeypatch):
        # seed 4 of this dense box connects everyone at t = 0, seed 5 does not
        cfg = SimConfig(d=1, box_length=3.0, n=6, v=1.0, tau=0.0, t_max=5.0, seed=4)
        worlds = self.captured_worlds(monkeypatch)
        first, second = run_epidemic(cfg, runs=2)
        assert worlds[0].steps == 0 < worlds[1].steps
        assert [r.infection_time for r in first] == [0.0] * 6
        assert [first, second] == [
            run_epidemic(replace(cfg, seed=s))[0] for s in (4, 5)
        ]


class TestWriteRecords:
    def test_csv_shape(self, tmp_path):
        records = [
            InfectionRecord(node_id=0, infection_time=0.0, distance=0.0),
            InfectionRecord(node_id=3, infection_time=1.25, distance=2.5),
        ]
        out = tmp_path / "records.csv"
        with open(out, "w") as fh:
            write_records(fh, [(11, r) for r in records])
        lines = out.read_text().splitlines()
        assert lines[0] == "run_seed,node_id,infection_time,distance"
        assert lines[1] == "11,0,0,0"
        assert lines[2] == "11,3,1.25,2.5"
