"""The compiled annealing walk: one scalar walk over flat array state, the
lane driver that runs replicas and portfolio lanes as such walks, and the
fast-engine front end.

The packet annealer has two paths (see ``SAConfig``): the *reference* path
runs the generic :meth:`~repro.annealing.annealer.Annealer.run` loop and
scores every move through ``comm_model.cost()`` calls (``compiled=False``,
the oracle), and the compiled walk of this module runs the same walk over
the :class:`~repro.core.kernel.PacketKernel`'s dense tables:

* :func:`anneal_array` — the single-chain walk on flat index state.  The
  mapping lives in assignment/occupancy vectors (``assign[i] = j`` or ``-1``)
  plus an explicit insertion-order list that reproduces the dict-order
  semantics of :class:`~repro.core.packet.PacketMapping` (drop-victim
  selection and the full-cost resynchronization both iterate in insertion
  order); randomness is consumed from per-temperature blocks of pre-drawn
  values — one ``random_raw`` bulk pull converted **vectorized** into the
  exact doubles and 32-bit halves numpy's scalar ``Generator.random()`` and
  ``Generator.integers(0, n)`` (Lemire's bounded draw) would have produced
  one call at a time.  The paper's sigmoid rule (eq. 1) is inlined; any
  other :class:`~repro.annealing.acceptance.AcceptanceRule` is asked for its
  probability and a double is drawn only when it lies strictly between 0
  and 1, as :meth:`AcceptanceRule.accept` does.  Every stochastic decision
  and every float operation happens in the order of the reference loop, so
  a fixed-seed run is bit-for-bit identical to ``SAConfig(compiled=False)``.

* :func:`anneal_replicas_batched` — B lanes over one shared kernel, each a
  scalar :func:`anneal_array` walk on its own child generator (from
  :func:`repro.utils.rng.split`), so lane *b* equals a single-chain run on
  child *b* by construction.  Multi-start replicas walk one after another;
  portfolio lanes (a :class:`~repro.annealing.portfolio.LanePlan`) advance
  one temperature step at a time so successive-halving racing can cull
  them between steps.

* :func:`compile_fast_packet` — builds an index-space
  :class:`~repro.core.packet.AnnealingPacket` and its
  :class:`~repro.core.kernel.PacketKernel` directly from a fast-engine
  :class:`~repro.sim.compile.FastPacket`, gathering the communication table
  from the compiled scenario's per-edge equation-4 tensor instead of calling
  ``cost_row`` per predecessor (same accumulation order, bit-identical
  rows).  This is what gives SA a real ``fast_assign``.
"""

from __future__ import annotations

import math
from typing import Generator, List, Tuple

import numpy as np

from repro.annealing.acceptance import BoltzmannSigmoidAcceptance
from repro.annealing.annealer import Annealer, AnnealingResult
from repro.annealing.stopping import CombinedStopping, StallStopping
from repro.core.kernel import PacketKernel
from repro.core.moves import _DROP_PROBABILITY
from repro.core.packet import AnnealingPacket, PacketMapping

__all__ = [
    "anneal_array",
    "anneal_replicas_batched",
    "compile_fast_packet",
]

#: One ``(temperature, cost)`` sample per temperature step.
Sample = Tuple[float, float]

_INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53, numpy's double construction
_M32 = (1 << 32) - 1
_RAW_BLOCK = 1024


# --------------------------------------------------------------------------- #
# The array walk
# --------------------------------------------------------------------------- #

def _array_walk(
    kernel: PacketKernel,
    problem,
    annealer: Annealer,
    rng,
    cooling=None,
    t0=None,
) -> Generator[Sample, bool, AnnealingResult]:
    """The compiled walk as a generator of temperature steps.

    Yields one ``(temperature, cost)`` sample after each temperature step
    (the post-resync cost a stopping rule judges) and expects to be sent
    whether to stop there; once sent ``True`` it returns the
    :class:`~repro.annealing.annealer.AnnealingResult`.  *cooling* and *t0*
    default to the annealer's (its ``initial_temperature``, else the
    problem's estimate); portfolio lanes pass their own.  The caller owns
    stopping, so lanes can be raced step by step.  See the module docstring
    for the draw-block and insertion-order machinery.
    """
    cooling = annealer.cooling if cooling is None else cooling
    acceptance = annealer.acceptance
    probability_of = acceptance.probability
    sigmoid = type(acceptance) is BoltzmannSigmoidAcceptance
    moves = annealer.moves_per_temperature

    state0 = problem.initial_state(rng)
    n_ready, n_idle = kernel.n_ready, kernel.n_idle
    # Flat mapping state: assignment / occupancy vectors plus the explicit
    # insertion-order list that mirrors PacketMapping's dict order (drop
    # victims and resync sums both follow it).
    assign = [-1] * n_ready
    occ = [-1] * n_idle
    order: List[int] = []
    for i, j in state0.task_to_proc.items():
        assign[i] = j
        occ[j] = i
        order.append(i)

    brows = kernel.balance_rows
    rows = kernel.comm_rows
    wb, wc = kernel.weight_balance, kernel.weight_comm
    br, cr = kernel.balance_range, kernel.comm_range
    comm_enabled = kernel.comm_enabled
    degenerate = n_ready == 0 or n_idle == 0

    def full_cost() -> float:
        # Mirrors PacketKernel.total_cost term for term: insertion-order
        # accumulation starting from the integer 0, negated afterwards.
        acc = 0
        for i in order:
            acc = acc + brows[i][assign[i]]
        fc = 0.0
        if comm_enabled:
            for i in order:
                fc += rows[i][assign[i]]
        return wc * fc / cr + wb * (-acc) / br

    cost = full_cost()
    best_assign = assign.copy()
    best_order = order.copy()
    best_cost = cost

    if t0 is None:
        t0 = (
            annealer.initial_temperature
            if annealer.initial_temperature is not None
            else problem.initial_temperature(rng)
        )
    if t0 <= 0:
        raise ValueError(f"initial temperature must be > 0, got {t0}")

    # Pre-drawn blocks: raw 64-bit outputs pulled in bulk and converted
    # vectorized into the doubles and 32-bit halves the generator's scalar
    # random() / integers() calls would have produced one by one.  A pending
    # buffered half-word in the generator's state is consumed first, as
    # integers() would.
    bitgen = rng.bit_generator
    gstate = bitgen.state
    half = int(gstate["uinteger"]) if gstate.get("has_uint32") else None
    dbl: List[float] = []
    lo: List[int] = []
    hi: List[int] = []
    pos = 0
    blen = 0
    # Worst-case consumption of one temperature block: four raw words per
    # proposal (drop check, task, processor, acceptance) plus slack for the
    # Lemire rejection loop (probability < 2**-26 per draw).
    worst = 4 * moves + 64

    def refill(extra: int = _RAW_BLOCK) -> None:
        nonlocal dbl, lo, hi, pos, blen
        raw = bitgen.random_raw(extra)
        dbl = dbl[pos:]
        dbl.extend(((raw >> 11) * _INV_2_53).tolist())
        lo = lo[pos:]
        lo.extend((raw & _M32).tolist())
        hi = hi[pos:]
        hi.extend((raw >> 32).tolist())
        pos = 0
        blen = len(dbl)

    exp = math.exp
    drop_p = _DROP_PROBABILITY
    n_proposals = 0
    n_accepted = 0
    outer = 0
    while True:
        temperature = cooling.temperature(outer, t0)
        # The sigmoid is inlined at finite positive temperatures; its limits
        # (eq. 2), negative temperatures and every other rule go through
        # the rule's own probability.
        inline = sigmoid and 0.0 < temperature < math.inf
        if blen - pos < worst:
            refill(max(worst, _RAW_BLOCK))
        for _ in range(moves):
            # ---- propose: moves.propose_move over flat state --------------- #
            # move kinds: 0 zero-delta, 1 drop, 2 (re)assign, 3 replace, 4 swap
            kind = 0
            delta = 0.0
            if not degenerate:
                if order and dbl[pos] < drop_p:
                    pos += 1
                    na = len(order)
                    if na == 1:
                        vidx = 0
                    else:
                        if half is not None:
                            u32 = half
                            half = None
                        else:
                            u32 = lo[pos]
                            half = hi[pos]
                            pos += 1
                        m = u32 * na
                        leftover = m & _M32
                        if leftover < na:  # pragma: no cover - ~2**-26 per draw
                            threshold = (4294967296 - na) % na
                            while leftover < threshold:
                                if half is not None:
                                    u32 = half
                                    half = None
                                else:
                                    if pos >= blen:
                                        refill()
                                    u32 = lo[pos]
                                    half = hi[pos]
                                    pos += 1
                                m = u32 * na
                                leftover = m & _M32
                        vidx = m >> 32
                    task = order[vidx]
                    old_j = assign[task]
                    kind = 1
                    balance_delta = 0.0 + brows[task][old_j]
                    comm_delta = 0.0 - rows[task][old_j]
                    delta = wc * comm_delta / cr + wb * balance_delta / br
                else:
                    if order:
                        pos += 1  # the drop-check double was consumed
                    # integers(0, n_ready)
                    if n_ready == 1:
                        task = 0
                    else:
                        if half is not None:
                            u32 = half
                            half = None
                        else:
                            u32 = lo[pos]
                            half = hi[pos]
                            pos += 1
                        m = u32 * n_ready
                        leftover = m & _M32
                        if leftover < n_ready:  # pragma: no cover
                            threshold = (4294967296 - n_ready) % n_ready
                            while leftover < threshold:
                                if half is not None:
                                    u32 = half
                                    half = None
                                else:
                                    if pos >= blen:
                                        refill()
                                    u32 = lo[pos]
                                    half = hi[pos]
                                    pos += 1
                                m = u32 * n_ready
                                leftover = m & _M32
                        task = m >> 32
                    cur = assign[task]
                    if cur < 0:
                        # integers(0, n_idle)
                        if n_idle == 1:
                            new_j = 0
                        else:
                            if half is not None:
                                u32 = half
                                half = None
                            else:
                                u32 = lo[pos]
                                half = hi[pos]
                                pos += 1
                            m = u32 * n_idle
                            leftover = m & _M32
                            if leftover < n_idle:  # pragma: no cover
                                threshold = (4294967296 - n_idle) % n_idle
                                while leftover < threshold:
                                    if half is not None:
                                        u32 = half
                                        half = None
                                    else:
                                        if pos >= blen:
                                            refill()
                                        u32 = lo[pos]
                                        half = hi[pos]
                                        pos += 1
                                    m = u32 * n_idle
                                    leftover = m & _M32
                            new_j = m >> 32
                    elif n_idle == 1:
                        new_j = -1  # nowhere else to go: zero-delta proposal
                    else:
                        # integers(0, n_idle - 1), skipping the current slot
                        bound = n_idle - 1
                        if bound == 1:
                            idx = 0
                        else:
                            if half is not None:
                                u32 = half
                                half = None
                            else:
                                u32 = lo[pos]
                                half = hi[pos]
                                pos += 1
                            m = u32 * bound
                            leftover = m & _M32
                            if leftover < bound:  # pragma: no cover
                                threshold = (4294967296 - bound) % bound
                                while leftover < threshold:
                                    if half is not None:
                                        u32 = half
                                        half = None
                                    else:
                                        if pos >= blen:
                                            refill()
                                        u32 = lo[pos]
                                        half = hi[pos]
                                        pos += 1
                                    m = u32 * bound
                                    leftover = m & _M32
                            idx = m >> 32
                        if idx >= cur:
                            idx += 1
                        new_j = idx
                    if new_j >= 0:
                        brow = brows[task]
                        row = rows[task]
                        occupant = occ[new_j]
                        if occupant < 0:
                            kind = 2
                            if cur >= 0:
                                balance_delta = 0.0 + brow[cur]
                                comm_delta = 0.0 - row[cur]
                            else:
                                balance_delta = 0.0
                                comm_delta = 0.0
                            balance_delta -= brow[new_j]
                            comm_delta += row[new_j]
                        elif cur < 0:
                            kind = 3
                            balance_delta = 0.0 + brows[occupant][new_j]
                            comm_delta = 0.0 - rows[occupant][new_j]
                            balance_delta -= brow[new_j]
                            comm_delta += row[new_j]
                        else:
                            kind = 4
                            balance_delta = 0.0 + brow[cur]
                            comm_delta = 0.0 - row[cur]
                            balance_delta -= brow[new_j]
                            comm_delta += row[new_j]
                            occ_brow = brows[occupant]
                            occ_row = rows[occupant]
                            balance_delta += occ_brow[new_j]
                            comm_delta -= occ_row[new_j]
                            balance_delta -= occ_brow[cur]
                            comm_delta += occ_row[cur]
                        delta = wc * comm_delta / cr + wb * balance_delta / br
            # ---- accept ------------------------------------------------- #
            n_proposals += 1
            if inline:
                exponent = delta / temperature
                if exponent > 500.0:
                    probability = 0.0
                elif exponent < -500.0:
                    probability = 1.0
                else:
                    probability = 1.0 / (1.0 + exp(exponent))
            else:
                probability = probability_of(delta, temperature)
            if probability >= 1.0:
                accepted = True
            elif probability <= 0.0:
                accepted = False
            else:
                accepted = dbl[pos] < probability
                pos += 1
            if accepted:
                # Apply in place, reproducing the dict-insertion order
                # PacketMapping's assign/unassign/swap would leave.
                if kind == 1:
                    assign[task] = -1
                    occ[old_j] = -1
                    del order[vidx]
                elif kind == 2:
                    if cur >= 0:
                        occ[cur] = -1
                        order.remove(task)
                    assign[task] = new_j
                    occ[new_j] = task
                    order.append(task)
                elif kind == 3:
                    assign[occupant] = -1
                    order.remove(occupant)
                    assign[task] = new_j
                    occ[new_j] = task
                    order.append(task)
                elif kind == 4:
                    assign[task] = new_j
                    assign[occupant] = cur
                    occ[new_j] = task
                    occ[cur] = occupant
                n_accepted += 1
                cost = cost + delta
                if cost < best_cost:
                    best_cost = cost
                    best_assign = assign.copy()
                    best_order = order.copy()
        # Per-temperature resynchronization against incremental-cost drift.
        resynced = full_cost()
        if abs(resynced - cost) > annealer.resync_tolerance:
            cost = resynced
        outer += 1
        if (yield temperature, cost):
            break

    return AnnealingResult(
        best_state=PacketMapping({i: best_assign[i] for i in best_order}),
        best_cost=best_cost,
        final_state=PacketMapping({i: assign[i] for i in order}),
        final_cost=cost,
        n_iterations=outer,
        n_proposals=n_proposals,
        n_accepted=n_accepted,
        trajectory=[],
    )


def _stop(walk) -> AnnealingResult:
    """Tell a walk paused after a step to stop there; return its result."""
    try:
        walk.send(True)
    except StopIteration as done:
        return done.value


def _run(walk, stopping) -> Tuple[AnnealingResult, List[Sample]]:
    """Drive *walk* under a stopping rule; its result and per-step samples."""
    stopping.reset()
    samples = [next(walk)]
    while not stopping.should_stop(len(samples) - 1, samples[-1][1]):
        samples.append(walk.send(False))
    return _stop(walk), samples


def anneal_array(
    kernel: PacketKernel,
    problem,
    annealer: Annealer,
    rng,
) -> AnnealingResult:
    """Single-chain annealing walk over flat array state.

    Same contract as ``annealer.run(problem, rng)`` on the kernel-backed
    problem — a bit-identical result for a fixed seed, insertion order of
    the mappings included — for every acceptance rule and stopping rule.
    """
    return _run(_array_walk(kernel, problem, annealer, rng), annealer.stopping)[0]


# --------------------------------------------------------------------------- #
# Multi-start replicas and portfolio lanes
# --------------------------------------------------------------------------- #

def anneal_replicas_batched(
    kernel: PacketKernel,
    problem,
    annealer: Annealer,
    rngs,
    plan=None,
) -> Tuple[List[AnnealingResult], List[List[Sample]]]:
    """Anneal ``len(rngs)`` lanes over one shared kernel.

    Lane *b* is a scalar :func:`anneal_array` walk consuming ``rngs[b]``, so
    its result is bit-identical to a single-chain run on that generator.
    The second return value holds one ``(temperature, cost)`` sample per
    lane per temperature step (the post-resync cost the stopping rule saw) —
    the raw material of variance studies and of portfolio racing.

    Without a *plan* the lanes are multi-start replicas of *problem*, each
    walked to its own stop under ``annealer.stopping``.

    With a *plan* (:class:`repro.annealing.portfolio.LanePlan`, duck-typed)
    the lanes are heterogeneous: lane *b* seeds from ``plan.problems[b]``,
    cools via ``plan.coolings[b]`` from ``plan.t0s[b]``, and stops on the
    annealer's stall rule or on its own (mutable) entry of ``plan.budgets``
    instead of the annealer's step cap.  All lanes advance one temperature
    step at a time; after each step ``plan.controller.on_step`` may cull
    lanes (rung racing) and raise the survivors' budgets in place.  Culled
    or not, lane *b* replays as a scalar run capped at its recorded
    ``n_iterations``.
    """
    if plan is None:
        results, trajectories = [], []
        for rng in rngs:
            result, samples = _run(
                _array_walk(kernel, problem, annealer, rng), annealer.stopping
            )
            results.append(result)
            trajectories.append(samples)
        return results, trajectories
    return _race(kernel, annealer, rngs, plan)


def _stall_rule(stopping) -> StallStopping:
    """The stall rule inside the annealer's stopping rule (lanes reuse it)."""
    rules = stopping.rules if type(stopping) is CombinedStopping else [stopping]
    for rule in rules:
        if type(rule) is StallStopping:
            return rule
    raise ValueError("a lane plan needs a StallStopping rule in the annealer")


def _race(kernel: PacketKernel, annealer: Annealer, rngs, plan):
    """Step every lane of *plan* in turn; let the controller cull between steps."""
    B = len(rngs)
    budgets = plan.budgets  # mutated in place by the controller
    controller = plan.controller
    if not (len(plan.problems) == len(plan.coolings) == len(plan.t0s) == len(budgets) == B):
        raise ValueError("lane plan arrays must have one entry per lane")
    stall = _stall_rule(annealer.stopping)
    stalls = [StallStopping(stall.patience, stall.tolerance) for _ in range(B)]
    walks = [
        _array_walk(
            kernel, plan.problems[b], annealer, rngs[b], plan.coolings[b], float(plan.t0s[b])
        )
        for b in range(B)
    ]
    samples = [next(walk) for walk in walks]
    results: List[AnnealingResult] = [None] * B
    trajectories: List[List[Sample]] = [[] for _ in range(B)]
    n_iters = [0] * B  # 0 while a lane walks, then the steps it ran
    active = list(range(B))
    step = 0
    while active:
        step += 1
        walking = []
        for b in active:
            trajectories[b].append(samples[b])
            # The stall rule sees every step, whatever the budget says.
            if stalls[b].should_stop(step - 1, samples[b][1]) or step >= budgets[b]:
                n_iters[b] = step
                results[b] = _stop(walks[b])
            else:
                walking.append(b)
        culled = (
            controller.on_step(step, walking, budgets, n_iters, trajectories)
            if walking
            else []
        )
        for b in culled:
            n_iters[b] = step
            results[b] = _stop(walks[b])
        active = [b for b in walking if b not in culled]
        for b in active:
            samples[b] = walks[b].send(False)
    return results, trajectories


# --------------------------------------------------------------------------- #
# FastPacket -> index-space packet + kernel (the SA fast_assign front end)
# --------------------------------------------------------------------------- #

def compile_fast_packet(
    fast_packet,
    weight_balance: float = 0.5,
    weight_comm: float = 0.5,
) -> Tuple[AnnealingPacket, PacketKernel]:
    """Lower one fast-engine epoch into an annealing packet and its kernel.

    *fast_packet* is a :class:`~repro.sim.compile.FastPacket` (duck-typed to
    avoid a core → sim import).  Ready tasks keep their dense graph indices
    as identifiers, predecessor placements come straight off the scenario's
    CSR arrays, and the kernel's communication table is gathered from the
    precompiled per-edge equation-4 tensor — one predecessor row at a time,
    the accumulation order of :func:`~repro.comm.model.comm_cost_table` — so
    the tables (and therefore every annealing decision) are bit-identical to
    the ones the materialized-context path would build.
    """
    sc = fast_packet.scenario
    machine = sc.machine
    ready = list(fast_packet.ready)
    idle = list(fast_packet.idle)
    levels_list = sc.levels_list
    indptr = sc.pred_indptr_list
    pred_ids = sc.pred_ids_list
    pred_weights = sc.pred_weights
    assigned = fast_packet.assigned_proc
    placement = {}
    for ti in ready:
        entries = []
        for e in range(indptr[ti], indptr[ti + 1]):
            p = pred_ids[e]
            entries.append((p, int(assigned[p]), float(pred_weights[e])))
        placement[ti] = tuple(entries)
    packet = AnnealingPacket(
        time=fast_packet.time,
        ready_tasks=tuple(ready),
        idle_processors=tuple(idle),
        levels={ti: levels_list[ti] for ti in ready},
        predecessor_placement=placement,
    )
    comm_model = sc.comm_model
    table = np.zeros((len(ready), len(idle)), dtype=np.float64)
    if comm_model.enabled and sc._pred_costs is not None:
        procs = np.asarray(idle, dtype=np.intp)
        pc = sc._pred_costs
        for i, ti in enumerate(ready):
            row = table[i]
            for e in range(indptr[ti], indptr[ti + 1]):
                row += pc[e, int(assigned[pred_ids[e]]), procs]
    kernel = PacketKernel.from_tables(
        packet, machine, comm_model, table, weight_balance, weight_comm
    )
    return packet, kernel
