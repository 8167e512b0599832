"""The table-driven walks, the run's one price object (its ledger
snapshot), the candidate build that merges its sorted streams, the
per-config destination ranking, the verifier that reads each segment's
grid at its two ends and the instance hash that splices in the config's
cached JSON against plain reference implementations.

``utility_breakdown`` reads payments from the snapshot of the ledger that
``dispatch`` keeps for the whole run and also hands to the candidate
build: running sums of the out-of-service payments from their first slot,
each charging window's cable, energy and generation payments, kept per
window, and per-cell lookups of the rest in the snapshot's payments, kept
by key for the whole run. It skips the cable, energy and generation
payments of a plan that its destination and out-of-service payments
already put below the floor, the larger of the best utility so far and
zero, and ``dispatch`` stops at the first candidate whose value less the
out-of-service payment of its first slot is below that floor. It prices
the rebalances first, and ``feasible_schedules`` builds no charging plan
when none can reach the floor they leave; a dispatch that reads and
prices every candidate in full must decide alike. Candidates are plain
tuples; each is made into its ``Schedule`` (``conftest.as_plans``) to
meet the references.
``primal_increment`` walks a schedule's demands on the config's cells,
and ``Snapshot.commit`` walks them once in the dual order, returning the
dual increment; the snapshot's posted cable, energy and charging prices
are re-posted by each commit, which drops the memos that read a cell it
moved; ``feasible_schedules`` sums cable prices as running sums from the
arrival slot, kept per EVSE in each window list, stops its EVSE scan at
the first empty EVSE, ranks each window's slots once, reads one list of distinct
windows per (facility, arrival slot, target), kept in the snapshot until
a charging commit at the facility, and stops ordering charging tuples
at the candidate cap, and merges them lazily from the destination batches ranked
once per config; ``rebalances`` values the origin's batches lazily too,
and ``ranked`` merges the two tuples as they are; ``upper_bound`` and the
threshold baselines read the same ranking. ``upper_bound`` stops each walk
over the hop rings at the first ring that cannot win, and the threshold
charging move picks its EVSE once per start delay. The exact search
walks each option's compiled cell checks inline and cuts a child before
writing its loads, where the reference calls the ledger. Each must give exactly
what the family-by-family or destination-by-destination versions below
give: the same floats, compared with ``==``, and the same schedules in the
same order, on every session of runs whose ledger changes between
sessions. Summation order is where a generic walk or a running sum could
move a bit, and rounding is where a batch cut could reorder two plans.
The references, the slot-by-slot EVSE and slot pickers included, live
here so that reworking the package cannot also rewrite its oracle.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from evdispatch import MONEY_ATOL, baselines, dispatcher, economics, pricing, schedules
from evdispatch.dispatcher import (
    DispatcherState, dispatch, run_online, utility_breakdown,
)
from evdispatch.domain import (
    PriceBreakdown, ResourceLedger, Schedule, as_plain, facility_legs, hop_row,
    instance_hash,
)
from evdispatch.harness import PRESETS, generate_scenario, read_config, write_config
from evdispatch.offline import exact_offline, upper_bound
from evdispatch.schedules import (
    DEFAULT_POLICY, MAX_CANDIDATE_FACILITIES, MAX_START_OFFSET, GenerationPolicy,
    feasible_schedules, make_plan, ranked, rebalances,
)
from evdispatch.pricing import (
    CABLE, DESTINATION, ENERGY, FAMILIES, GENERATION, OUT_OF_SERVICE, Snapshot,
    cell_shape, charge_slots,
)

from conftest import as_plans, twin_state


def with_breakdown(priced):
    """``utility_breakdown``'s (utility, payments) as the (utility,
    ``PriceBreakdown``) the references give; None stays None."""
    if priced is None:
        return None
    u, payments = priced
    return u, PriceBreakdown(*payments)


def trial_commit(prices, schedule, u):
    """The dual increment ``prices.commit`` returns for ``schedule`` at
    utility u, with every load it wrote put back afterwards. Its posted
    prices are then stale: the snapshot serves only such trials."""
    loads = prices.loads
    kept = [(k, i, loads[k][i]) for k, i, _, _ in prices.cells.demands(schedule)]
    out = prices.commit(schedule, u)
    for k, i, y in kept:
        loads[k][i] = y
    return out


def recorded_commits(monkeypatch):
    """Every (schedule, dual increment) a ``Snapshot.commit`` returns from
    here on, in order."""
    commit, out = Snapshot.commit, []

    def recorded(self, schedule, u):
        step = commit(self, schedule, u)
        out.append((schedule, step))
        return step
    monkeypatch.setattr(Snapshot, "commit", recorded)
    return out


def _coordinates(config):
    """Each family's cell coordinates, in ledger order."""
    return [[where for where, _ in family.cells(config)] for family in FAMILIES]


def _loads(config, ledger, coordinates):
    """Family-by-family views of the flat ledger, indexed as the
    references read them: cable and energy [f][m][t], generation [f][t],
    out of service [t] and destination [d][t], with t 0-based."""
    def view(family):
        loads = dict(zip(coordinates[family], ledger.loads[family]))
        return lambda *cell: loads[cell]

    cable, energy, generation, destination, idle = (
        view(k) for k in (CABLE, ENERGY, GENERATION, DESTINATION, OUT_OF_SERVICE))
    slots = range(1, config.horizon + 1)
    evses = [range(fac.evse_count) for fac in config.facilities]
    return (
        [[[cable(f, m, t) for t in slots] for m in ms] for f, ms in enumerate(evses)],
        [[[energy(f, m, t) for t in slots] for m in ms] for f, ms in enumerate(evses)],
        [[generation(f, t) for t in slots] for f in range(len(evses))],
        [idle(t) for t in slots],
        [[destination(d, t) for t in slots] for d in range(len(config.regions))],
    )


def reference_utility_breakdown(schedule, state, loads):
    """Every payment integrated afresh from the ledger, family by family."""
    config, bounds, psi_ = state.config, state.posted.bounds, state.posted.psi
    y_c, y_e, y_g, y_o, y_d = loads
    d, tp = schedule.dest_region, schedule.t_plus
    pay_dest = pricing.destination_payment(
        y_d[d][tp - 1], y_d[d][tp - 1] + 1,
        config.regions[d].vehicle_limit[tp - 1], bounds, psi_)
    pay_oos = 0.0
    for t in schedule.out_of_service_slots:
        y = y_o[t - 1]
        pay_oos += pricing.out_of_service_payment(
            y, y + 1, config.out_of_service_cap[t - 1],
            config.out_of_service_penalty[t - 1], bounds, psi_)
    pay_cable = pay_energy = pay_gen = 0.0
    if schedule.charging:
        f, m = schedule.facility_id, schedule.evse_index
        fac = config.facilities[f]
        for t in schedule.cable_slots:
            y = y_c[f][m][t - 1]
            pay_cable += pricing.cable_payment(y, y + 1, fac.cables_per_evse,
                                               bounds, psi_)
        for t, e in schedule.energy_slots:
            ye = y_e[f][m][t - 1]
            pay_energy += pricing.energy_payment(ye, ye + e, fac.evse_energy_limit,
                                                 bounds, psi_)
            yg = y_g[f][t - 1]
            pay_gen += pricing.generation_payment(
                yg, yg + e, fac.solar[t - 1], fac.grid_limit[t - 1],
                fac.grid_price[t - 1], bounds, psi_)
    breakdown = PriceBreakdown(destination=pay_dest, out_of_service=pay_oos,
                               cable=pay_cable, energy=pay_energy,
                               generation=pay_gen)
    return schedule.value - breakdown.total, breakdown


def reference_dual_increment(schedule, u, state, loads):
    """Every conjugate's move priced afresh, family by family."""
    config, bounds, psi_ = state.config, state.posted.bounds, state.posted.psi
    y_c, y_e, y_g, y_o, y_d = loads
    total = u

    d, tp = schedule.dest_region, schedule.t_plus
    dest = cell_shape(DESTINATION, config.regions[d].vehicle_limit[tp - 1])
    y = y_d[d][tp - 1]
    total += (dest.conj(dest.price(y + 1, bounds, psi_))
              - dest.conj(dest.price(y, bounds, psi_)))

    for t in schedule.out_of_service_slots:
        idle = cell_shape(OUT_OF_SERVICE, config.out_of_service_cap[t - 1],
                          config.out_of_service_penalty[t - 1])
        y = y_o[t - 1]
        total += (idle.conj(idle.price(y + 1, bounds, psi_))
                  - idle.conj(idle.price(y, bounds, psi_)))

    if schedule.charging:
        f = schedule.facility_id
        m = schedule.evse_index
        fac = config.facilities[f]
        cable = cell_shape(CABLE, fac.cables_per_evse)
        energy = cell_shape(ENERGY, fac.evse_energy_limit)
        for t in schedule.cable_slots:
            y = y_c[f][m][t - 1]
            total += (cable.conj(cable.price(y + 1, bounds, psi_))
                      - cable.conj(cable.price(y, bounds, psi_)))
        for t, e in schedule.energy_slots:
            ye = y_e[f][m][t - 1]
            total += (energy.conj(energy.price(ye + e, bounds, psi_))
                      - energy.conj(energy.price(ye, bounds, psi_)))
            generation = cell_shape(GENERATION, fac.solar[t - 1], fac.grid_limit[t - 1],
                                    fac.grid_price[t - 1])
            yg = y_g[f][t - 1]
            total += (generation.conj(generation.price(yg + e, bounds, psi_))
                      - generation.conj(generation.price(yg, bounds, psi_)))
    return total


def reference_primal_increment(schedule, state, loads):
    """Generation costs first, then out-of-service penalties."""
    config = state.config
    _, _, y_g, y_o, _ = loads
    delta = schedule.value
    if schedule.charging:
        fac = config.facilities[schedule.facility_id]
        for t, e in schedule.energy_slots:
            y0 = y_g[schedule.facility_id][t - 1]
            generation = cell_shape(GENERATION, fac.solar[t - 1], fac.grid_limit[t - 1],
                                    fac.grid_price[t - 1])
            delta -= generation.cost(y0 + e) - generation.cost(y0)
    for t in schedule.out_of_service_slots:
        idle = cell_shape(OUT_OF_SERVICE, config.out_of_service_cap[t - 1],
                          config.out_of_service_penalty[t - 1])
        y0 = y_o[t - 1]
        delta -= idle.cost(y0 + 1) - idle.cost(y0)
    return delta


class ReferencePostedPrices:
    """Posted cable and charging prices, each (facility, EVSE, slot) looked
    up once per session and each price computed once per shape and load."""

    def __init__(self, ledger, bounds, psi_):
        self.ledger = ledger
        self.bounds = bounds
        self.psi = psi_
        self._cable = {}
        self._charge = {}
        self._at = {}

    def _posted(self, k, i):
        shape = self.ledger.cells.shapes[k][i]
        y = min(self.ledger.loads[k][i], shape.cap)
        p = self._at.get((shape, y))
        if p is None:
            p = self._at[shape, y] = shape.price(y, self.bounds, self.psi)
        return p

    def cable(self, fid, m, t):
        key = (fid, m, t)
        p = self._cable.get(key)
        if p is None:
            p = self._cable[key] = self._posted(CABLE, self.ledger.cells.evse_cell(fid, m, t))
        return p

    def charge(self, fid, m, t):
        key = (fid, m, t)
        p = self._charge.get(key)
        if p is None:
            cells = self.ledger.cells
            p = self._posted(ENERGY, cells.evse_cell(fid, m, t))
            g = cells.facility_cell(fid, t)
            if cells.shapes[GENERATION][g].cap > 0:
                p += self._posted(GENERATION, g)
            self._charge[key] = p
        return p


def reference_pick_evse(fid, fac, window, prices):
    """The EVSE whose cable prices, summed slot by slot over the window,
    are cheapest; ties to the lower index."""
    best_m, best_cost = 0, math.inf
    for m in range(fac.evse_count):
        cost = 0.0
        for t in window:
            cost += prices.cable(fid, m, t)
        if cost < best_cost - 1e-15:
            best_m, best_cost = m, cost
    return best_m


def reference_pick_slots(fid, m, fac, window, k, prices):
    """The k cheapest slots by charging price, ties to the earlier slot, in
    chronological order; a slot without generation is priced infinite."""
    priced = []
    for t in window:
        if fac.solar[t - 1] + fac.grid_limit[t - 1] > 0:
            priced.append((prices.charge(fid, m, t), t))
        else:
            priced.append((math.inf, t))
    priced.sort()
    return sorted(t for _, t in priced[:k])


def reference_assign_energy(chosen, target, rate, fid, m, fac, prices):
    """Full rate on the cheaper slots, the remainder on the dearest one."""
    k = len(chosen)
    rem = target - (k - 1) * rate
    if k == 1:
        return [(chosen[0], min(target, rate))]
    worst_t, worst_p = chosen[0], -math.inf
    for t in chosen:
        p = prices.charge(fid, m, t)
        if p > worst_p + 1e-15:
            worst_t, worst_p = t, p
    return [(t, rem if t == worst_t else rate) for t in chosen]


def reference_feasible_schedules(session, config, ledger, bounds, psi_, policy):
    """Enumerate every tuple with a hop lookup each, sort them all, and
    pick the EVSE afresh for every window."""
    T = config.horizon
    if session.t_minus >= T:
        return []
    cap = config.battery_capacity
    e_hop = config.per_hop_energy
    pen = config.per_hop_value_penalty
    slope = config.soc_value_slope
    energy0 = session.soc * cap
    t0 = session.t_minus

    tuples = []
    for dest in range(len(config.regions)):
        h2 = hop_row(session.origin_region, config)[dest]
        if h2 < 0:
            continue
        if energy0 - h2 * e_hop < -MONEY_ATOL or t0 + h2 > T:
            continue
        final = energy0 - h2 * e_hop
        v = slope * final + config.regions[dest].pickup_value - pen * h2
        tuples.append((v, -1, 0.0, dest, 0, h2, 0))
    facs = []
    for fac in config.facilities:
        h1 = hop_row(session.origin_region, config)[fac.region_id]
        if h1 < 0 or energy0 - h1 * e_hop < -MONEY_ATOL or t0 + h1 > T:
            continue
        facs.append((h1, fac.id))
    facs = sorted(facs)[:MAX_CANDIDATE_FACILITIES]
    for h1, fid in facs:
        fac = config.facilities[fid]
        arrival_energy = energy0 - h1 * e_hop
        t_arr = t0 + h1
        rate = pricing.effective_charge_rate(fac)
        for target in pricing.default_charge_targets(config):
            if target > cap - arrival_energy + MONEY_ATOL:
                break
            k = math.ceil(target / rate - 1e-12)
            if t_arr + k - 1 > T:
                continue
            for dest in range(len(config.regions)):
                h2 = hop_row(fac.region_id, config)[dest]
                if h2 < 0:
                    continue
                final = arrival_energy + target - h2 * e_hop
                if final < -MONEY_ATOL or t_arr + k - 1 + h2 > T:
                    continue
                v = slope * final + config.regions[dest].pickup_value - pen * (h1 + h2)
                tuples.append((v, fid, target, dest, h1, h2, k))
    tuples.sort(key=lambda tup: (-tup[0], tup[1], tup[2], tup[3]))

    prices = ReferencePostedPrices(ledger, bounds, psi_)
    out, seen, built = [], set(), 0
    for v, fid, target, dest, h1, h2, k in tuples:
        if fid < 0:
            out.append(Schedule(
                session_id=session.id, t_minus=t0, facility_id=None,
                evse_index=None, t_arrival=None, cable_slots=(), energy_slots=(),
                dest_region=dest, t_plus=t0 + h2, hops_total=h2,
                final_soc=(energy0 - h2 * e_hop) / cap, value=v))
            continue
        fac = config.facilities[fid]
        t_arr = t0 + h1
        rate = pricing.effective_charge_rate(fac)
        for w in range(MAX_START_OFFSET + 1):
            if built >= policy.max_candidates_total:
                break
            window = list(range(t_arr, min(T - h2, t_arr + k - 1 + w) + 1))
            if len(window) < k:
                continue
            evse = reference_pick_evse(fid, fac, window, prices)
            chosen = reference_pick_slots(fid, evse, fac, window, k, prices)
            energy_slots = tuple(reference_assign_energy(chosen, target, rate, fid,
                                                         evse, fac, prices))
            key = (fid, evse, energy_slots, dest, chosen[-1] + h2)
            if key in seen:
                continue
            seen.add(key)
            built += 1
            out.append(Schedule(
                session_id=session.id, t_minus=t0, facility_id=fid,
                evse_index=evse, t_arrival=t_arr,
                cable_slots=tuple(range(t_arr, chosen[-1] + 1)),
                energy_slots=energy_slots, dest_region=dest,
                t_plus=chosen[-1] + h2, hops_total=h1 + h2,
                final_soc=(energy0 - h1 * e_hop + target - h2 * e_hop) / cap,
                value=v))
    out.sort(key=reference_key)
    return out


def reference_key(s):
    """Descending value, then a canonical structural tie-break."""
    return (-s.value,
            -1 if s.facility_id is None else s.facility_id,
            -1 if s.evse_index is None else s.evse_index,
            s.energy_slots, s.dest_region, s.t_plus)


RUNS = {
    # a short lightly loaded day
    "desk": dataclasses.replace(PRESETS["desk"], max_sessions=120),
    # congested: one facility of 2 EVSEs, Omega = 3 and I = 25, where
    # payments run up the steep end of the curves and past capacity
    "rush": dataclasses.replace(PRESETS["rush"], max_sessions=400),
    # 8 facilities of 10 EVSEs, most of them empty: ties among EVSEs
    "full": dataclasses.replace(PRESETS["full"], max_sessions=150),
    # a charge increment below the fair-share rate of 5 kWh a slot, so
    # that two charge targets at one facility share a slot count
    "shared-k": dataclasses.replace(PRESETS["desk"], charge_increment=2.5, max_sessions=120),
}


def reference_p0(session, state, loads):
    """The out-of-service payment of the session's first slot, integrated
    afresh: every plan pays at least this much."""
    config, t = state.config, session.t_minus
    y = loads[3][t - 1]
    return pricing.out_of_service_payment(
        y, y + 1, config.out_of_service_cap[t - 1], config.out_of_service_penalty[t - 1],
        state.posted.bounds, state.posted.psi)


def read_everything_dispatch(session, state):
    """``dispatch`` with no stop and no skip: every candidate priced in full
    at a fresh snapshot of the live ledger, and the argmax by (utility,
    earlier arrival, lower index), as (schedule, utility, breakdown, dual
    increment); None where that utility is not positive."""
    config, bounds, psi_ = state.config, state.posted.bounds, state.posted.psi
    live = Snapshot(state.posted.ledger, bounds, psi_)
    candidates = list(ranked(rebalances(session, config),
                             feasible_schedules(session, config, live, state.policy)))
    best_key = best = None
    for idx, plan in enumerate(candidates):
        u, payments = utility_breakdown(plan, live)
        key = (u, -plan[5], -idx)
        if best_key is None or key > best_key:
            best_key, best = key, (plan, u, payments)
    if best is None or best[1] <= 0.0:
        return None
    plan, u, payments = best
    [schedule] = as_plans(session, config, [plan])
    copy = Snapshot(ResourceLedger(config.cells, [list(loads) for loads in live.loads]),
                    bounds, psi_)
    return schedule, u, PriceBreakdown(*payments), copy.commit(schedule, u)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_memo_and_build_match_the_references(name, monkeypatch):
    config, sessions = generate_scenario(3, RUNS[name])
    state = DispatcherState.fresh(config)
    # every utility dispatch asks for, read from its snapshot, with the
    # floor, max(best utility so far, 0), that it passed
    inside = []

    def recorded(plan, prices, best):
        out = utility_breakdown(plan, prices, best)
        inside.append((plan, best, out))
        return out
    monkeypatch.setattr(dispatcher, "utility_breakdown", recorded)
    # every charging build dispatch asks for, with the floor it passed
    built = []

    def recorded_build(session, config, prices, policy, floor):
        out = feasible_schedules(session, config, prices, policy, floor)
        built.append((floor, out))
        return out
    monkeypatch.setattr(dispatcher, "feasible_schedules", recorded_build)

    coordinates = _coordinates(config)
    priced = skipped = stopped = committed = cut = 0
    # dual increments of plans that are not committed, on a copy of the loads
    trials = Snapshot(ResourceLedger(config.cells, [list(loads) for loads in
                                                    state.posted.ledger.loads]),
                      state.posted.bounds, state.posted.psi)
    commits = recorded_commits(monkeypatch)
    for session in sessions:
        bounds, psi_ = state.posted.bounds, state.posted.psi
        live = Snapshot(state.posted.ledger, bounds, psi_)
        for trial, loads in zip(trials.loads, state.posted.ledger.loads):
            trial[:] = loads
        charging = feasible_schedules(session, config, live, state.policy)
        candidates = list(ranked(rebalances(session, config), charging))
        plans = as_plans(session, config, candidates)
        assert plans == reference_feasible_schedules(
            session, config, state.posted.ledger, bounds, psi_, state.policy)
        loads = _loads(config, state.posted.ledger, coordinates)
        expected = [reference_utility_breakdown(s, state, loads) for s in plans]
        of = dict(zip(candidates, zip(plans, expected)))
        dual_steps = {}
        for plan, schedule, (u, breakdown) in zip(candidates, plans, expected):
            # outside dispatch, a snapshot of the live ledger
            assert with_breakdown(utility_breakdown(plan, live)) == (u, breakdown)
            # increments are taken of schedules that fit, as every committed
            # one does
            if state.posted.ledger.fits(schedule):
                dual_steps[schedule] = reference_dual_increment(schedule, u, state, loads)
                assert trial_commit(trials, schedule, u) == dual_steps[schedule]
                assert (economics.primal_increment(state.posted.ledger, schedule)
                        == reference_primal_increment(schedule, state, loads))
        everything = read_everything_dispatch(session, state)
        p0 = reference_p0(session, state, loads)
        dual_before = state.dual_trajectory[-1]
        inside.clear()
        commits.clear()
        built.clear()
        decision = dispatch(session, state)
        # dispatch prices the rebalances first, then the charging plans
        # that its build returns; each stream up to the first candidate
        # whose value less p0 is below the floor, max(best utility so far,
        # 0), skipping the cable, energy and generation payments of exactly
        # those whose value less their destination and out-of-service
        # payments is below it. The build gets the floor the rebalances
        # leave, and returns every charging plan or, when none reaches that
        # floor, none
        [(floor_passed, charges)] = built
        assert charges in (charging, [])
        read = [plan for plan, _, _ in inside]
        n = sum(plan[1] < 0 for plan in read)
        streams = [plan for plan in candidates if plan[1] < 0], charges
        assert read == streams[0][:n] + charges[:len(read) - n]
        floor = 0.0
        for part, stream in zip((inside[:n], inside[n:]), streams):
            for plan, best, out in part:
                schedule, (u, breakdown) = of[plan]
                assert best == floor
                assert not schedule.value - p0 < floor
                if schedule.value - (breakdown.destination + breakdown.out_of_service) < floor:
                    skipped += 1
                    assert out is None
                else:
                    assert with_breakdown(out) == (u, breakdown)
                    priced += 1
                    floor = max(floor, u)
            if len(part) < len(stream):
                stopped += 1
                assert of[stream[len(part)]][0].value - p0 < floor
            if stream is streams[0]:
                assert floor_passed == floor
        if charging and not charges:
            # no charging plan can win, tie or be accepted
            cut += 1
            assert all(of[plan][1][0] < floor_passed for plan in charging)
        # and decides as the argmax over every candidate would
        best_key, best = None, None
        for idx, (schedule, (u, breakdown)) in enumerate(zip(plans, expected)):
            key = (u, -schedule.t_plus, -idx)
            if best_key is None or key > best_key:
                best_key, best = key, (schedule, u, breakdown)
        if best_key is None or best_key[0] <= 0.0:
            assert decision.is_depot and everything is None
        else:
            assert (decision.schedule, decision.utility, decision.breakdown) == best
        # and as dispatch does with no stop and no skip, dual increment included
        if everything is None:
            assert decision.is_depot and commits == []
            assert state.dual_trajectory[-1] == dual_before
        else:
            schedule, u, breakdown, step = everything
            assert (decision.schedule, decision.utility, decision.breakdown) == (
                schedule, u, breakdown)
            assert commits == [(decision.schedule, step)]
            assert step == dual_steps[schedule]
            assert state.dual_trajectory[-1] == dual_before + step
            committed += 1
    assert committed > len(sessions) // 2
    # the cut leaves about five plans priced per session on rush, nine to
    # thirteen elsewhere
    assert priced > 4 * len(sessions)
    assert skipped > 0 and stopped > 0 and cut > 0


def facility_memos(prices):
    """Every memo that ``prices`` files under a facility, by (facility,
    kind, key): its window lists and its windows' payments."""
    return {(f, "windows", key) for f, memo in enumerate(prices._windows) for key in memo}


def assert_memos_are_fresh(prices, where):
    """Every memo that ``prices`` keeps is what a fresh snapshot of its
    ledger gives at the memo's key: each out-of-service sum, and each
    window list with its windows, its EVSEs' cable sums and the payments
    of each of its windows that ``prices`` has paid. Returns how many
    windows it found paid."""
    fresh = Snapshot(prices.ledger, prices.bounds, prices.psi)
    for first, sums in prices._runs.items():
        fresh.run(first, len(sums))
        assert fresh._runs[first] == sums, where
    cells, paid = prices.cells, 0
    for f, kept in enumerate(prices._windows):
        for key, windows in kept.items():
            if len(key) != 2:
                continue  # a window's payments, checked with its list below
            (t_arr, target), fac = key, windows.fac
            rate = pricing.effective_charge_rate(fac)
            assert (fac.id, windows.t_arr, windows.rate) == (f, t_arr, rate), where
            k, last = charge_slots(target, rate)
            assert (windows.k, windows.last) == (k, last), where
            again = schedules._Windows(fac, t_arr, rate, k, last)
            again.extend(windows.next_end - 1, fresh)
            assert ((again.picked, again.next_end, again.sums)
                    == (windows.picked, windows.next_end, windows.sums)), where
            for _, m, slots, t_leave in windows.picked:
                if (t_arr, m, slots) not in kept:
                    continue
                paid += 1
                row = cells.evse_cell(f, m, 0)
                cable = energy = generation = 0.0
                for t, e in slots:
                    energy += fresh.pay(ENERGY, row + t, e)
                    generation += fresh.pay(GENERATION, cells.facility_cell(f, t), e)
                for t in range(t_arr, t_leave + 1):
                    cable += fresh.pay(CABLE, row + t)
                assert kept[t_arr, m, slots] == (cable, energy, generation), where
    return paid


def test_a_commit_drops_only_the_memos_that_read_its_cells(monkeypatch):
    """Only the run's snapshot outlives a dispatch call, and every memo it
    keeps reads the ledger as it is now: after every ``dispatch``, whether
    the vehicle charges, rebalances or goes to the depot, each kept
    out-of-service sum and window list, with its cable sums and its
    windows' payments, is the one a fresh snapshot of the ledger gives at
    its key. Every commit drops the out-of-service sums; a facility's
    window lists read only its own cells and outlive every commit but a
    charging one there. On a congested day of one facility, where nearly
    every plan is a rebalance, some session reads a facility memo kept
    across a rebalance commit. On a day of two facilities, a charging commit at one
    drops its memos and keeps every memo of the other. Each kept price
    and payment is the one a fresh curve gives at its key, so a twin
    state on a copy of the ledger's loads, with a snapshot of its own,
    reaches the same decision and breakdown, making at least as many
    payments."""
    config, sessions = generate_scenario(3, RUNS["rush"])
    calls = [0]

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)
        return wrapper
    for family in FAMILIES:
        name = family.name + "_payment"
        monkeypatch.setattr(pricing, name, counted(getattr(pricing, name)))

    # whether a dispatch reads a memo that the run's snapshot already held
    # when the dispatch began, and whether it reads a facility memo that
    # has outlived a rebalance commit
    state = DispatcherState.fresh(config)
    held, across, reread = set(), set(), {"held": False, "across": False}
    run, extend = Snapshot.run, schedules._Windows.extend

    def seen(memo):
        reread["held"] |= memo in held
        reread["across"] |= memo in across

    def tracked_run(self, first, n):
        if self is state.posted:
            seen(("run", first))
        return run(self, first, n)

    def tracked_extend(self, top, prices):
        if prices is state.posted:
            key = next(key for key, kept in prices._windows[self.fac.id].items()
                       if kept is self)
            seen((self.fac.id, "windows", key))
        return extend(self, top, prices)
    monkeypatch.setattr(Snapshot, "run", tracked_run)
    monkeypatch.setattr(schedules._Windows, "extend", tracked_extend)

    outcomes = set()
    warm = cold = rereads = kept_across = paid = 0
    for session in sessions:
        twin = twin_state(state)
        before = calls[0]
        expected = dispatch(session, twin)
        fresh_calls, before = calls[0] - before, calls[0]
        held = facility_memos(state.posted) | {("run", first) for first in state.posted._runs}
        reread.update(held=False, across=False)
        decision = dispatch(session, state)
        assert calls[0] - before <= fresh_calls
        warm, cold = warm + calls[0] - before, cold + fresh_calls
        assert decision == expected
        rereads += reread["held"]
        kept_across += reread["across"]
        if decision.is_depot:
            outcomes.add("depot")
        elif decision.schedule.charging:
            outcomes.add("charge")
            across = set()  # the one facility's memos are dropped
        else:
            outcomes.add("rebalance")
            # every facility memo now held was made before the commit
            across = facility_memos(state.posted)
        paid += assert_memos_are_fresh(state.posted, session)
    assert outcomes == {"depot", "charge", "rebalance"}
    assert warm < cold / 2 and paid > 0
    assert rereads > 0 and kept_across > 0

    bounds, psi_ = state.posted.bounds, state.posted.psi
    for (shape, y), p in state.posted._priced.items():
        assert p == shape.price(y, bounds, psi_)
    for (shape, y, amount), paid in state.posted._paid.items():
        function = getattr(pricing, shape.family.name + "_payment")
        assert paid == function(y, y + amount, *shape.args, bounds, psi_)

    config, sessions = generate_scenario(0, RUNS["desk"])
    assert len(config.facilities) == 2
    state = DispatcherState.fresh(config)
    kept_elsewhere = 0
    for session in sessions:
        posted = state.posted
        before = [dict(memo) for memo in posted._windows]
        decision = dispatch(session, state)
        f = None if decision.is_depot else decision.schedule.facility_id
        for g, was in enumerate(before):
            now = posted._windows[g]
            if g == f:
                assert now == {}, session
                continue
            assert all(now.get(key) is value for key, value in was.items()), session
            kept_elsewhere += f is not None and bool(was)
        assert_memos_are_fresh(posted, session)
    assert kept_elsewhere > 0


def test_a_run_decides_as_with_a_fresh_snapshot_before_every_dispatch():
    """The memos that a snapshot keeps across commits change no decision:
    a ``desk`` and a ``rush`` day, and the first 100 sessions of a
    ``full`` day of eight facilities, run again with a fresh snapshot of
    the ledger swapped in before every ``dispatch``, so that nothing is
    kept from one session to the next, give the same decisions,
    breakdowns and primal and dual trajectories."""
    for name, seed, n in (("desk", 0, None), ("rush", 1, None), ("full", 0, 100)):
        config, sessions = generate_scenario(seed, name)
        sessions = sessions[:n]
        kept, fresh = DispatcherState.fresh(config), DispatcherState.fresh(config)
        for session in sessions:
            dispatch(session, kept)
            posted = fresh.posted
            fresh.posted = Snapshot(posted.ledger, posted.bounds, posted.psi)
            dispatch(session, fresh)
        assert any(d.schedule is not None and d.schedule.charging for d in kept.decisions)
        assert kept.decisions == fresh.decisions, name
        assert kept.primal_trajectory == fresh.primal_trajectory, name
        assert kept.dual_trajectory == fresh.dual_trajectory, name


def test_a_plan_at_the_bar_is_priced_in_full(monkeypatch):
    """The skip in ``utility_breakdown`` is strict: a charging plan whose
    value less its destination and out-of-service payments equals the best
    utility so far is priced in full, and one a float below it is not."""
    config, sessions = generate_scenario(0, RUNS["desk"])
    session = sessions[0]
    state = DispatcherState.fresh(config)
    loads = _loads(config, state.posted.ledger, _coordinates(config))
    candidates = list(ranked(rebalances(session, config),
                             feasible_schedules(session, config, state.posted, state.policy)))
    plans = as_plans(session, config, candidates)
    assert plans == reference_feasible_schedules(session, config, state.posted.ledger,
                                                 state.posted.bounds, state.posted.psi,
                                                 state.policy)
    r = next(i for i, s in enumerate(plans) if not s.charging)
    i = next(i for i, s in enumerate(plans) if s.charging)
    first = candidates[r]
    bar = reference_utility_breakdown(plans[r], state, loads)[0]
    assert bar > 0  # so the floor that dispatch passes is the bar
    head = reference_utility_breakdown(plans[i], state, loads)[1]
    head = head.destination + head.out_of_service
    # a value that the subtraction takes back to the bar exactly
    value = next(v for v in (bar + head, math.nextafter(bar + head, -math.inf),
                             math.nextafter(bar + head, math.inf)) if v - head == bar)

    inside = []

    def recorded(plan, prices, best):
        out = utility_breakdown(plan, prices, best)
        inside.append((plan, best, out))
        return out
    monkeypatch.setattr(dispatcher, "utility_breakdown", recorded)
    # the rebalance first, then the plan on trial as the one charging plan
    monkeypatch.setattr(dispatcher, "rebalances", lambda *args: iter([first]))
    below = value
    while below - head == bar:
        below = math.nextafter(below, -math.inf)
    for trial_value, at in ((value, True), (below, False)):
        trial = (-trial_value,) + candidates[i][1:]
        assert (trial_value - head == bar) == at and trial_value >= bar
        monkeypatch.setattr(dispatcher, "feasible_schedules", lambda *args: [trial])
        inside.clear()
        dispatch(session, DispatcherState.fresh(config))
        assert [(s, best) for s, best, _ in inside] == [(first, 0.0), (trial, bar)]
        if at:
            u, breakdown = with_breakdown(inside[1][2])
            assert breakdown.energy > 0 and breakdown.cable > 0
            assert (u, breakdown) == reference_utility_breakdown(
                dataclasses.replace(plans[i], value=trial_value), state, loads)
        else:
            assert inside[1][2] is None


def reference_best_bound(session, state, loads):
    """The largest bound on a charging plan's utility that the build's cut
    reads, worked out from every charging plan of the session, uncapped,
    with payments integrated afresh: per (facility, target) stream, its
    best value less the sum of the out-of-service payments from t_minus
    through its shortest window end, then a window's cable, energy and
    generation payments, added in that order. Every window the cut reads
    ends by the shortest end plus MAX_START_OFFSET, so the session must
    leave the plans room to reach past that."""
    config = state.config
    every = GenerationPolicy(max_candidates_total=10 ** 6)
    plans = [s for s in reference_feasible_schedules(
        session, config, state.posted.ledger, state.posted.bounds, state.posted.psi, every)
        if s.charging]
    streams = {}
    for s in plans:
        streams.setdefault((s.facility_id, tuple(sorted(e for _, e in s.energy_slots))),
                           []).append(s)
    best = -math.inf
    for stream in streams.values():
        lo = stream[0].t_arrival + len(stream[0].energy_slots) - 1
        assert lo + MAX_START_OFFSET <= config.horizon - min(s.hops_total for s in stream)
        out_of_service = 0.0
        for t in range(session.t_minus, lo + 1):
            y = loads[3][t - 1]
            out_of_service += pricing.out_of_service_payment(
                y, y + 1, config.out_of_service_cap[t - 1],
                config.out_of_service_penalty[t - 1], state.posted.bounds, state.posted.psi)
        value = max(s.value for s in stream)
        for s in stream:
            paid = reference_utility_breakdown(s, state, loads)[1]
            best = max(best, value - (out_of_service + paid.cable + paid.energy
                                      + paid.generation))
    return best, plans


def test_the_charging_build_is_cut_only_below_its_best_bound():
    """``feasible_schedules`` builds nothing only when no (facility,
    target) stream's bound reaches the floor, and then no charging plan
    can: at a floor equal to the best bound, or a float below it, it
    builds every charging plan, and at a float above it none, on an empty
    ledger and on a congested one."""
    days = [("desk", 0, 0, range(0, 1)), ("rush", 1, 120, range(120, 126))]
    cut = whole = 0
    for name, seed, played, trials in days:
        config, sessions = generate_scenario(seed, RUNS[name])
        state = DispatcherState.fresh(config)
        for session in sessions[:played]:
            dispatch(session, state)
        loads = _loads(config, state.posted.ledger, _coordinates(config))
        for session in (sessions[i] for i in trials):
            best, plans = reference_best_bound(session, state, loads)
            assert all(reference_utility_breakdown(s, state, loads)[0] <= best for s in plans)
            charging = feasible_schedules(session, config, Snapshot(
                state.posted.ledger, state.posted.bounds, state.posted.psi), state.policy)
            assert charging
            for floor, built in ((best, True), (math.nextafter(best, -math.inf), True),
                                 (math.nextafter(best, math.inf), False)):
                fresh = Snapshot(state.posted.ledger, state.posted.bounds, state.posted.psi)
                assert feasible_schedules(session, config, fresh, state.policy, floor) == (
                    charging if built else []), (session, floor)
            # and at the floor the run passes, as dispatch decides
            built = []

            def recorded(*args):
                built.append(feasible_schedules(*args))
                return built[-1]
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(dispatcher, "feasible_schedules", recorded)
                dispatch(session, state)
            cut, whole = cut + (built == [[]]), whole + (built == [charging])
            loads = _loads(config, state.posted.ledger, _coordinates(config))
    assert cut > 0 and whole > 0


def test_some_sessions_skip_the_charging_build_and_some_do_not(monkeypatch):
    """On the congested ``rush`` day most sessions build no charging plan,
    as none can beat the best rebalance, and some build them all; a
    ``full`` day builds them more often than not, and skips some."""
    counts = {False: 0, True: 0}

    def counted(*args):
        out = feasible_schedules(*args)
        counts[bool(out)] += 1
        return out
    monkeypatch.setattr(dispatcher, "feasible_schedules", counted)
    for name, seed, most in (("rush", 1, False), ("full", 0, True)):
        counts.update({False: 0, True: 0})
        config, sessions = generate_scenario(seed, name)
        run_online(sessions, config)
        assert counts[most] > counts[not most] > 0, (name, counts)


def test_a_tie_between_a_rebalance_and_a_charging_plan_goes_to_the_smaller_tuple(
        monkeypatch):
    """A charging plan of the same utility and arrival as the best
    rebalance wins when it is the smaller tuple, the earlier in candidate
    order, as when the two are priced in one merged order; with its
    utility one step lower, the rebalance wins."""
    config, sessions = generate_scenario(0, RUNS["desk"])
    session = sessions[0]
    state = DispatcherState.fresh(config)
    charging = feasible_schedules(session, config, state.posted, state.policy)
    by_arrival = {plan[5]: plan for plan in reversed(list(rebalances(session, config)))}
    charge = next(plan for plan in charging if plan[5] in by_arrival)
    rebalance = by_arrival[charge[5]]
    u = utility_breakdown(rebalance, state.posted)[0]
    assert u > 0
    paid = sum(utility_breakdown(charge, state.posted)[1])
    # a value that the subtraction takes back to the rebalance's utility
    value = next(v for v in (u + paid, math.nextafter(u + paid, -math.inf),
                             math.nextafter(u + paid, math.inf)) if v - paid == u)
    lower = value
    while lower - paid == u:
        lower = math.nextafter(lower, -math.inf)
    monkeypatch.setattr(dispatcher, "rebalances", lambda *args: iter([rebalance]))
    for trial_value, wins in ((value, True), (lower, False)):
        trial = (-trial_value,) + charge[1:]
        assert trial < rebalance
        monkeypatch.setattr(dispatcher, "feasible_schedules", lambda *args: [trial])
        decisions = [dispatch(session, DispatcherState.fresh(config, capture_candidates=c))
                     for c in (False, True)]
        assert decisions[0] == decisions[1]
        assert decisions[0].schedule.charging == wins and decisions[0].utility == u


def test_a_switched_snapshot_prices_payments_and_dual_increments_alike(monkeypatch):
    """A run's bounds and Psi live in its snapshot alone: after the
    snapshot is switched for one at other bounds mid-run, every committed
    breakdown and dual increment is the reference's at the new bounds, and
    some increments are not the ones the old bounds give."""
    config, sessions = generate_scenario(0, RUNS["desk"])
    coordinates = _coordinates(config)
    state = DispatcherState.fresh(config)
    half = len(sessions) // 2
    for session in sessions[:half]:
        dispatch(session, state)
    old = state.posted
    other = dataclasses.replace(old.bounds, **{
        name: 2 * getattr(old.bounds, name) for name in
        ("U_c", "U_e", "U_g", "U_d", "U_o")})
    state.posted = Snapshot(old.ledger, other, old.psi)
    at_old = dataclasses.replace(state, posted=old)

    committed = []
    commits = recorded_commits(monkeypatch)
    for session in sessions[half:]:
        loads = _loads(config, state.posted.ledger, coordinates)
        commits.clear()
        decision = dispatch(session, state)
        if not decision.is_depot:
            assert ((decision.utility, decision.breakdown)
                    == reference_utility_breakdown(decision.schedule, state, loads))
            u = decision.utility
            [(schedule, out)] = commits
            assert schedule is decision.schedule
            assert out == reference_dual_increment(schedule, u, state, loads)
            committed.append(out != reference_dual_increment(schedule, u, at_old, loads))
        else:
            assert commits == []
    assert len(committed) > 10 and any(committed)


def reference_posted(config, ledger, bounds, psi_):
    """Every cell's posted price, family by family, and every (facility,
    EVSE, slot)'s charging price, looked up afresh at the ledger's loads."""
    fresh = ReferencePostedPrices(ledger, bounds, psi_)
    prices = [[fresh._posted(k, i) for i in range(len(loads))]
              for k, loads in enumerate(ledger.loads)]
    charges = [fresh.charge(f, m, t) for f, fac in enumerate(config.facilities)
               for m in range(fac.evse_count) for t in range(1, config.horizon + 1)]
    return prices, charges


#: Days whose posted prices are checked after every commit: a ``full``
#: day of 10 EVSEs per facility, where one commit moves the charging price
#: of every EVSE of its facility, a congested one and a tiny one.
POSTED_DAYS = {"full": (0, dataclasses.replace(PRESETS["full"], max_sessions=60)),
               "rush": (1, RUNS["rush"]), "tiny": (0, PRESETS["tiny"])}


@pytest.mark.parametrize("name", sorted(POSTED_DAYS))
def test_posted_prices_follow_every_commit(name):
    """A run builds its snapshot once, in ``DispatcherState.fresh``, and
    each commit goes through it: after every ``dispatch`` its posted cable
    and charging prices are the reference's at the ledger's loads, the
    charging prices of the other EVSEs of the committed facility
    included."""
    seed, params = POSTED_DAYS[name]
    config, sessions = generate_scenario(seed, params)
    state = DispatcherState.fresh(config)
    holder, committed = state.posted, 0
    bounds, psi_ = holder.bounds, holder.psi
    for session in sessions:
        committed += not dispatch(session, state).is_depot
        assert state.posted is holder
        prices, charges = reference_posted(config, holder.ledger, bounds, psi_)
        assert (holder.cables, holder.charges) == (prices[CABLE], charges), session
    assert committed > len(sessions) // 4


def test_a_switched_snapshot_builds_no_plan_from_the_old_prices(monkeypatch):
    """After ``state.posted`` is switched for a snapshot at other bounds
    mid-run, every session's charging candidates are the ones a fresh
    snapshot of the ledger at the new bounds gives at the floor that
    ``dispatch`` passes, and after every ``dispatch`` the posted prices, and
    the window lists and payments that the build and its bound keep, are
    the reference's at the new bounds. Doubling the floors of the cable,
    energy and generation curves moves the EVSE or slot picks of two
    sessions of this congested day; doubling every ceiling moves none.
    Some builds return every charging plan."""
    config, sessions = generate_scenario(0, RUNS["rush"])
    state = DispatcherState.fresh(config)
    half = len(sessions) // 2
    for session in sessions[:half]:
        dispatch(session, state)
    old = state.posted
    other = dataclasses.replace(old.bounds, **{
        name: 2 * getattr(old.bounds, name) for name in ("L_c", "L_e", "L_g")})
    assert pricing.validate_bounds(other, config) == []
    state.posted = Snapshot(old.ledger, other, old.psi)

    built = []

    def recorded(*args):
        out = feasible_schedules(*args)
        built.append((args[-1], out))
        return out
    monkeypatch.setattr(dispatcher, "feasible_schedules", recorded)
    moved = whole = 0
    for session in sessions[half:]:
        unfloored = feasible_schedules(session, config,
                                       Snapshot(state.posted.ledger, other, old.psi))
        moved += unfloored != feasible_schedules(session, config,
                                                 Snapshot(state.posted.ledger, old.bounds,
                                                          old.psi))
        fresh = Snapshot(ResourceLedger(config.cells, [list(loads) for loads in
                                                       state.posted.ledger.loads]),
                         other, old.psi)
        built.clear()
        dispatch(session, state)
        [(floor, out)] = built
        assert out == feasible_schedules(session, config, fresh, state.policy, floor), session
        assert out in (unfloored, []), session
        whole += out != []
        prices, charges = reference_posted(config, state.posted.ledger, other, old.psi)
        assert (state.posted.cables, state.posted.charges) == (prices[CABLE], charges)
        assert_memos_are_fresh(state.posted, session)
    assert moved > 0 and whole > 0


def test_every_payment_goes_through_its_family_function(monkeypatch):
    """A wrapper installed on ``pricing.<family>_payment`` sees every
    payment of a run, of every family: no payment is made on a shape
    directly. A benchmark tracer counts payments by those five names."""
    config, sessions = generate_scenario(3, RUNS["rush"])
    calls = dict.fromkeys(pricing.NAMES, 0)
    on_shapes = [0]

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper
    for name in pricing.NAMES:
        function = name + "_payment"
        monkeypatch.setattr(pricing, function, counted(name, getattr(pricing, function)))
    shape_payment = pricing.Shape.payment

    def payment(self, *args):
        on_shapes[0] += 1
        return shape_payment(self, *args)
    monkeypatch.setattr(pricing.Shape, "payment", payment)

    report = run_online(sessions, config)
    assert 0 < report.accepted < len(sessions)
    assert all(calls.values()), calls
    assert sum(calls.values()) == on_shapes[0]


# ---------------------------------------------------------------------------
# Lazy merging at any magnitude
# ---------------------------------------------------------------------------


#: Fixed bounds and psi, so that a drawn config changes only the plan values.
DESK_CONFIG = generate_scenario(0, "desk")[0]
DESK_BOUNDS = pricing.estimate_bounds(DESK_CONFIG)
DESK_PSI = pricing.psi(DESK_CONFIG)


def _assert_enumeration_matches(seed, sessions, policy=DEFAULT_POLICY, **values):
    """feasible_schedules == reference_feasible_schedules on every session
    of a desk day whose plan values are redrawn, against a zero ledger."""
    params = dataclasses.replace(PRESETS["desk"], max_sessions=sessions, **values)
    config, stream = generate_scenario(seed, params)
    ledger = ResourceLedger.zero(config)
    for session in stream:
        got = as_plans(session, config, ranked(
            rebalances(session, config),
            feasible_schedules(session, config, Snapshot(ledger, DESK_BOUNDS, DESK_PSI), policy)))
        assert got == reference_feasible_schedules(session, config, ledger, DESK_BOUNDS,
                                                   DESK_PSI, policy), session


def test_enumeration_matches_with_near_equal_large_pickups():
    """Pickups 3e8 + 0.1, 0.3 and 0.2: group keys 0.2 apart in 3e8 are
    not exact floats, and a batch cut of 1e-9, below their ulp of 6e-8,
    splits groups whose plans rounding orders the other way."""
    for seed in range(3):
        _assert_enumeration_matches(
            seed, 80, pickup_values=(3e8 + 0.1, 3e8 + 0.3, 3e8 + 0.2),
            soc_value_slope=0.1, per_hop_value_penalty=0.1)


_large = st.sampled_from([1e8, 3e8, 1e9]).flatmap(
    lambda base: st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.3, 1 / 3, 0.7, 1.0])
                          .map(lambda x: base + x), min_size=1, max_size=4))
_small = st.lists(st.one_of(st.floats(0.0, 100.0), st.sampled_from([0.1, 0.3, 2 / 3])),
                  min_size=1, max_size=4)
_rates = st.one_of(st.floats(0.0, 3.0), st.sampled_from([0.1, 1 / 3, 0.7]))


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(pickups=st.one_of(_large, _small).filter(lambda p: max(p) > 0),
       slope=_rates, penalty=_rates,
       per_hop_energy=st.sampled_from([0.0, 0.3, 1.0, 2.5]),
       cap=st.sampled_from([4, 24, 200]),
       seed=st.integers(0, 2))
@example(pickups=[3e8 + 0.1, 3e8 + 0.3, 3e8 + 0.2], slope=0.1, penalty=0.1,
         per_hop_energy=1.0, cap=24, seed=1)
def test_enumeration_matches_at_any_magnitude(pickups, slope, penalty, per_hop_energy,
                                              cap, seed):
    policy = dataclasses.replace(DEFAULT_POLICY, max_candidates_total=cap)
    _assert_enumeration_matches(
        seed, 25, policy, pickup_values=tuple(pickups), soc_value_slope=slope,
        per_hop_value_penalty=penalty, per_hop_energy=per_hop_energy)


#: The congested preset's bounds and Psi, which a redrawn day of it shares
#: but for its value ceilings.
RUSH_CONFIG = generate_scenario(0, "rush")[0]
RUSH_BOUNDS = pricing.estimate_bounds(RUSH_CONFIG)
RUSH_PSI = pricing.psi(RUSH_CONFIG)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(pickups=st.one_of(_large, _small).filter(lambda p: max(p) > 0),
       slope=_rates, penalty=_rates,
       per_hop_energy=st.sampled_from([0.0, 0.3, 1.0, 2.5]),
       seed=st.integers(0, 2))
@example(pickups=[3e8 + 0.1, 3e8 + 0.3, 3e8 + 0.2], slope=0.1, penalty=0.1,
         per_hop_energy=1.0, seed=1)
def test_the_charging_cut_decides_alike_at_any_magnitude(pickups, slope, penalty,
                                                         per_hop_energy, seed):
    """The cut of the charging build is exact wherever rounding falls: on a
    short congested day whose plan values are redrawn, every decision,
    breakdown and dual increment is the one of pricing every candidate in
    full (``read_everything_dispatch``), and a capturing run, which builds
    and prices every candidate in one merged order, decides the same."""
    params = dataclasses.replace(
        PRESETS["rush"], max_sessions=60, pickup_values=tuple(pickups),
        soc_value_slope=slope, per_hop_value_penalty=penalty,
        per_hop_energy=per_hop_energy)
    config, sessions = generate_scenario(seed, params)
    assert pricing.psi(config) == RUSH_PSI
    # the preset's floors, which clear its grid prices and penalties, under
    # ceilings raised to the drawn values, so that the price barrier holds
    bounds = dataclasses.replace(RUSH_BOUNDS, **{
        f"U_{family.bound}": max(getattr(RUSH_BOUNDS, f"U_{family.bound}"), density)
        for family, density in zip(FAMILIES, pricing.value_densities(config))})
    state, capturing = (
        DispatcherState(config, DEFAULT_POLICY, pricing.alphas(bounds, RUSH_PSI, config),
                        Snapshot(ResourceLedger.zero(config), bounds, RUSH_PSI),
                        captured=captured)
        for captured in (None, {}))
    for session in sessions:
        everything = read_everything_dispatch(session, state)
        dual_before = state.dual_trajectory[-1]
        decision = dispatch(session, state)
        assert dispatch(session, capturing) == decision
        if everything is None:
            assert decision.is_depot and state.dual_trajectory[-1] == dual_before
        else:
            schedule, u, breakdown, step = everything
            assert (decision.schedule, decision.utility, decision.breakdown) == (
                schedule, u, breakdown)
            assert state.dual_trajectory[-1] == dual_before + step
    assert state.primal_trajectory == capturing.primal_trajectory
    assert state.dual_trajectory == capturing.dual_trajectory


# ---------------------------------------------------------------------------
# Upper bound and threshold baselines on the per-config ranking
# ---------------------------------------------------------------------------


def reference_session_upper_bound(session, config, candidates=()):
    """Every (facility, target, destination) triple walked destination by
    destination, each with a hop lookup."""
    T = config.horizon
    t0 = session.t_minus
    prefix = [0.0]
    for phi in config.out_of_service_penalty:
        prefix.append(prefix[-1] + phi)
    slope, pen = config.soc_value_slope, config.per_hop_value_penalty

    def value(final, dest, h):
        return slope * final + config.regions[dest].pickup_value - pen * h

    best = 0.0
    for s in candidates:
        best = max(best, s.value - (prefix[s.t_plus] - prefix[s.t_minus - 1]))
    if t0 >= T:
        return best
    cap = config.battery_capacity
    e_hop = config.per_hop_energy
    energy0 = session.soc * cap
    targets = pricing.default_charge_targets(config)
    for dest in range(len(config.regions)):
        h2 = hop_row(session.origin_region, config)[dest]
        if h2 < 0 or t0 + h2 > T:
            continue
        final = energy0 - h2 * e_hop
        if final < -MONEY_ATOL:
            continue
        best = max(best, value(final, dest, h2) - (prefix[t0 + h2] - prefix[t0 - 1]))
    for fac in config.facilities:
        h1 = hop_row(session.origin_region, config)[fac.region_id]
        if h1 < 0 or t0 + h1 > T:
            continue
        arrival_energy = energy0 - h1 * e_hop
        if arrival_energy < -MONEY_ATOL:
            continue
        headroom = cap - arrival_energy
        fac_targets = [x for x in targets if x <= headroom + MONEY_ATOL]
        if headroom > MONEY_ATOL and not any(abs(x - headroom) <= MONEY_ATOL
                                             for x in fac_targets):
            fac_targets.append(headroom)
        t_arr = t0 + h1
        for target in fac_targets:
            k = max(1, math.ceil(target / fac.evse_energy_limit - 1e-12))
            t_done = t_arr + k - 1
            if t_done > T:
                continue
            for dest in range(len(config.regions)):
                h2 = hop_row(fac.region_id, config)[dest]
                if h2 < 0 or t_done + h2 > T:
                    continue
                final = arrival_energy + target - h2 * e_hop
                if final < -MONEY_ATOL:
                    continue
                best = max(best, value(final, dest, h1 + h2)
                           - (prefix[t_done + h2] - prefix[t0 - 1]))
    return best


def reference_dest_order(config, anchor):
    """(hops, dest) pairs reachable from anchor, sorted afresh by pickup
    value, then hops, then id."""
    order = []
    for dest, region in enumerate(config.regions):
        h2 = hop_row(anchor, config)[dest]
        if h2 < 0:
            continue
        order.append((-region.pickup_value, h2, dest))
    order.sort()
    return [(h2, dest) for _, h2, dest in order]


UB_DAYS = [(name, 3, params) for name, params in sorted(RUNS.items())] + [
    ("tiny", seed, PRESETS["tiny"]) for seed in range(20)]


@pytest.mark.parametrize("name, seed, params", UB_DAYS,
                         ids=[f"{name}-{seed}" for name, seed, _ in UB_DAYS])
def test_upper_bound_matches_the_reference(name, seed, params):
    """With or without the candidates an online run captured folded into
    the reference, the bound is the same float: it already dominates every
    plan the candidate build makes."""
    config, sessions = generate_scenario(seed, params)
    _, captured = run_online(sessions, config, capture_candidates=True)
    for sets in (None, captured):
        want = 0.0
        for session in sessions:
            extra = sets.get(session.id, ()) if sets else ()
            bound = reference_session_upper_bound(session, config, extra)
            assert upper_bound([session], config) == bound
            want += bound
        assert upper_bound(sessions, config) == want


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(pickups=st.one_of(_large, _small).filter(lambda p: max(p) > 0),
       slope=_rates, penalty=_rates,
       per_hop_energy=st.sampled_from([0.0, 0.3, 1.0, 2.5]),
       free_service=st.booleans(),
       seed=st.integers(0, 2))
@example(pickups=[3e8 + 0.1, 3e8 + 0.3, 3e8 + 0.2], slope=0.1, penalty=0.1,
         per_hop_energy=1.0, free_service=False, seed=1)
@example(pickups=[3e8, 3e8 + 1 / 3, 3e8 + 0.2], slope=0.0, penalty=0.0,
         per_hop_energy=0.0, free_service=True, seed=0)
@example(pickups=[15.0, 10.0, 5.0], slope=0.0, penalty=0.0, per_hop_energy=0.0,
         free_service=False, seed=2)
def test_upper_bound_matches_at_any_magnitude(pickups, slope, penalty, per_hop_energy,
                                              free_service, seed):
    """The walk over the hop rings stops where the best pickup of the
    rings left cannot beat the running maximum. A slope, hop penalty,
    hop energy or out-of-service penalty of 0 makes rings tie, where the
    stop's ``<=`` decides; pickups near 3e8 make rounding decide."""
    params = dataclasses.replace(PRESETS["desk"], max_sessions=25,
                                 pickup_values=tuple(pickups), soc_value_slope=slope,
                                 per_hop_value_penalty=penalty,
                                 per_hop_energy=per_hop_energy)
    config, sessions = generate_scenario(seed, params)
    if free_service:
        config = dataclasses.replace(config,
                                     out_of_service_penalty=(0.0,) * config.horizon)
    for session in sessions:
        assert (upper_bound([session], config)
                == reference_session_upper_bound(session, config)), session


@pytest.mark.parametrize("name", sorted(RUNS))
def test_threshold_moves_match_the_reference_order(name, monkeypatch):
    config, sessions = generate_scenario(3, RUNS[name])
    anchors = range(len(config.regions))
    assert ([list(baselines._dest_order(config, r)) for r in anchors]
            == [reference_dest_order(config, r) for r in anchors])

    def moves(session, ledger):
        return (baselines._rebalance(session, config, ledger),
                baselines._charge_then_go(session, config, ledger))

    table_order = baselines._dest_order
    ledger = ResourceLedger.zero(config)
    found = [0, 0]
    for session in sessions:
        if session.t_minus >= config.horizon:
            continue
        got = moves(session, ledger)
        monkeypatch.setattr(baselines, "_dest_order", reference_dest_order)
        assert got == moves(session, ledger)
        monkeypatch.setattr(baselines, "_dest_order", table_order)
        # commit as threshold-50 would, so the ledger fills up
        schedule = got[0] if session.soc >= 0.5 else got[1]
        if schedule is not None:
            ledger.apply(schedule)
        found[0] += got[0] is not None
        found[1] += got[1] is not None
    assert min(found) >= 20


def reference_charge_then_go(session, config, ledger):
    """Every (EVSE, destination) pair of each start delay, EVSEs in index
    order, each checked whole with ``ResourceLedger.fits``."""
    T = config.horizon
    cap = config.battery_capacity
    energy0 = session.soc * cap

    legs = facility_legs(session.origin_region, energy0, session.t_minus, config)
    if not legs:
        return None
    h1, fac = legs[0]

    arrival_energy = energy0 - h1 * config.per_hop_energy
    rate = fac.evse_energy_limit
    k, last = pricing.charge_slots(cap - arrival_energy, rate)
    # full rate first, the remainder in the last slot
    amounts = [rate] * (k - 1) + [last]
    dests = reference_dest_order(config, fac.region_id)
    # the facility's generation cells, which every EVSE shares
    generated = ledger.loads[GENERATION]
    generation = config.cells.shapes[GENERATION]
    row = fac.id * T - 1

    for wait in range(baselines.PATIENCE + 1):
        start = session.t_minus + h1 + wait
        done = start + k - 1
        if done > T:
            break
        energy_slots = tuple(zip(range(start, done + 1), amounts))
        if any(generated[row + t] + e > generation[row + t].cap + MONEY_ATOL
               for t, e in energy_slots):
            # no EVSE or destination makes these slots fit
            continue
        for m in range(fac.evse_count):
            for h2, dest in dests:
                s = make_plan(session, config, dest, h2, cap, done,
                              (fac.id, m, h1, energy_slots))
                if s is not None and ledger.fits(s):
                    return s
    return None


CHARGE_DAYS = {**RUNS, "full-day": PRESETS["full"]}


@pytest.mark.parametrize("name", sorted(CHARGE_DAYS))
def test_charge_then_go_matches_the_evse_by_destination_walk(name):
    """The threshold charging move picks the first EVSE whose own cells
    fit once per start delay, then walks the destinations: the same plan
    as the walk over every (EVSE, destination) pair, on every session of
    a day whose ledger fills as threshold-75's does. On desk and ``rush``
    the facility's generation binds before any EVSE's cells, so only EVSE
    0 is ever taken; on the ``full`` days later EVSEs are, where the EVSE
    pick skips a full one."""
    config, sessions = generate_scenario(3, CHARGE_DAYS[name])
    ledger = ResourceLedger.zero(config)
    evses = []
    for session in sessions:
        if session.t_minus >= config.horizon:
            continue
        got = baselines._charge_then_go(session, config, ledger)
        assert got == reference_charge_then_go(session, config, ledger), session
        if got is not None:
            evses.append(got.evse_index)
        schedule = got if session.soc < 0.75 else baselines._rebalance(session, config,
                                                                        ledger)
        if schedule is not None:
            ledger.apply(schedule)
    assert len(evses) >= 20
    assert (max(evses) > 0) == name.startswith("full")


def reference_verify_dapr(family, params, alpha, grid_points):
    """The allocation-payment margin at every grid point, one float at a
    time, as ``verify_dapr`` checked it before it read each segment's grid
    at its two ends."""
    k = pricing.NAMES.index(family)
    shape = pricing.Shape(k, *(float(params[name]) for name in FAMILIES[k].params))
    segments = [seg for seg in shape.segments(float(params["L"]), float(params["U"]),
                                              int(params["psi"]))
                if seg.hi > seg.lo]

    total_len = sum(seg.hi - seg.lo for seg in segments)
    worst_margin = math.inf
    worst_y = 0.0
    checked = 0
    for lo, hi, cap, a, b, offset in segments:
        n = max(1, round(grid_points * (hi - lo) / total_len))
        dy = (hi - lo) / n
        z = math.log(b)
        for i in range(n):
            y = lo + i * dy
            growth = a * b ** (y / cap)
            p = growth + offset
            pprime = growth * z / cap
            margin = (p - offset) * dy - (hi * pprime * dy) / alpha
            checked += 1
            if margin < worst_margin:
                worst_margin = margin
                worst_y = y
    return pricing.DaprReport(family=family, alpha=alpha, grid_points=checked,
                              passed=worst_margin >= -MONEY_ATOL,
                              worst_margin=worst_margin, worst_y=worst_y,
                              segments=len(segments))


# a cable curve of its own, and the ratio hi*ln(b)/cap of its one segment
CABLE_PARAMS = {"capacity": 4.0, "L": 0.05, "U": 20.0, "psi": 9}
CABLE_RATIO = math.log(2 * 9 * 20.0 / 0.05)


def _dapr_cases():
    for preset in ("tiny", "desk", "full", "rush"):
        config, _ = generate_scenario(0, preset)
        psi_ = pricing.psi(config)
        bounds = pricing.estimate_bounds(config)
        ratios = dict(zip(pricing.NAMES, dataclasses.astuple(
            pricing.alphas(bounds, psi_, config))))
        for family, params in pricing.dapr_cases(config, bounds, psi_):
            yield family, params, ratios[family]
    yield "cable", CABLE_PARAMS, CABLE_RATIO


def test_verifier_matches_the_grid_walk():
    """Same verdict, grid and segment count on every case of one seed of
    each preset, at alpha and alpha/2, and the same least margin where it
    is more than rounding noise: at a family's own alpha the inequality is
    an identity, and the walk's least margin is whichever point rounded
    lowest."""
    checked = set()
    for family, params, ratio in _dapr_cases():
        for alpha in (ratio, ratio / 2):
            got = pricing.verify_dapr(family, params, alpha, 2000)
            ref = reference_verify_dapr(family, params, alpha, 2000)
            case = (family, params, alpha)
            assert (got.passed, got.grid_points, got.segments) == (
                ref.passed, ref.grid_points, ref.segments), case
            if abs(ref.worst_margin) > 1e-12:
                assert got.worst_margin == ref.worst_margin, case
            else:
                assert abs(got.worst_margin - ref.worst_margin) <= 1e-15, case
            checked.add((family, got.passed))
    assert checked == {(name, ok) for name in pricing.NAMES for ok in (True, False)}


def test_verifier_finds_the_end_the_sign_points_to():
    """Just below the segment's own ratio every margin is negative and the
    least is at the last grid point; just above, every margin is positive
    and the least is at the first."""
    n = 2000
    last = 0.0 + (n - 1) * (4.0 / n)
    for verify in (pricing.verify_dapr, reference_verify_dapr):
        below = verify("cable", CABLE_PARAMS, CABLE_RATIO * (1 - 1e-9), n)
        above = verify("cable", CABLE_PARAMS, CABLE_RATIO * (1 + 1e-9), n)
        assert below.worst_margin < 0 < above.worst_margin
        assert (below.worst_y, above.worst_y) == (last, 0.0)


# ---------------------------------------------------------------------------
# Exact search against the net-value bound
# ---------------------------------------------------------------------------


class _ReferenceWalked(dict):
    def demands(self, schedule):
        return self[id(schedule)]


def reference_exact_offline(sessions, config, candidate_sets, bound="net"):
    """The depth-first search that checks, prices and applies each option
    through its ledger (``fits``, ``primal_increment`` and ``apply`` on
    demands walked once), and cuts a child after its loads are written.
    Its suffix bound sums each session's best value minus window penalty,
    which leaves out the generation cost of a plan and charges its window
    at an empty ledger; with ``bound="gain"`` it sums each session's best
    gain at the empty ledger, as the package's search does."""
    prefix = [0.0]
    for phi in config.out_of_service_penalty:
        prefix.append(prefix[-1] + phi)
    n = len(sessions)

    options = []
    for session in sessions:
        netted = ((s.value - (prefix[s.t_plus] - prefix[s.t_minus - 1]), s)
                  for s in candidate_sets.get(session.id, ()))
        options.append(sorted((o for o in netted if o[0] > 0.0),
                              key=lambda o: o[0], reverse=True))

    ledger = ResourceLedger.zero(config)
    ledger.cells = _ReferenceWalked((id(s), tuple(config.cells.demands(s)))
                                    for opts in options for _, s in opts)
    loads = ledger.loads

    suffix = [0.0] * (n + 1)
    for j in range(n - 1, -1, -1):
        if bound == "gain":
            gains = [economics.primal_increment(ledger, s) for _, s in options[j]
                     if ledger.fits(s)]
            best_here = max(gains + [0.0])
        else:
            best_here = options[j][0][0] if options[j] else 0.0
        suffix[j] = suffix[j + 1] + best_here
    current = [None] * n
    best_assignment = [None] * n
    best_welfare = 0.0
    nodes = 0

    def search(j, acc):
        nonlocal best_welfare, nodes
        nodes += 1
        if acc + suffix[j] <= best_welfare + 1e-12:
            return
        if j == n:
            best_welfare = acc
            best_assignment[:] = current
            return
        for _, schedule in options[j]:
            if not ledger.fits(schedule):
                continue
            gain = economics.primal_increment(ledger, schedule)
            overwritten = ledger.apply(schedule)
            current[j] = schedule
            search(j + 1, acc + gain)
            current[j] = None
            for (k, i, _, _), y in zip(ledger.cells.demands(schedule), overwritten):
                loads[k][i] = y
        search(j + 1, acc)

    search(0, 0.0)
    return best_welfare, tuple(best_assignment), nodes


#: the benchmark's tiny-exact day: 7 sessions, 4 charging candidates each
EXACT_DAY = dataclasses.replace(PRESETS["tiny"], arrival_rate=1.0, max_sessions=7)


def test_exact_search_bound_at_the_empty_ledger_keeps_the_optimum():
    """The bound at each session's best empty-ledger gain records the same
    optimum as the bound at its best net value, the same float and the
    same plans in the same order, in at most as many nodes. Any admissible
    bound keeps the optimum's value; keeping the same plans also needs
    the bound to cut no subtree whose leaf beats the best so far by more
    than the search's slack."""
    policy = GenerationPolicy(max_candidates_total=4)
    fewer = 0
    for seed in range(48):
        config, sessions = generate_scenario(seed, EXACT_DAY)
        _, captured = run_online(sessions, config, policy, capture_candidates=True)
        got = exact_offline(sessions, config, captured, space_limit=10 ** 12)
        welfare, assignment, nodes = reference_exact_offline(sessions, config, captured)
        assert got.welfare == welfare, seed
        assert len(got.assignment) == len(assignment) == len(sessions)
        assert all(a is b for a, b in zip(got.assignment, assignment)), seed
        assert got.nodes_explored <= nodes, seed
        fewer += got.nodes_explored < nodes
    assert fewer > 0


def test_compiled_search_matches_the_walk_through_the_ledger():
    """The search over compiled checks, with each child cut before its
    loads are written, records what the search through the ledger's
    calls records: the same welfare float, the same plans, and as many
    nodes, a cut child counted once either way. The days are the 48
    seeded days of 7 sessions, days of 8 to 10 sessions, and days whose
    pickups are worth 1e4 and more: there the slack of 1e-12 is below
    half an ulp of the welfare, so a plan that ties the best leaf meets
    the cut with equality."""
    policy = GenerationPolicy(max_candidates_total=4)
    days = [(seed, EXACT_DAY) for seed in range(48)]
    days += [(seed, dataclasses.replace(EXACT_DAY, max_sessions=m))
             for m in (8, 9, 10) for seed in range(4)]
    days += [(seed, dataclasses.replace(EXACT_DAY, pickup_values=(3e4, 2e4, 1e4)))
             for seed in range(8)]
    for seed, params in days:
        label = (seed, params.max_sessions, params.pickup_values)
        config, sessions = generate_scenario(seed, params)
        _, captured = run_online(sessions, config, policy, capture_candidates=True)
        got = exact_offline(sessions, config, captured, space_limit=10 ** 12)
        welfare, assignment, nodes = reference_exact_offline(sessions, config, captured,
                                                             bound="gain")
        assert got.welfare == welfare, label
        assert len(got.assignment) == len(assignment) == len(sessions)
        assert all(a is b for a, b in zip(got.assignment, assignment)), label
        assert got.nodes_explored == nodes, label


# ---------------------------------------------------------------------------
# Instance hash
# ---------------------------------------------------------------------------


def reference_instance_hash(config, sessions):
    """sha256 of one ``json.dumps`` of (config, session stream), as
    ``instance_hash`` computed it before it spliced in the config's cached
    canonical JSON."""
    payload = {
        "config": as_plain(config),
        "sessions": [[s.id, s.t_minus, s.origin_region, s.soc] for s in sessions],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("preset", ["tiny", "desk", "rush", "full"])
def test_instance_hash_matches_the_one_dump_reference(preset, tmp_path):
    for seed in range(5):
        config, sessions = generate_scenario(seed, preset)
        assert instance_hash(config, sessions) == reference_instance_hash(config, sessions)
    path = str(tmp_path / "config.json")
    write_config(config, path)
    read_back = read_config(path)
    assert read_back is not config
    assert instance_hash(read_back, sessions) == reference_instance_hash(config, sessions)
