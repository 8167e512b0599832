"""Checks of one evaluated day against the benchmark's own computations.

Nothing here trusts the package's helpers for the quantity it checks: hop
counts come from a breadth-first search over ``config.edges``, resource
use from a recount of the chosen schedules, schedule values and welfare
from the paper's formulas, the guarantee factors and the empty-ledger
dual from the price-curve definitions, and the exact optimum of a small
prefix of each day from plain enumeration. A day with any problem counts
as a failed operation.

:func:`corruption_problems` feeds the same checks deliberately broken
results and reports each one they fail to reject.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from collections import defaultdict, deque
from typing import Dict, List, Optional, Sequence

from evdispatch import exact_offline, verify_dapr
from evaluate import FAMILIES

#: Money tolerance. Float summation order differs between the package and
#: these checks by far less; one cent is far more.
TOL = 1e-6
#: Largest search space the brute-force enumeration walks per day.
BRUTE_LIMIT = 5_000
#: Grid of the half-alpha verifier runs, which must fail.
HALF_GRID = 1_000


# ---------------------------------------------------------------------------
# Independent computations
# ---------------------------------------------------------------------------


def bfs_hops(config) -> List[List[Optional[int]]]:
    """All-pairs hop counts over ``config.edges``; None when unreachable."""
    n = len(config.regions)
    adj = [[] for _ in range(n)]
    for a, b in config.edges:
        adj[a].append(b)
        adj[b].append(a)
    table = []
    for src in range(n):
        dist: List[Optional[int]] = [None] * n
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] is None:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        table.append(dist)
    return table


class Counts:
    """Resource use of a set of schedules, one dict per family."""

    def __init__(self, schedules: Sequence = ()) -> None:
        self.cable: Dict[tuple, int] = defaultdict(int)
        self.energy: Dict[tuple, float] = defaultdict(float)
        self.generation: Dict[tuple, float] = defaultdict(float)
        self.out_of_service: Dict[int, int] = defaultdict(int)
        self.destination: Dict[tuple, int] = defaultdict(int)
        for s in schedules:
            self.add(s, 1)

    def add(self, s, sign: int) -> None:
        if s.facility_id is not None:
            f, m = s.facility_id, s.evse_index
            for t in s.cable_slots:
                self.cable[f, m, t] += sign
            for t, e in s.energy_slots:
                self.energy[f, m, t] += sign * e
                self.generation[f, t] += sign * e
        for t in range(s.t_minus, s.t_plus + 1):
            self.out_of_service[t] += sign
        self.destination[s.dest_region, s.t_plus] += sign


def capacity_problems(counts: Counts, config) -> List[str]:
    out = []
    for (f, m, t), y in counts.cable.items():
        if y > config.facilities[f].cables_per_evse:
            out.append(f"cable overfilled at facility {f} EVSE {m} slot {t}: {y}")
    for (f, m, t), y in counts.energy.items():
        if y > config.facilities[f].evse_energy_limit + TOL:
            out.append(f"energy overfilled at facility {f} EVSE {m} slot {t}: {y}")
    for (f, t), y in counts.generation.items():
        fac = config.facilities[f]
        if y > fac.solar[t - 1] + fac.grid_limit[t - 1] + TOL:
            out.append(f"generation overfilled at facility {f} slot {t}: {y}")
    for t, y in counts.out_of_service.items():
        if y > config.out_of_service_cap[t - 1]:
            out.append(f"out-of-service cap exceeded in slot {t}: {y}")
    for (d, t), y in counts.destination.items():
        if y > config.regions[d].vehicle_limit[t - 1]:
            out.append(f"arrivals exceed Omega in region {d} slot {t}: {y}")
    return out


def peak_utilization(counts: Counts, config) -> Dict[str, float]:
    peaks = dict.fromkeys(FAMILIES, 0.0)
    for (f, m, t), y in counts.cable.items():
        peaks["cable"] = max(peaks["cable"], y / config.facilities[f].cables_per_evse)
    for (f, m, t), y in counts.energy.items():
        peaks["energy"] = max(peaks["energy"],
                              y / config.facilities[f].evse_energy_limit)
    for (f, t), y in counts.generation.items():
        fac = config.facilities[f]
        cap = fac.solar[t - 1] + fac.grid_limit[t - 1]
        if cap > 0:
            peaks["generation"] = max(peaks["generation"], y / cap)
    for t, y in counts.out_of_service.items():
        peaks["out_of_service"] = max(peaks["out_of_service"],
                                      y / config.out_of_service_cap[t - 1])
    for (d, t), y in counts.destination.items():
        omega = config.regions[d].vehicle_limit[t - 1]
        if omega > 0:
            peaks["destination"] = max(peaks["destination"], y / omega)
    return peaks


def schedule_problems(s, session, config, hop) -> List[str]:
    """Travel, timing, energy and value of one schedule, replayed."""
    where = f"session {session.id}"
    if s.session_id != session.id or s.t_minus != session.t_minus:
        return [f"{where}: schedule belongs to session {s.session_id}"]
    cap, e_hop = config.battery_capacity, config.per_hop_energy
    if s.facility_id is None:
        h2 = hop[session.origin_region][s.dest_region]
        if h2 is None:
            return [f"{where}: destination unreachable"]
        if s.cable_slots or s.energy_slots or s.t_plus != s.t_minus + h2:
            return [f"{where}: rebalance timing or indicators wrong"]
        hops_total, charged = h2, 0.0
    else:
        fac = config.facilities[s.facility_id]
        h1 = hop[session.origin_region][fac.region_id]
        h2 = hop[fac.region_id][s.dest_region]
        if h1 is None or h2 is None:
            return [f"{where}: facility or destination unreachable"]
        if not 0 <= s.evse_index < fac.evse_count:
            return [f"{where}: unknown EVSE {s.evse_index}"]
        slots = [t for t, _ in s.energy_slots]
        if (s.t_arrival != s.t_minus + h1 or not slots
                or s.cable_slots != tuple(range(s.t_arrival, max(slots) + 1))
                or min(slots) < s.t_arrival or s.t_plus != max(slots) + h2):
            return [f"{where}: charging timing wrong"]
        hops_total, charged = h1 + h2, sum(e for _, e in s.energy_slots)
        arrival = session.soc * cap - h1 * e_hop
        if not -TOL <= arrival <= arrival + charged <= cap + TOL:
            return [f"{where}: battery leaves [0, {cap}] at the facility"]
    if not s.t_plus <= config.horizon:
        return [f"{where}: arrives after the horizon"]
    if s.hops_total != hops_total:
        return [f"{where}: {s.hops_total} hops recorded, BFS gives {hops_total}"]
    final = session.soc * cap - hops_total * e_hop + charged
    if not -TOL <= final <= cap + TOL or abs(s.final_soc * cap - final) > TOL:
        return [f"{where}: final energy {s.final_soc * cap}, replay gives {final}"]
    value = (config.soc_value_slope * final + config.regions[s.dest_region].pickup_value
             - config.per_hop_value_penalty * hops_total)
    if abs(s.value - value) > TOL:
        return [f"{where}: value {s.value}, formula gives {value}"]
    return []


def welfare_of(schedules: Sequence, counts: Counts, config) -> float:
    """Sum of schedule values minus grid cost minus out-of-service penalty."""
    total = sum(s.value for s in schedules)
    for (f, t), y in counts.generation.items():
        fac = config.facilities[f]
        total -= fac.grid_price[t - 1] * max(0.0, y - fac.solar[t - 1])
    for t, y in counts.out_of_service.items():
        total -= config.out_of_service_penalty[t - 1] * y
    return total


def welfare_problems(name: str, claimed: float, recomputed: float) -> List[str]:
    if abs(claimed - recomputed) > TOL:
        return [f"{name}: welfare {claimed!r}, recount gives {recomputed!r}"]
    return []


def own_psi(config) -> int:
    return (2 * sum(f.evse_count for f in config.facilities) + len(config.regions)
            + len(config.facilities) + 1)


def own_alphas(bounds, psi_: int, config) -> Dict[str, float]:
    """ln(2 Psi U / L) per family, offsets subtracted, maximised over traces."""
    two = 2.0 * psi_
    prices = {p for fac in config.facilities for p in fac.grid_price}
    return {
        "cable": math.log(two * bounds.U_c / bounds.L_c),
        "energy": math.log(two * bounds.U_e / bounds.L_e),
        "generation": max(math.log(two * (bounds.U_g - p) / (bounds.L_g - p))
                          for p in prices),
        "destination": math.log(two * bounds.U_d / bounds.L_d),
        "out_of_service": max(math.log(two * (bounds.U_o - phi) / (bounds.L_o - phi))
                              for phi in set(config.out_of_service_penalty)),
    }


def empty_ledger_dual(bounds, psi_: int, config) -> float:
    """Sum of every resource-slot's conjugate at its empty-ledger price.

    Each price starts at (L - offset) / (2 Psi) + offset; the generation
    price starts on its solar branch at L_g / (2 Psi), below the grid price,
    whenever the slot has solar.
    """
    two = 2.0 * psi_
    total = 0.0
    for fac in config.facilities:
        total += fac.evse_count * config.horizon * (
            bounds.L_c / two * fac.cables_per_evse
            + bounds.L_e / two * fac.evse_energy_limit)
        for delta, mu, pi in zip(fac.solar, fac.grid_limit, fac.grid_price):
            p = bounds.L_g / two if delta > 0 else (bounds.L_g - pi) / two + pi
            total += delta * p if p < pi else (delta + mu) * p - mu * pi
    for region in config.regions:
        total += sum(bounds.L_d / two * omega for omega in region.vehicle_limit)
    for cap, phi in zip(config.out_of_service_cap, config.out_of_service_penalty):
        total += (bounds.L_o - phi) / two * cap
    return total


def ratio_problems(online: float, opt: float, alpha: float) -> List[str]:
    """online <= OPT <= alpha * online over the same candidate sets."""
    if not online - TOL <= opt <= alpha * online + TOL:
        return [f"OPT {opt!r} outside [online {online!r}, alpha*online "
                f"{alpha * online!r}]"]
    return []


def brute_force(sessions, config, candidate_sets) -> float:
    """Best welfare over every capacity-feasible assignment, enumerated."""
    counts, chosen = Counts(), []
    best = 0.0

    def walk(j: int) -> None:
        nonlocal best
        if j == len(sessions):
            best = max(best, welfare_of(chosen, counts, config))
            return
        walk(j + 1)  # depot
        for s in candidate_sets.get(sessions[j].id, ()):
            counts.add(s, 1)
            chosen.append(s)
            if not capacity_problems(counts, config):
                walk(j + 1)
            chosen.pop()
            counts.add(s, -1)

    walk(0)
    return best


def roundtrip_problems(report, readback) -> List[str]:
    if readback != report:
        return ["online report changed on write and read-back"]
    return []


# ---------------------------------------------------------------------------
# The checks of one day
# ---------------------------------------------------------------------------


def run_problems(report, sessions, config, hop) -> List[str]:
    """One run's decisions replayed, recounted and re-summed."""
    name = report.algorithm
    if [d.session_id for d in report.decisions] != [s.id for s in sessions]:
        return [f"{name}: decisions do not follow the session stream"]
    out, schedules = [], []
    for session, d in zip(sessions, report.decisions):
        if d.schedule is not None:
            out += [f"{name}: {p}" for p in schedule_problems(d.schedule, session,
                                                              config, hop)]
            schedules.append(d.schedule)
    counts = Counts(schedules)
    out += [f"{name}: {p}" for p in capacity_problems(counts, config)]
    out += welfare_problems(name, report.welfare, welfare_of(schedules, counts, config))
    if (len(report.primal_trajectory) != len(sessions) + 1
            or report.primal_trajectory[-1] != report.welfare):
        out.append(f"{name}: primal trajectory does not end at the welfare")
    peaks = peak_utilization(counts, config)
    if any(abs(report.peak_utilization[k] - peaks[k]) > 1e-12 for k in FAMILIES):
        out.append(f"{name}: peak utilization {report.peak_utilization}, "
                   f"recount gives {peaks}")
    return out


def duality_problems(report, config) -> List[str]:
    """Criterion 4: every step gains at least its dual increment over
    alpha, and the final dual dominates the welfare."""
    out = []
    psi_ = own_psi(config)
    if report.psi != psi_:
        out.append(f"online: psi {report.psi}, resource count gives {psi_}")
    mine = own_alphas(report.bounds, psi_, config)
    theirs = dict(zip(FAMILIES, (report.alphas.a1, report.alphas.a2, report.alphas.a3,
                                 report.alphas.a4, report.alphas.a5)))
    if any(abs(mine[k] - theirs[k]) > 1e-9 * mine[k] for k in FAMILIES):
        out.append(f"online: alphas {theirs}, formula gives {mine}")
    alpha = max(mine.values())
    P, D = report.primal_trajectory, report.dual_trajectory
    worst = min(((P[k + 1] - P[k]) - (D[k + 1] - D[k]) / alpha
                 for k in range(len(P) - 1)), default=0.0)
    if worst < -1e-9:
        out.append(f"online: a step gains {worst!r} less than its dual increment "
                   "over alpha")
    gap = D[-1] + empty_ledger_dual(report.bounds, psi_, config) - P[-1]
    if gap < -1e-9:
        out.append(f"online: final dual falls {gap!r} below the welfare")
    return out


def verification_problems(v, config) -> List[str]:
    out = []
    mine = own_alphas(v.bounds, own_psi(config), config)
    failing_at_half = set()
    for family, params, alpha, rep in v.cases:
        if abs(alpha - mine[family]) > 1e-9 * alpha:
            out.append(f"verify: {family} alpha {alpha}, formula gives {mine[family]}")
        if not rep.passed or rep.worst_margin < -1e-9:
            out.append(f"verify: {family} {params} fails at its own alpha")
        if not verify_dapr(family, params, alpha / 2.0, HALF_GRID).passed:
            failing_at_half.add(family)
    missing = set(FAMILIES) - failing_at_half
    if missing:
        out.append(f"verify: no case of {sorted(missing)} fails at half alpha")
    return out


def exact_problems(res, hop) -> List[str]:
    """The exact assignment recounted, bracketed by online and alpha*online,
    and a prefix of the day small enough to enumerate re-solved by brute
    force."""
    sessions, config, captured = res.sessions, res.config, res.captured
    result = res.exact
    out, schedules = [], []
    for session, s in zip(sessions, result.assignment):
        if s is None:
            continue
        if s not in captured.get(session.id, ()):
            out.append(f"exact: session {session.id} gets a plan it was never offered")
        out += [f"exact: {p}" for p in schedule_problems(s, session, config, hop)]
        schedules.append(s)
    counts = Counts(schedules)
    out += [f"exact: {p}" for p in capacity_problems(counts, config)]
    out += welfare_problems("exact", result.welfare, welfare_of(schedules, counts, config))
    out += ratio_problems(res.report.welfare, result.welfare, res.report.alphas.alpha)

    k, space = 0, 1
    while k < len(sessions):
        space *= len(captured.get(sessions[k].id, ())) + 1
        if space > BRUTE_LIMIT:
            break
        k += 1
    prefix = sessions[:k]
    opt = (result.welfare if k == len(sessions)
           else exact_offline(prefix, config, captured).welfare)
    enumerated = brute_force(prefix, config, captured)
    if abs(opt - enumerated) > TOL:
        out.append(f"exact: OPT {opt!r} of the first {k} sessions, enumeration "
                   f"gives {enumerated!r}")
    return out


def day_problems(res) -> List[str]:
    config, sessions = res.config, res.sessions
    hop = bfs_hops(config)
    out = []
    for report in [res.report, *res.thresholds]:
        out += run_problems(report, sessions, config, hop)
    out += duality_problems(res.report, config)
    welfares = [r.welfare for r in (res.report, *res.thresholds)]
    if res.exact is not None:
        out += exact_problems(res, hop)
        welfares.append(res.exact.welfare)
    if any(w > res.ub + TOL for w in welfares):
        out.append(f"upper bound {res.ub!r} below a welfare of {welfares}")
    out += verification_problems(res.verification, config)
    out += roundtrip_problems(res.report, res.readback)
    return out


def digest(res) -> str:
    """Fingerprint of everything a day evaluation outputs."""
    h = hashlib.sha256()
    with open(res.report_path, "rb") as fh:
        h.update(fh.read())
    h.update(repr((res.thresholds, res.ub, res.exact,
                   [rep for *_, rep in res.verification.cases])).encode())
    return h.hexdigest()


def corruption_problems(res) -> List[str]:
    """Each deliberately broken result the checks fail to reject. The day
    must have accepted at least one plan."""
    config, report = res.config, res.report
    missed = []
    accepted = [d.schedule for d in report.decisions if d.schedule is not None]
    s = accepted[0]
    omega = config.regions[s.dest_region].vehicle_limit[s.t_plus - 1]
    if not capacity_problems(Counts(accepted + [s] * (omega + 1)), config):
        missed.append("an overfilled arrival slot")
    recount = welfare_of(accepted, Counts(accepted), config)
    if not welfare_problems("online", report.welfare + 0.01, recount):
        missed.append("a welfare off by one cent")
    alpha = report.alphas.alpha
    if not ratio_problems(report.welfare, alpha * report.welfare + 0.01, alpha):
        missed.append("an OPT above alpha * online")
    last = res.readback.decisions[-1]
    changed = dataclasses.replace(
        res.readback, decisions=res.readback.decisions[:-1]
        + (dataclasses.replace(last, utility=last.utility + 1e-9),))
    if not roundtrip_problems(report, changed):
        missed.append("a report that changes on read-back")
    return missed
