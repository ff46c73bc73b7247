"""Deterministic slot simulator for two block-production markets.

The direct flow models a short-horizon chain where builders race an
opportunity that decays within a few hundred milliseconds and the proposer
takes the best bid seen by a narrow listen window, so arrival time decides
slots; a better payment still wins when several bids land inside the
window.  The relay flow is the same race plus a relay delay, rebids through
a long commit-reveal window, and a proposer that signs the best header at
slot end, so achievable value decides slots.

One builder makes a slot's bid schedule for both flows: its bids (builder,
arrival, payment, backing surplus) in arrival order and the proposer's
ranked candidates, a pure function of the scenario, active blacklist and
the value each strategy realizes at birth (_strategy_values).  A campaign
builds one schedule per distinct blacklist set and resolves each slot
against it, so a slot costs only its non-delivery draws, seeded from
(seed, height).  How long a slot stayed contested is read off its schedule
(BidSchedule.contested_ms).

Event timing is rational milliseconds and the opportunity's one piecewise
curve (OpportunityModel) exact rational arithmetic throughout; every
outcome is a pure function of (scenario, seed).  A campaign is
single-threaded by design; parallelize across campaigns, not within one.
"""

from __future__ import annotations

import json
import random
from collections import defaultdict
from enum import Enum
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, get_args, get_origin, get_type_hints

from . import pools as pools_mod
from .pools import SHARE_RATIO_SCALE, enumerate_cycles
from .traces import ConfigError, Frozen, read_json, unique_keys

# The value of a section field whose key did not read (or, as a default,
# of a field that has none: SimScenario.opportunity)
MISSING = object()


class _Section(Frozen):
    """A scenario section: a Frozen type whose fields are its keys, and
    whose ``_check`` lists its faults all at once through ``_faults``."""

    def _faults(self, *checks: tuple[tuple[str, ...], Callable[[], bool], str]) -> None:
        """Raise one ConfigError of every check (keys it reads, fault,
        message) whose fault holds; it runs only if each key it reads did
        read (is not MISSING) and passed its one-key checks, listed first."""
        failed, faults = {key for key in self._fields if getattr(self, key) is MISSING}, []
        for keys, fault, message in checks:
            if failed.isdisjoint(keys) and fault():
                faults.append(message)
                failed.update(keys if len(keys) == 1 else ())
        if faults:
            raise ConfigError(*faults)


class Protocol(Enum):
    BSC_DIRECT = "bsc_direct"
    ETH_RELAY = "eth_relay"


# The horizon of a scenario that names none: one slot of the protocol's chain.
DEFAULT_HORIZON_MS = {Protocol.BSC_DIRECT: Fraction(3000), Protocol.ETH_RELAY: Fraction(12000)}
# Scenario keys a protocol's flow never reads, so a file may not give them:
# the direct flow has no relay, and the relay proposer signs the best header
# at slot end, which the relay always delivers.
UNREAD_KEYS = {
    Protocol.BSC_DIRECT: frozenset({"relay"}),
    Protocol.ETH_RELAY: frozenset({"listen_window_ms", "non_delivery_prob"}),
}


class Strategy(Enum):
    SHORT_HOP = "short_hop"
    LONG_HOP = "long_hop"
    MIXED = "mixed"


class BuilderAgent(_Section):
    id: str
    latency_ms: Fraction
    strategy: Strategy = Strategy.SHORT_HOP
    share_ratio_bp: int = 0
    infra_tier: Fraction = Fraction(1)
    non_delivery_prob: float = 0.0

    def _check(self) -> None:
        self._faults(
            (("id",), lambda: not self.id, "id: must not be empty"),
            (("latency_ms",), lambda: self.latency_ms < 0, "latency_ms: must be >= 0"),
            (("share_ratio_bp",), lambda: not 0 <= self.share_ratio_bp <= SHARE_RATIO_SCALE,
             f"share_ratio_bp: must be in [0, {SHARE_RATIO_SCALE}]"),
            (("infra_tier",), lambda: self.infra_tier <= 0, "infra_tier: must be > 0"),
            (("non_delivery_prob",), lambda: not 0.0 <= self.non_delivery_prob <= 1.0, "non_delivery_prob: must be in [0, 1]"),
        )

    @property
    def efficiency(self) -> Fraction:
        """Fraction of an opportunity this builder's pipeline can realize.

        Diminishing returns in infra tier: tier/(tier+1), so better
        infrastructure always extracts more but never the full surplus.
        """
        return self.infra_tier / (self.infra_tier + 1)

    def compute_ms(self, base_compute_ms: Fraction) -> Fraction:
        return base_compute_ms / self.infra_tier


class OpportunityModel(_Section):
    """Value of an arbitrage opportunity as a function of time.

    One piecewise curve (decay "piecewise", the only shape): flat at
    peak_value until knee_ms after birth, linear down to gas_floor at
    deadline_ms, then tail_value (below gas_floor, at most peak_value).
    value() is exact rational arithmetic, non-increasing and exactly
    peak_value at birth.
    """

    peak_value: int
    gas_floor: int
    birth_ms: Fraction = Fraction(0)
    decay: str = "piecewise"
    knee_ms: Fraction = Fraction(100)
    deadline_ms: Fraction = Fraction(200)
    tail_value: int = 0

    def _check(self) -> None:
        tail = "tail_value: must be >= 0 and below gas_floor, unless 0"
        self._faults(
            (("peak_value",), lambda: self.peak_value < 0, "peak_value: must be >= 0"),
            (("gas_floor",), lambda: self.gas_floor < 0, "gas_floor: must be >= 0"),
            (("decay",), lambda: self.decay != "piecewise", f"decay: expected 'piecewise', got {self.decay!r:.40}"),
            (("tail_value",), lambda: self.tail_value < 0, tail),
            (("tail_value", "gas_floor"), lambda: self.tail_value >= max(self.gas_floor, 1), tail),
            (("tail_value", "peak_value"), lambda: self.tail_value > self.peak_value, "tail_value: must be <= peak_value"),
            (("knee_ms", "deadline_ms"), lambda: not 0 <= self.knee_ms < self.deadline_ms, "knee_ms: must be >= 0 and below deadline_ms"),
        )

    def value(self, t_ms: Fraction) -> int:
        elapsed = t_ms - self.birth_ms
        if elapsed < 0:  # a library contract: a first arrival is birth plus latency and compute, never earlier
            return 0
        if elapsed >= self.deadline_ms:
            return self.tail_value
        if elapsed <= self.knee_ms:
            return self.peak_value
        # the peak clamp keeps a peak below gas_floor from rising toward it
        slope = Fraction(self.peak_value - self.gas_floor) / (self.deadline_ms - self.knee_ms)
        return min(self.peak_value, int(self.peak_value - slope * (elapsed - self.knee_ms)))


class Bid(Frozen):
    builder_id: str
    timestamp_ms: Fraction
    offered_payment: int
    delta: int  # the builder's realized surplus backing the bid

    def _check(self) -> None:
        if self.offered_payment > self.delta:  # a library contract: split_delta never pays out more than the delta
            raise ValueError("insolvent bid: payment exceeds realized surplus")


class ProposerConfig(_Section):
    """Proposers take slots in turn (round robin, the only rotation); a
    builder that fails to deliver is on that proposer's blacklist for
    blacklist_slots slots."""

    count: int = 1
    rotation: str = "round_robin"
    blacklist_slots: int = 100

    def _check(self) -> None:
        self._faults(
            (("count",), lambda: self.count < 1, "count: must be >= 1"),
            (("rotation",), lambda: self.rotation != "round_robin", f"rotation: expected 'round_robin', got {self.rotation!r:.40}"),
            (("blacklist_slots",), lambda: self.blacklist_slots < 0, "blacklist_slots: must be >= 0"),
        )


class RelayConfig(_Section):
    delay_ms: Fraction = Fraction(0)
    rebid_interval_ms: Fraction = Fraction(500)
    optimization_rounds: int = 8
    rebids_enabled: bool = True

    def _check(self) -> None:
        self._faults(
            (("delay_ms",), lambda: self.delay_ms < 0, "delay_ms: must be >= 0"),
            (("rebid_interval_ms",), lambda: self.rebid_interval_ms <= 0, "rebid_interval_ms: must be > 0"),
            (("optimization_rounds",), lambda: self.optimization_rounds < 1, "optimization_rounds: must be >= 1"),
        )


class SimScenario(_Section):
    """A scenario file: each field is the top-level key of its name, except
    that the file's pools key names the pool file that pools is read from.
    Every field is keyword-only, and protocol and opportunity are required."""

    protocol: Protocol
    # None takes DEFAULT_HORIZON_MS[protocol]; the type is not Optional, so
    # a file's null is an error
    horizon_ms: Fraction = None
    listen_window_ms: Fraction = Fraction(50)
    base_compute_ms: Fraction = Fraction(10)
    builders: tuple[BuilderAgent, ...] = ()
    opportunity: OpportunityModel = MISSING  # required all the same: see SimScenario.__new__
    proposers: ProposerConfig = ProposerConfig()
    relay: RelayConfig = RelayConfig()
    pools: Optional[dict[bytes, pools_mod.PoolState]] = None
    embodied_base_symbol: Optional[str] = None

    def __new__(cls, *, protocol: Protocol, opportunity: OpportunityModel, horizon_ms: Fraction = None, **fields):
        if horizon_ms is None:  # a protocol that did not read gives no horizon to check
            horizon_ms = MISSING if protocol is MISSING else DEFAULT_HORIZON_MS[protocol]
        return super().__new__(cls, protocol=protocol, horizon_ms=horizon_ms, opportunity=opportunity, **fields)

    def _check(self) -> None:
        symbol, loaded, reads = self.embodied_base_symbol, self.pools, ("embodied_base_symbol", "pools")
        self._faults(
            (("horizon_ms",), lambda: self.horizon_ms <= 0, "horizon_ms: must be > 0"),
            (("listen_window_ms",), lambda: self.listen_window_ms < 0, "listen_window_ms: must be >= 0"),
            (("base_compute_ms",), lambda: self.base_compute_ms < 0, "base_compute_ms: must be >= 0"),
            (("builders",), lambda: len({b.id for b in self.builders}) != len(self.builders), "builders: duplicate ids"),
            (reads, lambda: symbol is not None and loaded is None, f"embodied_base_symbol {symbol!r} is given, but no pools are loaded"),
            (reads, lambda: None not in (symbol, loaded) and all(symbol not in (p.token0.symbol, p.token1.symbol) for p in loaded.values()),
             f"embodied_base_symbol {symbol!r} names no token of the pool file"),
        )


class BidSchedule(Frozen):
    """A slot's bids, which depend on neither its height nor its seed:
    every bid in arrival order, and the bids the proposer tries, best
    first, each with its builder's non-delivery probability."""

    received: tuple[Bid, ...]
    candidates: tuple[tuple[Bid, float], ...]

    def _check(self) -> None:
        # a slot's winner is a candidate, so it appears among received bids
        received = set(self.received)
        if any(bid not in received for bid, _prob in self.candidates):
            raise ValueError("candidate bids must appear among received bids")

    @property
    def contested_ms(self) -> Fraction:
        """How long the slot stayed contested: from the first candidate's
        arrival to the last candidate arrival that changed the best
        candidate's builder (best first, as the proposer tries them; a
        builder that outbids itself changes nothing), or 0 with no
        candidates."""
        arrivals = sorted((bid for bid, _prob in self.candidates), key=lambda b: (b.timestamp_ms, b.builder_id))
        if not arrivals:
            return Fraction(0)
        best = last_change = arrivals[0]
        for bid in arrivals[1:]:
            if _best_first(bid) < _best_first(best):
                if bid.builder_id != best.builder_id:
                    last_change = bid
                best = bid
        return last_change.timestamp_ms - arrivals[0].timestamp_ms


class SlotOutcome(Frozen):
    height: int
    winner: Optional[str]  # None: no builder won, so the proposer built its own block
    proposer_payment: int
    blacklist_events: tuple[str, ...]
    schedule: BidSchedule  # the schedule the slot was resolved against
    realized_builder_profit: int


def _make_bid(agent: BuilderAgent, t: Fraction, delta: int) -> Bid:
    payout, _kept = pools_mod.split_delta(delta, agent.share_ratio_bp)
    return Bid(builder_id=agent.id, timestamp_ms=t, offered_payment=payout, delta=delta)


def _best_first(bid: Bid) -> tuple:
    return (-bid.offered_payment, bid.timestamp_ms, bid.builder_id)


def _schedule(scenario: SimScenario, blacklisted: frozenset[str], values: dict[Strategy, int]) -> BidSchedule:
    """Bids of one slot in either flow.

    A builder's undecayed value is values[its strategy]; at time t it has
    decayed in the opportunity's proportion, value(t) / peak_value.  A
    builder sees the opportunity one latency after birth and computes for
    base_compute/tier; its first bid lands another latency later, plus the
    relay delay in the relay flow, and is never made past the horizon.  A
    sealed bid, the direct flow's and the relay flow's without rebids, is
    the value as decayed at landing, times the builder's efficiency, and is
    made only above gas_floor.  With rebids, a relay builder whose
    undecayed value clears gas_floor locks in what the race left at
    delivery, and each rebid through the window unlocks more of its ceiling
    (undecayed value times efficiency) as optimization rounds complete.

    The direct proposer tries the bids that arrived by max(listen window,
    first arrival), best first, each of which may fail to deliver.  The
    relay proposer signs the best header at slot end and the relay always
    delivers it: the cutoff is the horizon and nothing fails.
    """
    opportunity, relay, horizon = scenario.opportunity, scenario.relay, scenario.horizon_ms
    peak = opportunity.peak_value
    relayed = scenario.protocol is Protocol.ETH_RELAY
    rebids = relayed and relay.rebids_enabled
    delay_ms = relay.delay_ms if relayed else 0
    bids: list[Bid] = []
    for agent in sorted(scenario.builders, key=lambda b: b.id):
        if agent.id in blacklisted:
            continue
        first = opportunity.birth_ms + 2 * agent.latency_ms + agent.compute_ms(scenario.base_compute_ms) + delay_ms
        if first > horizon:
            continue
        base = values[agent.strategy]
        raw = int(base * Fraction(opportunity.value(first), peak)) if base else 0
        if not rebids:
            if raw > opportunity.gas_floor:  # worth executing once it lands
                bids.append(_make_bid(agent, first, int(raw * agent.efficiency)))
            continue
        if base <= opportunity.gas_floor:
            continue  # nothing worth building around this slot
        locked = int(raw * agent.efficiency)
        bids.append(_make_bid(agent, first, locked))
        ceiling = int(base * agent.efficiency)
        for k in range(1, relay.optimization_rounds + 1):
            t = first + k * relay.rebid_interval_ms
            if t > horizon:
                break
            improved = max(locked, ceiling * k // relay.optimization_rounds)
            bids.append(_make_bid(agent, t, improved))
            if improved >= ceiling:
                break

    bids.sort(key=lambda b: (b.timestamp_ms, b.builder_id))
    if relayed:
        cutoff, non_delivery = horizon, {}
    else:
        cutoff = max(scenario.listen_window_ms, bids[0].timestamp_ms if bids else 0)
        non_delivery = {a.id: a.non_delivery_prob for a in scenario.builders}
    competing = sorted((b for b in bids if b.timestamp_ms <= cutoff), key=_best_first)
    return BidSchedule(tuple(bids), tuple((b, non_delivery.get(b.builder_id, 0.0)) for b in competing))


def _resolve_slot(schedule: BidSchedule, height: int, rng_seed: int) -> SlotOutcome:
    """The first candidate that delivers wins; a failed delivery blacklists
    its builder, and with none left the proposer falls back to its own
    block.  The RNG, seeded from (seed, height), is only created once a
    candidate that may fail is tried."""
    rng: Optional[random.Random] = None
    events: list[str] = []  # builders that failed to deliver, in the order tried
    for bid, non_delivery_prob in schedule.candidates:
        if non_delivery_prob > 0:
            # string seeding hashes via SHA-512 internally, stable across platforms
            rng = rng or random.Random(f"bsc:{rng_seed}:{height}")
            if rng.random() < non_delivery_prob:
                events.append(bid.builder_id)
                continue
        profit = bid.delta - bid.offered_payment
        return SlotOutcome(height, bid.builder_id, bid.offered_payment, tuple(events), schedule, profit)
    return SlotOutcome(height, None, 0, tuple(events), schedule, 0)


def run_slot_bsc(
    builders: Sequence[BuilderAgent],
    opportunity: OpportunityModel,
    rng_seed: int,
    *,
    height: int = 0,
    horizon_ms: Optional[Fraction] = None,
    listen_window_ms: Fraction = SimScenario._field_defaults["listen_window_ms"],
    base_compute_ms: Fraction = SimScenario._field_defaults["base_compute_ms"],
    blacklisted: frozenset[str] = frozenset(),
) -> SlotOutcome:
    """One direct single-round slot: its bid schedule, then its resolution.
    The timing keywords are SimScenario's fields."""
    scenario = SimScenario(
        protocol=Protocol.BSC_DIRECT, builders=tuple(builders), opportunity=opportunity,
        horizon_ms=horizon_ms, listen_window_ms=listen_window_ms, base_compute_ms=base_compute_ms,
    )
    return _resolve_slot(_schedule(scenario, blacklisted, _strategy_values(scenario)), height, rng_seed)


def run_slot_eth(
    builders: Sequence[BuilderAgent],
    relay: RelayConfig,
    opportunity: OpportunityModel,
    rng_seed: int,
    *,
    height: int = 0,
    horizon_ms: Optional[Fraction] = None,
    base_compute_ms: Fraction = SimScenario._field_defaults["base_compute_ms"],
) -> SlotOutcome:
    """One relay-mediated slot: its bid schedule, then its resolution.
    The timing keywords are SimScenario's fields."""
    scenario = SimScenario(
        protocol=Protocol.ETH_RELAY, builders=tuple(builders), opportunity=opportunity, relay=relay,
        horizon_ms=horizon_ms, base_compute_ms=base_compute_ms,
    )
    return _resolve_slot(_schedule(scenario, frozenset(), _strategy_values(scenario)), height, rng_seed)


# ---------------------------------------------------------------------------
# scenarios and campaigns


def _from_json(kind, value, unread: frozenset[str], problems: list[str], where: str = ""):
    """A JSON value read as kind, or MISSING once a fault, named by where
    it is (``builders[1]: latency_ms: ...``), is added to problems.  A
    section is read from an object whose keys are its fields, each by its
    type hint (absent: the field's default; no field, or in unread: an
    error), and built with MISSING in each field that did not read, so its
    checks run on the rest.  ``tuple[X, ...]`` is read from an array of X,
    ``Optional[X]`` from null or X, and any other type by read_json."""
    if value is MISSING or value is None and type(None) in get_args(kind):
        return value  # a value that failed before (a pool file), or null as Optional's none
    kind = get_args(kind)[0] if type(None) in get_args(kind) else kind
    found = len(problems)
    try:
        if get_origin(kind) is tuple:
            entries = read_json(value, where, list)
            items = tuple(_from_json(get_args(kind)[0], v, unread, problems, f"{where}[{i}]") for i, v in enumerate(entries))
            return items if len(problems) == found else MISSING
        if not (isinstance(kind, type) and issubclass(kind, _Section)):
            return read_json(value, where, get_origin(kind) or kind)
        section = read_json(value, where, dict)
    except ValueError as exc:
        problems.append(str(exc))
        return MISSING
    at = f"{where}: " if where else ""
    unknown = sorted(set(section).difference(key for key in kind._fields if key not in unread))
    if unknown:
        problems.append(f"{at}unknown keys {', '.join(unknown)}")
    required = [key for key in kind._fields if kind._field_defaults.get(key, MISSING) is MISSING]
    values = dict.fromkeys(required, MISSING)  # an absent one did not read
    hints = get_type_hints(kind)
    for key in kind._fields:
        if key in section and key not in unread:
            values[key] = _from_json(hints[key], section[key], unread, problems, at + key)
        elif key in required:
            problems.append(f"{at}missing {key}")
    try:
        section = kind(**values)
    except ConfigError as exc:
        problems.extend(at + fault for fault in exc.args)
    return section if len(problems) == found else MISSING


def load_scenario(path: str | Path) -> SimScenario:
    """A scenario JSON file read as a SimScenario (see _from_json).  One
    ConfigError lists every fault: a file that does not read as one JSON
    object of distinct keys, a pool file's fault, each key's, a key its
    protocol's flow never reads (UNREAD_KEYS), a symbol of no loaded pool."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = read_json(json.load(fh, object_pairs_hook=unique_keys), "scenario", dict)
    except (OSError, ValueError, RecursionError) as exc:  # ConfigError and JSONDecodeError are ValueErrors
        raise ConfigError(f"invalid scenario keys: {path}: {exc}") from None
    # a protocol that does not read is a fault of its own, which leaves no key unread
    unread = next((keys for protocol, keys in UNREAD_KEYS.items() if protocol.value == obj.get("protocol")), frozenset())
    problems: list[str] = []
    # the one key whose value is not its field's: it names the pool file
    pool_file, obj["pools"] = obj.get("pools"), None
    try:
        if pool_file is not None and read_json(pool_file, "path", str):  # "" names no file
            with open(Path(path).parent / pool_file, "rb") as fh:
                obj["pools"] = pools_mod.load_pool_file(fh)
    except (OSError, ValueError) as exc:  # a LineError is a ValueError
        problems.append(f"pools: {exc}")
        obj["pools"] = MISSING
    scenario = _from_json(SimScenario, obj, unread, problems)
    if problems:
        raise ConfigError("invalid scenario keys: " + "; ".join(problems))
    return scenario


def _strategy_values(scenario: SimScenario) -> dict[Strategy, int]:
    """The value each strategy realizes at birth, before the efficiency
    haircut: peak_value in an analytic scenario.  With pools, it is the best
    surplus searched over the strategy's cycles (short_hop's 2-hop, long_hop's
    3-hop, mixed's either), each searched once over its search_range, or 0
    when none is profitable; the schedule decays it as pools drift back
    toward balance, in the opportunity's proportion.  Every value is 0 when
    peak_value is.  A cycle is searched only if its profit_bound, visited
    falling, is above the best found for its hop count: a skipped cycle's
    pick, at most its bound, could not have raised that best."""
    peak = scenario.opportunity.peak_value
    if scenario.pools is None:
        return dict.fromkeys(Strategy, peak)
    cycles = enumerate_cycles(scenario.pools, scenario.embodied_base_symbol)
    if not cycles:
        raise ConfigError("pools: fixture contains no executable cycle")
    if peak == 0:
        return dict.fromkeys(Strategy, 0)
    best = {2: 0, 3: 0}  # by hop count, the only two enumerate_cycles lists
    bounded = [(pools_mod.profit_bound(descriptor, scenario.pools), descriptor) for descriptor in cycles]
    for bound, descriptor in sorted(bounded, key=itemgetter(0), reverse=True):
        if bound > best[descriptor.n_hops]:
            _, delta = pools_mod.best_input_search(descriptor, scenario.pools, *pools_mod.search_range(scenario.pools, descriptor))
            best[descriptor.n_hops] = max(best[descriptor.n_hops], delta)
    return {Strategy.SHORT_HOP: best[2], Strategy.LONG_HOP: best[3], Strategy.MIXED: max(best.values())}


class CampaignSummary:
    """The fold of a campaign's slots: the slot count and, per builder
    (sorted by id), its wins, realized profit and proposer revenue."""

    def __init__(self, builders: Iterable[BuilderAgent]) -> None:
        self.n_slots = 0
        self.wins = {builder_id: 0 for builder_id in sorted(b.id for b in builders)}
        self.profit, self.revenue = dict(self.wins), dict(self.wins)

    def add(self, outcome: SlotOutcome) -> None:
        self.n_slots += 1
        if outcome.winner is not None:
            self.wins[outcome.winner] += 1
            self.profit[outcome.winner] += outcome.realized_builder_profit
            self.revenue[outcome.winner] += outcome.proposer_payment

    @property
    def fallback_rate(self) -> Fraction:
        """Share of slots no builder won."""
        return Fraction(self.n_slots - sum(self.wins.values()), self.n_slots)


def run_campaign(scenario: SimScenario, n_slots: int, rng_seed: int) -> Iterator[SlotOutcome]:
    """The outcomes of sequential slots, in height order, with round-robin
    proposers and per-proposer, time-limited blacklists.  Bids depend only
    on the scenario and the active blacklist, so each distinct blacklist
    gets one bid schedule and every slot is resolved against its cached
    schedule.  A bad n_slots or pool fixture raises here, before the first
    slot is asked for."""
    if n_slots < 1:
        raise ConfigError("n_slots must be >= 1")
    values = _strategy_values(scenario)

    def slots() -> Iterator[SlotOutcome]:
        schedules: dict[frozenset[str], BidSchedule] = {}
        blacklists: defaultdict[int, dict[str, int]] = defaultdict(dict)  # by proposer, made on first use
        for height in range(n_slots):
            blacklist = blacklists[height % scenario.proposers.count]
            active = frozenset(builder for builder, expiry in blacklist.items() if expiry > height) if blacklist else frozenset()
            schedule = schedules.get(active)
            if schedule is None:
                schedule = schedules[active] = _schedule(scenario, active, values)
            outcome = _resolve_slot(schedule, height, rng_seed)
            for offender in outcome.blacklist_events:
                blacklist[offender] = height + scenario.proposers.blacklist_slots
            yield outcome

    return slots()
