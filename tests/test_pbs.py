"""Slot auctions: decay model, both market flows, campaigns, contested windows."""

import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from mevforge import BUNDLED_SCENARIOS as SCENARIOS, fixtures, pools
from mevforge.pbs import (
    Bid,
    BidSchedule,
    BuilderAgent,
    ConfigError,
    OpportunityModel,
    ProposerConfig,
    Protocol,
    RelayConfig,
    SimScenario,
    Strategy,
    CampaignSummary,
    load_scenario,
    run_campaign,
    run_slot_bsc,
    run_slot_eth,
)

import strategies


def agent(aid, latency, tier=1, bp=2500, nd=0.0, strategy=Strategy.SHORT_HOP):
    return BuilderAgent(
        id=aid,
        latency_ms=Fraction(latency),
        strategy=strategy,
        share_ratio_bp=bp,
        infra_tier=Fraction(tier),
        non_delivery_prob=nd,
    )


OPP = OpportunityModel(peak_value=10**9, gas_floor=1000)


# -- opportunity decay --------------------------------------------------------


def test_piecewise_decay_shape():
    assert OPP.value(Fraction(0)) == OPP.peak_value
    assert OPP.value(Fraction(100)) == OPP.peak_value  # flat until the knee
    assert OPP.gas_floor < OPP.value(Fraction(150)) < OPP.peak_value
    assert OPP.value(Fraction(200)) == 0  # tail below the gas floor
    assert OPP.value(Fraction(10**6)) == 0


def test_value_before_birth_is_zero():
    """simulate values a bid at its first arrival, which is never before
    birth; a library caller asking earlier gets 0, not the peak."""
    model = OPP._replace(birth_ms=Fraction(50))
    assert model.value(Fraction(0)) == 0
    assert model.value(Fraction(50) - Fraction(1, 10**9)) == 0
    assert model.value(Fraction(50)) == model.peak_value


def test_peak_too_large_for_a_float_is_exact():
    # exact rational arithmetic: a peak no float holds loads and is valued exactly
    model = OpportunityModel(peak_value=10**400, gas_floor=1000)
    assert model.value(Fraction(0)) == 10**400
    assert model.value(model.knee_ms) == 10**400


@given(
    t1=st.fractions(min_value=0, max_value=1000),
    t2=st.fractions(min_value=0, max_value=1000),
    # odd peaks above 2**53 have no exact float; peaks below the floor must not rise to it
    peak=st.one_of(
        st.just(10**9),
        st.integers(min_value=2**53, max_value=2**200).map(lambda n: n | 1),
        st.integers(min_value=0, max_value=999),
    ),
    data=st.data(),
)
def test_decay_is_non_increasing_and_crosses_floor(t1, t2, peak, data):
    tail = data.draw(st.integers(min_value=0, max_value=min(peak, 999)), label="tail_value")
    model = OpportunityModel(peak_value=peak, gas_floor=1000, tail_value=tail)
    lo, hi = sorted((t1, t2))
    assert model.value(lo) >= model.value(hi)
    assert model.tail_value <= model.value(hi) <= model.value(lo) <= model.peak_value
    assert model.value(model.birth_ms) == model.peak_value
    assert model.value(model.birth_ms + (model.knee_ms + model.deadline_ms) / 2) <= model.peak_value
    assert model.value(model.birth_ms + model.deadline_ms) < model.gas_floor


def test_opportunity_validation():
    with pytest.raises(ConfigError):
        OpportunityModel(peak_value=10, gas_floor=5, tail_value=5)
    with pytest.raises(ConfigError):
        OpportunityModel(peak_value=10, gas_floor=5, knee_ms=Fraction(300), deadline_ms=Fraction(200))
    # a tail above the peak would make value() rise at the deadline
    with pytest.raises(ConfigError, match="tail_value"):
        OpportunityModel(peak_value=100, gas_floor=1000, tail_value=500)


def test_agent_validation():
    with pytest.raises(ConfigError):
        agent("x", -1)
    with pytest.raises(ConfigError):
        BuilderAgent(id="x", latency_ms=Fraction(1), share_ratio_bp=10001)


@pytest.mark.parametrize(
    "make, keys",
    [
        pytest.param(
            lambda: BuilderAgent(
                id="", latency_ms=Fraction(-1), share_ratio_bp=-1, infra_tier=Fraction(0), non_delivery_prob=1.5
            ),
            ["id", "latency_ms", "share_ratio_bp", "infra_tier", "non_delivery_prob"],
            id="builder",
        ),
        pytest.param(
            lambda: OpportunityModel(peak_value=-1, gas_floor=-1, tail_value=-1, knee_ms=Fraction(300)),
            ["peak_value", "gas_floor", "tail_value", "knee_ms"],
            id="opportunity",
        ),
        pytest.param(
            lambda: OpportunityModel(peak_value=10**400, gas_floor=10**401, tail_value=10**400 + 1),
            ["tail_value"],
            id="opportunity-tail-above-peak",
        ),
        pytest.param(
            lambda: ProposerConfig(count=0, rotation="x", blacklist_slots=-1),
            ["count", "rotation", "blacklist_slots"],
            id="proposers",
        ),
        pytest.param(
            lambda: RelayConfig(delay_ms=Fraction(-1), rebid_interval_ms=Fraction(0), optimization_rounds=0),
            ["delay_ms", "rebid_interval_ms", "optimization_rounds"],
            id="relay",
        ),
        pytest.param(
            lambda: SimScenario(
                protocol=Protocol.BSC_DIRECT, horizon_ms=Fraction(-1), listen_window_ms=Fraction(-1),
                base_compute_ms=Fraction(-1), builders=(agent("a", 10), agent("a", 20)), opportunity=OPP,
            ),
            ["horizon_ms", "listen_window_ms", "base_compute_ms", "builders"],
            id="scenario",
        ),
    ],
)
def test_a_section_names_every_failing_key_in_one_config_error(make, keys):
    with pytest.raises(ConfigError) as excinfo:
        make()
    faults = excinfo.value.args
    assert [fault.split(":")[0] for fault in faults] == keys
    assert str(excinfo.value) == "; ".join(faults)


# -- direct (short-horizon) flow ----------------------------------------------


def test_zero_builders_falls_back():
    outcome = run_slot_bsc([], OPP, rng_seed=1)
    assert outcome.winner is None
    assert outcome.proposer_payment == 0


def test_slow_builder_decayed_below_floor_always_loses():
    fast, slow = agent("fast", 10), agent("slow", 120)
    for height in range(1000):
        outcome = run_slot_bsc([fast, slow], OPP, rng_seed=7, height=height)
        assert outcome.winner == "fast"
    # the slow builder's bundle would land after the deadline, worthless
    assert OPP.value(Fraction(0) + 2 * slow.latency_ms + slow.compute_ms(Fraction(10))) == 0


def test_identical_builders_tie_break_lexicographic_and_deterministic():
    a, b = agent("aardvark", 20), agent("bison", 20)
    first = run_slot_bsc([a, b], OPP, rng_seed=3, height=5)
    again = run_slot_bsc([b, a], OPP, rng_seed=3, height=5)
    assert first == again
    assert first.winner == "aardvark"


def test_listen_window_collects_equal_arrivals():
    # both arrive inside the 50 ms listen window; the better payment wins
    generous, stingy = agent("generous", 10, bp=9000), agent("stingy", 5, bp=100)
    outcome = run_slot_bsc([generous, stingy], OPP, rng_seed=1)
    assert outcome.winner == "generous"
    assert len(outcome.schedule.received) == 2


def test_bid_after_cutoff_is_recorded_but_cannot_win():
    early, late = agent("early", 20), agent("late", 40, bp=9000)
    outcome = run_slot_bsc([early, late], OPP, rng_seed=1)
    assert {b.builder_id for b in outcome.schedule.received} == {"early", "late"}
    assert outcome.winner == "early"  # late pays more but arrives past the cutoff


def test_non_delivery_blacklists_and_advances():
    flaky = agent("flaky", 10, bp=9000, nd=1.0)
    backup = agent("backup", 12, bp=100)
    outcome = run_slot_bsc([flaky, backup], OPP, rng_seed=11)
    assert outcome.blacklist_events == ("flaky",)
    assert outcome.winner == "backup"


def test_all_deliveries_fail_falls_back():
    flaky = agent("flaky", 10, nd=1.0)
    outcome = run_slot_bsc([flaky], OPP, rng_seed=11)
    assert outcome.winner is None
    assert outcome.blacklist_events == ("flaky",)


def test_schedule_candidate_missing_from_received_is_rejected():
    arrived = Bid("a", Fraction(50), 10, 40)
    stray = Bid("b", Fraction(60), 20, 40)
    assert BidSchedule((arrived,), ((arrived, 0.0),)).candidates == ((arrived, 0.0),)
    with pytest.raises(ValueError, match="candidate bids must appear among received bids"):
        BidSchedule((arrived,), ((arrived, 0.0), (stray, 0.1)))
    with pytest.raises(ValueError, match="among received bids"):
        BidSchedule((arrived,), ((Bid("a", Fraction(50), 11, 40), 0.0),))  # same builder, other bid


def test_duplicate_builder_ids_are_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="builders: duplicate ids"):
        run_slot_bsc([agent("a", 10), agent("a", 20)], OPP, rng_seed=1)
    path = write_scenario(tmp_path, lambda o: o["builders"][1].update(id="alpha"))
    with pytest.raises(ConfigError, match="invalid scenario keys: builders: duplicate ids"):
        load_scenario(path)


def test_realized_profit_never_negative():
    outcome = run_slot_bsc([agent("a", 10, bp=10000)], OPP, rng_seed=2)
    assert outcome.realized_builder_profit >= 0
    assert outcome.proposer_payment >= 0


# -- relay (long-horizon) flow ------------------------------------------------


def test_single_builder_wins_with_its_single_bid():
    solo = agent("solo", 30, tier=2)
    relay = RelayConfig(rebids_enabled=False)
    outcome = run_slot_eth([solo], relay, OPP, rng_seed=1)
    assert outcome.winner == "solo"
    assert len(outcome.schedule.received) == 1
    assert outcome.proposer_payment == outcome.schedule.received[0].offered_payment


def test_higher_tier_builder_wins_despite_latency():
    fast_small = agent("fast", 20, tier=1)
    slow_big = agent("slow", 120, tier=3, strategy=Strategy.MIXED)
    outcome = run_slot_eth([fast_small, slow_big], RelayConfig(), OPP, rng_seed=1)
    assert outcome.winner == "slow"
    # and flipping the latencies does not change the winner
    flipped = [agent("fast", 120, tier=1), agent("slow", 20, tier=3)]
    assert run_slot_eth(flipped, RelayConfig(), OPP, rng_seed=1).winner == "slow"


def test_degenerates_to_direct_flow_without_rebids():
    builders = [agent("alpha", 20, tier=1), agent("beta", 120, tier=3)]
    relay = RelayConfig(delay_ms=Fraction(0), rebids_enabled=False)
    for height in range(200):
        direct = run_slot_bsc(builders, OPP, rng_seed=5, height=height)
        relayed = run_slot_eth(builders, relay, OPP, rng_seed=5, height=height, horizon_ms=Fraction(3000))
        assert direct.winner == relayed.winner


def test_latency_neutrality_with_unbounded_rebids():
    import random

    rng = random.Random(77)
    for _ in range(25):
        tiers = rng.sample(range(1, 9), 3)
        builders = [
            agent(f"b{i}", rng.randint(1, 900), tier=tiers[i], bp=rng.choice((100, 2500, 8000)))
            for i in range(3)
        ]
        outcome = run_slot_eth(builders, RelayConfig(delay_ms=Fraction(0)), OPP, rng_seed=9)
        expected = max(
            builders,
            key=lambda b: (
                pools.split_delta(int(Fraction(OPP.peak_value) * b.efficiency), b.share_ratio_bp)[0],
                b.id,
            ),
        )
        ceiling_payment = pools.split_delta(int(Fraction(OPP.peak_value) * expected.efficiency), expected.share_ratio_bp)[0]
        assert outcome.winner == expected.id
        assert outcome.proposer_payment == ceiling_payment


# -- campaigns ----------------------------------------------------------------


def duopoly(protocol):
    return load_scenario(SCENARIOS / ("bsc_duopoly.json" if protocol is Protocol.BSC_DIRECT else "eth_duopoly.json"))


def campaign(scenario, n_slots, rng_seed):
    """A campaign's outcomes, collected, and their fold."""
    summary = CampaignSummary(scenario.builders)
    outcomes = list(run_campaign(scenario, n_slots, rng_seed))
    for outcome in outcomes:
        summary.add(outcome)
    return outcomes, summary


def counts(summary):
    """The fold's counts, in its builder order."""
    return summary.n_slots, [(b, summary.wins[b], summary.profit[b], summary.revenue[b]) for b in summary.wins]


def test_campaign_single_slot_summary_matches_slot():
    outcomes, summary = campaign(duopoly(Protocol.BSC_DIRECT), 1, rng_seed=4)
    assert len(outcomes) == 1
    winner = outcomes[0].winner
    assert summary.wins[winner] == 1
    assert Fraction(summary.wins[winner], summary.n_slots) == 1
    assert summary.revenue[winner] == outcomes[0].proposer_payment


def test_campaign_is_deterministic():
    first, first_summary = campaign(duopoly(Protocol.BSC_DIRECT), 500, rng_seed=42)
    second, second_summary = campaign(duopoly(Protocol.BSC_DIRECT), 500, rng_seed=42)
    assert first == second
    assert counts(first_summary) == counts(second_summary)


def test_dominant_builder_wins_with_latency_gap():
    scenario = duopoly(Protocol.BSC_DIRECT)
    _outcomes, summary = campaign(scenario, 2000, rng_seed=1)
    assert Fraction(summary.wins["alpha"], summary.n_slots) >= Fraction(95, 100)
    assert summary.fallback_rate == 0


def test_twenty_ms_gap_still_winner_takes_all():
    scenario = SimScenario(
        protocol=Protocol.BSC_DIRECT,
        builders=(agent("near", 20, bp=2500), agent("far", 40, bp=2500)),
        opportunity=OPP,
        proposers=ProposerConfig(count=3),
    )
    _outcomes, summary = campaign(scenario, 2000, rng_seed=2)
    assert Fraction(summary.wins["near"], summary.n_slots) >= Fraction(95, 100)


def test_blacklist_makes_next_best_win_for_its_duration():
    base = {
        "protocol": "bsc_direct",
        "horizon_ms": 3000,
        "builders": [
            {"id": "alpha", "latency_ms": 10, "share_ratio_bp": 9000, "non_delivery_prob": 0.0},
            {"id": "beta", "latency_ms": 12, "share_ratio_bp": 100, "non_delivery_prob": 0.0},
        ],
        "opportunity": {"peak_value": 10**9, "gas_floor": 1000},
        "proposers": {"count": 1, "blacklist_slots": 50},
    }
    forced = json.loads(json.dumps(base))
    forced["builders"][0]["non_delivery_prob"] = 1.0

    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        clean_path = os.path.join(tmp, "clean.json")
        forced_path = os.path.join(tmp, "forced.json")
        json.dump(base, open(clean_path, "w"))
        json.dump(forced, open(forced_path, "w"))
        clean, _summary = campaign(load_scenario(clean_path), 60, rng_seed=8)
        broken, _summary = campaign(load_scenario(forced_path), 60, rng_seed=8)

    assert all(o.winner == "alpha" for o in clean)
    # slot 0: alpha fails delivery, beta is next-best; afterwards alpha is
    # blacklisted and beta keeps winning for the blacklist duration
    assert broken[0].blacklist_events == ("alpha",)
    assert broken[0].winner == "beta"
    assert all(o.winner == "beta" for o in broken[:50])


def test_latency_monotonicity_in_win_count():
    def wins_at(latency):
        scenario = SimScenario(
            protocol=Protocol.BSC_DIRECT,
            builders=(
                agent("mover", latency, bp=500),
                agent("rival1", 25, bp=500),
                agent("rival2", 40, bp=500),
            ),
            opportunity=OPP,
        )
        _outcomes, summary = campaign(scenario, 200, rng_seed=6)
        return summary.wins["mover"]

    counts = [wins_at(latency) for latency in (120, 60, 30, 24, 12, 5)]
    assert counts == sorted(counts)


def test_scenario_error_lists_offending_keys(tmp_path):
    bad = {
        "protocol": "quantum",
        "builders": [{"id": "x", "latency_ms": -5}],
        "opportunity": {"peak_value": 10},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ConfigError) as excinfo:
        load_scenario(path)
    message = str(excinfo.value)
    assert "protocol" in message and "builders[0]" in message and "opportunity" in message


# -- embodied mode ------------------------------------------------------------


# A direct-flow scenario priced by pool search over EMBODIED_POOLS, which it
# names as pools.ndjson beside it.
EMBODIED_SCENARIO = {
    "protocol": "bsc_direct",
    "horizon_ms": 3000,
    "builders": [
        {"id": "tri", "latency_ms": 10, "share_ratio_bp": 2500, "strategy": "mixed"},
        {"id": "pair", "latency_ms": 10, "share_ratio_bp": 2500, "strategy": "short_hop"},
    ],
    "opportunity": {"peak_value": 10**9, "gas_floor": 1000},
    "pools": "pools.ndjson",
    "embodied_base_symbol": "WBNB",
}
EMBODIED_POOLS = pools.dump_pool_file(fixtures.gen_pool_fixture(seed=13).pools)


@pytest.mark.parametrize(
    "pool_map, fault",
    [
        pytest.param(
            fixtures.gen_pool_fixture(seed=13).pools, "embodied_base_symbol 'BUSD' names no token of the pool file", id="symbol-of-no-pool"
        ),
        pytest.param(None, "embodied_base_symbol 'BUSD' is given, but no pools are loaded", id="no-pools"),
    ],
)
def test_a_scenario_built_directly_checks_its_embodied_base_symbol(pool_map, fault):
    """As load_scenario does: a symbol of no pool token would otherwise end
    in "fixture contains no executable cycle", and with no pools it would be
    ignored."""
    with pytest.raises(ConfigError) as excinfo:
        SimScenario(protocol=Protocol.BSC_DIRECT, opportunity=OPP, pools=pool_map, embodied_base_symbol="BUSD")
    assert excinfo.value.args == (fault,)


def test_embodied_campaign_uses_pool_search(tmp_path):
    (tmp_path / "pools.ndjson").write_text(EMBODIED_POOLS)
    path = tmp_path / "embodied.json"
    path.write_text(json.dumps(EMBODIED_SCENARIO))
    outcomes, _summary = campaign(load_scenario(path), 5, rng_seed=2)
    # only the triangle route is mispriced, so the short-hop builder never bids
    assert all(o.winner == "tri" for o in outcomes)
    assert outcomes[0].proposer_payment > 0


def without_usdt_usd1(pool_map):
    """The pool map without its USDT/USD1 pool, so the triangle is gone and
    only the 2-hop WBNB/USDT cycles are left."""
    return {a: p for a, p in pool_map.items() if {p.token0.symbol, p.token1.symbol} != {"USDT", "USD1"}}


def at_par(pool_map):
    """The pool map with every V2 pair at par, as the fixture is apart from
    its mispriced USDT/USD1 pair, so no cycle is profitable."""
    return {a: p._replace(reserve1=p.reserve0) if p.kind is pools.PoolKind.V2 else p for a, p in pool_map.items()}


@pytest.mark.parametrize("protocol", ["bsc_direct", "eth_relay"])
@pytest.mark.parametrize(
    "keys, pool_edit",
    [
        pytest.param({"opportunity": {"peak_value": 0, "gas_floor": 1000}}, lambda m: m, id="peak-value-0"),
        pytest.param({}, at_par, id="no-profitable-cycle"),
        pytest.param(
            {"builders": [{"id": "tri", "latency_ms": 10, "strategy": "long_hop"}]}, without_usdt_usd1,
            id="long-hop-without-3-hop-cycle",
        ),
    ],
)
def test_pooled_scenarios_without_value_make_no_bids(tmp_path, protocol, keys, pool_edit):
    pool_map = pool_edit(fixtures.gen_pool_fixture(seed=13).pools)
    (tmp_path / "pools.ndjson").write_text(pools.dump_pool_file(pool_map))
    path = tmp_path / "embodied.json"
    path.write_text(json.dumps({**EMBODIED_SCENARIO, "protocol": protocol, **keys}))
    outcomes, summary = campaign(load_scenario(path), 20, rng_seed=3)
    assert all(o.schedule.received == () and o.winner is None for o in outcomes)
    assert summary.fallback_rate == 1


# -- bid schedules vs slot-by-slot campaigns ----------------------------------


def slot_by_slot_campaign(scenario, n_slots, rng_seed):
    """Reference campaign: every slot runs the public slot flow from scratch
    with its proposer's active blacklist."""
    blacklists = [dict() for _ in range(scenario.proposers.count)]
    outcomes = []
    for height in range(n_slots):
        blacklist = blacklists[height % scenario.proposers.count]
        active = frozenset(builder for builder, expiry in blacklist.items() if expiry > height)
        if scenario.protocol is Protocol.BSC_DIRECT:
            outcome = run_slot_bsc(
                scenario.builders,
                scenario.opportunity,
                rng_seed,
                height=height,
                horizon_ms=scenario.horizon_ms,
                listen_window_ms=scenario.listen_window_ms,
                base_compute_ms=scenario.base_compute_ms,
                blacklisted=active,
            )
            for offender in outcome.blacklist_events:
                blacklist[offender] = height + scenario.proposers.blacklist_slots
        else:
            outcome = run_slot_eth(
                scenario.builders,
                scenario.relay,
                scenario.opportunity,
                rng_seed,
                height=height,
                horizon_ms=scenario.horizon_ms,
                base_compute_ms=scenario.base_compute_ms,
            )
        outcomes.append(outcome)
    return outcomes


builder_lists = st.lists(
    st.builds(
        agent,
        aid=st.sampled_from(["a", "b", "c", "d", "e"]),
        latency=st.integers(min_value=0, max_value=150),
        tier=st.integers(min_value=1, max_value=4),
        bp=st.sampled_from([0, 2500, 9000, 10000]),
        nd=st.sampled_from([0.0, 0.1, 1.0]),
        strategy=st.sampled_from(list(Strategy)),
    ),
    max_size=5,
    unique_by=lambda b: b.id,
)


@settings(max_examples=150, deadline=None)
@given(
    builders=builder_lists,
    protocol=st.sampled_from(list(Protocol)),
    proposer_count=st.integers(min_value=1, max_value=5),
    blacklist_slots=st.integers(min_value=0, max_value=20),
    rebids_enabled=st.booleans(),
    n_slots=st.integers(min_value=1, max_value=60),
    rng_seed=st.integers(min_value=0, max_value=2**32),
)
def test_campaign_equals_slot_by_slot_reference(
    builders, protocol, proposer_count, blacklist_slots, rebids_enabled, n_slots, rng_seed
):
    horizon = Fraction(3000 if protocol is Protocol.BSC_DIRECT else 12000)
    scenario = SimScenario(
        protocol=protocol,
        builders=tuple(builders),
        opportunity=OPP,
        horizon_ms=horizon,
        proposers=ProposerConfig(count=proposer_count, blacklist_slots=blacklist_slots),
        relay=RelayConfig(rebids_enabled=rebids_enabled),
    )
    assert campaign(scenario, n_slots, rng_seed)[0] == slot_by_slot_campaign(scenario, n_slots, rng_seed)


def test_campaign_slots_share_their_schedule_bids():
    outcomes, _summary = campaign(duopoly(Protocol.ETH_RELAY), 3, rng_seed=1)
    assert outcomes[0].schedule is outcomes[2].schedule
    assert len(outcomes[0].schedule.received) == 11


# -- metamorphic properties of the two slot markets ---------------------------


@st.composite
def opportunities(draw):
    deadline = draw(st.integers(min_value=1, max_value=3000))
    return OpportunityModel(
        peak_value=draw(st.integers(min_value=10**6, max_value=10**12)),
        gas_floor=draw(st.integers(min_value=1, max_value=10**6)),
        knee_ms=Fraction(draw(st.integers(min_value=0, max_value=deadline - 1))),
        deadline_ms=Fraction(deadline),
    )


def scenario_builders(max_latency, nd, min_size=0):
    """min_size to 4 builders, with ids "b0", "b1", ... in order."""
    params = st.tuples(
        st.integers(min_value=0, max_value=max_latency),
        st.integers(min_value=1, max_value=4),
        st.sampled_from([0, 2500, 9000, 10000]),
        nd,
    )
    return st.lists(params, min_size=min_size, max_size=4).map(
        lambda rows: [agent(f"b{i}", *row) for i, row in enumerate(rows)]
    )


@settings(max_examples=300, deadline=None)
@given(
    builders=scenario_builders(1500, st.just(0.0), min_size=2),
    opportunity=opportunities(),
    listen_window=st.integers(min_value=0, max_value=400),
    compute=st.integers(min_value=0, max_value=300),
    cut_percent=st.integers(min_value=0, max_value=99),
)
def test_direct_flow_winner_keeps_the_slot_when_its_latency_is_cut(
    builders, opportunity, listen_window, compute, cut_percent
):
    def winner(agents):
        scenario = SimScenario(
            protocol=Protocol.BSC_DIRECT, builders=tuple(agents), opportunity=opportunity,
            listen_window_ms=Fraction(listen_window), base_compute_ms=Fraction(compute),
        )
        outcomes, _summary = campaign(scenario, 1, rng_seed=0)
        return outcomes[0].winner

    won = winner(builders)
    assume(won is not None)
    faster = [b._replace(latency_ms=b.latency_ms * cut_percent / 100) if b.id == won else b for b in builders]
    assert winner(faster) == won


@settings(max_examples=100, deadline=None)
@given(
    builders=scenario_builders(1500, st.just(0.0), min_size=2),
    opportunity=opportunities(),
    horizon=st.integers(min_value=4000, max_value=12000),
    delay=st.integers(min_value=0, max_value=200),
    rebid_interval=st.integers(min_value=1, max_value=1000),
    rounds=st.integers(min_value=1, max_value=8),
    compute=st.integers(min_value=0, max_value=300),
    data=st.data(),
)
def test_relay_flow_winner_ignores_latency_once_every_ladder_tops_out(
    builders, opportunity, horizon, delay, rebid_interval, rounds, compute, data
):
    relay = RelayConfig(delay_ms=Fraction(delay), rebid_interval_ms=Fraction(rebid_interval), optimization_rounds=rounds)

    def scenario(agents):
        return SimScenario(
            protocol=Protocol.ETH_RELAY, builders=tuple(agents), opportunity=opportunity,
            horizon_ms=Fraction(horizon), base_compute_ms=Fraction(compute), relay=relay,
        )

    def tops_out(agents):
        """Every builder's last rebid, its ceiling, lands by the horizon."""
        return all(
            opportunity.birth_ms + 2 * b.latency_ms + b.compute_ms(Fraction(compute)) + delay + rounds * rebid_interval
            <= horizon
            for b in agents
        )

    def winner(agents):
        outcomes, _summary = campaign(scenario(agents), 1, rng_seed=0)
        return outcomes[0].winner

    ceilings = [pools.split_delta(int(opportunity.peak_value * b.efficiency), b.share_ratio_bp)[0] for b in builders]
    assume(len(set(ceilings)) == len(ceilings) and tops_out(builders))
    redrawn = [b._replace(latency_ms=Fraction(data.draw(st.integers(min_value=0, max_value=1500)))) for b in builders]
    assume(tops_out(redrawn))
    assert winner(redrawn) == winner(builders)


@settings(max_examples=150, deadline=None)
@given(
    builders=scenario_builders(150, st.sampled_from([0.0, 0.3, 1.0])),
    protocol=st.sampled_from(list(Protocol)),
    opportunity=opportunities(),
    proposer_count=st.integers(min_value=1, max_value=3),
    blacklist_slots=st.integers(min_value=0, max_value=5),
    rebids_enabled=st.booleans(),
    rng_seed=st.integers(min_value=0, max_value=2**32),
    data=st.data(),
)
def test_builder_order_never_changes_a_campaign(
    builders, protocol, opportunity, proposer_count, blacklist_slots, rebids_enabled, rng_seed, data
):
    def run(agents):
        scenario = SimScenario(
            protocol=protocol,
            builders=tuple(agents),
            opportunity=opportunity,
            proposers=ProposerConfig(count=proposer_count, blacklist_slots=blacklist_slots),
            relay=RelayConfig(rebids_enabled=rebids_enabled),
        )
        outcomes, summary = campaign(scenario, 12, rng_seed)
        return outcomes, counts(summary)

    reordered = data.draw(st.permutations(builders))
    assert run(builders) == run(reordered)


# -- contested windows ---------------------------------------------------------


def first_schedule(scenario):
    """The bid schedule slot 0 of a campaign was resolved against."""
    return next(run_campaign(scenario, 1, rng_seed=0)).schedule


def test_bundled_duopoly_contested_windows():
    # direct: alpha's lone bid lands at 50 ms, past the listen window
    assert first_schedule(duopoly(Protocol.BSC_DIRECT)).contested_ms == 0
    # relay: alpha bids at 50 ms, and beta's rebid at 9730/3 ms is the last to take the lead
    assert first_schedule(duopoly(Protocol.ETH_RELAY)).contested_ms == Fraction(9580, 3)


def test_direct_bids_inside_the_listen_window_are_contested():
    # alpha lands at 20 ms and beta at 40 ms, both inside the 50 ms window; beta pays more
    scenario = duopoly(Protocol.BSC_DIRECT)
    alpha, beta = scenario.builders
    scenario = scenario._replace(builders=(
        alpha._replace(latency_ms=Fraction(5)),
        beta._replace(latency_ms=Fraction(15), infra_tier=Fraction(1), share_ratio_bp=5000),
    ))
    schedule = first_schedule(scenario)
    assert [(b.builder_id, b.timestamp_ms) for b in schedule.received] == [("alpha", 20), ("beta", 40)]
    assert schedule.candidates[0][0].builder_id == "beta"
    assert schedule.contested_ms == 20


def test_a_builder_outbidding_itself_contests_nothing():
    solo = SimScenario(protocol=Protocol.ETH_RELAY, builders=(agent("solo", 30),), opportunity=OPP)
    ladder = first_schedule(solo)
    assert len(ladder.received) > 1
    assert ladder.contested_ms == 0
    assert BidSchedule((), ()).contested_ms == 0
    # only a rival taking the lead extends the window: b at 5 ms and a at 10 ms do, a at 15 ms does not
    bids = [Bid("a", Fraction(0), 10, 40), Bid("b", Fraction(5), 20, 40), Bid("a", Fraction(10), 30, 40),
            Bid("a", Fraction(15), 40, 40), Bid("b", Fraction(20), 5, 40)]
    assert BidSchedule(tuple(bids), tuple((b, 0.0) for b in bids)).contested_ms == 10


@settings(max_examples=200, deadline=None)
@given(
    builders=builder_lists,
    opportunity=opportunities(),
    listen_window=st.integers(min_value=0, max_value=400),
    compute=st.integers(min_value=0, max_value=300),
)
def test_direct_contested_window_ends_with_the_listen_window(builders, opportunity, listen_window, compute):
    schedule = first_schedule(SimScenario(
        protocol=Protocol.BSC_DIRECT, builders=tuple(builders), opportunity=opportunity,
        listen_window_ms=Fraction(listen_window), base_compute_ms=Fraction(compute),
    ))
    if not schedule.received:
        assert schedule.contested_ms == 0
        return
    first = schedule.received[0].timestamp_ms
    assert 0 <= schedule.contested_ms <= max(0, listen_window - first)
    if listen_window < first:
        assert schedule.contested_ms == 0


@settings(max_examples=200, deadline=None)
@given(
    builders=scenario_builders(1500, st.just(0.0)),
    opportunity=opportunities(),
    horizon=st.integers(min_value=1, max_value=12000),
    delay=st.integers(min_value=0, max_value=200),
    rebid_interval=st.integers(min_value=1, max_value=1000),
    rounds=st.integers(min_value=1, max_value=8),
    rebids_enabled=st.booleans(),
    compute=st.integers(min_value=0, max_value=300),
)
# b0's rebid to its ceiling, which would take the lead from b1, is due at 1810/3 ms, past the horizon
@example(
    builders=[agent("b0", 50, 3, 9000), agent("b1", 0, 2, 10000)], opportunity=OPP, horizon=200, delay=0,
    rebid_interval=500, rounds=1, rebids_enabled=True, compute=10,
)
def test_relay_contested_window_ends_by_the_horizon(
    builders, opportunity, horizon, delay, rebid_interval, rounds, rebids_enabled, compute
):
    relay = RelayConfig(
        delay_ms=Fraction(delay), rebid_interval_ms=Fraction(rebid_interval), optimization_rounds=rounds,
        rebids_enabled=rebids_enabled,
    )
    schedule = first_schedule(SimScenario(
        protocol=Protocol.ETH_RELAY, builders=tuple(builders), opportunity=opportunity,
        horizon_ms=Fraction(horizon), base_compute_ms=Fraction(compute), relay=relay,
    ))
    if not schedule.received:
        assert schedule.contested_ms == 0
        return
    assert 0 <= schedule.contested_ms <= horizon - schedule.received[0].timestamp_ms


# -- scenario value types -----------------------------------------------------


def write_scenario(tmp_path, edit):
    obj = json.loads((SCENARIOS / "eth_duopoly.json").read_text())
    edit(obj)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    return path


def direct(edit):
    """edit applied to bsc_duopoly.json instead: only the direct flow reads
    listen_window_ms and non_delivery_prob."""

    def apply(obj):
        obj.clear()
        obj.update(json.loads((SCENARIOS / "bsc_duopoly.json").read_text()))
        edit(obj)

    return apply


@pytest.mark.parametrize(
    "edit, key",
    [
        pytest.param(lambda o: o["relay"].update(rebids_enabled="false"), "rebids_enabled", id="rebids-string"),
        pytest.param(lambda o: o["relay"].update(rebids_enabled=0), "rebids_enabled", id="rebids-int"),
        pytest.param(lambda o: o["builders"][0].update(share_ratio_bp=2500.9), "share_ratio_bp", id="bp-float"),
        pytest.param(lambda o: o["builders"][0].update(share_ratio_bp=True), "share_ratio_bp", id="bp-bool"),
        pytest.param(lambda o: o["proposers"].update(count=2.0), "count", id="count-float"),
        pytest.param(lambda o: o["proposers"].update(blacklist_slots=1.5), "blacklist_slots", id="blacklist-float"),
        pytest.param(lambda o: o["relay"].update(optimization_rounds="8"), "optimization_rounds", id="rounds-string"),
        pytest.param(lambda o: o["opportunity"].update(peak_value=1e9), "peak_value", id="peak-float"),
        pytest.param(lambda o: o["opportunity"].update(gas_floor=False), "gas_floor", id="gas-floor-bool"),
        pytest.param(lambda o: o["opportunity"].update(tail_value=0.5), "tail_value", id="tail-float"),
        pytest.param(direct(lambda o: o["builders"][0].update(non_delivery_prob="0.1")), "non_delivery_prob", id="nd-string"),
        pytest.param(lambda o: o["builders"][0].update(id=7), "id", id="id-int"),
        pytest.param(lambda o: o.update(horizon_ms="abc"), "horizon_ms", id="horizon-string"),
        # null is no horizon, though an absent horizon_ms takes the protocol's
        pytest.param(lambda o: o.update(horizon_ms=None), "horizon_ms", id="horizon-null"),
        pytest.param(lambda o: o.update(protocol=[]), "protocol", id="protocol-array"),
        pytest.param(direct(lambda o: o.update(listen_window_ms=True)), "listen_window_ms", id="listen-bool"),
    ],
)
def test_scenario_values_of_the_wrong_json_type_are_config_errors(tmp_path, edit, key):
    with pytest.raises(ConfigError, match=f"invalid scenario keys: .*{key}"):
        load_scenario(write_scenario(tmp_path, edit))


def test_fraction_keys_accept_floats_and_integers(tmp_path):
    scenario = load_scenario(write_scenario(tmp_path, lambda o: o["builders"][1].update(infra_tier=2.5, latency_ms=0.5)))
    beta = scenario.builders[1]
    assert (beta.infra_tier, beta.latency_ms) == (Fraction(5, 2), Fraction(1, 2))
    assert load_scenario(SCENARIOS / "eth_duopoly.json").builders[1].infra_tier == 3


def test_an_empty_pools_path_names_no_pool_file(tmp_path):
    assert load_scenario(write_scenario(tmp_path, lambda o: o.update(pools=""))).pools is None


BASE_SCENARIOS = {
    **{name: json.loads((SCENARIOS / name).read_text()) for name in ("bsc_duopoly.json", "eth_duopoly.json")},
    "embodied.json": EMBODIED_SCENARIO,
}
SCENARIO_SITES = [(name, path) for name, doc in BASE_SCENARIOS.items() for path in strategies.json_paths(doc)]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(site=st.sampled_from(SCENARIO_SITES), value=strategies.json_values | st.just(strategies.ABSENT))
@example(site=("bsc_duopoly.json", ("builders", 0, "id")), value="al\ud800")
@example(site=("bsc_duopoly.json", ("horizon_ms",)), value=None)
@example(site=("embodied.json", ("pools",)), value="")
@example(site=("eth_duopoly.json", ("protocol",)), value=[])
def test_any_json_value_at_any_scenario_key_loads_or_is_a_config_error(tmp_path, site, value):
    name, path = site
    assume(path or value is not strategies.ABSENT)
    (tmp_path / "pools.ndjson").write_text(EMBODIED_POOLS)
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(json.dumps(strategies.replaced(BASE_SCENARIOS[name], path, value)))
    try:
        scenario = load_scenario(scenario_file)
    except ConfigError:
        return
    assert isinstance(scenario, SimScenario)
    for builder in scenario.builders:
        builder.id.encode("utf-8")  # slots.csv can name every builder


def test_rebids_enabled_false_is_read_as_false(tmp_path):
    scenario = load_scenario(write_scenario(tmp_path, lambda o: o["relay"].update(rebids_enabled=False)))
    assert scenario.relay.rebids_enabled is False
    outcomes, _summary = campaign(scenario, 50, rng_seed=1)
    assert {o.winner for o in outcomes} == {"alpha"}
