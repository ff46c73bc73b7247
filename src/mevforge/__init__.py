"""Trace analytics and slot-market simulation for builder-driven AMM arbitrage."""

from .arbitrage import (
    ArbitrageCycle,
    DEFAULT_SHARE_ADDRESS,
    ProfitBreakdown,
    attribute_profit,
    extract_arbitrage_cycle,
    to_usd,
)
from .pools import ExecutionResult, PoolState, arbitrage_run, best_input_search, swap_v2, swap_v3
from .pbs import (
    BuilderAgent,
    OpportunityModel,
    SlotOutcome,
    contestable_window,
    missing_horizon,
    run_campaign,
    run_slot_bsc,
    run_slot_eth,
)
from .traces import (
    BuilderLabel,
    PathDescriptor,
    TokenId,
    TraceEvent,
    Transaction,
    serialize_transactions,
)

__version__ = "0.1.0"
