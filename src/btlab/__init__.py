"""btlab: a block tree consistency laboratory.

A replicated block tree abstract data type with longest-chain selection, a
token-oracle concurrency model (frugal capacity-k and prodigal unbounded), a
refinement that turns oracle grants into tree appends, concurrent histories
with criterion checkers (strong and eventual prefix consistency, update
agreement, reliable communication), a shared-memory equivalence lab, and a
deterministic message-passing simulator with scenario presets.
"""

from .blocktree import (GENESIS_ID, Block, BlockTree, DomainError,
                        SelectionPolicy, common_prefix, is_prefix, mcps,
                        prefix_comparable)
from .campaigns import (LABS, CampaignResult, cas_equivalence_suite,
                        consensus_campaign, containment_campaign,
                        hierarchy_campaign, kfork_campaign,
                        snapshot_equivalence_suite, tape_statistics)
from .checkers import (CHECKERS, DEFAULT_WINDOW, Status, Verdict,
                       check_block_validity, check_ec, check_eventual_prefix,
                       check_ever_growing_tree, check_local_monotonic_read,
                       check_lrc, check_sc, check_strong_prefix,
                       check_update_agreement, run_checker)
from .history import (Event, EventKind, History, Operation, TraceError,
                      make_event)
from .netsim import (ChannelKind, ChannelModel, OracleSpec, ProcessSpec,
                     Scenario, ScenarioError, SimRun, evaluate_run, preset,
                     preset_names, run_scenario, scenario_from_dict)
from .oracle import (ConfigError, Merit, OracleState, Tape, frugal_oracle,
                     prodigal_oracle)
from .refinement import AppendResult, AppendStatus, RefinedLedger
from .shm import (ConsensusOutcome, CrashSchedule, RegisterSpace,
                  cas_via_consume, consume_via_snapshot, finish, interleavings,
                  propose, run_consensus, run_interleaving)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
