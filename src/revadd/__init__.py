"""Parity-preserving reversible adder toolkit.

Gate algebra for eight reversible gate families, fanout-free netlists with
simulation and metrics, hand-built adder designs, single-fault injection
campaigns, and a text netlist format with a CLI front end.
"""

from .builders import (build_cla2, build_csa4, build_design, build_full_adder,
                       build_hsa16, build_rca)
from .faults import (CampaignReport, FaultSite, enumerate_fault_sites,
                     parity_detects, run_campaign, simulate_with_fault)
from .gates import (ARITY, PARITY_PRESERVING_KINDS, ArityError, CostVector,
                    GateKind, eval_gate, gate_cost, gate_truth_table,
                    is_parity_preserving_gate, is_reversible_gate,
                    ledger_cost, parity)
from .netlist import (GateInstance, MetricsReport, Netlist, NetlistBuilder,
                      NetlistError, SimResult, Violation, WidthLimitError,
                      is_parity_preserving_circuit, is_reversible_circuit,
                      metrics, simulate, truth_table, validate)
from .report import build_table1, emit_table1
from .textfmt import Diagnostic, NetlistParseError, parse_netlist, serialize

__all__ = [
    "ARITY", "ArityError", "CampaignReport", "CostVector", "Diagnostic",
    "FaultSite", "GateInstance", "GateKind", "MetricsReport", "Netlist",
    "NetlistBuilder", "NetlistError", "NetlistParseError",
    "PARITY_PRESERVING_KINDS", "SimResult", "Violation", "WidthLimitError",
    "build_cla2", "build_csa4", "build_design", "build_full_adder",
    "build_hsa16", "build_rca", "build_table1", "emit_table1",
    "enumerate_fault_sites", "eval_gate", "gate_cost", "gate_truth_table",
    "is_parity_preserving_circuit", "is_parity_preserving_gate",
    "is_reversible_circuit", "is_reversible_gate", "ledger_cost", "metrics",
    "parity", "parity_detects", "parse_netlist", "run_campaign", "serialize",
    "simulate", "simulate_with_fault", "truth_table", "validate",
]

__version__ = "0.1.0"
