"""Exact superhedging analysis on finitely-described trajectory sets.

The package prices finite-maturity claims under two conditional superhedging
operators (the outer integral and the null operator), classifies nodes,
decides continuity from below, builds null covers, and constructs verified
hedge/compensator decompositions of supermartingales - all in exact rational
arithmetic, with the countable branch families handled by semi-infinite
constraint exchange.

``import trajhedge`` loads no submodule.  Each public name below is read
from its defining module when it is accessed (PEP 562), importing that module
on first use, so a process pays only for the modules it uses.  The package
keeps no copy of the value: a copy taken on first access would freeze
whatever the defining module held at that moment, such as a wrapper a tracer
or a test had bound there and has since removed.  Submodules
(``trajhedge.cli``, ``trajhedge.corpus``, ...) are imported explicitly, as
usual.
"""

import importlib

# defining module -> the public names the package re-exports from it
_EXPORTS = {
    "analysis": (
        "Analysis",
        "EventSet",
        "FamilyAtom",
        "NodeAtom",
        "NodeClass",
        "analyze",
        "assumption_l_ae",
        "classify_node",
        "good_nodes_by_enumeration",
        "l_status",
        "null_cover",
        "render_report",
    ),
    "decomposition": (
        "ConvergenceReport",
        "Decomposition",
        "DecompositionError",
        "HypothesisError",
        "convergence_report",
        "decomposition_feasible",
        "decomposition_from_hedge",
        "doob_decompose",
        "martingale_floor_check",
        "verify_decomposition",
    ),
    "fileformat": (
        "ParseError",
        "parse_decomposition",
        "parse_payoff",
        "parse_process",
        "parse_tree",
        "render_decomposition",
        "render_payoff",
        "render_process",
        "render_tree",
    ),
    "model": (
        "HedgeSequence",
        "MINUS_INF",
        "ModelError",
        "PayoffSpec",
        "ProcessSequence",
        "SimpleStrategy",
        "StoppingTime",
        "TrajectoryTree",
        "abs_payoff",
        "add_payoffs",
        "scale_payoff",
        "first_time_value_geq",
        "stopped_process",
        "stopping_indicator",
        "supermartingale_transform",
        "uniform_positions",
        "wealth",
        "wealth_on_member",
    ),
    "oracle": (
        "MeasureSet",
        "OracleError",
        "dual_price",
        "expectation",
        "explicit_reduction",
        "grid_superhedge",
        "i_bar_lp",
        "martingale_measures",
    ),
    "poly": ("Poly", "parse_rat", "rat_str"),
    "pricing": (
        "Interval",
        "PriceResult",
        "PricingError",
        "UnconvergedError",
        "check_integrable",
        "check_supermartingale",
        "i_bar",
        "i_bar_backward",
        "i_bar_backward_all",
        "indicator_payoff",
        "is_null",
        "norm_j",
        "one_step_superhedge",
        "sigma_bar",
        "sigma_bar_all",
        "sigma_bar_payoff",
        "tower_check",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
