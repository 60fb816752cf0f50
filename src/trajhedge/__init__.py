"""Exact superhedging analysis on finitely-described trajectory sets.

The package prices finite-maturity claims under two conditional superhedging
operators (the outer integral and the null operator), classifies nodes,
decides continuity from below, builds null covers, and constructs verified
hedge/compensator decompositions of supermartingales - all in exact rational
arithmetic, with the countable branch families handled by semi-infinite
constraint exchange.
"""

from .analysis import (
    Analysis,
    EventSet,
    FamilyAtom,
    NodeAtom,
    NodeClass,
    analyze,
    assumption_l_ae,
    classify_node,
    good_nodes_by_enumeration,
    l_status,
    null_cover,
    render_report,
)
from .decomposition import (
    ConvergenceReport,
    Decomposition,
    DecompositionError,
    HypothesisError,
    convergence_report,
    decomposition_feasible,
    decomposition_from_hedge,
    doob_decompose,
    martingale_floor_check,
    verify_decomposition,
)
from .fileformat import (
    ParseError,
    parse_decomposition,
    parse_payoff,
    parse_process,
    parse_tree,
    render_decomposition,
    render_payoff,
    render_process,
    render_tree,
)
from .model import (
    HedgeSequence,
    MINUS_INF,
    ModelError,
    PayoffSpec,
    ProcessSequence,
    SimpleStrategy,
    StoppingTime,
    TrajectoryTree,
    abs_payoff,
    add_payoffs,
    scale_payoff,
    first_time_value_geq,
    stopped_process,
    stopping_indicator,
    supermartingale_transform,
    uniform_positions,
    wealth,
    wealth_on_member,
)
from .oracle import (
    MeasureSet,
    OracleError,
    dual_price,
    expectation,
    explicit_reduction,
    grid_superhedge,
    i_bar_lp,
    martingale_measures,
)
from .poly import Poly, parse_rat, rat_str
from .pricing import (
    Interval,
    PriceResult,
    PricingError,
    UnconvergedError,
    check_integrable,
    check_supermartingale,
    i_bar,
    i_bar_backward,
    i_bar_backward_all,
    indicator_payoff,
    is_null,
    norm_j,
    one_step_superhedge,
    sigma_bar,
    sigma_bar_all,
    sigma_bar_payoff,
    tower_check,
)

__version__ = "0.1.0"
