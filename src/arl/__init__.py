"""Exact desk-scale toolkit for rainbow colorings and Turan-type extremal
problems on small uniform hypergraphs."""

from .bounds import BoundRow, BoundsTable, bound_report
from .canonical import are_isomorphic, canonical_form, canonical_key
from .coloring import (
    BudgetExhausted,
    Coloring,
    RainbowFreeReport,
    RainbowWitness,
    find_rainbow_copy,
    is_rainbow_family_free,
    layered_coloring,
    make_coloring,
    max_rainbow_subgraph,
    merge_colors,
)
from .constructions import (
    blowup,
    complete_graph,
    complete_hypergraph,
    cycle_graph,
    expansion,
    expansion_family,
    minus_family,
    named_hypergraph,
    path_graph,
    pendant_minus_family,
    single_edge,
    special_blowup_graph,
    split_set,
    split_vertex,
    splitting_family,
    turan_count,
    turan_hypergraph,
    turan_partition,
)
from .hypergraph import (
    Embedding,
    Family,
    Hypergraph,
    colex_rank,
    has_copy,
    independent_sets,
    is_independent,
    kn_edges,
    make_family,
    make_hypergraph,
    relabel,
    remove_vertices,
)
from .search import (
    SearchBudget,
    SearchReport,
    exact_anti_ramsey,
    exact_turan,
    verify_feasibility,
)
from .verify import CheckRow, suite_counts, suite_to_text, verify_paper_suite

__version__ = "0.1.0"
