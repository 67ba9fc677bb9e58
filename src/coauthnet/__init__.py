"""coauthnet: country-level coauthorship networks from bibliographic records.

Pipeline: parse records -> filter by topic variants -> resolve country names
-> build the undirected weighted country graph -> structural metrics,
temporal slicing and densification fits -> deterministic Pajek/DOT/SVG/CSV
exports. See the CLI (`coauthnet report`) for the end-to-end run.
"""

from .countries import REGIONS, CountryEntry, CountryRegistry, builtin_registry
from .errors import DataError, UsageError
from .export import (
    LayoutSpec,
    RenderedLayout,
    compute_layout,
    emit_series,
    read_dot,
    read_pajek,
    render_network_svg,
    write_dot,
    write_pajek,
)
from .graph import (
    BasicStats,
    CoauthorshipGraph,
    NodeAttr,
    ResolvedCorpus,
    TimeWindow,
    basic_stats,
    build_network,
    graph_from_edges,
    induced_subgraph,
)
from .ingest import (
    DEFAULT_TOPIC_VARIANTS,
    CoverageStats,
    PublicationRecord,
    RecordSet,
    coverage_stats,
    filter_topic,
    parse_records,
    write_records_jsonl,
)
from .metrics import (
    ComponentPartition,
    DegreeHistogram,
    GraphSummary,
    PathStats,
    SmallWorldReport,
    betweenness,
    centrality_table,
    closeness,
    clustering,
    components,
    degree_distribution,
    is_clique,
    path_stats,
    small_world,
    summary,
    top_k_by_degree,
)
from .temporal import (
    LogLogFit,
    WindowSeries,
    densification_fit,
    discipline_series,
    first_year_series,
    loglog_fit,
    metric_series,
    slice_windows,
)

__version__ = "0.1.0"
