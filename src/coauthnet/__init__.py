"""coauthnet: country-level coauthorship networks from bibliographic records.

Pipeline: parse records -> filter by topic variants -> resolve country names
-> build the undirected weighted country graph -> structural metrics,
temporal slicing and densification fits -> deterministic Pajek/DOT/SVG/CSV
exports. See the CLI (`coauthnet report`) for the end-to-end run.

It exports the README Library names, the types they return and the two errors;
import everything else from its module (`coauthnet.metrics`, `coauthnet.export`, ...).
"""

from .countries import CountryRegistry, builtin_registry
from .errors import DataError, UsageError
from .graph import CoauthorshipGraph, ResolvedCorpus, TimeWindow
from .ingest import RecordSet, filter_topic, parse_records
from .metrics import GraphSummary, summary
from .temporal import slice_windows

__version__ = "0.1.0"
