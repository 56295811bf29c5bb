"""Per-layer metrics from the span files `tracer.py` writes, one per request.

A span's self time is its duration minus the part of it that its child spans
cover.  Every `_s` metric is a sum of self times over the pass's requests;
every count is a sum over them, except `fourier.height_bits`, a maximum.
"""
import json

# (metric, unit), in report order.
METRICS = (
    ("exactnum.genbern_s", "s"), ("exactnum.genbern_misses", "count"),
    ("lattice.cone_points", "count"), ("lattice.decomp_lookups", "count"),
    ("lattice.decomp_misses", "count"),
    ("eisenstein.series_s", "s"), ("eisenstein.series_calls", "count"),
    ("eisenstein.series_distinct", "count"),
    ("fourier.multiply_s", "s"), ("fourier.multiply_calls", "count"),
    ("fourier.height_bits", "bits"), ("fourier.linear_combine_s", "s"),
    ("fourier.rank_s", "s"), ("fourier.rank_calls", "count"),
    ("fourier.rank_cells", "count"), ("fourier.sqrt_s", "s"), ("fourier.divide_s", "s"),
    ("diffop.bracket_s", "s"), ("diffop.bracket_calls", "count"),
    ("ring.build_s", "s"), ("ring.build_calls", "count"), ("ring.escalations", "count"),
    ("ring.monomial_calls", "count"), ("ring.relations_s", "s"), ("ring.structure_s", "s"),
    ("dims.report_s", "s"),
    ("cli.import_s", "s"), ("cli.cache_hits", "count"), ("cli.cache_misses", "count"),
    ("cli.cache_read_s", "s"), ("cli.emit_s", "s"), ("cli.parse_s", "s"),
    ("cli.cache_write_s", "s"), ("cli.cache_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)

# Span name -> the `_s` metric its self time adds to.
SELF_TIME = {
    "exactnum.generalized_bernoulli": "exactnum.genbern_s",
    "eisenstein.eisenstein_series": "eisenstein.series_s",
    "fourier.multiply": "fourier.multiply_s",
    "fourier.linear_combine": "fourier.linear_combine_s",
    "fourier.rank_of_span": "fourier.rank_s",
    "fourier.sqrt_monic": "fourier.sqrt_s",
    "fourier.divide_exact": "fourier.divide_s",
    "diffop.bracket": "diffop.bracket_s",
    "ring.build": "ring.build_s",
    "ring.verify_polynomial_relations": "ring.relations_s",
    "ring.verify_chi5_square_relations": "ring.relations_s",
    "ring.verify_structure": "ring.structure_s",
    "ring.monomial_basis": "ring.structure_s",
    "dims.dimension_report": "dims.report_s",
    "cli.cache_lookup": "cli.cache_read_s",
    "cli.cache_store": "cli.cache_write_s",
    "cli.parse_json": "cli.parse_s",
    "cli.parse_csv": "cli.parse_s",
    "cli.record_from_series": "cli.emit_s",
    "cli.emit_json": "cli.emit_s",
    "cli.emit_csv": "cli.emit_s",
}
# Formatting a record for the cache is part of writing it.
WRITE_PARENT = "cli.cache_store"
EMIT_SPANS = {"cli.record_from_series", "cli.emit_json", "cli.emit_csv"}

# Span name -> the count metric each call adds one to.
CALLS = {
    "eisenstein.eisenstein_series": "eisenstein.series_calls",
    "fourier.multiply": "fourier.multiply_calls",
    "fourier.rank_of_span": "fourier.rank_calls",
    "diffop.bracket": "diffop.bracket_calls",
    "ring.build": "ring.build_calls",
    "ring.monomial": "ring.monomial_calls",
}
MAX_COUNTERS = {"fourier.height_bits"}
# Metrics taken from the set-up requests too: the cache fill is what writes.
SETUP_METRICS = {"cli.cache_write_s"}


def load(path):
    with open(path) as fh:
        return json.load(fh)


def self_times(spans):
    """Self time of each span in [name, start, end, parent index] form."""
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for (_, start, end, _), kids in zip(spans, children):
        covered, reach = 0.0, start
        for k in sorted(kids, key=lambda k: spans[k][1]):
            lo, hi = max(spans[k][1], reach), min(spans[k][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def has_ancestor(spans, i, name):
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def request_metrics(rec):
    """Per-layer metrics of one request record (no benchmark-side ones)."""
    m = dict.fromkeys((name for name, _ in METRICS), 0)
    spans = rec["spans"]
    for i, own in enumerate(self_times(spans)):
        name, parent = spans[i][0], spans[i][3]
        if name in EMIT_SPANS and parent >= 0 and spans[parent][0] == WRITE_PARENT:
            m["cli.cache_write_s"] += own
        elif name in SELF_TIME:
            m[SELF_TIME[name]] += own
        if name in CALLS:
            m[CALLS[name]] += 1
        if name == "ring.build" and has_ancestor(spans, i, "ring.monomial_basis"):
            m["ring.escalations"] += 1
    m.update(rec["counters"])
    m["cli.import_s"] = rec["import_s"]
    return m


def aggregate(stream, setup=()):
    """Sum (max for MAX_COUNTERS) the metrics of the stream's request records;
    SETUP_METRICS also include the set-up records."""
    total = dict.fromkeys((name for name, _ in METRICS), 0)
    for rec, in_setup in [(r, False) for r in stream] + [(r, True) for r in setup]:
        for name, value in request_metrics(rec).items():
            if in_setup and name not in SETUP_METRICS:
                continue
            if name in MAX_COUNTERS:
                total[name] = max(total[name], value)
            else:
                total[name] += value
    return total
