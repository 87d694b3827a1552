/**
 * @file
 * The unified export API: every machine-readable artifact the harness
 * emits (per-bench JSON, metrics CSV, Chrome trace-event JSON) goes
 * through one ExportSink, so benches and examples share one schema,
 * one formatter and one format-selection rule.
 *
 * An ExportSink is a named-column table plus free-form metadata.
 * Formats:
 *  - Csv: optional `# key = value` meta comments, header, one line
 *    per row.
 *  - Json: `{"meta": {...}, "rows": [{col: val, ...}, ...]}`.
 *  - TraceEvent: rows rendered as Chrome trace_event counter samples
 *    (ts = row index) for a quick Perfetto look at a sweep. Full
 *    simulation traces come from the trace subsystem instead
 *    (docs/TRACING.md).
 */

#ifndef EQ_HARNESS_EXPORT_HH
#define EQ_HARNESS_EXPORT_HH

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "gpu/metrics.hh"
#include "gpu/tenant.hh"
#include "harness/sweep.hh"

namespace equalizer
{

struct RequestRecord;
struct ServeSummary;

/** Serialization formats an ExportSink can write. */
enum class ExportFormat
{
    Csv,
    Json,
    TraceEvent,
};

/** Canonical name ("csv", "json", "trace-event"). */
const char *exportFormatName(ExportFormat format);

/** Parse a format name; fatal() on anything unknown. */
ExportFormat exportFormatFromName(const std::string &name);

/**
 * Infer the format from a file suffix: ".csv", ".json", and
 * ".trace.json" (Chrome trace-event); anything else gets @p fallback.
 */
ExportFormat exportFormatForPath(const std::string &path,
                                 ExportFormat fallback);

/** One table cell: rendered text plus whether JSON must quote it. */
struct ExportCell
{
    std::string text;
    bool quoted = false;

    static ExportCell str(std::string s);
    static ExportCell num(double v);
    static ExportCell integer(std::int64_t v);
};

/**
 * The one export path: collect rows (and metadata), then write in any
 * ExportFormat.
 */
class ExportSink
{
  public:
    explicit ExportSink(std::vector<std::string> columns);

    /** Attach a metadata entry (sweep parameters, bench identity). */
    void meta(const std::string &key, ExportCell value);

    /** Append one row; fatal() unless it has one cell per column. */
    void row(std::vector<ExportCell> cells);

    const std::vector<std::string> &columnNames() const
    {
        return columns_;
    }

    std::size_t rowCount() const { return rows_.size(); }
    void clear() { rows_.clear(); }

    void write(std::ostream &os, ExportFormat format) const;

    /** write() to a file; fatal() when it cannot be opened. */
    void writeFile(const std::string &path, ExportFormat format) const;

    // --- The shared run-metrics schema (benches, eqsim, examples).

    /** A sink with the standard RunMetrics column set. */
    static ExportSink metricsTable();

    /** Append one RunMetrics row (invocation -1 = whole-app total). */
    void addMetrics(const std::string &kernel, const std::string &policy,
                    int invocation, const RunMetrics &m);

    /** Append all invocations (and the total) of a harness result. */
    void addResult(const std::string &kernel, const std::string &policy,
                   const RunMetrics &total,
                   const std::vector<RunMetrics> &invocations);

    // --- The per-tenant attribution schema (multi-tenant co-runs).

    /** A sink with the standard TenantRunMetrics column set. */
    static ExportSink tenantTable();

    /** Append one per-tenant attribution row of a co-run. */
    void addTenantMetrics(const std::string &policy,
                          const TenantRunMetrics &t);

    // --- The sweep-table schema (docs/AUTOTUNE.md): one row per grid
    // point with predictions, measurements and the simulated flag.

    /** A sink with the unified sweep-point column set. */
    static ExportSink sweepTable();

    /** Append one grid-point row of a sweep table. */
    void addSweepPoint(const SweepPointRow &p);

    // --- The serving schema (docs/SERVING.md): per-request rows and
    // the aggregate latency/throughput/SLO summary.

    /** A sink with the per-request serving column set. */
    static ExportSink serveTable();

    /** Append one request lifetime row of a serve() run. */
    void addServeRequest(const std::string &policy,
                         const RequestRecord &rec);

    /** A sink with the serving-summary column set. */
    static ExportSink serveSummaryTable();

    /** Append one serve() run's aggregate metrics row. */
    void addServeSummary(const ServeSummary &s);

  private:
    void writeCsv(std::ostream &os) const;
    void writeJson(std::ostream &os) const;
    void writeTraceEvent(std::ostream &os) const;

    std::vector<std::string> columns_;
    std::vector<std::pair<std::string, ExportCell>> meta_;
    std::vector<std::vector<ExportCell>> rows_;
};

} // namespace equalizer

#endif // EQ_HARNESS_EXPORT_HH
