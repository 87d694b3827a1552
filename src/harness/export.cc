#include "export.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/log.hh"
#include "serve/request.hh"
#include "serve/server.hh"

namespace equalizer
{

namespace
{

std::string
num(double v)
{
    std::ostringstream os;
    os.precision(9);
    os << v;
    return os.str();
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

void
writeCellJson(std::ostream &os, const ExportCell &cell)
{
    if (cell.quoted)
        os << '"' << jsonEscape(cell.text) << '"';
    else
        os << cell.text;
}

} // namespace

const char *
exportFormatName(ExportFormat format)
{
    switch (format) {
      case ExportFormat::Csv:
        return "csv";
      case ExportFormat::Json:
        return "json";
      case ExportFormat::TraceEvent:
        return "trace-event";
    }
    return "?";
}

ExportFormat
exportFormatFromName(const std::string &name)
{
    if (name == "csv")
        return ExportFormat::Csv;
    if (name == "json")
        return ExportFormat::Json;
    if (name == "trace-event" || name == "trace_event")
        return ExportFormat::TraceEvent;
    fatal("unknown export format '", name,
          "' (expected csv, json or trace-event)");
}

ExportFormat
exportFormatForPath(const std::string &path, ExportFormat fallback)
{
    auto ends_with = [&path](const char *suffix) {
        const std::string s(suffix);
        return path.size() >= s.size() &&
               path.compare(path.size() - s.size(), s.size(), s) == 0;
    };
    if (ends_with(".trace.json"))
        return ExportFormat::TraceEvent;
    if (ends_with(".json"))
        return ExportFormat::Json;
    if (ends_with(".csv"))
        return ExportFormat::Csv;
    return fallback;
}

ExportCell
ExportCell::str(std::string s)
{
    return ExportCell{std::move(s), true};
}

ExportCell
ExportCell::num(double v)
{
    return ExportCell{equalizer::num(v), false};
}

ExportCell
ExportCell::integer(std::int64_t v)
{
    return ExportCell{std::to_string(v), false};
}

ExportSink::ExportSink(std::vector<std::string> columns)
    : columns_(std::move(columns))
{
    if (columns_.empty())
        fatal("ExportSink needs at least one column");
}

void
ExportSink::meta(const std::string &key, ExportCell value)
{
    for (auto &[k, v] : meta_) {
        if (k == key) {
            v = std::move(value);
            return;
        }
    }
    meta_.emplace_back(key, std::move(value));
}

void
ExportSink::row(std::vector<ExportCell> cells)
{
    if (cells.size() != columns_.size())
        fatal("export row has ", cells.size(), " cells but the table has ",
              columns_.size(), " columns");
    rows_.push_back(std::move(cells));
}

void
ExportSink::write(std::ostream &os, ExportFormat format) const
{
    switch (format) {
      case ExportFormat::Csv:
        writeCsv(os);
        return;
      case ExportFormat::Json:
        writeJson(os);
        return;
      case ExportFormat::TraceEvent:
        writeTraceEvent(os);
        return;
    }
}

void
ExportSink::writeFile(const std::string &path, ExportFormat format) const
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open export file '", path, "'");
    write(os, format);
}

void
ExportSink::writeCsv(std::ostream &os) const
{
    for (const auto &[key, value] : meta_)
        os << "# " << key << " = " << value.text << '\n';
    for (std::size_t c = 0; c < columns_.size(); ++c)
        os << (c ? "," : "") << columns_[c];
    os << '\n';
    for (const auto &cells : rows_) {
        for (std::size_t c = 0; c < cells.size(); ++c)
            os << (c ? "," : "") << cells[c].text;
        os << '\n';
    }
}

void
ExportSink::writeJson(std::ostream &os) const
{
    os << "{\n\"meta\": {";
    for (std::size_t i = 0; i < meta_.size(); ++i) {
        os << (i ? ", " : "") << '"' << jsonEscape(meta_[i].first)
           << "\": ";
        writeCellJson(os, meta_[i].second);
    }
    os << "},\n\"rows\": [\n";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        const auto &cells = rows_[r];
        os << "  {";
        for (std::size_t c = 0; c < columns_.size(); ++c) {
            os << (c ? ", " : "") << '"' << jsonEscape(columns_[c])
               << "\": ";
            writeCellJson(os, cells[c]);
        }
        os << '}' << (r + 1 < rows_.size() ? "," : "") << '\n';
    }
    os << "]\n}\n";
}

void
ExportSink::writeTraceEvent(std::ostream &os) const
{
    // Each row becomes one counter sample per numeric column at
    // ts = row index, so a sweep loads directly into Perfetto.
    os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
    os << "{\"ph\": \"M\", \"pid\": 0, \"name\": \"process_name\", "
          "\"args\": {\"name\": \"export\"}}";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        const auto &cells = rows_[r];
        for (std::size_t c = 0; c < columns_.size(); ++c) {
            if (cells[c].quoted)
                continue;
            os << ",\n{\"ph\": \"C\", \"pid\": 0, \"tid\": 0, \"ts\": "
               << r << ", \"name\": \"" << jsonEscape(columns_[c])
               << "\", \"args\": {\"value\": " << cells[c].text << "}}";
        }
    }
    os << "\n]}\n";
}

ExportSink
ExportSink::metricsTable()
{
    return ExportSink({
        "kernel",         "policy",         "invocation",
        "seconds",        "sm_cycles",      "mem_cycles",
        "instructions",   "ipc",            "dynamic_joules",
        "static_joules",  "total_joules",   "l1_hit_rate",
        "l2_hits",        "l2_misses",      "dram_accesses",
        "dram_row_hits",  "waiting_frac",   "xmem_frac",
        "xalu_frac",      "sm_high_frac",   "sm_low_frac",
        "mem_high_frac",  "mem_low_frac",   "dram_pd_frac",
    });
}

void
ExportSink::addMetrics(const std::string &kernel, const std::string &policy,
                       int invocation, const RunMetrics &m)
{
    const double active =
        std::max<double>(1.0, static_cast<double>(m.outcomeTotals.active));
    Tick total_res = 0;
    for (auto t : m.smResidency)
        total_res += t;
    auto res_frac = [total_res](Tick t) {
        return total_res
                   ? static_cast<double>(t) / static_cast<double>(total_res)
                   : 0.0;
    };

    row({
        ExportCell::str(kernel),
        ExportCell::str(policy),
        ExportCell::integer(invocation),
        ExportCell::num(m.seconds),
        ExportCell::integer(static_cast<std::int64_t>(m.smCycles)),
        ExportCell::integer(static_cast<std::int64_t>(m.memCycles)),
        ExportCell::integer(static_cast<std::int64_t>(m.instructions)),
        ExportCell::num(m.ipc()),
        ExportCell::num(m.dynamicJoules),
        ExportCell::num(m.staticJoules),
        ExportCell::num(m.totalJoules()),
        ExportCell::num(m.l1HitRate()),
        ExportCell::integer(static_cast<std::int64_t>(m.l2Hits)),
        ExportCell::integer(static_cast<std::int64_t>(m.l2Misses)),
        ExportCell::integer(static_cast<std::int64_t>(m.dramAccesses)),
        ExportCell::integer(static_cast<std::int64_t>(m.dramRowHits)),
        ExportCell::num(static_cast<double>(m.outcomeTotals.waiting) /
                        active),
        ExportCell::num(static_cast<double>(m.outcomeTotals.excessMem) /
                        active),
        ExportCell::num(static_cast<double>(m.outcomeTotals.excessAlu) /
                        active),
        ExportCell::num(
            res_frac(m.smResidency[static_cast<int>(VfState::High)])),
        ExportCell::num(
            res_frac(m.smResidency[static_cast<int>(VfState::Low)])),
        ExportCell::num(
            res_frac(m.memResidency[static_cast<int>(VfState::High)])),
        ExportCell::num(
            res_frac(m.memResidency[static_cast<int>(VfState::Low)])),
        ExportCell::num(m.dramPowerDownFraction),
    });
}

void
ExportSink::addResult(const std::string &kernel, const std::string &policy,
                      const RunMetrics &total,
                      const std::vector<RunMetrics> &invocations)
{
    for (std::size_t i = 0; i < invocations.size(); ++i)
        addMetrics(kernel, policy, static_cast<int>(i), invocations[i]);
    addMetrics(kernel, policy, -1, total);
}

ExportSink
ExportSink::tenantTable()
{
    return ExportSink({
        "tenant",
        "kernels",
        "policy",
        "sm_limit",
        "sm_count",
        "dispatched_blocks",
        "blocks_completed",
        "instructions",
        "busy_sm_cycles",
        "limited_cycles",
        "elapsed_cycles",
        "occupancy_share",
    });
}

void
ExportSink::addTenantMetrics(const std::string &policy,
                             const TenantRunMetrics &t)
{
    row({
        ExportCell::str(t.tenant),
        ExportCell::str(t.kernels),
        ExportCell::str(policy),
        ExportCell::num(t.smLimit),
        ExportCell::integer(t.smCount),
        ExportCell::integer(
            static_cast<std::int64_t>(t.dispatchedBlocks)),
        ExportCell::integer(static_cast<std::int64_t>(t.blocksCompleted)),
        ExportCell::integer(static_cast<std::int64_t>(t.instructions)),
        ExportCell::integer(static_cast<std::int64_t>(t.busySmCycles)),
        ExportCell::integer(static_cast<std::int64_t>(t.limitedCycles)),
        ExportCell::integer(static_cast<std::int64_t>(t.elapsedCycles)),
        ExportCell::num(t.occupancyShare()),
    });
}

ExportSink
ExportSink::sweepTable()
{
    return ExportSink({
        "point",
        "policy",
        "sm_vf",
        "mem_vf",
        "cta",
        "predicted_seconds",
        "predicted_cycles",
        "predicted_joules",
        "measured_seconds",
        "measured_cycles",
        "measured_joules",
        "simulated",
    });
}

void
ExportSink::addSweepPoint(const SweepPointRow &p)
{
    row({
        ExportCell::integer(p.id),
        ExportCell::str(p.policy),
        ExportCell::str(vfStateName(p.smVf)),
        ExportCell::str(vfStateName(p.memVf)),
        ExportCell::integer(p.cta),
        ExportCell::num(p.predictedSeconds),
        ExportCell::num(p.predictedCycles),
        ExportCell::num(p.predictedJoules),
        ExportCell::num(p.measuredSeconds),
        ExportCell::num(p.measuredCycles),
        ExportCell::num(p.measuredJoules),
        ExportCell::integer(p.simulated ? 1 : 0),
    });
}

ExportSink
ExportSink::serveTable()
{
    return ExportSink({
        "request",
        "kernel",
        "policy",
        "priority",
        "arrival_cycle",
        "start_cycle",
        "complete_cycle",
        "latency_cycles",
        "executed_cycles",
        "preemptions",
        "slo_cycles",
        "slo_violated",
        "completed",
        "rejected",
        "device",
    });
}

void
ExportSink::addServeRequest(const std::string &policy,
                            const RequestRecord &rec)
{
    row({
        ExportCell::integer(rec.req.id),
        ExportCell::str(rec.req.kernel),
        ExportCell::str(policy),
        ExportCell::integer(rec.req.priority),
        ExportCell::integer(
            static_cast<std::int64_t>(rec.req.arrivalCycle)),
        ExportCell::integer(static_cast<std::int64_t>(rec.startCycle)),
        ExportCell::integer(
            static_cast<std::int64_t>(rec.completeCycle)),
        ExportCell::integer(
            static_cast<std::int64_t>(rec.latencyCycles)),
        ExportCell::integer(
            static_cast<std::int64_t>(rec.executedCycles)),
        ExportCell::integer(rec.preemptions),
        ExportCell::integer(
            static_cast<std::int64_t>(rec.req.sloCycles)),
        ExportCell::integer(rec.sloViolated ? 1 : 0),
        ExportCell::integer(rec.completed ? 1 : 0),
        ExportCell::integer(rec.rejected ? 1 : 0),
        ExportCell::integer(rec.device),
    });
}

ExportSink
ExportSink::serveSummaryTable()
{
    return ExportSink({
        "policy",
        "admission",
        "devices",
        "requests",
        "completed",
        "rejected",
        "rejection_rate",
        "preemptions",
        "wall_cycles",
        "executed_cycles",
        "p50_latency",
        "p95_latency",
        "p99_latency",
        "max_latency",
        "mean_latency",
        "throughput_per_mcycle",
        "slo_violations",
        "slo_violation_rate",
    });
}

void
ExportSink::addServeSummary(const ServeSummary &s)
{
    row({
        ExportCell::str(s.policy),
        ExportCell::str(s.admission),
        ExportCell::integer(s.devices),
        ExportCell::integer(s.requests),
        ExportCell::integer(s.completed),
        ExportCell::integer(s.rejected),
        ExportCell::num(s.rejectionRate),
        ExportCell::integer(s.preemptions),
        ExportCell::integer(static_cast<std::int64_t>(s.wallCycles)),
        ExportCell::integer(
            static_cast<std::int64_t>(s.executedCycles)),
        ExportCell::integer(static_cast<std::int64_t>(s.p50Latency)),
        ExportCell::integer(static_cast<std::int64_t>(s.p95Latency)),
        ExportCell::integer(static_cast<std::int64_t>(s.p99Latency)),
        ExportCell::integer(static_cast<std::int64_t>(s.maxLatency)),
        ExportCell::num(s.meanLatency),
        ExportCell::num(s.throughputPerMcycle),
        ExportCell::integer(s.sloViolations),
        ExportCell::num(s.sloViolationRate),
    });
}

} // namespace equalizer
