/**
 * @file
 * Tests for the unified ExportSink API and its run-metrics schema.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "harness/export.hh"

namespace equalizer
{
namespace
{

RunMetrics
sampleMetrics()
{
    RunMetrics m;
    m.seconds = 0.001;
    m.smCycles = 700000;
    m.memCycles = 924000;
    m.instructions = 1000000;
    m.dynamicJoules = 0.05;
    m.staticJoules = 0.06;
    m.l1Hits = 800;
    m.l1Misses = 200;
    m.outcomeTotals.active = 1000;
    m.outcomeTotals.waiting = 500;
    m.outcomeTotals.excessMem = 100;
    m.outcomeTotals.excessAlu = 200;
    m.smResidency[static_cast<int>(VfState::Normal)] = 1000;
    m.memResidency[static_cast<int>(VfState::Normal)] = 1000;
    return m;
}

TEST(Exporter, CsvHasHeaderAndOneLinePerRow)
{
    ExportSink ex = ExportSink::metricsTable();
    ex.addMetrics("kmn", "baseline", -1, sampleMetrics());
    ex.addMetrics("kmn", "equalizer-perf", 0, sampleMetrics());
    std::ostringstream os;
    ex.write(os, ExportFormat::Csv);
    const std::string out = os.str();
    // Header + 2 rows = 3 newline-terminated lines.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
    EXPECT_NE(out.find("kernel,policy,invocation"), std::string::npos);
    EXPECT_NE(out.find("kmn,baseline,-1"), std::string::npos);
    EXPECT_NE(out.find("kmn,equalizer-perf,0"), std::string::npos);
}

TEST(Exporter, CsvColumnCountsMatchHeader)
{
    ExportSink ex = ExportSink::metricsTable();
    ex.addMetrics("a", "b", 1, sampleMetrics());
    std::ostringstream os;
    ex.write(os, ExportFormat::Csv);
    std::istringstream is(os.str());
    std::string header;
    std::string row;
    std::getline(is, header);
    std::getline(is, row);
    EXPECT_EQ(std::count(header.begin(), header.end(), ','),
              std::count(row.begin(), row.end(), ','));
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(header.begin(), header.end(), ',')) + 1,
              ex.columnNames().size());
}

TEST(Exporter, JsonIsWellFormedish)
{
    ExportSink ex = ExportSink::metricsTable();
    ex.addMetrics("lbm", "mem-high", -1, sampleMetrics());
    std::ostringstream os;
    ex.write(os, ExportFormat::Json);
    const std::string out = os.str();
    EXPECT_EQ(out.front(), '{');
    EXPECT_EQ(out[out.size() - 2], '}');
    EXPECT_NE(out.find("\"kernel\": \"lbm\""), std::string::npos);
    EXPECT_NE(out.find("\"ipc\": "), std::string::npos);
}

TEST(Exporter, AddResultExpandsInvocations)
{
    ExportSink ex = ExportSink::metricsTable();
    std::vector<RunMetrics> invs(3, sampleMetrics());
    ex.addResult("bfs-2", "baseline", sampleMetrics(), invs);
    EXPECT_EQ(ex.rowCount(), 4u); // 3 invocations + total
    ex.clear();
    EXPECT_EQ(ex.rowCount(), 0u);
}

TEST(Exporter, FractionsAreNormalized)
{
    ExportSink ex = ExportSink::metricsTable();
    ex.addMetrics("x", "y", -1, sampleMetrics());
    std::ostringstream os;
    ex.write(os, ExportFormat::Csv);
    // waiting_frac = 500/1000 = 0.5 must appear in the row.
    EXPECT_NE(os.str().find("0.5"), std::string::npos);
}

TEST(ExportSink, FormatNamesRoundTrip)
{
    EXPECT_EQ(exportFormatFromName("csv"), ExportFormat::Csv);
    EXPECT_EQ(exportFormatFromName("json"), ExportFormat::Json);
    EXPECT_EQ(exportFormatFromName("trace-event"),
              ExportFormat::TraceEvent);
    EXPECT_EQ(exportFormatFromName("trace_event"),
              ExportFormat::TraceEvent);
    for (auto f : {ExportFormat::Csv, ExportFormat::Json,
                   ExportFormat::TraceEvent})
        EXPECT_EQ(exportFormatFromName(exportFormatName(f)), f);
}

TEST(ExportSink, FormatInferredFromPathSuffix)
{
    const auto fb = ExportFormat::Csv;
    EXPECT_EQ(exportFormatForPath("a/b.csv", fb), ExportFormat::Csv);
    EXPECT_EQ(exportFormatForPath("out.json", fb), ExportFormat::Json);
    EXPECT_EQ(exportFormatForPath("run.trace.json", fb),
              ExportFormat::TraceEvent);
    EXPECT_EQ(exportFormatForPath("plain.txt", fb), fb);
    EXPECT_EQ(exportFormatForPath("", ExportFormat::Json),
              ExportFormat::Json);
}

TEST(ExportSink, UnknownFormatNameIsFatal)
{
    EXPECT_EXIT(exportFormatFromName("xml"), testing::ExitedWithCode(1),
                "unknown export format");
}

TEST(ExportSink, CsvCarriesMetaAsComments)
{
    ExportSink sink({"threads", "wall_seconds"});
    sink.meta("bench", ExportCell::str("parallel_scaling"));
    sink.meta("sms", ExportCell::integer(15));
    sink.row({ExportCell::integer(4), ExportCell::num(1.25)});
    std::ostringstream os;
    sink.write(os, ExportFormat::Csv);
    const std::string out = os.str();
    EXPECT_NE(out.find("# bench = parallel_scaling\n"),
              std::string::npos);
    EXPECT_NE(out.find("# sms = 15\n"), std::string::npos);
    EXPECT_NE(out.find("threads,wall_seconds\n"), std::string::npos);
    EXPECT_NE(out.find("4,1.25\n"), std::string::npos);
}

TEST(ExportSink, JsonObjectHasMetaAndRows)
{
    ExportSink sink({"name", "value"});
    sink.meta("kernel", ExportCell::str("sgemm"));
    sink.row({ExportCell::str("ipc"), ExportCell::num(0.75)});
    std::ostringstream os;
    sink.write(os, ExportFormat::Json);
    const std::string out = os.str();
    EXPECT_EQ(out.front(), '{');
    EXPECT_NE(out.find("\"meta\": {\"kernel\": \"sgemm\"}"),
              std::string::npos);
    EXPECT_NE(out.find("\"rows\": ["), std::string::npos);
    EXPECT_NE(out.find("{\"name\": \"ipc\", \"value\": 0.75}"),
              std::string::npos);
}

TEST(ExportSink, MetaOverwritesExistingKey)
{
    ExportSink sink({"c"});
    sink.meta("k", ExportCell::str("old"));
    sink.meta("k", ExportCell::str("new"));
    std::ostringstream os;
    sink.write(os, ExportFormat::Json);
    EXPECT_EQ(os.str().find("old"), std::string::npos);
    EXPECT_NE(os.str().find("\"k\": \"new\""), std::string::npos);
}

TEST(ExportSink, RowArityMismatchIsFatal)
{
    ExportSink sink({"a", "b"});
    EXPECT_EXIT(sink.row({ExportCell::integer(1)}),
                testing::ExitedWithCode(1), "cells");
}

TEST(ExportSink, TraceEventFormatEmitsCounters)
{
    ExportSink sink({"point", "ipc"});
    sink.row({ExportCell::str("a"), ExportCell::num(0.5)});
    sink.row({ExportCell::str("b"), ExportCell::num(0.75)});
    std::ostringstream os;
    sink.write(os, ExportFormat::TraceEvent);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"traceEvents\": ["), std::string::npos);
    // One counter per numeric column per row, at ts = row index; the
    // quoted identity column is skipped.
    EXPECT_NE(out.find("\"ph\": \"C\", \"pid\": 0, \"tid\": 0, "
                       "\"ts\": 0, \"name\": \"ipc\", \"args\": "
                       "{\"value\": 0.5}"),
              std::string::npos);
    EXPECT_NE(out.find("\"ts\": 1, \"name\": \"ipc\", \"args\": "
                       "{\"value\": 0.75}"),
              std::string::npos);
    EXPECT_EQ(out.find("\"name\": \"point\""), std::string::npos);
}

TEST(ExportSink, JsonEscapesQuotesInStrings)
{
    ExportSink sink({"name"});
    sink.row({ExportCell::str("he said \"hi\"")});
    std::ostringstream os;
    sink.write(os, ExportFormat::Json);
    EXPECT_NE(os.str().find("he said \\\"hi\\\""), std::string::npos);
}

} // namespace
} // namespace equalizer
