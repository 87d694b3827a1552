/**
 * @file
 * Output checks: FNV-1a digests of every simulated quantity a workload
 * produces, and the flat expected.json file that pins them at seed 0.
 */

#ifndef EQBENCH_EXPECTED_HH
#define EQBENCH_EXPECTED_HH

#include <cstdint>
#include <map>
#include <string>

#include "harness/runner.hh"
#include "serve/request.hh"

namespace eqbench
{

/**
 * Digest of one application run: kernel, policy and every RunMetrics
 * field of the total and of each invocation, except the diagnostic
 * fastForwardedCycles (it differs between fast- and slow-path runs).
 */
std::uint64_t digestRun(const equalizer::AppRunResult &r);

/**
 * Digest of one sweep: every table row, the winner indices, the fit
 * errors and the run digest of every simulated point.
 */
std::uint64_t digestSweep(const equalizer::SweepResult &s);

/** Digest of one request's lifetime record. */
std::uint64_t digestRequest(const equalizer::RequestRecord &r);

/** Fold @p next into the running group digest @p acc. */
std::uint64_t foldDigest(std::uint64_t acc, std::uint64_t next);

/** Sixteen lowercase hex digits. */
std::string hexDigest(std::uint64_t d);

/**
 * expected.json is one flat JSON object of "key": "value" string pairs,
 * one pair per line as writeExpected() writes them:
 * "<group>" -> the seed-0 digest of an op group, and
 * "sm_cycles/<kernel>/baseline" -> the SM cycles of that zoo kernel's
 * baseline run. fatal() on any other line.
 */
std::map<std::string, std::string> readExpected(const std::string &path);

/** Write @p entries in the readExpected() format, keys sorted. */
void writeExpected(const std::string &path,
                   const std::map<std::string, std::string> &entries);

} // namespace eqbench

#endif // EQBENCH_EXPECTED_HH
