/**
 * @file
 * Full Table II fidelity: every roster kernel carries exactly the
 * paper's structural parameters (W_cta, max blocks per SM, application,
 * time fraction, category) — all 27 rows, not spot checks.
 */

#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "kernels/kernel_zoo.hh"

namespace equalizer
{
namespace
{

struct PaperRow
{
    const char *application;
    const char *kernel;
    KernelCategory category;
    double fraction;
    int numBlocks; ///< paper "num Blocks" column (max blocks per SM)
    int wcta;      ///< paper "W_cta" column (warps per block)
};

// Without a printer gtest lists the row as raw bytes, pointers included,
// so the listed test name would change from build to build.
void
PrintTo(const PaperRow &row, std::ostream *os)
{
    *os << row.kernel;
}

/**
 * Paper Table II verbatim, with the two documented adjustments:
 * spmv is classified cache-sensitive (the figures' treatment; the
 * table's "Compute" appears to be a typo), and bfs's single kernel is
 * named bfs-2 as the text and Figures 2a/10/11a call it.
 */
const PaperRow paperTable2[] = {
    {"backprop", "bp-1", KernelCategory::Unsaturated, 0.57, 6, 8},
    {"backprop", "bp-2", KernelCategory::Cache, 0.43, 6, 8},
    {"bfs", "bfs-2", KernelCategory::Cache, 0.95, 3, 16},
    {"cfd", "cfd-1", KernelCategory::Memory, 0.85, 3, 16},
    {"cfd", "cfd-2", KernelCategory::Memory, 0.15, 3, 6},
    {"cutcp", "cutcp", KernelCategory::Compute, 1.00, 8, 6},
    {"histo", "histo-1", KernelCategory::Cache, 0.30, 3, 16},
    {"histo", "histo-2", KernelCategory::Compute, 0.53, 3, 24},
    {"histo", "histo-3", KernelCategory::Memory, 0.17, 3, 16},
    {"kmeans", "kmn", KernelCategory::Cache, 0.24, 6, 8},
    {"lavaMD", "lavaMD", KernelCategory::Compute, 1.00, 4, 4},
    {"lbm", "lbm", KernelCategory::Memory, 1.00, 7, 4},
    {"leukocyte", "leuko-1", KernelCategory::Memory, 0.64, 6, 6},
    {"leukocyte", "leuko-2", KernelCategory::Compute, 0.36, 3, 6},
    {"mri-g", "mri-g-1", KernelCategory::Unsaturated, 0.68, 8, 2},
    {"mri-g", "mri-g-2", KernelCategory::Unsaturated, 0.07, 3, 8},
    {"mri-g", "mri-g-3", KernelCategory::Compute, 0.13, 6, 8},
    {"mri-q", "mri-q", KernelCategory::Compute, 1.00, 5, 8},
    {"mummer", "mmer", KernelCategory::Cache, 1.00, 6, 8},
    {"particle", "prtcl-1", KernelCategory::Cache, 0.45, 3, 16},
    {"particle", "prtcl-2", KernelCategory::Compute, 0.35, 3, 6},
    {"pathfinder", "pf", KernelCategory::Compute, 1.00, 6, 8},
    {"sad", "sad-1", KernelCategory::Unsaturated, 0.85, 8, 2},
    {"sgemm", "sgemm", KernelCategory::Compute, 1.00, 6, 4},
    {"sc", "sc", KernelCategory::Unsaturated, 1.00, 3, 16},
    {"spmv", "spmv", KernelCategory::Cache, 1.00, 8, 6},
    {"stencile", "stncl", KernelCategory::Unsaturated, 1.00, 5, 4},
};

class Table2Row : public ::testing::TestWithParam<PaperRow>
{
};

TEST_P(Table2Row, MatchesPaper)
{
    const PaperRow &row = GetParam();
    const ZooEntry &entry = KernelZoo::byName(row.kernel);
    EXPECT_EQ(entry.application, row.application) << row.kernel;
    EXPECT_EQ(entry.params.category, row.category) << row.kernel;
    EXPECT_NEAR(entry.appFraction, row.fraction, 1e-9) << row.kernel;
    EXPECT_EQ(entry.params.maxBlocksPerSm, row.numBlocks) << row.kernel;
    EXPECT_EQ(entry.params.warpsPerBlock, row.wcta) << row.kernel;
}

INSTANTIATE_TEST_SUITE_P(
    AllRows, Table2Row, ::testing::ValuesIn(paperTable2),
    [](const ::testing::TestParamInfo<PaperRow> &info) {
        std::string name = info.param.kernel;
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(Table2, RowCountIs27)
{
    EXPECT_EQ(std::size(paperTable2), 27u);
    EXPECT_EQ(KernelZoo::all().size(), 27u);
}

TEST(Table2, ApplicationFractionsNeverExceedOne)
{
    // The paper's fractions cover only the kernels it evaluates, so an
    // app's listed kernels sum to at most 1 (exactly 1 when all of its
    // kernels made the roster, e.g. histo and cfd).
    std::map<std::string, double> sums;
    for (const auto &e : KernelZoo::all())
        sums[e.application] += e.appFraction;
    for (const auto &[app, sum] : sums)
        EXPECT_LE(sum, 1.0 + 1e-9) << app;
    EXPECT_NEAR(sums["histo"], 1.0, 1e-9);
    EXPECT_NEAR(sums["cfd"], 1.0, 1e-9);
    EXPECT_NEAR(sums["backprop"], 1.0, 1e-9);
    EXPECT_NEAR(sums["leukocyte"], 1.0, 1e-9);
}

} // namespace
} // namespace equalizer
