// Reproduction acceptance tests (DESIGN.md §4).
//
// For every figure panel of the paper's evaluation, assert which
// configuration wins under the shipped calibration. Panels marked with
// a deviation record the known, documented difference from the paper
// (EXPERIMENTS.md "Known deviations"); the test pins those too, so any
// future model drift is caught either way.
#include <gtest/gtest.h>

#include "core/executor.hpp"
#include "workloads/suite.hpp"

namespace pmemflow {
namespace {

/// The winners are inline arrays, not pointers: ctest names each case
/// after the param's bytes, which then read the same in every build.
struct PanelCase {
  workloads::Family family;
  std::uint32_t ranks;
  /// Winner in the paper's figure.
  char paper_winner[8];
  /// Winner under the shipped calibration; equals paper_winner for
  /// reproduced panels, differs for the documented deviations.
  char measured_winner[8];
};

// Keep in sync with EXPERIMENTS.md.
const PanelCase kPanels[] = {
    {workloads::Family::kMicro64MB, 8, "S-LocW", "S-LocW"},
    {workloads::Family::kMicro64MB, 16, "S-LocW", "S-LocW"},
    {workloads::Family::kMicro64MB, 24, "S-LocW", "S-LocW"},
    {workloads::Family::kMicro2KB, 8, "P-LocR", "P-LocR"},
    {workloads::Family::kMicro2KB, 16, "P-LocR", "P-LocR"},
    {workloads::Family::kMicro2KB, 24, "S-LocR", "S-LocR"},
    {workloads::Family::kGtcReadOnly, 8, "P-LocR", "P-LocR"},
    // Deviation: burst-synchronization effect (EXPERIMENTS.md).
    {workloads::Family::kGtcReadOnly, 16, "S-LocR", "P-LocR"},
    {workloads::Family::kGtcReadOnly, 24, "S-LocW", "S-LocW"},
    {workloads::Family::kGtcMatrixMult, 8, "P-LocR", "P-LocR"},
    // Deviation: P-LocW/P-LocR within 0.1 % (EXPERIMENTS.md).
    {workloads::Family::kGtcMatrixMult, 16, "P-LocR", "P-LocW"},
    {workloads::Family::kGtcMatrixMult, 24, "S-LocW", "S-LocW"},
    {workloads::Family::kMiniAmrReadOnly, 8, "P-LocR", "P-LocR"},
    {workloads::Family::kMiniAmrReadOnly, 16, "S-LocR", "S-LocR"},
    {workloads::Family::kMiniAmrReadOnly, 24, "S-LocW", "S-LocW"},
    // Deviation: near-tie between the parallel placements.
    {workloads::Family::kMiniAmrMatrixMult, 8, "P-LocW", "P-LocR"},
    {workloads::Family::kMiniAmrMatrixMult, 16, "S-LocW", "S-LocW"},
    {workloads::Family::kMiniAmrMatrixMult, 24, "S-LocW", "S-LocW"},
};

class AcceptancePanel : public ::testing::TestWithParam<PanelCase> {};

TEST_P(AcceptancePanel, WinnerMatchesRecordedResult) {
  const PanelCase& panel = GetParam();
  core::Executor executor;
  const auto spec = workloads::make_workflow(panel.family, panel.ranks);
  auto sweep = executor.sweep(spec);
  ASSERT_TRUE(sweep.has_value()) << sweep.error().message;
  EXPECT_EQ(sweep->best().config.label(), panel.measured_winner)
      << spec.label << " (paper winner: " << panel.paper_winner << ")";
}

std::string panel_name(const ::testing::TestParamInfo<PanelCase>& info) {
  std::string name = std::string(to_string(info.param.family)) + "_" +
                     std::to_string(info.param.ranks);
  for (char& c : name) {
    if (c == '-' || c == '+') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(PaperPanels, AcceptancePanel,
                         ::testing::ValuesIn(kPanels), panel_name);

TEST(AcceptanceHeadline, MostPanelsReproduceThePaperWinner) {
  int reproduced = 0;
  int total = 0;
  for (const PanelCase& panel : kPanels) {
    ++total;
    if (std::string(panel.paper_winner) == panel.measured_winner) {
      ++reproduced;
    }
  }
  // The headline reproduction bar: at least 14 of 18 panels match the
  // paper outright; the rest are documented near-tie deviations.
  EXPECT_GE(reproduced, 14);
  EXPECT_EQ(total, 18);
}

TEST(AcceptanceHeadline, MisconfigurationPenaltyIsLarge) {
  // Paper SVII: failure to configure placement/scheduling costs up to
  // ~70 %. Check the suite-wide worst normalized runtime is at least
  // 1.5x (and finite).
  core::Executor executor;
  double worst = 1.0;
  for (const auto& spec : workloads::full_suite()) {
    auto sweep = executor.sweep(spec);
    ASSERT_TRUE(sweep.has_value());
    worst = std::max(worst, sweep->worst_case_penalty());
  }
  EXPECT_GE(worst, 1.5);
}

TEST(AcceptanceHeadline, NoSingleOptimalConfiguration) {
  // Paper SVII: "there is no single configuration which works for all
  // workflows" — the suite must have at least 3 distinct winners.
  core::Executor executor;
  std::set<std::string> winners;
  for (const auto& spec : workloads::full_suite()) {
    auto sweep = executor.sweep(spec);
    ASSERT_TRUE(sweep.has_value());
    winners.insert(sweep->best().config.label());
  }
  EXPECT_GE(winners.size(), 3u);
}

}  // namespace
}  // namespace pmemflow
