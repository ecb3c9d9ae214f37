#include "core/autotuner.hpp"

#include "common/assert.hpp"

namespace pmemflow::core {

double AutoTuner::regret_of(const ConfigSweep& sweep,
                            const DeploymentConfig& config) {
  for (std::size_t i = 0; i < sweep.results.size(); ++i) {
    if (sweep.results[i].config == config) {
      return sweep.normalized(i);
    }
  }
  PMEMFLOW_ASSERT_MSG(false, "recommended config missing from sweep");
  return 0.0;
}

Expected<TuningReport> AutoTuner::tune(
    const workflow::WorkflowSpec& spec) const {
  auto sweep = executor_.sweep(spec);
  if (!sweep.has_value()) return Unexpected{sweep.error()};

  TuningReport report;
  report.sweep = *std::move(sweep);
  report.profile = Characterizer::from_sweep(spec, report.sweep,
                                             executor_.runner().devices());
  report.best = report.sweep.best().config;
  report.rule_based = recommender_.rule_based(report.profile, spec);
  report.model_based = recommender_.model_based(report.profile, spec);
  report.rule_based_regret =
      regret_of(report.sweep, report.rule_based.config);
  report.model_based_regret =
      regret_of(report.sweep, report.model_based.config);
  return report;
}

}  // namespace pmemflow::core
