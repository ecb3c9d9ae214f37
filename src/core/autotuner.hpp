// Auto-tuner: exhaustive configuration search plus recommender audit.
//
// Because deployments are simulated, trying all four Table I
// configurations is cheap; the auto-tuner does exactly that and reports
// the empirical best alongside what the rule-based and model-based
// recommenders *would* have chosen — including each strategy's regret
// (recommended runtime / best runtime). This is the validation loop the
// paper's conclusions ask future schedulers to close.
#pragma once

#include "core/recommender.hpp"

namespace pmemflow::core {

struct TuningReport {
  ConfigSweep sweep;
  WorkflowProfile profile;
  DeploymentConfig best;
  Recommendation rule_based;
  Recommendation model_based;

  /// runtime(recommended) / runtime(best); 1.0 = recommender optimal.
  double rule_based_regret = 1.0;
  double model_based_regret = 1.0;
};

class AutoTuner {
 public:
  explicit AutoTuner(Executor executor = Executor(),
                     Recommender recommender = Recommender())
      : executor_(std::move(executor)), recommender_(recommender) {}

  [[nodiscard]] Expected<TuningReport> tune(
      const workflow::WorkflowSpec& spec) const;

  [[nodiscard]] const Executor& executor() const noexcept {
    return executor_;
  }

 private:
  /// Normalized runtime of `config` within `sweep`.
  static double regret_of(const ConfigSweep& sweep,
                          const DeploymentConfig& config);

  Executor executor_;
  Recommender recommender_;
};

}  // namespace pmemflow::core
