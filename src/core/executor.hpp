// Deployment executor: runs workflows under Table I configurations.
#pragma once

#include <vector>

#include "core/config.hpp"

namespace pmemflow::core {

/// A workflow's measured runtime under one configuration.
struct ConfigResult {
  DeploymentConfig config;
  workflow::RunResult run;
};

/// Outcome of sweeping all four configurations for one workflow.
struct ConfigSweep {
  std::vector<ConfigResult> results;  // Table I order

  /// Index of the fastest configuration.
  [[nodiscard]] std::size_t best_index() const;
  [[nodiscard]] const ConfigResult& best() const {
    return results[best_index()];
  }
  /// runtime(config) / runtime(best) — the paper's Fig 10 metric.
  [[nodiscard]] double normalized(std::size_t index) const;
  /// Worst-over-best ratio: the cost of the worst mis-configuration
  /// (the paper's headline "up to 70 % slowdown").
  [[nodiscard]] double worst_case_penalty() const;
};

class Executor {
 public:
  explicit Executor(workflow::Runner runner = workflow::Runner())
      : runner_(std::move(runner)) {}

  /// Runs one workflow under one configuration.
  [[nodiscard]] Expected<ConfigResult> execute(
      const workflow::WorkflowSpec& spec,
      const DeploymentConfig& config) const;

  /// Runs one workflow under all four configurations (Table I order).
  [[nodiscard]] Expected<ConfigSweep> sweep(
      const workflow::WorkflowSpec& spec) const;

  [[nodiscard]] const workflow::Runner& runner() const noexcept {
    return runner_;
  }

 private:
  workflow::Runner runner_;
};

}  // namespace pmemflow::core
