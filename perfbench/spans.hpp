// In-memory span recording for the traced run.
//
// A span is (name, start, end, parent, count): `count` is how many
// calls into the layer the span covers, so a span around a chunk of
// short calls (class_fingerprint, EventQueue schedule/pop) yields a
// per-call cost without timing each call. Spans nest through an
// open-span stack; a span's self time is its duration minus the
// durations of its direct children. Nothing is written until the run
// ends (write_json).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  /// Index of the parent span in SpanRecorder::spans(), or -1.
  std::int64_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t count = 1;

  [[nodiscard]] std::int64_t duration_ns() const noexcept {
    return end_ns - start_ns;
  }
};

/// Per-name aggregate over every span of that name.
struct SpanTotals {
  std::string name;
  std::uint64_t spans = 0;
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;

  [[nodiscard]] double ns_per_call() const noexcept {
    return count == 0 ? 0.0 : total_ns / static_cast<double>(count);
  }
};

class SpanRecorder {
 public:
  /// Closes its span on destruction. A scope made from a null recorder
  /// records nothing, so untraced code paths share the traced ones.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

    /// Calls into the layer this span covers (default 1).
    void set_count(std::uint64_t count) noexcept;

   private:
    SpanRecorder* recorder_;
    std::size_t index_ = 0;
  };

  SpanRecorder();

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Aggregates by name, in first-seen order.
  [[nodiscard]] std::vector<SpanTotals> totals() const;
  [[nodiscard]] SpanTotals totals_of(std::string_view name) const;

  /// Writes {"spans": [...], "totals": [...]} to `path`.
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace perfbench
