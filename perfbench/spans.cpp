#include "spans.hpp"

#include <cstdio>
#include <fstream>
#include <map>

namespace perfbench {

SpanRecorder::Scope::Scope(SpanRecorder* recorder, std::string_view name)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  Span span;
  span.name = std::string(name);
  span.parent = recorder_->open_.empty()
                    ? -1
                    : static_cast<std::int64_t>(recorder_->open_.back());
  index_ = recorder_->spans_.size();
  recorder_->spans_.push_back(std::move(span));
  recorder_->open_.push_back(index_);
  // Last, so the span's own bookkeeping stays outside its interval.
  recorder_->spans_[index_].start_ns = recorder_->now_ns();
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  recorder_->spans_[index_].end_ns = recorder_->now_ns();
  recorder_->open_.pop_back();
}

void SpanRecorder::Scope::set_count(std::uint64_t count) noexcept {
  if (recorder_ != nullptr) recorder_->spans_[index_].count = count;
}

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::vector<SpanTotals> SpanRecorder::totals() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.duration_ns());
    }
  }
  std::vector<SpanTotals> out;
  std::map<std::string, std::size_t, std::less<>> index;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto [it, fresh] = index.try_emplace(span.name, out.size());
    if (fresh) out.push_back(SpanTotals{span.name, 0, 0, 0.0, 0.0});
    SpanTotals& agg = out[it->second];
    const auto duration = static_cast<double>(span.duration_ns());
    ++agg.spans;
    agg.count += span.count;
    agg.total_ns += duration;
    agg.self_ns += duration - child_ns[i];
  }
  return out;
}

SpanTotals SpanRecorder::totals_of(std::string_view name) const {
  for (SpanTotals& agg : totals()) {
    if (agg.name == name) return agg;
  }
  return SpanTotals{std::string(name), 0, 0, 0.0, 0.0};
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \""
        << span.name << "\", \"parent\": " << span.parent
        << ", \"start_ns\": " << span.start_ns
        << ", \"end_ns\": " << span.end_ns << ", \"count\": " << span.count
        << "}";
  }
  out << "\n], \"totals\": [";
  const auto all = totals();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanTotals& agg = all[i];
    char line[512];
    std::snprintf(line, sizeof line,
                  "%s\n  {\"name\": \"%s\", \"spans\": %llu, \"count\": %llu, "
                  "\"total_ns\": %.17g, \"self_ns\": %.17g}",
                  i == 0 ? "" : ",", agg.name.c_str(),
                  static_cast<unsigned long long>(agg.spans),
                  static_cast<unsigned long long>(agg.count),
                  agg.total_ns, agg.self_ns);
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
