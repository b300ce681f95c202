// In-memory span recorder for the traced benchmark run.
//
// The benchmark times Merced from the outside: every call into a module's
// public API is wrapped in a Span that records its name, layer, start, end,
// parent span and the number of operator-new calls made while it was open
// (the binary installs obs/alloc_hook.h, so on one thread the count is
// exact). Spans stay in memory until the run ends and are then written out
// as JSON. A layer's self time is the sum of its spans' durations minus the
// parts of those intervals their child spans cover.
//
// A Span built from a null Tracer does nothing, so one code path serves the
// traced and the untraced pass.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace perfbench {

/// The Merced modules the benchmark attributes time to, plus kNone for the
/// benchmark's own bookkeeping spans (a pass, one operation).
enum class Layer : std::uint8_t {
  kNetlist,
  kGraph,
  kFlow,
  kPartition,
  kRetiming,
  kVerify,
  kCore,
  kAnalyze,
  kSim,
  kSat,
  kNone,
};
inline constexpr std::size_t kNumLayers = static_cast<std::size_t>(Layer::kNone);

const char* layer_name(Layer layer) noexcept;

struct SpanRecord {
  const char* name = "";  ///< string literal, e.g. "flow.saturate_network"
  Layer layer = Layer::kNone;
  std::int32_t parent = -1;  ///< index into Tracer::spans(), -1 for a root
  std::int64_t start_ns = 0;  ///< relative to the tracer's epoch
  std::int64_t end_ns = 0;
  std::uint64_t allocs = 0;  ///< operator-new calls while open, children included
};

/// Self time and self allocations of one span name, summed over the run.
struct SelfTotals {
  double seconds = 0;
  std::uint64_t allocs = 0;
};

class Tracer {
 public:
  /// Reserves room for every span up front so recording never allocates
  /// inside a measured call.
  Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::int32_t open(const char* name, Layer layer);
  void close(std::int32_t index);

  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

  /// Per-span self time in seconds and self allocations, index-aligned
  /// with spans().
  std::vector<SelfTotals> self_totals() const;

  /// Self time per layer (kNone excluded), summed over every span.
  std::array<SelfTotals, kNumLayers> layer_totals() const;

  /// Self totals of every span carrying `name` (compared as a string).
  SelfTotals named_totals(const char* name) const;

  /// {"spans": [{"name", "layer", "parent", "start_ns", "end_ns", "allocs"}]}
  void write_json(std::ostream& os) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; a no-op when `tracer` is null.
class Span {
 public:
  Span(Tracer* tracer, const char* name, Layer layer)
      : tracer_(tracer), index_(tracer ? tracer->open(name, layer) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

/// Runs `fn` inside a span and returns its result.
template <typename Fn>
decltype(auto) traced(Tracer* tracer, const char* name, Layer layer, Fn&& fn) {
  const Span span(tracer, name, layer);
  return fn();
}

}  // namespace perfbench
