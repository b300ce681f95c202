#include "trace.h"

#include <cstring>
#include <ostream>
#include <stdexcept>

#include "obs/resource.h"

namespace perfbench {

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kNetlist: return "netlist";
    case Layer::kGraph: return "graph";
    case Layer::kFlow: return "flow";
    case Layer::kPartition: return "partition";
    case Layer::kRetiming: return "retiming";
    case Layer::kVerify: return "verify";
    case Layer::kCore: return "core";
    case Layer::kAnalyze: return "analyze";
    case Layer::kSim: return "sim";
    case Layer::kSat: return "sat";
    case Layer::kNone: break;
  }
  return "none";
}

namespace {
// A traced pass records a few hundred spans, nested at most three deep.
constexpr std::size_t kSpanCapacity = 1u << 16;
constexpr std::size_t kDepthCapacity = 64;
}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
  spans_.reserve(kSpanCapacity);
  stack_.reserve(kDepthCapacity);
}

std::int32_t Tracer::open(const char* name, Layer layer) {
  if (spans_.size() == spans_.capacity() || stack_.size() == stack_.capacity()) {
    // Growing would allocate inside a measured call and skew its count.
    throw std::length_error("perfbench::Tracer: span capacity exhausted");
  }
  SpanRecord rec;
  rec.name = name;
  rec.layer = layer;
  rec.parent = stack_.empty() ? -1 : stack_.back();
  rec.allocs = merced::obs::alloc_stats().allocations;
  rec.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - epoch_)
                     .count();
  spans_.push_back(rec);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  SpanRecord& rec = spans_[static_cast<std::size_t>(index)];
  rec.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch_)
                   .count();
  rec.allocs = merced::obs::alloc_stats().allocations - rec.allocs;
  stack_.pop_back();
}

std::vector<SelfTotals> Tracer::self_totals() const {
  std::vector<SelfTotals> out(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out[i].seconds += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    out[i].allocs += s.allocs;
    if (s.parent >= 0) {
      SelfTotals& p = out[static_cast<std::size_t>(s.parent)];
      p.seconds -= static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      p.allocs -= s.allocs;
    }
  }
  return out;
}

std::array<SelfTotals, kNumLayers> Tracer::layer_totals() const {
  std::array<SelfTotals, kNumLayers> out{};
  const std::vector<SelfTotals> self = self_totals();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].layer == Layer::kNone) continue;
    SelfTotals& t = out[static_cast<std::size_t>(spans_[i].layer)];
    t.seconds += self[i].seconds;
    t.allocs += self[i].allocs;
  }
  return out;
}

SelfTotals Tracer::named_totals(const char* name) const {
  SelfTotals out;
  const std::vector<SelfTotals> self = self_totals();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, name) != 0) continue;
    out.seconds += self[i].seconds;
    out.allocs += self[i].allocs;
  }
  return out;
}

void Tracer::write_json(std::ostream& os) const {
  os << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "  {\"name\": \"" << s.name << "\", \"layer\": \""
       << layer_name(s.layer) << "\", \"parent\": " << s.parent
       << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << ", \"allocs\": " << s.allocs << "}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
