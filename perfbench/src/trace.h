// In-memory span recorder for the traced benchmark run.
//
// The benchmark opens a span around each of its own calls into a
// library module (names are "<module>.<call>", e.g. "core.em"). Spans
// nest on the single client thread: a span's parent is the span open
// when it starts, and its request id is inherited from the parent
// unless given. Nothing is written until write_chrome_json() at exit,
// so recording costs two clock reads and one vector append per span.
// A disabled tracer records nothing and reads no clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // `name` must outlive the tracer (string literals).
  std::uint32_t open(const char* name, std::uint64_t request);
  std::uint32_t open(const char* name);
  void close(std::uint32_t id);

  struct NameTotals {
    std::string name;
    std::size_t count = 0;
    double total_s = 0.0;
    // Duration minus the part covered by child spans: for a span with
    // children this is the time no traced call accounts for.
    double self_s = 0.0;
    bool has_children = false;
  };
  std::vector<NameTotals> totals() const;

  // Chrome trace-event JSON ("X" complete events, microseconds), which
  // chrome://tracing and Perfetto load directly. Returns false when the
  // file cannot be written.
  bool write_chrome_json(const std::string& path) const;

  std::size_t span_count() const { return spans_.size(); }

 private:
  using Clock = std::chrono::steady_clock;

  struct SpanRecord {
    const char* name = nullptr;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    std::uint32_t parent = kNone;
    std::uint64_t request = 0;
  };

  std::int64_t now_ns() const;

  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<std::uint32_t> stack_;
};

// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  Span(Tracer& tracer, const char* name) : tracer_(tracer) {
    if (tracer_.enabled()) id_ = tracer_.open(name);
  }
  Span(Tracer& tracer, const char* name, std::uint64_t request)
      : tracer_(tracer) {
    if (tracer_.enabled()) id_ = tracer_.open(name, request);
  }
  ~Span() {
    if (id_ != Tracer::kNone) tracer_.close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t id_ = Tracer::kNone;
};

}  // namespace perfbench
