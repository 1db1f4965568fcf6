#include "trace.h"

#include <cassert>
#include <cstdio>
#include <map>

namespace perfbench {

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now() - origin_)
      .count();
}

std::uint32_t Tracer::open(const char* name, std::uint64_t request) {
  SpanRecord s;
  s.name = name;
  s.parent = stack_.empty() ? kNone : stack_.back();
  s.request = request;
  s.start_ns = now_ns();
  auto id = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(s);
  stack_.push_back(id);
  return id;
}

std::uint32_t Tracer::open(const char* name) {
  std::uint64_t request =
      stack_.empty() ? 0 : spans_[stack_.back()].request;
  return open(name, request);
}

void Tracer::close(std::uint32_t id) {
  // Span objects close in reverse order of opening (RAII on one thread).
  assert(!stack_.empty() && stack_.back() == id);
  spans_[id].end_ns = now_ns();
  stack_.pop_back();
}

std::vector<Tracer::NameTotals> Tracer::totals() const {
  // Children of one parent never overlap (one client thread), so the
  // covered part of a parent is the plain sum of its children.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  std::vector<char> has_child(spans_.size(), 0);
  for (const SpanRecord& s : spans_) {
    if (s.end_ns < 0 || s.parent == kNone) continue;
    child_ns[s.parent] += s.end_ns - s.start_ns;
    has_child[s.parent] = 1;
  }
  std::map<std::string, NameTotals> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.end_ns < 0) continue;
    NameTotals& t = by_name[s.name];
    t.name = s.name;
    std::int64_t dur = s.end_ns - s.start_ns;
    ++t.count;
    t.total_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(dur - child_ns[i]) * 1e-9;
    t.has_children = t.has_children || has_child[i] != 0;
  }
  std::vector<NameTotals> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.end_ns < 0) continue;
    long long parent = s.parent == kNone ? -1 : static_cast<long long>(s.parent);
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%lld,\"request\":%llu}}",
                 first ? "" : ",", s.name,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i, parent,
                 static_cast<unsigned long long>(s.request));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
