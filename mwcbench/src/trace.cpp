#include "trace.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/span.hpp"

namespace mwcbench {

Tracer::Tracer(bool enabled) : enabled_(enabled) {
  mwc::obs::set_trace_enabled(enabled);
  mwc::obs::reset_trace();
  if (!enabled) return;
  // Learn which trace thread id the library gives this thread.
  { mwc::obs::Span probe("mwcbench.probe"); }
  const auto events = mwc::obs::trace_events();
  if (!events.empty()) main_tid_ = events.back().tid;
  mwc::obs::reset_trace();
}

Tracer::~Tracer() {
  mwc::obs::set_trace_enabled(false);
  mwc::obs::reset_trace();
}

void Tracer::begin_op(const char* op, std::uint64_t request) {
  if (!enabled_) return;
  mwc::obs::reset_trace();  // library spans of untraced work in between
  request_ = request;
  op_first_ = spans_.size();
  open(op);
}

void Tracer::end_op() {
  if (!enabled_ || stack_.empty()) return;
  close(stack_.front());
  stack_.clear();
  absorb_library_spans(op_first_);
}

Tracer::Scope::Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
  if (tracer_.enabled_) index_ = tracer_.open(name);
}

Tracer::Scope::~Scope() {
  if (index_ >= 0) tracer_.close(index_);
}

std::int64_t Tracer::open(const char* name) {
  SpanRecord span;
  span.name = name;
  span.start_us = mwc::obs::now_us();
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.request = request_;
  span.tid = main_tid_;
  spans_.push_back(std::move(span));
  const auto index = static_cast<std::int64_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::close(std::int64_t index) {
  spans_[static_cast<std::size_t>(index)].end_us = mwc::obs::now_us();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void Tracer::absorb_library_spans(std::size_t first_of_op) {
  const auto root = static_cast<std::int64_t>(first_of_op);
  const std::size_t first_library = spans_.size();
  for (const auto& event : mwc::obs::trace_events()) {
    SpanRecord span;
    span.name = event.name;
    span.start_us = event.ts_us;
    span.end_us = event.ts_us + event.dur_us;
    span.parent = root;  // off-thread spans hang off the op itself
    span.request = request_;
    span.tid = event.tid;
    span.library = true;
    spans_.push_back(std::move(span));
  }
  dropped_ += mwc::obs::trace_dropped_count();
  mwc::obs::reset_trace();

  // Nest this op's main-thread spans by interval containment: sorted by
  // start (longer first on ties, benchmark before library), each library
  // span's parent is the innermost open span that contains it.
  std::vector<std::size_t> order;
  for (std::size_t i = first_of_op; i < spans_.size(); ++i)
    if (spans_[i].tid == main_tid_) order.push_back(i);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const SpanRecord& x = spans_[a];
    const SpanRecord& y = spans_[b];
    if (x.start_us != y.start_us) return x.start_us < y.start_us;
    if (x.end_us != y.end_us) return x.end_us > y.end_us;
    return !x.library && y.library;
  });
  std::vector<std::size_t> open;
  for (const std::size_t i : order) {
    while (!open.empty() && spans_[open.back()].end_us < spans_[i].end_us)
      open.pop_back();
    if (i >= first_library && !open.empty())
      spans_[i].parent = static_cast<std::int64_t>(open.back());
    open.push_back(i);
  }
}

bool Tracer::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"traceEvents\":[", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%lld,\"request\":%llu,\"library\":%s}}",
                 i == 0 ? "" : ",", s.name.c_str(), s.tid, s.start_us,
                 s.end_us - s.start_us, i, static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 s.library ? "true" : "false");
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

double LayerTable::attributed_us() const {
  double sum = 0.0;
  for (const auto& [op, layers] : self_us)
    for (const auto& [layer, us] : layers) sum += us;
  return sum;
}

double LayerTable::total_us() const {
  double sum = 0.0;
  for (const auto& [op, us] : op_us) sum += us;
  return sum;
}

LayerTable analyze(const std::vector<SpanRecord>& spans,
                   const std::map<std::string, std::string>& layer_of) {
  LayerTable table;
  const std::size_t count = spans.size();
  const auto dur = [&](std::size_t i) {
    return spans[i].end_us - spans[i].start_us;
  };
  const auto same_thread_child = [&](std::size_t i) {
    const std::int64_t p = spans[i].parent;
    return p >= 0 && spans[static_cast<std::size_t>(p)].tid == spans[i].tid;
  };
  std::vector<double> child_us(count, 0.0);
  for (std::size_t i = 0; i < count; ++i)
    if (same_thread_child(i))
      child_us[static_cast<std::size_t>(spans[i].parent)] += dur(i);

  std::vector<std::size_t> root(count, 0);
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t r = i;
    while (spans[r].parent >= 0) r = static_cast<std::size_t>(spans[r].parent);
    root[i] = r;
  }
  for (std::size_t i = 0; i < count; ++i) {
    const std::string& op = spans[root[i]].name;
    if (spans[i].parent < 0) {
      ++table.ops[op];
      table.op_us[op] += dur(i);
      continue;
    }
    auto& inc = table.inclusive[op][spans[i].library ? "lib:" + spans[i].name
                                                       : spans[i].name];
    ++inc.first;
    inc.second += dur(i);
    if (!same_thread_child(i)) continue;  // worker-thread time overlaps
    std::int64_t at = static_cast<std::int64_t>(i);
    while (at >= 0 && spans[static_cast<std::size_t>(at)].parent >= 0) {
      const auto it = layer_of.find(spans[static_cast<std::size_t>(at)].name);
      if (it != layer_of.end()) {
        table.self_us[op][it->second] += dur(i) - child_us[i];
        break;
      }
      at = spans[static_cast<std::size_t>(at)].parent;
    }
  }
  return table;
}

}  // namespace mwcbench
