// relaxed-ok: the context is thread-local; node id, enable flag, and
// threshold are independent configuration scalars with no dependent
// non-atomic data.
#include "common/trace.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"
#include "common/logging.h"

namespace gekko::trace {

// ---------- span context ----------

namespace {
thread_local SpanContext tls_context{};
}  // namespace

SpanContext current() noexcept { return tls_context; }
void set_current(SpanContext ctx) noexcept { tls_context = ctx; }

namespace {
/// Process-unique id source: a per-process random-ish base (the tracer
/// pointer's address entropy mixed with the pid-salted counter) plus a
/// monotonic counter, both run through the splitmix64 finalizer so ids
/// from different processes diverge in the high bits too.
std::uint64_t next_id() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  static const std::uint64_t base =
      mix64(reinterpret_cast<std::uint64_t>(&counter) ^
            (static_cast<std::uint64_t>(::getpid()) << 40));
  const std::uint64_t id =
      mix64(base + counter.fetch_add(1, std::memory_order_relaxed));
  return id == 0 ? 1 : id;  // 0 is the "none" sentinel
}
}  // namespace

std::uint64_t new_trace_id() noexcept { return next_id(); }
std::uint64_t new_span_id() noexcept { return next_id(); }

// ---------- node identity ----------

std::uint32_t node_id() noexcept {
  return metrics::Tracer::global().node_id();
}
void set_node_id(std::uint32_t id) noexcept {
  metrics::Tracer::global().set_node_id(id);
}
void set_node_id_if_unset(std::uint32_t id) noexcept {
  metrics::Tracer::global().set_node_id_if_unset(id);
}

// ---------- sampling ----------

namespace {
std::atomic<bool>& enabled_flag() noexcept {
  static std::atomic<bool> flag{[] {
    const char* env = std::getenv("GEKKO_TRACE");
    return !(env != nullptr && env[0] == '0' && env[1] == '\0');
  }()};
  return flag;
}
}  // namespace

bool enabled() noexcept {
  return enabled_flag().load(std::memory_order_relaxed);
}
void set_enabled(bool on) noexcept {
  enabled_flag().store(on, std::memory_order_relaxed);
}

// ---------- slow-op watchdog ----------

namespace {
std::atomic<std::uint64_t>& threshold_ns() noexcept {
  static std::atomic<std::uint64_t> t{[]() -> std::uint64_t {
    if (const char* env = std::getenv("GEKKO_SLOW_OP_MS")) {
      char* end = nullptr;
      const unsigned long long ms = std::strtoull(env, &end, 10);
      if (end != env && *end == '\0') return ms * 1'000'000ull;
    }
    return 200ull * 1'000'000ull;  // default: 200 ms
  }()};
  return t;
}

thread_local StagePad tls_stages{};

void append_ms(std::string* out, std::uint64_t ns) {
  // "12.345ms" without iostream formatting overhead.
  const std::uint64_t us = ns / 1000;
  *out += std::to_string(us / 1000);
  *out += '.';
  const std::uint64_t frac = us % 1000;
  if (frac < 100) *out += '0';
  if (frac < 10) *out += '0';
  *out += std::to_string(frac);
  *out += "ms";
}

std::string hex_id(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out = "0x";
  bool started = false;
  for (int shift = 60; shift >= 0; shift -= 4) {
    const unsigned nibble = (v >> shift) & 0xf;
    if (nibble != 0 || started || shift == 0) {
      out += digits[nibble];
      started = true;
    }
  }
  return out;
}
}  // namespace

std::uint64_t slow_op_threshold_ns() noexcept {
  return threshold_ns().load(std::memory_order_relaxed);
}
void set_slow_op_threshold_ms(std::uint64_t ms) noexcept {
  threshold_ns().store(ms * 1'000'000ull, std::memory_order_relaxed);
}

void stages_reset() noexcept { tls_stages.count = 0; }

StageScope::StageScope() noexcept : saved_(tls_stages) {
  tls_stages.count = 0;
}

StageScope::~StageScope() { tls_stages = saved_; }

void stage_add(const char* stage, std::uint64_t ns) noexcept {
  StagePad& pad = tls_stages;
  // Merge repeats (a fan-out adds "io" once per join round).
  for (std::size_t i = 0; i < pad.count; ++i) {
    if (pad.stages[i].first == stage) {
      pad.stages[i].second += ns;
      return;
    }
  }
  if (pad.count < pad.stages.size()) {
    pad.stages[pad.count++] = {stage, ns};
  }
}

std::vector<std::pair<const char*, std::uint64_t>> stages_snapshot() {
  const StagePad& pad = tls_stages;
  return {pad.stages.begin(), pad.stages.begin() + pad.count};
}

void log_slow_op(
    const char* layer, std::string_view op, std::uint64_t trace_id,
    std::uint64_t total_ns,
    std::initializer_list<std::pair<const char*, std::uint64_t>>
        extra_stages) {
  std::string line = "slow-op ";
  line += layer;
  line += '.';
  line += op;
  line += " trace=";
  line += hex_id(trace_id);
  line += " total=";
  append_ms(&line, total_ns);
  const StagePad& pad = tls_stages;
  for (std::size_t i = 0; i < pad.count; ++i) {
    line += ' ';
    line += pad.stages[i].first;
    line += '=';
    append_ms(&line, pad.stages[i].second);
  }
  for (const auto& [name, ns] : extra_stages) {
    line += ' ';
    line += name;
    line += '=';
    append_ms(&line, ns);
  }
  // Counted as well as logged: gkfs-mon derives a cluster slow-op RATE
  // from this family, which a log line cannot provide.
  static metrics::Counter& slow_ops =
      metrics::Registry::global().counter("trace.slow_ops");
  slow_ops.inc();
  GEKKO_WARN("trace") << line;
}

// ---------- assembly ----------

Span to_span(const metrics::TraceSpan& s) {
  Span out;
  out.trace_id = s.trace_id;
  out.span_id = s.span_id;
  out.parent_span_id = s.parent_span_id;
  out.node_id = s.node_id;
  out.name = s.name;
  out.rpc_id = s.rpc_id;
  out.attempt = s.attempt;
  out.thread = s.thread;
  out.start_ns = s.start_ns;
  out.duration_ns = s.duration_ns;
  return out;
}

void Assembler::add(Span span) {
  if (span.trace_id == 0) return;
  auto& spans = by_trace_[span.trace_id];
  for (const Span& existing : spans) {
    if (existing.span_id == span.span_id && span.span_id != 0) {
      return;  // duplicate delivery / double dump
    }
  }
  spans.push_back(std::move(span));
  ++count_;
}

void Assembler::add_spans(const std::vector<Span>& spans,
                          std::int64_t clock_offset_ns) {
  for (Span s : spans) {
    s.start_ns = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(s.start_ns) + clock_offset_ns);
    add(std::move(s));
  }
}

void Assembler::add_spans(const std::vector<metrics::TraceSpan>& spans,
                          std::int64_t clock_offset_ns) {
  for (const metrics::TraceSpan& s : spans) {
    Span owned = to_span(s);
    owned.start_ns = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(owned.start_ns) + clock_offset_ns);
    add(std::move(owned));
  }
}

std::vector<TraceTree> Assembler::assemble() const {
  std::vector<TraceTree> trees;
  trees.reserve(by_trace_.size());
  for (const auto& [trace_id, spans] : by_trace_) {
    TraceTree tree;
    tree.trace_id = trace_id;
    tree.spans = spans;
    // Parents start before their children (the parent span opened
    // first); sorting makes child lists chronological and rendering
    // stable regardless of dump arrival order.
    std::sort(tree.spans.begin(), tree.spans.end(),
              [](const Span& a, const Span& b) {
                return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                                : a.span_id < b.span_id;
              });
    tree.children.resize(tree.spans.size());
    std::unordered_map<std::uint64_t, std::size_t> index;
    index.reserve(tree.spans.size());
    for (std::size_t i = 0; i < tree.spans.size(); ++i) {
      if (tree.spans[i].span_id != 0) index.emplace(tree.spans[i].span_id, i);
    }
    tree.start_ns = UINT64_MAX;
    for (std::size_t i = 0; i < tree.spans.size(); ++i) {
      const Span& s = tree.spans[i];
      tree.start_ns = std::min(tree.start_ns, s.start_ns);
      tree.end_ns = std::max(tree.end_ns, s.end_ns());
      const auto parent = index.find(s.parent_span_id);
      if (s.parent_span_id == 0 || parent == index.end() ||
          parent->second == i) {
        // True root, or an orphan whose parent was lost to ring wrap /
        // drops: adopt as a root so the partial trace still renders.
        tree.roots.push_back(i);
      } else {
        tree.children[parent->second].push_back(i);
      }
    }
    if (tree.spans.empty()) tree.start_ns = 0;
    trees.push_back(std::move(tree));
  }
  std::sort(trees.begin(), trees.end(),
            [](const TraceTree& a, const TraceTree& b) {
              return a.start_ns < b.start_ns;
            });
  return trees;
}

std::vector<TraceTree> Assembler::slowest(std::size_t k) const {
  std::vector<TraceTree> trees = assemble();
  std::sort(trees.begin(), trees.end(),
            [](const TraceTree& a, const TraceTree& b) {
              return a.duration_ns() > b.duration_ns();
            });
  if (trees.size() > k) trees.resize(k);
  return trees;
}

// ---------- Chrome Trace Event export ----------

namespace {

void append_escaped(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out->push_back('?');
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

/// Microseconds with ns precision kept as 3 decimals.
void append_us(std::string* out, std::uint64_t ns) {
  *out += std::to_string(ns / 1000);
  *out += '.';
  const std::uint64_t frac = ns % 1000;
  if (frac < 100) *out += '0';
  if (frac < 10) *out += '0';
  *out += std::to_string(frac);
}

}  // namespace

std::string to_chrome_json(const std::vector<TraceTree>& trees) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ',';
    first = false;
  };

  // Process-name metadata, once per node.
  std::unordered_set<std::uint32_t> nodes;
  for (const TraceTree& tree : trees) {
    for (const Span& s : tree.spans) nodes.insert(s.node_id);
  }
  std::vector<std::uint32_t> ordered(nodes.begin(), nodes.end());
  std::sort(ordered.begin(), ordered.end());
  for (const std::uint32_t node : ordered) {
    sep();
    out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" +
           std::to_string(node) + ",\"tid\":0,\"args\":{\"name\":";
    append_escaped(&out, node == kUnknownNode
                             ? std::string("node ?")
                             : "node " + std::to_string(node));
    out += "}}";
  }

  for (const TraceTree& tree : trees) {
    for (std::size_t i = 0; i < tree.spans.size(); ++i) {
      const Span& s = tree.spans[i];
      sep();
      out += "{\"ph\":\"X\",\"name\":";
      append_escaped(&out, s.name);
      out += ",\"cat\":\"gekko\",\"pid\":" + std::to_string(s.node_id) +
             ",\"tid\":" + std::to_string(s.thread) + ",\"ts\":";
      append_us(&out, s.start_ns);
      out += ",\"dur\":";
      append_us(&out, s.duration_ns);
      out += ",\"args\":{\"trace\":";
      append_escaped(&out, hex_id(s.trace_id));
      out += ",\"span\":";
      append_escaped(&out, hex_id(s.span_id));
      if (s.rpc_id != 0) out += ",\"rpc\":" + std::to_string(s.rpc_id);
      if (s.attempt != 0) out += ",\"attempt\":" + std::to_string(s.attempt);
      out += "}}";

      // Flow arrow for each cross-node parent→child edge (the RPC
      // hop). Same cat+id+name binds the s/f pair; the child span id
      // is unique per edge.
      for (const std::size_t child_idx : tree.children[i]) {
        const Span& child = tree.spans[child_idx];
        if (child.node_id == s.node_id) continue;
        const std::string id = hex_id(child.span_id);
        sep();
        out += "{\"ph\":\"s\",\"name\":\"rpc\",\"cat\":\"rpc\",\"id\":";
        append_escaped(&out, id);
        out += ",\"pid\":" + std::to_string(s.node_id) +
               ",\"tid\":" + std::to_string(s.thread) + ",\"ts\":";
        append_us(&out, s.start_ns);
        out += "}";
        sep();
        out += "{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"rpc\",\"cat\":\"rpc\","
               "\"id\":";
        append_escaped(&out, id);
        out += ",\"pid\":" + std::to_string(child.node_id) +
               ",\"tid\":" + std::to_string(child.thread) + ",\"ts\":";
        append_us(&out, child.start_ns);
        out += "}";
      }
    }
  }
  out += "]}";
  return out;
}

namespace {

/// Cursor over the exporter's JSON subset (strings, numbers, flat
/// objects with one level of nested object to skip).
class ChromeParser {
 public:
  explicit ChromeParser(std::string_view in) : in_(in) {}

  bool consume(char c) {
    skip_ws_();
    if (pos_ >= in_.size() || in_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool peek(char c) {
    skip_ws_();
    return pos_ < in_.size() && in_[pos_] == c;
  }

  bool string(std::string* out) {
    skip_ws_();
    if (pos_ >= in_.size() || in_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < in_.size() && in_[pos_] != '"') {
      char c = in_[pos_++];
      if (c == '\\' && pos_ < in_.size()) c = in_[pos_++];
      out->push_back(c);
    }
    if (pos_ >= in_.size()) return false;
    ++pos_;
    return true;
  }

  bool number(double* out) {
    skip_ws_();
    const std::size_t start = pos_;
    if (pos_ < in_.size() && (in_[pos_] == '-' || in_[pos_] == '+')) ++pos_;
    while (pos_ < in_.size() &&
           (std::isdigit(static_cast<unsigned char>(in_[pos_])) ||
            in_[pos_] == '.' || in_[pos_] == 'e' || in_[pos_] == 'E' ||
            in_[pos_] == '-' || in_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    *out = std::strtod(std::string(in_.substr(start, pos_ - start)).c_str(),
                       nullptr);
    return true;
  }

  /// Skip a balanced {...} value (the "args" payload).
  bool skip_object() {
    skip_ws_();
    if (pos_ >= in_.size() || in_[pos_] != '{') return false;
    int depth = 0;
    bool in_string = false;
    while (pos_ < in_.size()) {
      const char c = in_[pos_++];
      if (in_string) {
        if (c == '\\') {
          if (pos_ < in_.size()) ++pos_;
        } else if (c == '"') {
          in_string = false;
        }
        continue;
      }
      if (c == '"') in_string = true;
      else if (c == '{') ++depth;
      else if (c == '}' && --depth == 0) return true;
    }
    return false;
  }

 private:
  void skip_ws_() {
    while (pos_ < in_.size() &&
           std::isspace(static_cast<unsigned char>(in_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view in_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<std::vector<ChromeEvent>> parse_chrome_json(std::string_view json) {
  ChromeParser p(json);
  std::string key;
  if (!p.consume('{') || !p.string(&key) || key != "traceEvents" ||
      !p.consume(':') || !p.consume('[')) {
    return Errc::corruption;
  }
  std::vector<ChromeEvent> events;
  if (!p.consume(']')) {
    for (;;) {
      if (!p.consume('{')) return Errc::corruption;
      ChromeEvent ev;
      if (!p.consume('}')) {
        for (;;) {
          if (!p.string(&key) || !p.consume(':')) return Errc::corruption;
          if (p.peek('{')) {
            if (!p.skip_object()) return Errc::corruption;
          } else if (p.peek('"')) {
            std::string v;
            if (!p.string(&v)) return Errc::corruption;
            if (key == "name") ev.name = v;
            else if (key == "cat") ev.cat = v;
            else if (key == "ph") ev.ph = v;
            else if (key == "id") ev.id = v;
          } else {
            double v = 0;
            if (!p.number(&v)) return Errc::corruption;
            if (key == "pid") ev.pid = static_cast<std::int64_t>(v);
            else if (key == "tid") ev.tid = static_cast<std::int64_t>(v);
            else if (key == "ts") ev.ts = v;
            else if (key == "dur") ev.dur = v;
          }
          if (p.consume('}')) break;
          if (!p.consume(',')) return Errc::corruption;
        }
      }
      events.push_back(std::move(ev));
      if (p.consume(']')) break;
      if (!p.consume(',')) return Errc::corruption;
    }
  }
  if (!p.consume('}')) return Errc::corruption;
  return events;
}

// ---------- rendering ----------

namespace {

void format_span_(const TraceTree& tree, std::size_t idx, int depth,
                  const RpcNameFn& rpc_name, std::string* out) {
  const Span& s = tree.spans[idx];
  out->append(static_cast<std::size_t>(2 + 2 * depth), ' ');
  std::string label = s.name;
  if (s.rpc_id != 0) {
    std::string rpc;
    if (rpc_name) rpc = rpc_name(s.rpc_id);
    if (rpc.empty()) rpc = "id" + std::to_string(s.rpc_id);
    label += ' ';
    label += rpc;
  }
  if (s.attempt != 0) label += " attempt=" + std::to_string(s.attempt);
  *out += label;
  if (label.size() < 36) out->append(36 - label.size(), ' ');
  *out += " node=";
  *out += s.node_id == kUnknownNode ? std::string("?")
                                    : std::to_string(s.node_id);
  *out += " t";
  *out += std::to_string(s.thread);
  *out += " +";
  append_ms(out, s.start_ns - tree.start_ns);
  *out += ' ';
  append_ms(out, s.duration_ns);
  *out += '\n';
  for (const std::size_t child : tree.children[idx]) {
    format_span_(tree, child, depth + 1, rpc_name, out);
  }
}

}  // namespace

std::string format_trace(const TraceTree& tree, const RpcNameFn& rpc_name) {
  std::string out = "trace ";
  out += hex_id(tree.trace_id);
  out += " total=";
  append_ms(&out, tree.duration_ns());
  out += " spans=";
  out += std::to_string(tree.spans.size());
  out += '\n';
  for (const std::size_t root : tree.roots) {
    format_span_(tree, root, 0, rpc_name, &out);
  }
  return out;
}

}  // namespace gekko::trace
