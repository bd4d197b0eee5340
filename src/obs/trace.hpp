#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace moteur::obs {

using SpanId = std::uint64_t;  // 0 = "no span" / root

/// One timed interval of a run, in backend seconds. Spans form a tree via
/// `parent`: run -> processor -> invocation -> attempt -> phase is the
/// enactor's hierarchy, but the tracer itself is agnostic to categories.
struct Span {
  SpanId id = 0;
  SpanId parent = 0;
  std::string name;
  std::string category;  // "run", "processor", "invocation", "attempt", "phase"
  double start = 0.0;
  double end = -1.0;  // < start while still open
  /// Free-form annotations, insertion order preserved (exported as args).
  std::vector<std::pair<std::string, std::string>> args;

  bool open() const { return end < start; }
  double duration() const { return open() ? 0.0 : end - start; }
};

/// Append-only span recorder. Time is supplied by the caller (backend time),
/// so the same tracer serves the simulated and the wall-clock backends and
/// traces stay deterministic under simulation. Span ids are 1, 2, 3, ... in
/// append order, so a span's id is its position in spans() plus one. Not
/// thread-safe: feed it from the enactor's drive thread only.
class Tracer {
 public:
  /// Open a span. `parent` = 0 makes it a root.
  SpanId begin(std::string name, std::string category, double start, SpanId parent = 0);

  /// Close an open span. Unknown ids and double closes are ignored.
  void end(SpanId id, double end);

  /// Record an already-closed span in one call (derived phases).
  SpanId record(std::string name, std::string category, double start, double end,
                SpanId parent = 0);

  /// Attach a key/value annotation to a span. Unknown ids are ignored.
  void annotate(SpanId id, std::string key, std::string value);

  const std::vector<Span>& spans() const { return spans_; }
  /// Lookup by id; nullptr when unknown.
  const Span* find(SpanId id) const;
  std::size_t open_count() const { return open_; }

  /// Close every still-open span at `end` and tag it unfinished=true —
  /// stragglers whose completions never got dispatched before the run ended.
  void close_open_spans(double end);

 private:
  bool known(SpanId id) const { return id != 0 && id <= spans_.size(); }

  std::vector<Span> spans_;
  std::size_t open_ = 0;
};

}  // namespace moteur::obs
