#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace moteur::obs {

using SpanId = std::uint64_t;  // 0 = "no span" / root

/// Append-only storage in fixed chunks of `kChunk` elements: growth
/// allocates one chunk and never moves an element, so references stay valid
/// and one allocation serves `kChunk` appends. No chunk is allocated until
/// the first append.
template <class T, std::size_t kChunk>
class ChunkedVector {
 public:
  std::size_t size() const {
    return chunks_.empty() ? 0 : (chunks_.size() - 1) * kChunk + chunks_.back().size();
  }
  T& operator[](std::size_t i) { return chunks_[i / kChunk][i % kChunk]; }
  const T& operator[](std::size_t i) const { return chunks_[i / kChunk][i % kChunk]; }

  T& emplace_back() {
    // A chunk's capacity is reserved whole, so appending never reallocates it.
    if (chunks_.empty() || chunks_.back().size() == kChunk) {
      chunks_.emplace_back().reserve(kChunk);
    }
    return chunks_.back().emplace_back();
  }

  class const_iterator {
   public:
    const_iterator(const ChunkedVector* owner, std::size_t at) : owner_(owner), at_(at) {}
    const T& operator*() const { return (*owner_)[at_]; }
    const T* operator->() const { return &(*owner_)[at_]; }
    const_iterator& operator++() {
      ++at_;
      return *this;
    }
    bool operator==(const const_iterator& other) const { return at_ == other.at_; }

   private:
    const ChunkedVector* owner_;
    std::size_t at_;
  };
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

 private:
  std::vector<std::vector<T>> chunks_;
};

/// One timed interval of a run, in backend seconds. Spans form a tree via
/// `parent`: run -> processor -> invocation -> attempt -> phase is the
/// enactor's hierarchy, but the tracer itself is agnostic to categories.
/// Annotations live in the tracer's pool; read them with Tracer::args.
struct Span {
  SpanId id = 0;
  SpanId parent = 0;
  std::string name;
  /// "run", "processor", "invocation", "attempt", "phase": a static name.
  std::string_view category;
  double start = 0.0;
  double end = -1.0;  // < start while still open

  bool open() const { return end < start; }
  double duration() const { return open() ? 0.0 : end - start; }

 private:
  friend class Tracer;
  std::uint32_t first_arg = 0;  // 1-based pool index; 0 = none
  std::uint32_t last_arg = 0;
};

/// One key/value annotation of a span (exported as a trace arg).
struct Annotation {
  std::string_view key;  // a static name
  std::string value;

 private:
  friend class Tracer;
  std::uint32_t next = 0;  // 1-based pool index of the span's next one
};

/// Append-only span recorder. Time is supplied by the caller (backend time),
/// so the same tracer serves the simulated and the wall-clock backends and
/// traces stay deterministic under simulation. Span ids are 1, 2, 3, ... in
/// append order, so a span's id is its position in spans() plus one.
///
/// Storage is chunked: a span never moves once appended, and one allocation
/// serves a thousand spans. Categories and annotation keys are static names
/// (string literals), held by view; annotation values share one pool for the
/// whole tracer. Not thread-safe: feed it from one thread at a time.
class Tracer {
 public:
  static constexpr std::size_t kSpansPerChunk = 1024;
  using Spans = ChunkedVector<Span, kSpansPerChunk>;

  /// One span's annotations in insertion order.
  class Args {
   public:
    class iterator {
     public:
      iterator(const Tracer* tracer, std::uint32_t at) : tracer_(tracer), at_(at) {}
      const Annotation& operator*() const { return tracer_->args_[at_ - 1]; }
      const Annotation* operator->() const { return &**this; }
      iterator& operator++() {
        at_ = (**this).next;
        return *this;
      }
      bool operator==(const iterator& other) const { return at_ == other.at_; }

     private:
      const Tracer* tracer_;
      std::uint32_t at_;
    };
    iterator begin() const { return {tracer_, first_}; }
    iterator end() const { return {tracer_, 0}; }
    bool empty() const { return first_ == 0; }
    std::size_t size() const;
    /// Value of the first annotation under `key`; nullptr when absent.
    const std::string* find(std::string_view key) const;

   private:
    friend class Tracer;
    Args(const Tracer* tracer, std::uint32_t first) : tracer_(tracer), first_(first) {}
    const Tracer* tracer_;
    std::uint32_t first_;
  };

  /// Open a span. `parent` = 0 makes it a root, and so does a parent that is
  /// not yet a span: a span's parent always precedes it, which lets the
  /// exports derive the tree in one pass by position. `category` must be a
  /// static name (a string literal): the span keeps a view of it.
  SpanId begin(std::string name, std::string_view category, double start,
               SpanId parent = 0);

  /// Close an open span. Unknown ids and double closes are ignored.
  void end(SpanId id, double end);

  /// Record an already-closed span in one call (derived phases).
  SpanId record(std::string name, std::string_view category, double start, double end,
                SpanId parent = 0);

  /// Attach a key/value annotation to a span. Unknown ids are ignored.
  /// `key` must be a static name, like a category.
  void annotate(SpanId id, std::string_view key, std::string value);

  const Spans& spans() const { return spans_; }
  /// Lookup by id; nullptr when unknown.
  const Span* find(SpanId id) const;
  Args args(const Span& span) const { return {this, span.first_arg}; }
  std::size_t open_count() const { return open_; }

  /// Close every still-open span at `end` and tag it unfinished=true —
  /// stragglers whose completions never got dispatched before the run ended.
  void close_open_spans(double end);

 private:
  bool known(SpanId id) const { return id != 0 && id <= spans_.size(); }

  Spans spans_;
  ChunkedVector<Annotation, kSpansPerChunk> args_;
  std::size_t open_ = 0;
};

}  // namespace moteur::obs
