#pragma once

#include <any>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "data/dataref.hpp"
#include "data/provenance.hpp"
#include "util/small_vector.hpp"

namespace moteur::data {

/// Composite iteration index of a data token: source items carry {rank};
/// a dot product preserves the common index; a cross product concatenates
/// the operand indices. Equal index vectors identify "the k-th result" no
/// matter the completion order — the mechanism that keeps dot products
/// causally correct under data/service parallelism (paper §4.1).
///
/// Three entries live inline, with no allocation: a source item's index and
/// the dot products over it are one entry deep, and a cross of a cross is
/// three. Deeper indices (a feedback link appends one entry per loop pass)
/// spill to the heap.
using IndexVector = SmallVector<std::size_t, 3>;

std::string to_string(const IndexVector& v);

/// Root cause carried by a poisoned (error) token: which processor lost the
/// data, why, and with what final outcome status. Shared unchanged by every
/// downstream poisoned token derived from it, so the original failure stays
/// identifiable arbitrarily deep in the graph.
struct TokenError {
  std::string processor;  // processor whose invocation failed definitively
  std::string cause;      // backend error text of the root failure
  std::string status;     // outcome status name ("Transient", "TimedOut", ...)
};

/// One piece of data flowing through the workflow. A token is a handle to one
/// immutable body (payload, repr, index, provenance, digest, replica ref,
/// error), built once by the constructor or a factory and never written
/// after: copying a token costs one reference-count increment, and the shard
/// thread and the worker threads may read one body at the same time.
///
/// A *poisoned* token stands in for data that was never produced because an
/// upstream invocation failed definitively: it has no payload but carries a
/// TokenError with the root cause. Poisoned tokens flow through iteration
/// strategies and the history tree exactly like real data — equal index
/// vectors, full provenance — so downstream consumers can be skipped (and
/// accounted for) instead of waiting forever on data that will never come.
class Token {
 public:
  Token() = default;
  Token(std::any payload, std::string repr, IndexVector indices, Provenance::Ptr provenance);

  /// Token for the `index`-th item emitted by workflow source `source_name`.
  /// The content digest defaults to FNV-1a over `repr`, so source items with
  /// equal values share a digest (the property replica reuse and invocation
  /// caching build on).
  static Token from_source(const std::string& source_name, std::size_t index,
                           std::any payload, std::string repr);

  /// Token produced on `port` of `processor` from the given input tokens.
  /// `digest` is the content digest of the produced value (0 = unknown, the
  /// pre-data-plane behavior); `ref` optionally names the replica written to
  /// a StorageElement for this value.
  static Token derived(const std::string& processor, const std::string& port,
                       const std::vector<Token>& inputs, IndexVector indices,
                       std::any payload, std::string repr, std::uint64_t digest = 0,
                       std::shared_ptr<const DataRef> ref = nullptr);

  /// Poisoned token standing in for the output `port` of `processor` that
  /// was never produced. Provenance derives from `inputs` like a real
  /// output; `error` is shared unchanged so the root cause propagates.
  static Token poisoned(const std::string& processor, const std::string& port,
                        const std::vector<Token>& inputs, IndexVector indices,
                        std::shared_ptr<const TokenError> error);

  const std::any& payload() const { return body().payload; }
  /// Typed access; throws std::bad_any_cast on mismatch.
  template <typename T>
  const T& as() const {
    return *std::any_cast<T>(&require_payload());
  }
  template <typename T>
  bool holds() const {
    return std::any_cast<T>(&body().payload) != nullptr;
  }

  /// Short human-readable rendition (file name, value, ...).
  const std::string& repr() const { return body().repr; }

  const IndexVector& indices() const { return body().indices; }
  const Provenance::Ptr& provenance() const { return body().provenance; }

  /// Unique identity (the provenance key).
  const std::string& id() const;

  bool has_payload() const { return body().payload.has_value(); }

  /// Content digest of the carried value (0 = unknown; poisoned tokens have
  /// no content). Equal digests mean equal content, not equal provenance.
  std::uint64_t digest() const { return body().digest; }

  /// The logical grid file backing this token, when one exists; nullptr for
  /// in-memory values that were never staged to a StorageElement.
  const std::shared_ptr<const DataRef>& ref() const { return body().ref; }

  /// Whether this token is an error marker rather than data.
  bool poisoned() const { return body().error != nullptr; }
  /// Root cause of a poisoned token; nullptr for healthy tokens.
  const std::shared_ptr<const TokenError>& error() const { return body().error; }

 private:
  struct Body {
    std::any payload;
    std::string repr;
    IndexVector indices;
    Provenance::Ptr provenance;
    std::shared_ptr<const TokenError> error;
    std::uint64_t digest = 0;
    std::shared_ptr<const DataRef> ref;
  };

  explicit Token(std::shared_ptr<const Body> body) : body_(std::move(body)) {}

  /// A default-constructed token reads as the empty body.
  const Body& body() const { return body_ ? *body_ : empty_body(); }
  static const Body& empty_body();
  const std::any& require_payload() const;

  std::shared_ptr<const Body> body_;
};

}  // namespace moteur::data
