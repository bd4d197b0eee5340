#pragma once

#include <chrono>
#include <future>
#include <memory>

#include "services/service.hpp"
#include "util/thread_pool.hpp"

namespace moteur::services {

/// Client-side invocation styles of §3.1. GridRPC standardizes asynchronous
/// calls (grpc_call_async / grpc_wait); 2006 Web-Service stacks offered
/// only blocking calls, which MOTEUR worked around with enactor-level
/// threads. This utility offers both styles over any Service:
///
///   AsyncInvoker invoker;
///   auto handle = invoker.call_async(service, inputs);   // GridRPC style
///   ... do other work ...
///   Result r = handle.wait();
///
///   Result r2 = invoker.call(*service, inputs);          // SOAP style
class AsyncInvoker {
 public:
  explicit AsyncInvoker(std::size_t threads = 0) : pool_(threads) {}

  /// Non-blocking call; the computation runs on the invoker's pool.
  class Handle {
   public:
    /// grpc_probe: has the call completed (successfully or not)?
    bool ready() const {
      return future_.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    }
    /// grpc_wait: block for the result; rethrows service exceptions.
    Result wait() { return future_.get(); }

   private:
    friend class AsyncInvoker;
    explicit Handle(std::shared_future<Result> future) : future_(std::move(future)) {}
    std::shared_future<Result> future_;
  };

  Handle call_async(std::shared_ptr<Service> service, Inputs inputs) {
    auto future = pool_.submit(
        [service = std::move(service), inputs = std::move(inputs)] {
          return service->invoke(inputs);
        });
    return Handle(future.share());
  }

  /// Blocking call in the caller's thread (no pool hop).
  Result call(Service& service, const Inputs& inputs) { return service.invoke(inputs); }

 private:
  ThreadPool pool_;
};

}  // namespace moteur::services
