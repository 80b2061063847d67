// Access events — the observation stream produced by the interception layer.
#pragma once

#include <string>

#include "common/time.h"
#include "configstore/config_store.h"
#include "ttkv/value.h"

namespace ocasta {

enum class AccessOp : uint8_t {
  kRead = 0,
  kWrite = 1,
  kDelete = 2,
};

const char* AccessOpName(AccessOp op);

// One observed access by an application to its configuration store.
struct AccessEvent {
  TimeMicros timestamp = 0;
  std::string app;   // Application identity (process image in the paper).
  StoreKind store = StoreKind::kRegistry;
  AccessOp op = AccessOp::kRead;
  std::string key;
  Value value;  // Written value; none for reads and deletes.

  friend bool operator==(const AccessEvent&, const AccessEvent&) = default;
};

// Consumer of access events (trace log, TTKV recorder, tees).
class AccessSink {
 public:
  virtual ~AccessSink() = default;
  virtual void OnAccess(const AccessEvent& event) = 0;
  // For an event the caller is done with; a sink that keeps events
  // overrides this to take it without a copy.
  virtual void OnAccess(AccessEvent&& event) { OnAccess(static_cast<const AccessEvent&>(event)); }
};

}  // namespace ocasta
