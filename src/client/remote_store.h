// RemoteStore — a ConfigStore backed by any api::Engine.
//
// Plugs a TTKV engine into everything built on ConfigStore: the
// interception decorator, the flush-diff logger, and the repair sandbox
// all work against the daemon (api::RemoteEngine) or the in-process
// ShardedTtkv (one shard or many) unchanged — the way the paper's recorders
// all talk to one shared Redis server. Current state is the engine's
// latest live values; Remove tombstones (history is preserved engine-side,
// and the non-force DeleteCmd policy applies: removing an absent key
// records nothing).
#pragma once

#include "api/engine.h"
#include "configstore/config_store.h"

namespace ocasta {

class RemoteStore final : public ConfigStore {
 public:
  // `engine` must outlive this store. `kind` declares which store the
  // engine is standing in for (key syntax of the recorded application).
  explicit RemoteStore(api::Engine& engine, StoreKind kind = StoreKind::kGconf)
      : engine_(engine), kind_(kind) {}

  std::optional<Value> Read(const std::string& key) override {
    return api::Get(engine_, key);
  }
  void Write(const std::string& key, Value value) override {
    api::Put(engine_, key, value);
  }
  bool Remove(const std::string& key) override { return api::Delete(engine_, key); }
  std::vector<std::string> ListKeys(const std::string& prefix) const override {
    return api::ListKeys(engine_, prefix);
  }
  StoreKind kind() const override { return kind_; }

  // Live key → latest value, from one merged engine snapshot.
  ConfigMap Snapshot() const override;

  // Diff-based restore: writes keys that differ, tombstones live keys not
  // in `state`. The whole diff ships as ONE BatchCmd — a single frame on
  // the remote backend — though the restore is still not atomic versus
  // concurrent writers (neither is the paper's rollback, which replays
  // individual store writes).
  void RestoreSnapshot(const ConfigMap& state) override;

 private:
  api::Engine& engine_;
  StoreKind kind_;
};

}  // namespace ocasta
