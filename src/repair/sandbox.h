// The trial sandbox.
//
// The paper runs each trial "in a sandbox, which prevents the execution to
// leave any persistent changes". SandboxStore is a copy-on-write overlay
// over a base configuration: reads fall through to the base, writes and
// deletions land in the overlay, and dropping the sandbox discards
// everything. One sandbox per trial; all of a search's sandboxes share one
// immutable base.
#pragma once

#include <memory>
#include <set>

#include "configstore/config_store.h"

namespace ocasta {

class SandboxStore final : public ConfigStore {
 public:
  // `base` (non-null) is the live (erroneous) configuration. It is shared
  // and never written: any number of sandboxes may read through one base,
  // and each keeps its own changes in its overlay.
  SandboxStore(std::shared_ptr<const ConfigMap> base, StoreKind kind)
      : base_(std::move(base)), kind_(kind) {}

  // Same, over a base of its own.
  SandboxStore(ConfigMap base, StoreKind kind)
      : SandboxStore(std::make_shared<const ConfigMap>(std::move(base)), kind) {}

  std::optional<Value> Read(const std::string& key) override;
  void Write(const std::string& key, Value value) override;
  bool Remove(const std::string& key) override;
  std::vector<std::string> ListKeys(const std::string& prefix) const override;
  StoreKind kind() const override { return kind_; }
  ConfigMap Snapshot() const override;
  void RestoreSnapshot(const ConfigMap& state) override;

  // Discards all sandboxed changes, returning to the base state.
  void Reset();

  size_t overlay_size() const { return overlay_.size() + tombstones_.size(); }

 private:
  std::shared_ptr<const ConfigMap> base_;
  ConfigMap overlay_;
  std::set<std::string> tombstones_;
  StoreKind kind_;
};

}  // namespace ocasta
