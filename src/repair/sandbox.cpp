#include "repair/sandbox.h"

#include "common/strings.h"

namespace ocasta {

std::optional<Value> SandboxStore::Read(const std::string& key) {
  if (tombstones_.count(key)) return std::nullopt;
  auto it = overlay_.find(key);
  if (it != overlay_.end()) return it->second;
  auto base_it = base_->find(key);
  if (base_it != base_->end()) return base_it->second;
  return std::nullopt;
}

void SandboxStore::Write(const std::string& key, Value value) {
  tombstones_.erase(key);
  overlay_[key] = std::move(value);
}

bool SandboxStore::Remove(const std::string& key) {
  const bool existed = Read(key).has_value();
  overlay_.erase(key);
  if (base_->count(key)) tombstones_.insert(key);
  return existed;
}

std::vector<std::string> SandboxStore::ListKeys(const std::string& prefix) const {
  std::vector<std::string> keys;
  auto consider = [&](const std::string& key) {
    if (!StartsWith(key, prefix) || tombstones_.count(key)) return;
    if (!keys.empty() && keys.back() == key) return;  // Overlay shadowed base.
    keys.push_back(key);
  };
  // Merge the two ordered maps.
  auto ib = base_->begin();
  auto io = overlay_.begin();
  while (ib != base_->end() || io != overlay_.end()) {
    if (io == overlay_.end() || (ib != base_->end() && ib->first < io->first)) {
      consider(ib->first);
      ++ib;
    } else if (ib == base_->end() || io->first < ib->first) {
      consider(io->first);
      ++io;
    } else {
      consider(ib->first);
      ++ib;
      ++io;
    }
  }
  return keys;
}

ConfigMap SandboxStore::Snapshot() const {
  ConfigMap merged = *base_;
  for (const auto& [key, value] : overlay_) merged[key] = value;
  for (const std::string& key : tombstones_) merged.erase(key);
  return merged;
}

void SandboxStore::RestoreSnapshot(const ConfigMap& state) {
  overlay_ = state;
  tombstones_.clear();
  for (const auto& [key, value] : *base_) {
    if (!state.count(key)) tombstones_.insert(key);
  }
}

void SandboxStore::Reset() {
  overlay_.clear();
  tombstones_.clear();
}

}  // namespace ocasta
