#include "configstore/file_config_store.h"

#include "common/strings.h"

namespace ocasta {

void FileConfigStore::LoadFileText(const std::string& text) {
  state_ = codec_->Parse(text);
  file_text_ = text;
  dirty_ = false;
}

void FileConfigStore::Flush() {
  if (!dirty_) return;
  const std::string before = std::move(file_text_);
  file_text_ = codec_->Serialize(state_);
  dirty_ = false;
  if (flush_observer_) flush_observer_(before, file_text_);
}

std::optional<Value> FileConfigStore::Read(const std::string& key) {
  auto it = state_.find(key);
  if (it == state_.end()) return std::nullopt;
  return it->second;
}

void FileConfigStore::Write(const std::string& key, Value value) {
  auto it = state_.find(key);
  if (it != state_.end() && it->second == value) return;  // Unchanged: no dirtying write.
  state_[key] = std::move(value);
  dirty_ = true;
  MaybeAutoFlush();
}

bool FileConfigStore::Remove(const std::string& key) {
  if (state_.erase(key) == 0) return false;
  dirty_ = true;
  MaybeAutoFlush();
  return true;
}

std::vector<std::string> FileConfigStore::ListKeys(const std::string& prefix) const {
  std::vector<std::string> keys;
  for (auto it = state_.lower_bound(prefix); it != state_.end(); ++it) {
    if (!StartsWith(it->first, prefix)) break;
    keys.push_back(it->first);
  }
  return keys;
}

void FileConfigStore::RestoreSnapshot(const ConfigMap& state) {
  state_ = state;
  dirty_ = true;
  MaybeAutoFlush();
}

}  // namespace ocasta
