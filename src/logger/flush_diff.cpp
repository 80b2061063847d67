#include "logger/flush_diff.h"

#include "common/error.h"

namespace ocasta {

void FlushDiffLogger::Attach(FileConfigStore& store) {
  if (store.format() != codec_->format()) {
    throw StoreError("flush-diff logger format does not match the store's format");
  }
  store.set_flush_observer(
      [this](const std::string& before, const std::string& after) { OnFlush(before, after); });
}

ConfigMap FlushDiffLogger::Parse(const std::string& text) const {
  return text.empty() ? ConfigMap{} : codec_->Parse(text);
}

void FlushDiffLogger::OnFlush(const std::string& before_text, const std::string& after_text) {
  const bool cached = before_text == last_after_text_;
  ConfigMap parsed_before = cached ? ConfigMap{} : Parse(before_text);
  const ConfigMap& before = cached ? last_after_ : parsed_before;
  ConfigMap after = Parse(after_text);
  for (ConfigDelta& delta : DiffConfigMaps(before, after)) {
    const bool write = delta.kind == ConfigDelta::Kind::kWrite;
    sink_.OnAccess(AccessEvent{.timestamp = clock_.now(),
                               .app = app_,
                               .store = StoreKind::kFile,
                               .op = write ? AccessOp::kWrite : AccessOp::kDelete,
                               .key = std::move(delta.key),
                               .value = write ? std::move(delta.value) : Value()});
  }
  last_after_text_ = after_text;
  last_after_ = std::move(after);
}

}  // namespace ocasta
