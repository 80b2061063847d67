// Flush-diff logger for file-backed configuration stores.
//
// Applications with their own config files read the whole file into memory
// and flush it back wholesale, so per-key writes cannot be hooked the way
// registry/GConf calls can. The paper's answer — and this class — is to
// diff the file before and after each flush and emit the inferred per-key
// writes and deletions. Consequences faithfully reproduced:
//  - several modifications to one key between flushes collapse into one
//    observed write;
//  - all keys changed in one flush share a timestamp (the flush time).
// A store's flushes chain (each before text is the previous after text), so
// the logger keeps its last parse and parses each file text once. That one
// parse is the logger's main cost; the PSKV codec makes it a single pass
// over the text that allocates only the map's keys, nodes and values.
#pragma once

#include <string>

#include "configstore/access_event.h"
#include "configstore/file_config_store.h"

namespace ocasta {

class FlushDiffLogger {
 public:
  // `clock` and `sink` must outlive this logger. Call Attach to hook a
  // store's flush notifications.
  FlushDiffLogger(std::string app_name, ConfigFormat format, const SimClock& clock,
                  AccessSink& sink)
      : app_(std::move(app_name)), codec_(&CodecFor(format)), clock_(clock), sink_(sink) {}

  // Registers this logger as `store`'s flush observer. The store must use
  // the same format this logger was constructed with.
  void Attach(FileConfigStore& store);

  // Diff two file texts and emit events (callable directly in tests). A
  // before text equal to the previous call's after text reuses that parse;
  // any other before text is parsed afresh.
  void OnFlush(const std::string& before_text, const std::string& after_text);

 private:
  ConfigMap Parse(const std::string& text) const;

  std::string app_;
  const FormatCodec* codec_;
  const SimClock& clock_;
  AccessSink& sink_;
  std::string last_after_text_;  // Empty text parses to the empty map.
  ConfigMap last_after_;
};

}  // namespace ocasta
