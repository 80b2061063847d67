// TtkvOracle — the differential suites' reference engine.
//
// One plain TTKV applying the Command vocabulary strictly in order, written
// from the command semantics in api/command.h rather than from the engine
// code: no shards, no locks, no stamp clock, no metrics, no cluster
// tracker. It applies the same delete policy (a non-forced delete of an
// absent or tombstoned key records nothing), the same per-key timestamp
// clamping and the same compaction as the engines under test, so the two
// can only disagree when one of them is wrong. Mutations must carry
// explicit timestamps — there is no clock to stamp timestamp-0 writes, so
// they come back as ErrorResult — and ops the reference does not model
// (CLUSTER_NOW, METRICS, replication) do too.
#pragma once

#include <algorithm>
#include <variant>

#include "api/engine.h"
#include "common/error.h"

namespace ocasta {

class TtkvOracle final : public api::Engine {
 public:
  api::Result Apply(const api::Command& cmd) override {
    try {
      return std::visit([this](const auto& op) { return Do(op); }, cmd.op);
    } catch (const Error& e) {
      return api::ErrorResult{e.what()};
    }
  }
  const char* backend_name() const override { return "oracle"; }

 private:
  static TimeMicros Explicit(TimeMicros t) {
    if (t == 0) throw Error("the oracle needs explicit timestamps");
    return t;
  }

  api::Result Do(const api::PingCmd&) { return api::OkResult{}; }
  api::Result Do(const api::PutCmd& cmd) {
    if (cmd.key.empty()) throw StoreError("empty key");
    ttkv_.record_write_clamped(cmd.key, cmd.value, Explicit(cmd.timestamp));
    ++puts_;
    return api::OkResult{};
  }
  api::Result Do(const api::DeleteCmd& cmd) {
    if (cmd.key.empty()) throw StoreError("empty key");
    const VersionedRecord* rec = ttkv_.find(cmd.key);
    const bool existed = rec != nullptr && rec->latest().has_value();
    if (!existed && !cmd.force) return api::ExistedResult{false};
    ttkv_.record_delete_clamped(cmd.key, Explicit(cmd.timestamp));
    ++deletes_;
    return api::ExistedResult{existed};
  }
  api::Result Do(const api::GetCmd& cmd) {
    ++gets_;
    return api::ValueResult{ttkv_.read_latest(cmd.key)};
  }
  api::Result Do(const api::GetAtCmd& cmd) {
    const VersionedRecord* rec = ttkv_.find(cmd.key);
    if (rec == nullptr) return api::ValueResult{};
    return api::ValueResult{rec->value_at(cmd.timestamp)};
  }
  api::Result Do(const api::HistoryCmd& cmd) {
    const VersionedRecord* rec = ttkv_.find(cmd.key);
    if (rec == nullptr) return api::HistoryResult{};
    return api::HistoryResult{*rec};
  }
  api::Result Do(const api::ListKeysCmd& cmd) {
    api::KeysResult res;
    for (const std::string& key : ttkv_.key_names()) {
      if (key.starts_with(cmd.prefix) && ttkv_.latest(key).has_value()) res.keys.push_back(key);
    }
    std::sort(res.keys.begin(), res.keys.end());
    return res;
  }
  api::Result Do(const api::StatsCmd&) {
    api::StatsResult res;
    res.stats.ttkv = ttkv_.stats();
    res.stats.num_shards = 1;
    res.stats.puts = puts_;
    res.stats.gets = gets_;
    res.stats.deletes = deletes_;
    return res;
  }
  api::Result Do(const api::SnapshotCmd&) { return api::SnapshotResult{ttkv_}; }
  api::Result Do(const api::CompactCmd& cmd) {
    return api::CompactResult{ttkv_.CompactBefore(cmd.horizon)};
  }
  api::Result Do(const api::BatchCmd& cmd) {
    api::BatchResult res;
    for (const api::Command& sub : cmd.commands) res.results.push_back(Apply(sub));
    return res;
  }
  template <typename Unmodelled>
  api::Result Do(const Unmodelled&) {
    throw Error("not modelled by the oracle");
  }

  TTKV ttkv_;
  uint64_t puts_ = 0;
  uint64_t gets_ = 0;
  uint64_t deletes_ = 0;
};

}  // namespace ocasta
