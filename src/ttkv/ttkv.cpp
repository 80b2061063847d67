#include "ttkv/ttkv.h"

#include <algorithm>
#include <atomic>

#include "common/error.h"
#include "ttkv/serialize.h"

namespace ocasta {

std::optional<Value> VersionedRecord::value_at(TimeMicros t) const {
  // Versions are time-ordered; find the last one with timestamp <= t.
  const Version* best = nullptr;
  for (const Version& v : versions) {
    if (v.timestamp > t) break;
    best = &v;
  }
  if (best == nullptr || best->is_delete) return std::nullopt;
  return best->value;
}

std::optional<Value> VersionedRecord::latest() const {
  if (versions.empty() || versions.back().is_delete) return std::nullopt;
  return versions.back().value;
}

size_t VersionedRecord::EstimatedBytes() const {
  size_t total = 48 + key.size();  // Record header + key name.
  for (const Version& v : versions) {
    total += 24 + v.value.EstimatedBytes();  // Timestamp + flags + payload.
  }
  return total;
}

VersionedRecord& TTKV::mutable_record(const std::string& key) {
  auto [it, inserted] = index_.try_emplace(key, static_cast<uint32_t>(records_.size()));
  if (inserted) {
    records_.push_back(VersionedRecord{.key = key, .versions = {}});
    names_.push_back(key);
  }
  return records_[it->second];
}

void TTKV::record_write(const std::string& key, Value value, TimeMicros t) {
  VersionedRecord& rec = mutable_record(key);
  if (!rec.versions.empty() && rec.versions.back().timestamp > t) {
    throw StoreError("TTKV writes must be recorded in time order: " + key);
  }
  rec.versions.push_back(Version{.timestamp = t, .value = std::move(value), .is_delete = false});
  ++rec.write_count;
}

// GCC 12's -Wmaybe-uninitialized misfires on the monostate variant inside
// the tombstone Value temporary at -O2 (GCC PR105562).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
void TTKV::record_delete(const std::string& key, TimeMicros t) {
  VersionedRecord& rec = mutable_record(key);
  if (!rec.versions.empty() && rec.versions.back().timestamp > t) {
    throw StoreError("TTKV deletes must be recorded in time order: " + key);
  }
  rec.versions.push_back(Version{.timestamp = t, .value = Value(), .is_delete = true});
  ++rec.delete_count;
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

void TTKV::record_write_clamped(const std::string& key, Value value, TimeMicros t) {
  VersionedRecord& rec = mutable_record(key);
  if (!rec.versions.empty() && rec.versions.back().timestamp > t) {
    t = rec.versions.back().timestamp;
  }
  rec.versions.push_back(Version{.timestamp = t, .value = std::move(value), .is_delete = false});
  ++rec.write_count;
}

// See record_delete for the GCC 12 -Wmaybe-uninitialized note.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
void TTKV::record_delete_clamped(const std::string& key, TimeMicros t) {
  VersionedRecord& rec = mutable_record(key);
  if (!rec.versions.empty() && rec.versions.back().timestamp > t) {
    t = rec.versions.back().timestamp;
  }
  rec.versions.push_back(Version{.timestamp = t, .value = Value(), .is_delete = true});
  ++rec.delete_count;
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

std::optional<Value> TTKV::read_latest(const std::string& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  VersionedRecord& rec = records_[it->second];
  ++rec.read_count;
  ++total_reads_;
  return rec.latest();
}

std::optional<Value> TTKV::read_latest_shared(const std::string& key) const {
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  const VersionedRecord& rec = records_[it->second];
  // const_cast feeds the atomic_refs only; same idiom as ShardedTtkv's
  // CopyRecordShared (the counters are logically mutable statistics).
  std::atomic_ref<uint64_t>(const_cast<VersionedRecord&>(rec).read_count)
      .fetch_add(1, std::memory_order_relaxed);
  std::atomic_ref<uint64_t>(const_cast<TTKV*>(this)->total_reads_)
      .fetch_add(1, std::memory_order_relaxed);
  return rec.latest();
}

void TTKV::record_read(const std::string& key, TimeMicros /*t*/) {
  ++mutable_record(key).read_count;
  ++total_reads_;
}

void TTKV::record_reads(const std::string& key, uint64_t count) {
  mutable_record(key).read_count += count;
  total_reads_ += count;
}

uint32_t TTKV::key_id(const std::string& key) const {
  auto it = index_.find(key);
  if (it == index_.end()) throw StoreError("unknown TTKV key: " + key);
  return it->second;
}

const std::string& TTKV::key_name(uint32_t id) const {
  if (id >= names_.size()) throw StoreError("TTKV key id out of range");
  return names_[id];
}

const VersionedRecord& TTKV::record(const std::string& key) const { return records_[key_id(key)]; }

const VersionedRecord* TTKV::find(const std::string& key) const {
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : &records_[it->second];
}

const VersionedRecord& TTKV::record(uint32_t id) const {
  if (id >= records_.size()) throw StoreError("TTKV key id out of range");
  return records_[id];
}

std::optional<Value> TTKV::latest(const std::string& key) const {
  auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  return records_[it->second].latest();
}

std::optional<Value> TTKV::value_at(const std::string& key, TimeMicros t) const {
  auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  return records_[it->second].value_at(t);
}

std::vector<WriteEvent> TTKV::write_events() const {
  std::vector<WriteEvent> events;
  for (uint32_t id = 0; id < records_.size(); ++id) {
    for (const Version& v : records_[id].versions) {
      events.push_back(WriteEvent{.timestamp = v.timestamp, .key_id = id, .is_delete = v.is_delete});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const WriteEvent& a, const WriteEvent& b) { return a.timestamp < b.timestamp; });
  return events;
}

std::vector<uint32_t> TTKV::modified_key_ids(uint64_t min_writes) const {
  std::vector<uint32_t> ids;
  for (uint32_t id = 0; id < records_.size(); ++id) {
    if (records_[id].write_count + records_[id].delete_count >= min_writes) ids.push_back(id);
  }
  return ids;
}

TtkvStats TTKV::stats() const {
  TtkvStats s;
  s.reads = total_reads_;
  s.num_keys = records_.size();
  s.size_bytes = 64;  // Store header.
  for (const VersionedRecord& rec : records_) {
    s.writes += rec.write_count + rec.delete_count;
    s.deletes += rec.delete_count;
    s.size_bytes += rec.EstimatedBytes();
  }
  return s;
}

size_t TTKV::CompactBefore(TimeMicros horizon) {
  size_t dropped = 0;
  for (VersionedRecord& rec : records_) {
    // Find the last version strictly before the horizon: it establishes
    // the value as-of (horizon - 1) and must survive.
    size_t first_kept = 0;
    for (size_t i = 0; i < rec.versions.size(); ++i) {
      if (rec.versions[i].timestamp < horizon) first_kept = i;
      else break;
    }
    if (first_kept > 0) {
      rec.versions.erase(rec.versions.begin(),
                         rec.versions.begin() + static_cast<ptrdiff_t>(first_kept));
      dropped += first_kept;
    }
  }
  return dropped;
}

void TTKV::ImportRecord(VersionedRecord rec) {
  if (index_.count(rec.key) != 0) throw StoreError("ImportRecord: key already present: " + rec.key);
  for (size_t i = 1; i < rec.versions.size(); ++i) {
    if (rec.versions[i - 1].timestamp > rec.versions[i].timestamp) {
      throw StoreError("ImportRecord: versions out of time order: " + rec.key);
    }
  }
  index_.emplace(rec.key, static_cast<uint32_t>(records_.size()));
  names_.push_back(rec.key);
  total_reads_ += rec.read_count;
  records_.push_back(std::move(rec));
}

namespace {
constexpr uint32_t kMagic = 0x4f435454;  // "OCTT"
constexpr uint8_t kFormatVersion = 1;
}  // namespace

std::string TTKV::Serialize() const {
  BinaryWriter w;
  w.u32(kMagic);
  w.u8(kFormatVersion);
  w.u64(total_reads_);
  w.u64(records_.size());
  for (const VersionedRecord& rec : records_) {
    w.str(rec.key);
    w.u64(rec.write_count);
    w.u64(rec.delete_count);
    w.u64(rec.read_count);
    w.u64(rec.versions.size());
    for (const Version& v : rec.versions) {
      w.i64(v.timestamp);
      w.u8(v.is_delete ? 1 : 0);
      w.value(v.value);
    }
  }
  return w.take();
}

TTKV TTKV::Deserialize(const std::string& bytes) {
  BinaryReader r(bytes);
  if (r.u32() != kMagic) throw ParseError("not a TTKV snapshot (bad magic)");
  if (r.u8() != kFormatVersion) throw ParseError("unsupported TTKV snapshot version");
  TTKV store;
  store.total_reads_ = r.u64();
  const uint64_t num_records = r.u64();
  // Each record occupies at least 36 bytes (key length + three counters +
  // version count); corrupted counts must fail rather than over-allocate.
  if (num_records > r.remaining() / 36) {
    throw ParseError("TTKV snapshot record count exceeds artifact size");
  }
  for (uint64_t i = 0; i < num_records; ++i) {
    VersionedRecord rec;
    rec.key = r.str();
    rec.write_count = r.u64();
    rec.delete_count = r.u64();
    rec.read_count = r.u64();
    const uint64_t num_versions = r.u64();
    // A version is at least 10 bytes (timestamp + flag + value tag).
    if (num_versions > r.remaining() / 10) {
      throw ParseError("TTKV snapshot version count exceeds artifact size");
    }
    rec.versions.reserve(num_versions);
    for (uint64_t j = 0; j < num_versions; ++j) {
      Version v;
      v.timestamp = r.i64();
      v.is_delete = r.u8() != 0;
      v.value = r.value();
      rec.versions.push_back(std::move(v));
    }
    store.index_.emplace(rec.key, static_cast<uint32_t>(store.records_.size()));
    store.names_.push_back(rec.key);
    store.records_.push_back(std::move(rec));
  }
  if (!r.at_end()) throw ParseError("trailing bytes after TTKV snapshot");
  return store;
}

bool operator==(const TTKV& a, const TTKV& b) {
  if (a.total_reads_ != b.total_reads_ || a.names_ != b.names_) return false;
  for (size_t i = 0; i < a.records_.size(); ++i) {
    const VersionedRecord& ra = a.records_[i];
    const VersionedRecord& rb = b.records_[i];
    if (ra.key != rb.key || ra.write_count != rb.write_count ||
        ra.delete_count != rb.delete_count || ra.read_count != rb.read_count ||
        ra.versions != rb.versions) {
      return false;
    }
  }
  return true;
}

}  // namespace ocasta
