#include "configstore/gconf_store.h"

#include "common/error.h"

namespace ocasta {

void GconfStore::ValidateKey(const std::string& key) const {
  if (key.empty() || key[0] != '/') {
    throw StoreError("gconf key must be an absolute path: " + key);
  }
  if (key.size() == 1 || key.back() == '/') {
    throw StoreError("gconf key must not end with '/': " + key);
  }
  if (key.find("//") != std::string::npos) {
    throw StoreError("gconf key has an empty segment: " + key);
  }
}

bool GconfStore::GetBool(const std::string& key, bool fallback) {
  const auto v = Read(key);
  return v && v->type() == ValueType::kBool ? v->as_bool() : fallback;
}

int64_t GconfStore::GetInt(const std::string& key, int64_t fallback) {
  const auto v = Read(key);
  return v && v->type() == ValueType::kInt ? v->as_int() : fallback;
}

std::string GconfStore::GetString(const std::string& key, std::string fallback) {
  const auto v = Read(key);
  return v && v->type() == ValueType::kString ? v->as_string() : fallback;
}

}  // namespace ocasta
