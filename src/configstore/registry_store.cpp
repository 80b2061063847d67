#include "configstore/registry_store.h"

#include "common/error.h"
#include "common/strings.h"

namespace ocasta {

void RegistryStore::ValidateKey(const std::string& key) const {
  if (!StartsWith(key, "HKEY_CURRENT_USER\\") && !StartsWith(key, "HKEY_LOCAL_MACHINE\\")) {
    throw StoreError("registry key must start with a hive root: " + key);
  }
  // The hive prefix ends in '\', so an empty segment is a "\\" or a
  // trailing '\'.
  if (key.find("\\\\") != std::string::npos || key.back() == '\\') {
    throw StoreError("registry key has an empty path segment: " + key);
  }
}

}  // namespace ocasta
