// Fuzz target: the configuration-file format codecs (INI, plain text,
// JSON, XML, PSKV) — the parsers that consume real application files in
// the interception pipeline. First input byte selects the format; the rest
// is the file text. Contract: Parse returns a ConfigMap or throws
// ParseError/Error — no crashes, no UB on hostile text. Maps that parse
// must survive Serialize -> Parse (the codec.h idempotency contract for
// representable maps). PSKV text is also parsed by the reference parser in
// tests/pskv_reference.h, and any disagreement (map, or error message and
// line) traps.
#include <cstdint>
#include <string>

#include "../tests/pskv_reference.h"
#include "common/error.h"
#include "parsers/codec.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  static constexpr ocasta::ConfigFormat kFormats[] = {
      ocasta::ConfigFormat::kIni, ocasta::ConfigFormat::kPlainText,
      ocasta::ConfigFormat::kJson, ocasta::ConfigFormat::kXml,
      ocasta::ConfigFormat::kPskv,
  };
  const ocasta::FormatCodec& codec = ocasta::CodecFor(kFormats[data[0] % 5]);
  const std::string text(reinterpret_cast<const char*>(data + 1), size - 1);
  if (codec.format() == ocasta::ConfigFormat::kPskv) {
    namespace ref = ocasta::pskv_reference;
    const ref::Outcome got = ref::Run([&](const std::string& t) { return codec.Parse(t); }, text);
    if (!ref::SameOutcome(got, ref::Run(ref::Parse, text))) __builtin_trap();
  }
  ocasta::ConfigMap map;
  try {
    map = codec.Parse(text);
  } catch (const ocasta::Error&) {
    return 0;  // Rejection is the expected outcome for malformed text.
  }
  // The parsed map came FROM this format, so it must be representable in
  // it: serialization must succeed and re-parse to the same map.
  try {
    const std::string round = codec.Serialize(map);
    if (codec.Parse(round) != map) __builtin_trap();
  } catch (const ocasta::Error&) {
    __builtin_trap();  // Serialize/re-Parse of a parsed map must not fail.
  }
  return 0;
}
