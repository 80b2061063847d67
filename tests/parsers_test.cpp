#include <gtest/gtest.h>

#include "apps/catalog.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "configstore/file_config_store.h"
#include "parsers/codec.h"
#include "parsers/config_map.h"
#include "parsers/ini.h"
#include "parsers/json.h"
#include "parsers/plaintext.h"
#include "parsers/pskv.h"
#include "parsers/xml.h"
#include "pskv_reference.h"
#include "workload/generator.h"
#include "workload/profiles.h"

namespace ocasta {
namespace {

// ----- DiffConfigMaps ------------------------------------------------------------

TEST(DiffConfigMaps, DetectsWritesAndDeletes) {
  const ConfigMap before{{"a", Value(1)}, {"b", Value(2)}, {"c", Value(3)}};
  const ConfigMap after{{"a", Value(1)}, {"b", Value(9)}, {"d", Value(4)}};
  const auto deltas = DiffConfigMaps(before, after);
  ASSERT_EQ(deltas.size(), 3u);
  EXPECT_EQ(deltas[0], (ConfigDelta{ConfigDelta::Kind::kWrite, "b", Value(9)}));
  EXPECT_EQ(deltas[1].kind, ConfigDelta::Kind::kDelete);
  EXPECT_EQ(deltas[1].key, "c");
  EXPECT_EQ(deltas[2], (ConfigDelta{ConfigDelta::Kind::kWrite, "d", Value(4)}));
}

TEST(DiffConfigMaps, IdenticalMapsProduceNothing) {
  const ConfigMap m{{"a", Value("x")}};
  EXPECT_TRUE(DiffConfigMaps(m, m).empty());
  EXPECT_TRUE(DiffConfigMaps({}, {}).empty());
}

TEST(InferScalar, TypesHeuristically) {
  EXPECT_EQ(InferScalar("true"), Value(true));
  EXPECT_EQ(InferScalar("false"), Value(false));
  EXPECT_EQ(InferScalar("-42"), Value(-42));
  EXPECT_EQ(InferScalar("+7"), Value(7));
  EXPECT_EQ(InferScalar("2.5"), Value(2.5));
  EXPECT_EQ(InferScalar("1e3"), Value(1000.0));
  EXPECT_EQ(InferScalar("hello"), Value("hello"));
  EXPECT_EQ(InferScalar(""), Value(""));
  EXPECT_EQ(InferScalar("12abc"), Value("12abc"));
}

// ----- INI ------------------------------------------------------------------------

TEST(Ini, ParsesSectionsAndComments) {
  const std::string text =
      "; comment\n"
      "top = 1\n"
      "[view]\n"
      "zoom = 1.5\n"
      "visible = true\n"
      "# another comment\n"
      "[editor]\n"
      "font = Courier New\n";
  const ConfigMap map = IniCodec().Parse(text);
  EXPECT_EQ(map.at("top"), Value(1));
  EXPECT_EQ(map.at("view/zoom"), Value(1.5));
  EXPECT_EQ(map.at("view/visible"), Value(true));
  EXPECT_EQ(map.at("editor/font"), Value("Courier New"));
  EXPECT_EQ(map.size(), 4u);
}

TEST(Ini, MalformedInputThrows) {
  EXPECT_THROW(IniCodec().Parse("[unclosed\n"), ParseError);
  EXPECT_THROW(IniCodec().Parse("no equals sign\n"), ParseError);
  EXPECT_THROW(IniCodec().Parse("= empty key\n"), ParseError);
}

// ----- Round-trip property across codecs --------------------------------------------

ConfigMap ScalarSample() {
  // Single top-level segment so the XML codec (one root element) can
  // represent it too.
  return {{"app/alpha/enabled", Value(true)},
          {"app/alpha/size", Value(42)},
          {"app/alpha/name", Value("hello world")},
          {"app/beta/ratio", Value(2.5)},
          {"app/beta/off", Value(false)}};
}

class ScalarRoundTripTest : public ::testing::TestWithParam<ConfigFormat> {};

TEST_P(ScalarRoundTripTest, ParseSerializeIdentity) {
  const FormatCodec& codec = CodecFor(GetParam());
  const ConfigMap original = ScalarSample();
  const std::string text = codec.Serialize(original);
  EXPECT_EQ(codec.Parse(text), original) << "format " << FormatName(GetParam()) << "\n" << text;
  // Serialize(Parse(Serialize(m))) is stable.
  EXPECT_EQ(codec.Serialize(codec.Parse(text)), text);
}

INSTANTIATE_TEST_SUITE_P(AllFormats, ScalarRoundTripTest,
                         ::testing::Values(ConfigFormat::kIni, ConfigFormat::kPlainText,
                                           ConfigFormat::kJson, ConfigFormat::kXml,
                                           ConfigFormat::kPskv),
                         [](const auto& info) { return FormatName(info.param); });

class ListRoundTripTest : public ::testing::TestWithParam<ConfigFormat> {};

TEST_P(ListRoundTripTest, StringListsSurvive) {
  const FormatCodec& codec = CodecFor(GetParam());
  const ConfigMap original{{"mru/items", Value(std::vector<std::string>{"a.doc", "b (draft).doc"})},
                           {"mru/max", Value(9)}};
  EXPECT_EQ(codec.Parse(codec.Serialize(original)), original);
}

// JSON and PSKV support native string arrays (the formats our list-bearing
// applications use); INI/plain-text apps only store scalars.
INSTANTIATE_TEST_SUITE_P(ListFormats, ListRoundTripTest,
                         ::testing::Values(ConfigFormat::kJson, ConfigFormat::kPskv),
                         [](const auto& info) { return FormatName(info.param); });

// ----- JSON -------------------------------------------------------------------------

TEST(Json, ParsesNestingAndTypes) {
  const std::string text = R"({
    "browser": {"show_home_button": true, "zoom": 1.25},
    "session": {"restore_on_startup": 4, "urls": ["a", "b"]},
    "tabs": [{"url": "x"}, {"url": "y"}],
    "profile": null
  })";
  const ConfigMap map = JsonCodec().Parse(text);
  EXPECT_EQ(map.at("browser/show_home_button"), Value(true));
  EXPECT_EQ(map.at("browser/zoom"), Value(1.25));
  EXPECT_EQ(map.at("session/restore_on_startup"), Value(4));
  EXPECT_EQ(map.at("session/urls"), Value(std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(map.at("tabs/0/url"), Value("x"));
  EXPECT_EQ(map.at("tabs/1/url"), Value("y"));
  EXPECT_EQ(map.at("profile"), Value());
}

TEST(Json, StringEscapes) {
  const ConfigMap map = JsonCodec().Parse(R"({"k": "line\nbreak \"q\" A\t\\"})");
  EXPECT_EQ(map.at("k"), Value("line\nbreak \"q\" A\t\\"));
}

TEST(Json, SerializeEscapesControlCharacters) {
  const ConfigMap map{{"k", Value("a\nb\"c\\d")}};
  const std::string text = JsonCodec().Serialize(map);
  EXPECT_EQ(JsonCodec().Parse(text), map);
}

TEST(Json, MalformedInputThrows) {
  EXPECT_THROW(JsonCodec().Parse("{"), ParseError);
  EXPECT_THROW(JsonCodec().Parse(R"({"a": })"), ParseError);
  EXPECT_THROW(JsonCodec().Parse(R"({"a": 1} trailing)"), ParseError);
  EXPECT_THROW(JsonCodec().Parse(R"({"a": truish})"), ParseError);
  EXPECT_THROW(JsonCodec().Parse(R"({"a": "unterminated)"), ParseError);
}

TEST(Json, ErrorsCarryLineNumbers) {
  try {
    JsonCodec().Parse("{\n  \"a\": 1,\n  \"b\": }\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3u);
  }
}

// ----- XML ---------------------------------------------------------------------------

TEST(Xml, ParsesElementsAttributesAndText) {
  const std::string text = R"(<?xml version="1.0"?>
<!-- prefs -->
<config>
  <view zoom="1.5"><mode>fit</mode></view>
  <flags>true</flags>
  <empty/>
</config>)";
  const ConfigMap map = XmlCodec().Parse(text);
  EXPECT_EQ(map.at("config/view@zoom"), Value(1.5));
  EXPECT_EQ(map.at("config/view/mode"), Value("fit"));
  EXPECT_EQ(map.at("config/flags"), Value(true));
  EXPECT_EQ(map.count("config/empty"), 0u);  // Empty element: no value.
}

TEST(Xml, RepeatedSiblingsGetIndexes) {
  const ConfigMap map = XmlCodec().Parse("<l><item>a</item><item>b</item><only>c</only></l>");
  EXPECT_EQ(map.at("l/item#0"), Value("a"));
  EXPECT_EQ(map.at("l/item#1"), Value("b"));
  EXPECT_EQ(map.at("l/only"), Value("c"));
}

TEST(Xml, EntityDecodingAndEncoding) {
  const ConfigMap map = XmlCodec().Parse("<c><k>a &amp; b &lt;tag&gt; &quot;q&quot;</k></c>");
  EXPECT_EQ(map.at("c/k"), Value("a & b <tag> \"q\""));
  EXPECT_EQ(XmlCodec().Parse(XmlCodec().Serialize(map)), map);
}

TEST(Xml, MalformedInputThrows) {
  EXPECT_THROW(XmlCodec().Parse("<a><b></a></b>"), ParseError);
  EXPECT_THROW(XmlCodec().Parse("<a>"), ParseError);
  EXPECT_THROW(XmlCodec().Parse("<a>text<b>x</b></a>"), ParseError);  // Mixed content.
  EXPECT_THROW(XmlCodec().Parse("<a attr=noquotes></a>"), ParseError);
}

TEST(Xml, SerializeRequiresSingleRoot) {
  EXPECT_THROW(XmlCodec().Serialize({{"a", Value(1)}, {"b", Value(2)}}), ParseError);
}

// ----- PSKV -------------------------------------------------------------------------

TEST(Pskv, ParsesAdobeStylePreferences) {
  const std::string text = R"(% Acrobat preferences
/ShowMenuBar true def
/ZoomScale 1.25 def
/RecentFiles [(a.pdf) (b \(draft\).pdf)] def
/AVGeneral << /toolbar << /visible false /mode (compact) >> /count 3 >> def
)";
  const ConfigMap map = PskvCodec().Parse(text);
  EXPECT_EQ(map.at("ShowMenuBar"), Value(true));
  EXPECT_EQ(map.at("ZoomScale"), Value(1.25));
  EXPECT_EQ(map.at("RecentFiles"), Value(std::vector<std::string>{"a.pdf", "b (draft).pdf"}));
  EXPECT_EQ(map.at("AVGeneral/toolbar/visible"), Value(false));
  EXPECT_EQ(map.at("AVGeneral/toolbar/mode"), Value("compact"));
  EXPECT_EQ(map.at("AVGeneral/count"), Value(3));
}

TEST(Pskv, MalformedInputThrows) {
  EXPECT_THROW(PskvCodec().Parse("/key (unterminated"), ParseError);
  EXPECT_THROW(PskvCodec().Parse("/key notanumber def"), ParseError);
  EXPECT_THROW(PskvCodec().Parse("/key 1 wrongword"), ParseError);
  EXPECT_THROW(PskvCodec().Parse("/key [1 2] def"), ParseError);  // Non-string array.
}

TEST(Pskv, StringEscapesRoundTrip) {
  const ConfigMap map{{"k", Value("parens () and \\ backslash")}};
  EXPECT_EQ(PskvCodec().Parse(PskvCodec().Serialize(map)), map);
}

// ----- PSKV against the reference parser -------------------------------------------

// Parses `text` with PskvCodec and with the reference parser and fails
// unless both return the same map or throw the same ParseError.
void ExpectSameAsReference(const std::string& text) {
  const auto codec = pskv_reference::Run([](const std::string& t) { return PskvCodec().Parse(t); },
                                         text);
  const auto reference = pskv_reference::Run(pskv_reference::Parse, text);
  EXPECT_TRUE(pskv_reference::SameOutcome(codec, reference))
      << "text: '" << text << "'\ncodec: " << (codec.ok ? "ok" : codec.error)
      << "\nreference: " << (reference.ok ? "ok" : reference.error);
}

TEST(PskvDifferential, MalformedAndEdgeCases) {
  for (const char* text :
       {"/key (unterminated", "/key notanumber def", "/key 1 wrongword", "/key [1 2] def", "",
        "% only a comment", "key 1 def", "/ 1 def", "/key", "/key ", "/key 1", "/key (x\\",
        "/key [(a) (b)", "/key << /a 1", "/key << /a 1 >>", "/key << /a 1 >> def extra",
        "/key < /a 1 > def", "/key <", "/key << >> def", "/key 1e999 def", "/key nan(e) def",
        "/key 99999999999999999999 def", "/key -999999999999999999 def", "/key +5 def",
        "/key 0x1p3 def", "/key 1. def", "/key .5e-3 def", "/key - def", "/key 1 def\n/k2",
        "/key 1 def % tail\n/k2 (v) def\n\n/k3 true xdef"}) {
    ExpectSameAsReference(text);
  }
  // Embedded NULs and non-ASCII bytes.
  ExpectSameAsReference(std::string("/key 1\0 def", 11));
  ExpectSameAsReference(std::string("/key 1 de\0f", 11));
  ExpectSameAsReference("/key\xa0 1 def\xa0");
  ExpectSameAsReference("/key (caf\xc3\xa9) def");
}

// Random documents: nested dicts, string escapes, arrays, comments, every
// C-locale space character, flat slash paths and repeated keys.
class RandomPskv {
 public:
  explicit RandomPskv(uint64_t seed) : rng_(seed) {}

  std::string Document() {
    std::string out;
    const uint64_t pairs = rng_.next_below(10);
    for (uint64_t i = 0; i < pairs; ++i) {
      Space(out, 0);
      Pair(out, /*depth=*/3);
      Space(out, 1);
      out += "def";
    }
    Space(out, 0);
    return out;
  }

 private:
  void Space(std::string& out, uint64_t min) {
    static constexpr char kSpaces[] = " \t\n\v\f\r";
    const uint64_t n = min + rng_.next_below(3);
    for (uint64_t i = 0; i < n; ++i) out += kSpaces[rng_.next_below(6)];
    if (n > 0 && rng_.next_bool(0.1)) out += "% a (comment) << /x 1 >> def\n";
  }

  void Pair(std::string& out, int depth) {
    static constexpr char kNameChars[] = "abcXY09_.-/";
    out += '/';
    const uint64_t length = 1 + rng_.next_below(5);
    for (uint64_t i = 0; i < length; ++i) out += kNameChars[rng_.next_below(11)];
    Space(out, 0);
    switch (rng_.next_below(depth > 0 ? 7 : 6)) {
      case 0: out += rng_.next_bool(0.5) ? "true" : "false"; break;
      case 1: out += std::to_string(rng_.next_range(-1'000'000, 1'000'000)); break;
      case 2: out += StrFormat("%.17g", static_cast<double>(rng_.next_range(-999, 999)) / 7); break;
      case 3: {
        static const char* const kOddNumbers[] = {"1e5", "-.5", "3.", "0.0", "-0", "007",
                                                  "1E-3", "123456789012345678901"};
        out += kOddNumbers[rng_.next_below(8)];
        break;
      }
      case 4: Literal(out); break;
      case 5:
        out += '[';
        for (uint64_t i = rng_.next_below(4); i > 0; --i) {
          Space(out, 0);
          Literal(out);
        }
        Space(out, 0);
        out += ']';
        break;
      case 6:
        out += "<<";
        for (uint64_t i = rng_.next_below(4); i > 0; --i) {
          Space(out, 1);
          Pair(out, depth - 1);
        }
        Space(out, 1);
        out += ">>";
        break;
    }
  }

  void Literal(std::string& out) {
    static constexpr char kChars[] = "ab (x) \\%/<>[]";
    out += '(';
    for (uint64_t i = rng_.next_below(8); i > 0; --i) {
      const char c = kChars[rng_.next_below(sizeof(kChars) - 1)];
      if (c == '(' || c == ')' || c == '\\') out += '\\';
      out += c;
    }
    out += ')';
  }

  Rng rng_;
};

TEST(PskvDifferential, RandomDocumentsAndTheirCorruptions) {
  static constexpr char kBytes[] = "()<>[]/\\% \n\0dx1.e";
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    RandomPskv generator(seed);
    const std::string text = generator.Document();
    ExpectSameAsReference(text);
    if (text.empty()) continue;
    Rng rng(seed);
    ExpectSameAsReference(text.substr(0, rng.next_below(text.size())));
    std::string flipped = text;
    flipped[rng.next_below(text.size())] = kBytes[rng.next_below(sizeof(kBytes) - 1)];
    ExpectSameAsReference(flipped);
  }
}

// Every text the Acrobat store of a Table I machine flushed, rebuilt by
// replaying the machine's Acrobat events into a store that flushes once
// per timestamp (a flush stamps every key it changed with one time).
std::vector<std::string> AcrobatFlushTexts(const MachineTrace& machine) {
  std::vector<std::string> texts;
  FileConfigStore store(ConfigFormat::kPskv, /*auto_flush=*/false);
  store.set_flush_observer(
      [&](const std::string&, const std::string& after) { texts.push_back(after); });
  store.RestoreSnapshot(machine.initial_configs.at(kAcrobat));
  store.Flush();
  const TraceLog acrobat = machine.trace.FilterByApp(kAcrobat);
  const std::vector<AccessEvent>& events = acrobat.events();
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].op == AccessOp::kWrite) store.Write(events[i].key, events[i].value);
    if (events[i].op == AccessOp::kDelete) store.Remove(events[i].key);
    if (i + 1 == events.size() || events[i + 1].timestamp != events[i].timestamp) store.Flush();
  }
  return texts;
}

class PskvMachineFlushes : public ::testing::TestWithParam<std::string> {};

TEST_P(PskvMachineFlushes, EveryFlushParsesAsTheReferenceDoes) {
  const MachineTrace machine = GenerateMachineTrace(ProfileByName(GetParam()));
  const std::vector<std::string> texts = AcrobatFlushTexts(machine);
  ASSERT_GT(texts.size(), 100u);
  EXPECT_EQ(PskvCodec().Parse(texts.back()), machine.final_configs.at(kAcrobat));
  for (const std::string& text : texts) ExpectSameAsReference(text);
}

INSTANTIATE_TEST_SUITE_P(AcrobatMachines, PskvMachineFlushes,
                         ::testing::Values("Linux-3", "Linux-4"),
                         [](const auto& info) { return "Linux" + info.param.substr(6); });

// ----- Codec registry -----------------------------------------------------------------

TEST(CodecRegistry, ReturnsMatchingFormat) {
  for (ConfigFormat format : {ConfigFormat::kIni, ConfigFormat::kPlainText, ConfigFormat::kJson,
                              ConfigFormat::kXml, ConfigFormat::kPskv}) {
    EXPECT_EQ(CodecFor(format).format(), format);
  }
}

}  // namespace
}  // namespace ocasta
