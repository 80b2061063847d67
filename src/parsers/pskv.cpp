#include "parsers/pskv.h"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "common/error.h"
#include "common/strings.h"

namespace ocasta {

namespace {

// std::isspace in the "C" locale, the only locale a parse runs in (nothing
// calls setlocale): ' ', '\t', '\n', '\v', '\f' and '\r'.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// Single pass over the text. Names and words are views into it, the path of
// the enclosing dicts lives in one reused buffer, and each value goes into
// the map with an end() hint: the flat serializer writes paths in map
// order, so re-parsing its output appends every key in O(1).
class PskvParser {
 public:
  PskvParser(const std::string& text, ConfigMap& out) : text_(text), out_(out) {}

  void ParseDocument() {
    while (true) {
      SkipWs();
      if (pos_ >= text_.size()) return;
      ParsePair(/*top_level=*/true);
    }
  }

 private:
  [[noreturn]] void Fail(const std::string& what) const {
    size_t line = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') ++line;
    }
    throw ParseError("PSKV: " + what, line, 0);
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      if (IsSpace(text_[pos_])) {
        ++pos_;
      } else if (text_[pos_] == '%') {  // PostScript comment to end of line.
        pos_ = std::min(text_.find('\n', pos_), text_.size());
      } else {
        return;
      }
    }
  }

  // text_[start, pos_).
  std::string_view Token(size_t start) const {
    return std::string_view(text_).substr(start, pos_ - start);
  }

  std::string_view ParseName() {
    if (pos_ >= text_.size() || text_[pos_] != '/') Fail("expected '/name'");
    const size_t start = ++pos_;
    // '/' is allowed inside the token: the flat serializer spells nested
    // dict paths as "/a/b", which must re-parse to the same ConfigMap path.
    while (pos_ < text_.size() && !IsSpace(text_[pos_]) && text_[pos_] != '(' &&
           text_[pos_] != '[' && text_[pos_] != '<') {
      ++pos_;
    }
    if (pos_ == start) Fail("empty name");
    return Token(start);
  }

  std::string_view ParseWord() {
    SkipWs();
    const size_t start = pos_;
    while (pos_ < text_.size() && !IsSpace(text_[pos_])) ++pos_;
    return Token(start);
  }

  void ExpectDef() {
    const std::string_view got = ParseWord();
    // %.*s stops at an embedded NUL, as %s of the word's c_str() would.
    if (got != "def") {
      Fail(StrFormat("expected 'def', got '%.*s'", static_cast<int>(got.size()), got.data()));
    }
  }

  // Caller ensured text_[pos_] == '('. Copies the runs between escapes whole.
  std::string ParseStringLiteral() {
    ++pos_;
    std::string out;
    while (true) {
      const size_t stop = text_.find_first_of(")\\", pos_);
      if (stop == std::string::npos) {
        pos_ = text_.size();
        Fail("unterminated string literal");
      }
      out.append(text_, pos_, stop - pos_);
      pos_ = stop + 1;
      if (text_[stop] == ')') return out;
      if (pos_ >= text_.size()) Fail("unterminated escape");
      out += text_[pos_++];
    }
  }

  // "/name value", followed by 'def' at the top level; pairs inside
  // '<< ... >>' have no 'def'. path_ holds the enclosing dict's path on
  // entry and again on return.
  void ParsePair(bool top_level) {
    const size_t parent_size = path_.size();
    const std::string_view name = ParseName();
    if (!top_level) path_ += '/';
    path_ += name;
    SkipWs();
    if (pos_ >= text_.size()) Fail("missing value for /" + std::string(name));
    if (text_.compare(pos_, 2, "<<") == 0) {
      pos_ += 2;
      while (true) {
        SkipWs();
        if (text_.compare(pos_, 2, ">>") == 0) break;
        ParsePair(/*top_level=*/false);
      }
      pos_ += 2;
    } else {
      Value value = ParseValue();
      out_.insert_or_assign(out_.end(), path_, std::move(value));
    }
    if (top_level) ExpectDef();
    path_.resize(parent_size);
  }

  // A string, a string array, or a bare scalar token: true/false or a
  // fully-consumed number.
  Value ParseValue() {
    if (text_[pos_] == '(') return Value(ParseStringLiteral());
    if (text_[pos_] == '[') {
      ++pos_;
      std::vector<std::string> items;
      while (true) {
        SkipWs();
        if (pos_ >= text_.size()) Fail("unterminated array");
        if (text_[pos_] == ']') {
          ++pos_;
          return Value(std::move(items));
        }
        if (text_[pos_] != '(') Fail("only string arrays are supported");
        items.push_back(ParseStringLiteral());
      }
    }
    const std::string_view word = ParseWord();
    if (word == "true") return Value(true);
    if (word == "false") return Value(false);
    // Up to 18 digits cannot overflow, so this is what strtoll would give.
    const size_t digits = word.size() - (word.starts_with('-') ? 1 : 0);
    if (digits >= 1 && digits <= 18 &&
        word.find_first_not_of("0123456789", word.size() - digits) == std::string_view::npos) {
      int64_t n = 0;
      for (char c : word.substr(word.size() - digits)) n = n * 10 + (c - '0');
      return Value(word.starts_with('-') ? -n : n);
    }
    // The word ends at whitespace or at the text's terminating NUL, so the
    // numeric conversions stop inside it.
    char* end = nullptr;
    const double d = std::strtod(word.data(), &end);
    if (word.empty() || end != word.data() + word.size()) {
      Fail("malformed value token '" + std::string(word) + "'");
    }
    if (word.find_first_of(".eE") == std::string_view::npos) {
      return Value(static_cast<int64_t>(std::strtoll(word.data(), nullptr, 10)));
    }
    return Value(d);
  }

  const std::string& text_;
  ConfigMap& out_;
  size_t pos_ = 0;
  std::string path_;
};

void AppendString(const std::string& s, std::string& out) {
  out += '(';
  for (char c : s) {
    if (c == '(' || c == ')' || c == '\\') out += '\\';
    out += c;
  }
  out += ')';
}

void AppendScalar(const Value& v, std::string& out) {
  switch (v.type()) {
    case ValueType::kBool: out += v.as_bool() ? "true" : "false"; break;
    case ValueType::kInt: out += std::to_string(v.as_int()); break;
    case ValueType::kReal: {
      std::string t = StrFormat("%.17g", v.as_real());
      // Ensure the token re-parses as a real, not an int.
      if (t.find_first_of(".eE") == std::string::npos) t += ".0";
      out += t;
      break;
    }
    case ValueType::kString: AppendString(v.as_string(), out); break;
    case ValueType::kStringList: {
      out += '[';
      const auto& list = v.as_list();
      for (size_t i = 0; i < list.size(); ++i) {
        if (i) out += ' ';
        AppendString(list[i], out);
      }
      out += ']';
      break;
    }
    case ValueType::kNone: AppendString("", out); break;
  }
}

}  // namespace

ConfigMap PskvCodec::Parse(const std::string& text) const {
  ConfigMap map;
  PskvParser parser(text, map);
  parser.ParseDocument();
  return map;
}

std::string PskvCodec::Serialize(const ConfigMap& map) const {
  // Serialize flat: one "/a/b value def" line per key, with nested names
  // spelled as slash paths. (The parser accepts both flat paths and nested
  // dicts; flat output keeps diffs line-oriented like Reader's files.)
  std::string out = "% Ocasta PSKV preferences\n";
  for (const auto& [path, value] : map) {
    out += '/';
    out += path;
    out += ' ';
    AppendScalar(value, out);
    out += " def\n";
  }
  return out;
}

}  // namespace ocasta
