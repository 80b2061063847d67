// The PSKV reader as it was before the single-pass rewrite, kept verbatim
// as a test oracle: tests/parsers_test.cpp and fuzz/fuzz_parsers.cpp check
// that PskvCodec::Parse returns the same ConfigMap, or throws the same
// ParseError (message and line), on every input. It builds a fresh
// std::string per name, path and word, and parses dict pairs with a copy of
// the top-level pair code; correctness, not speed, is its job.
#pragma once

#include <cctype>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/strings.h"
#include "parsers/config_map.h"

namespace ocasta {
namespace pskv_reference {

class ReferencePskvParser {
 public:
  ReferencePskvParser(const std::string& text, ConfigMap& out) : text_(text), out_(out) {}

  void ParseDocument() {
    while (true) {
      SkipWs();
      if (pos_ >= text_.size()) return;
      ParsePair("");
    }
  }

 private:
  [[noreturn]] void Fail(const std::string& what) {
    size_t line = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') ++line;
    }
    throw ParseError("PSKV: " + what, line, 0);
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      if (std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      } else if (text_[pos_] == '%') {  // PostScript comment to end of line.
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        return;
      }
    }
  }

  std::string ParseName() {
    if (pos_ >= text_.size() || text_[pos_] != '/') Fail("expected '/name'");
    ++pos_;
    const size_t start = pos_;
    // '/' is allowed inside the token: the flat serializer spells nested
    // dict paths as "/a/b", which must re-parse to the same ConfigMap path.
    while (pos_ < text_.size() && !std::isspace(static_cast<unsigned char>(text_[pos_])) &&
           text_[pos_] != '(' && text_[pos_] != '[' && text_[pos_] != '<') {
      ++pos_;
    }
    if (pos_ == start) Fail("empty name");
    return text_.substr(start, pos_ - start);
  }

  std::string ParseWord() {
    SkipWs();
    const size_t start = pos_;
    while (pos_ < text_.size() && !std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    return text_.substr(start, pos_ - start);
  }

  void ExpectWord(const char* word) {
    const std::string got = ParseWord();
    if (got != word) Fail(StrFormat("expected '%s', got '%s'", word, got.c_str()));
  }

  std::string ParseStringLiteral() {
    // Caller ensured text_[pos_] == '('.
    ++pos_;
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) Fail("unterminated string literal");
      const char c = text_[pos_++];
      if (c == ')') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) Fail("unterminated escape");
        out += text_[pos_++];
      } else {
        out += c;
      }
    }
  }

  void ParsePair(const std::string& prefix) {
    const std::string name = ParseName();
    const std::string path = prefix.empty() ? name : prefix + "/" + name;
    SkipWs();
    if (pos_ >= text_.size()) Fail("missing value for /" + name);
    const char c = text_[pos_];
    if (c == '(') {
      out_[path] = Value(ParseStringLiteral());
      ExpectWord("def");
    } else if (c == '[') {
      ++pos_;
      std::vector<std::string> items;
      while (true) {
        SkipWs();
        if (pos_ >= text_.size()) Fail("unterminated array");
        if (text_[pos_] == ']') {
          ++pos_;
          break;
        }
        if (text_[pos_] != '(') Fail("only string arrays are supported");
        items.push_back(ParseStringLiteral());
      }
      out_[path] = Value(std::move(items));
      ExpectWord("def");
    } else if (c == '<' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '<') {
      pos_ += 2;
      while (true) {
        SkipWs();
        if (pos_ + 1 < text_.size() && text_[pos_] == '>' && text_[pos_ + 1] == '>') {
          pos_ += 2;
          break;
        }
        ParseDictPair(path);
      }
      ExpectWord("def");
    } else {
      out_[path] = ParseScalarWord();
      ExpectWord("def");
    }
  }

  // Parses a bare scalar token: true/false or a fully-consumed number.
  Value ParseScalarWord() {
    const std::string word = ParseWord();
    if (word == "true") return Value(true);
    if (word == "false") return Value(false);
    char* end = nullptr;
    const double d = std::strtod(word.c_str(), &end);
    if (word.empty() || end != word.c_str() + word.size()) {
      Fail("malformed value token '" + word + "'");
    }
    if (word.find_first_of(".eE") == std::string::npos) {
      return Value(static_cast<int64_t>(std::strtoll(word.c_str(), nullptr, 10)));
    }
    return Value(d);
  }

  // Inside '<< ... >>' pairs have no trailing 'def'.
  void ParseDictPair(const std::string& prefix) {
    const std::string name = ParseName();
    const std::string path = prefix + "/" + name;
    SkipWs();
    if (pos_ >= text_.size()) Fail("missing value for /" + name);
    const char c = text_[pos_];
    if (c == '(') {
      out_[path] = Value(ParseStringLiteral());
    } else if (c == '[') {
      ++pos_;
      std::vector<std::string> items;
      while (true) {
        SkipWs();
        if (pos_ >= text_.size()) Fail("unterminated array");
        if (text_[pos_] == ']') {
          ++pos_;
          break;
        }
        if (text_[pos_] != '(') Fail("only string arrays are supported");
        items.push_back(ParseStringLiteral());
      }
      out_[path] = Value(std::move(items));
    } else if (c == '<' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '<') {
      pos_ += 2;
      while (true) {
        SkipWs();
        if (pos_ + 1 < text_.size() && text_[pos_] == '>' && text_[pos_ + 1] == '>') {
          pos_ += 2;
          break;
        }
        ParseDictPair(path);
      }
    } else {
      out_[path] = ParseScalarWord();
    }
  }

  const std::string& text_;
  ConfigMap& out_;
  size_t pos_ = 0;
};

inline ConfigMap Parse(const std::string& text) {
  ConfigMap map;
  ReferencePskvParser parser(text, map);
  parser.ParseDocument();
  return map;
}

// What one parse produced: the map, or the ParseError's message and line.
struct Outcome {
  bool ok = false;
  ConfigMap map;
  std::string error;
  size_t line = 0;
};

template <typename ParseFn>
Outcome Run(ParseFn&& parse, const std::string& text) {
  Outcome outcome;
  try {
    outcome.map = parse(text);
    outcome.ok = true;
  } catch (const ParseError& e) {
    outcome.error = e.what();
    outcome.line = e.line();
  }
  return outcome;
}

// Equal maps, or equal errors. Values compare by type and display form, so
// a NaN (from a token like "nan(e)") matches itself.
inline bool SameOutcome(const Outcome& a, const Outcome& b) {
  if (a.ok != b.ok || a.error != b.error || a.line != b.line) return false;
  if (a.map.size() != b.map.size()) return false;
  for (auto ia = a.map.begin(), ib = b.map.begin(); ia != a.map.end(); ++ia, ++ib) {
    if (ia->first != ib->first || ia->second.type() != ib->second.type() ||
        ia->second.ToDisplay() != ib->second.ToDisplay()) {
      return false;
    }
  }
  return true;
}

}  // namespace pskv_reference
}  // namespace ocasta
