#include "obs/json.hpp"

namespace hydra::obs {

/// Recursive-descent parser over one document. Recursion depth is bounded by
/// kJsonMaxDepth, so hostile input cannot exhaust the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view doc) : s_(doc) {}

  bool document(JsonValue& out) {
    skip_ws();
    if (!value(out, 0)) return false;
    skip_ws();
    return i_ == s_.size();
  }

 private:
  void skip_ws() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }

  bool eat(char c) {
    if (i_ >= s_.size() || s_[i_] != c) return false;
    ++i_;
    return true;
  }

  bool digits() {
    const std::size_t start = i_;
    while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') ++i_;
    return i_ > start;
  }

  bool value(JsonValue& v, std::size_t depth) {
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{' || c == '[') return container(v, depth + 1, c == '{');
    if (c == '"') {
      v.kind_ = JsonValue::Kind::kString;
      return string(v.text_);
    }
    const std::size_t start = i_;
    if (c == 't' || c == 'f' || c == 'n') {
      const std::string_view word = c == 't' ? "true" : c == 'f' ? "false" : "null";
      if (s_.substr(i_, word.size()) != word) return false;
      i_ += word.size();
      v.kind_ = c == 'n' ? JsonValue::Kind::kNull : JsonValue::Kind::kBool;
    } else {
      // -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
      eat('-');
      if (!eat('0') && !digits()) return false;
      if (eat('.') && !digits()) return false;
      if (eat('e') || eat('E')) {
        if (!eat('+')) eat('-');
        if (!digits()) return false;
      }
      v.kind_ = JsonValue::Kind::kNumber;
    }
    v.text_.assign(s_.substr(start, i_ - start));
    return true;
  }

  bool container(JsonValue& v, std::size_t depth, bool object) {
    if (depth > kJsonMaxDepth) return false;
    v.kind_ = object ? JsonValue::Kind::kObject : JsonValue::Kind::kArray;
    const char close = object ? '}' : ']';
    ++i_;
    skip_ws();
    if (eat(close)) return true;
    do {
      skip_ws();
      if (object) {
        std::string key;
        if (!string(key)) return false;
        skip_ws();
        if (!eat(':')) return false;
        skip_ws();
        v.keys_.push_back(std::move(key));
      }
      v.items_.emplace_back();
      if (!value(v.items_.back(), depth)) return false;
      skip_ws();
    } while (eat(','));
    return eat(close);
  }

  bool hex4(unsigned& out) {
    if (s_.size() - i_ < 4) return false;
    out = 0;
    for (int k = 0; k < 4; ++k) {
      const char c = s_[i_++];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return false;
      }
    }
    return true;
  }

  /// \uXXXX (a surrogate pair when the first half is a high surrogate),
  /// appended as UTF-8. Lone surrogates are rejected.
  bool unicode_escape(std::string& out) {
    unsigned cp = 0;
    if (!hex4(cp) || (cp >= 0xDC00 && cp <= 0xDFFF)) return false;
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      unsigned low = 0;
      if (!eat('\\') || !eat('u') || !hex4(low) || low < 0xDC00 || low > 0xDFFF) {
        return false;
      }
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    }
    const auto byte = [&out](unsigned b) { out.push_back(static_cast<char>(b)); };
    if (cp < 0x80) {
      byte(cp);
    } else if (cp < 0x800) {
      byte(0xC0 | (cp >> 6));
      byte(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      byte(0xE0 | (cp >> 12));
      byte(0x80 | ((cp >> 6) & 0x3F));
      byte(0x80 | (cp & 0x3F));
    } else {
      byte(0xF0 | (cp >> 18));
      byte(0x80 | ((cp >> 12) & 0x3F));
      byte(0x80 | ((cp >> 6) & 0x3F));
      byte(0x80 | (cp & 0x3F));
    }
    return true;
  }

  bool string(std::string& out) {
    if (!eat('"')) return false;
    while (i_ < s_.size()) {
      const char c = s_[i_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (i_ >= s_.size()) return false;
      switch (s_[i_++]) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u':
          if (!unicode_escape(out)) return false;
          break;
        default: return false;
      }
    }
    return false;  // unterminated
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] == key) return &items_[i];
  }
  return nullptr;
}

const JsonValue& JsonValue::operator[](std::string_view key) const noexcept {
  static const JsonValue kMissing;
  const JsonValue* v = find(key);
  return v != nullptr ? *v : kMissing;
}

std::vector<double> JsonValue::reals() const {
  std::vector<double> out;
  out.reserve(items_.size());
  for (const auto& item : items_) out.push_back(item.as_double());
  return out;
}

std::vector<std::uint64_t> JsonValue::u64s() const {
  std::vector<std::uint64_t> out;
  out.reserve(items_.size());
  for (const auto& item : items_) out.push_back(item.as_u64());
  return out;
}

std::optional<JsonValue> parse_json(std::string_view doc) {
  JsonValue out;
  if (!JsonParser(doc).document(out)) return std::nullopt;
  return out;
}

}  // namespace hydra::obs
