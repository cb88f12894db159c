// Minimal self-contained JSON reader/writer for the verification tooling
// (golden-regression baselines under tests/golden/*.json and bench result
// files). Supports the full JSON value model but is tuned for our use:
// numbers round-trip doubles exactly ("%.17g"), object member order is
// preserved so regenerated baselines diff cleanly, and parse errors carry
// line/column context. Nesting is bounded (kMaxJsonDepth): the parser
// recurses once per '[' or '{', and the forecast server parses every
// client line with it. No external dependency.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/error.hpp"
#include "src/io/durable_blob.hpp"

namespace asuca::io {

class JsonValue;
using JsonMembers = std::vector<std::pair<std::string, JsonValue>>;
using JsonArray = std::vector<JsonValue>;

/// A JSON document node: null, bool, number (double), string, array or
/// object. Objects keep insertion order (vector of pairs, not a map).
class JsonValue {
  public:
    JsonValue() : v_(nullptr) {}
    JsonValue(std::nullptr_t) : v_(nullptr) {}
    JsonValue(bool b) : v_(b) {}
    JsonValue(double d) : v_(d) {}
    JsonValue(int i) : v_(static_cast<double>(i)) {}
    JsonValue(long i) : v_(static_cast<double>(i)) {}
    JsonValue(long long i) : v_(static_cast<double>(i)) {}
    JsonValue(unsigned long long i) : v_(static_cast<double>(i)) {}
    JsonValue(const char* s) : v_(std::string(s)) {}
    JsonValue(std::string s) : v_(std::move(s)) {}
    JsonValue(JsonArray a) : v_(std::move(a)) {}
    JsonValue(JsonMembers m) : v_(std::move(m)) {}

    bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
    bool is_bool() const { return std::holds_alternative<bool>(v_); }
    bool is_number() const { return std::holds_alternative<double>(v_); }
    bool is_string() const { return std::holds_alternative<std::string>(v_); }
    bool is_array() const { return std::holds_alternative<JsonArray>(v_); }
    bool is_object() const { return std::holds_alternative<JsonMembers>(v_); }

    bool as_bool() const { return get<bool>("bool"); }
    double as_number() const { return get<double>("number"); }
    const std::string& as_string() const {
        return get<std::string>("string");
    }
    const JsonArray& as_array() const { return get<JsonArray>("array"); }
    const JsonMembers& as_object() const {
        return get<JsonMembers>("object");
    }

    /// Object member lookup; throws if absent or not an object.
    const JsonValue& at(const std::string& key) const {
        for (const auto& [k, v] : as_object()) {
            if (k == key) return v;
        }
        ASUCA_REQUIRE(false, "JSON object has no member \"" << key << "\"");
    }
    bool has(const std::string& key) const {
        if (!is_object()) return false;
        for (const auto& [k, v] : as_object()) {
            if (k == key) return true;
        }
        return false;
    }

    /// Append a member to an object (or turn a null into an object).
    JsonValue& set(const std::string& key, JsonValue value) {
        if (is_null()) v_ = JsonMembers{};
        auto& obj = std::get<JsonMembers>(v_);
        for (auto& [k, v] : obj) {
            if (k == key) {
                v = std::move(value);
                return v;
            }
        }
        obj.emplace_back(key, std::move(value));
        return obj.back().second;
    }

    /// Serialize with 2-space indentation and exact double round-trip.
    std::string dump(int indent = 0) const {
        std::string out;
        write(out, indent);
        return out;
    }

    /// Serialize onto ONE line (no newlines, no indentation) with the
    /// same exact double round-trip. This is the wire form of the
    /// forecast service's newline-delimited JSON frames, where an
    /// embedded '\n' would split one document into two frames.
    std::string dump_compact() const {
        std::string out;
        write_compact(out);
        return out;
    }

  private:
    template <class T>
    const T& get(const char* what) const {
        ASUCA_REQUIRE(std::holds_alternative<T>(v_),
                      "JSON value is not a " << what);
        return std::get<T>(v_);
    }

    static void write_escaped(std::string& out, const std::string& s) {
        out += '"';
        for (const char c : s) {
            switch (c) {
                case '"': out += "\\\""; break;
                case '\\': out += "\\\\"; break;
                case '\n': out += "\\n"; break;
                case '\t': out += "\\t"; break;
                case '\r': out += "\\r"; break;
                default:
                    if (static_cast<unsigned char>(c) < 0x20) {
                        char buf[8];
                        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                        out += buf;
                    } else {
                        out += c;
                    }
            }
        }
        out += '"';
    }

    void write(std::string& out, int indent) const {
        const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
        const std::string pad1(static_cast<std::size_t>(indent + 1) * 2, ' ');
        if (is_null()) {
            out += "null";
        } else if (is_bool()) {
            out += as_bool() ? "true" : "false";
        } else if (is_number()) {
            const double d = as_number();
            ASUCA_REQUIRE(std::isfinite(d),
                          "JSON cannot represent non-finite number");
            char buf[40];
            std::snprintf(buf, sizeof(buf), "%.17g", d);
            out += buf;
        } else if (is_string()) {
            write_escaped(out, as_string());
        } else if (is_array()) {
            const auto& a = as_array();
            if (a.empty()) {
                out += "[]";
                return;
            }
            out += "[\n";
            for (std::size_t i = 0; i < a.size(); ++i) {
                out += pad1;
                a[i].write(out, indent + 1);
                out += (i + 1 < a.size()) ? ",\n" : "\n";
            }
            out += pad + "]";
        } else {
            const auto& o = as_object();
            if (o.empty()) {
                out += "{}";
                return;
            }
            out += "{\n";
            for (std::size_t i = 0; i < o.size(); ++i) {
                out += pad1;
                write_escaped(out, o[i].first);
                out += ": ";
                o[i].second.write(out, indent + 1);
                out += (i + 1 < o.size()) ? ",\n" : "\n";
            }
            out += pad + "}";
        }
    }

    void write_compact(std::string& out) const {
        if (is_null()) {
            out += "null";
        } else if (is_bool()) {
            out += as_bool() ? "true" : "false";
        } else if (is_number()) {
            const double d = as_number();
            ASUCA_REQUIRE(std::isfinite(d),
                          "JSON cannot represent non-finite number");
            char buf[40];
            std::snprintf(buf, sizeof(buf), "%.17g", d);
            out += buf;
        } else if (is_string()) {
            write_escaped(out, as_string());
        } else if (is_array()) {
            out += '[';
            const auto& a = as_array();
            for (std::size_t i = 0; i < a.size(); ++i) {
                if (i > 0) out += ',';
                a[i].write_compact(out);
            }
            out += ']';
        } else {
            out += '{';
            const auto& o = as_object();
            for (std::size_t i = 0; i < o.size(); ++i) {
                if (i > 0) out += ',';
                write_escaped(out, o[i].first);
                out += ':';
                o[i].second.write_compact(out);
            }
            out += '}';
        }
    }

    std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
                 JsonMembers>
        v_;
};

/// Deepest '['/'{' nesting json_parse accepts; deeper input throws
/// asuca::Error instead of exhausting the stack. Every document the
/// project writes nests at most 4 deep.
inline constexpr int kMaxJsonDepth = 64;

namespace detail {

class JsonParser {
  public:
    explicit JsonParser(const std::string& text) : text_(text) {}

    JsonValue parse() {
        JsonValue v = value();
        skip_ws();
        ASUCA_REQUIRE(pos_ == text_.size(),
                      "trailing characters after JSON document at "
                          << location());
        return v;
    }

  private:
    std::string location() const {
        std::size_t line = 1, col = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        std::ostringstream os;
        os << "line " << line << ", column " << col;
        return os.str();
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char peek() {
        skip_ws();
        ASUCA_REQUIRE(pos_ < text_.size(),
                      "unexpected end of JSON at " << location());
        return text_[pos_];
    }

    void expect(char c) {
        ASUCA_REQUIRE(peek() == c, "expected '" << c << "' at " << location()
                                                << ", got '" << text_[pos_]
                                                << "'");
        ++pos_;
    }

    bool consume_keyword(const char* kw) {
        const std::size_t n = std::char_traits<char>::length(kw);
        if (text_.compare(pos_, n, kw) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    JsonValue value() {
        const char c = peek();
        switch (c) {
            case '{':
            case '[': {
                // A failed parse is abandoned whole, so the level needs
                // no unwinding on a throw.
                ASUCA_REQUIRE(++depth_ <= kMaxJsonDepth,
                              "JSON nesting deeper than " << kMaxJsonDepth
                                                          << " at "
                                                          << location());
                JsonValue v = c == '{' ? object() : array();
                --depth_;
                return v;
            }
            case '"': return JsonValue(string());
            case 't':
                ASUCA_REQUIRE(consume_keyword("true"),
                              "bad literal at " << location());
                return JsonValue(true);
            case 'f':
                ASUCA_REQUIRE(consume_keyword("false"),
                              "bad literal at " << location());
                return JsonValue(false);
            case 'n':
                ASUCA_REQUIRE(consume_keyword("null"),
                              "bad literal at " << location());
                return JsonValue(nullptr);
            default: return JsonValue(number());
        }
    }

    JsonValue object() {
        expect('{');
        JsonMembers members;
        if (peek() == '}') {
            ++pos_;
            return JsonValue(std::move(members));
        }
        while (true) {
            std::string key = string();
            expect(':');
            members.emplace_back(std::move(key), value());
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return JsonValue(std::move(members));
        }
    }

    JsonValue array() {
        expect('[');
        JsonArray items;
        if (peek() == ']') {
            ++pos_;
            return JsonValue(std::move(items));
        }
        while (true) {
            items.push_back(value());
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return JsonValue(std::move(items));
        }
    }

    std::string string() {
        expect('"');
        std::string out;
        while (true) {
            ASUCA_REQUIRE(pos_ < text_.size(),
                          "unterminated string at " << location());
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            ASUCA_REQUIRE(pos_ < text_.size(),
                          "unterminated escape at " << location());
            const char e = text_[pos_++];
            switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 't': out += '\t'; break;
                case 'r': out += '\r'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'u': {
                    ASUCA_REQUIRE(pos_ + 4 <= text_.size(),
                                  "bad \\u escape at " << location());
                    const unsigned long cp =
                        std::strtoul(text_.substr(pos_, 4).c_str(), nullptr,
                                     16);
                    pos_ += 4;
                    // ASCII-only escapes are all our writer emits; encode
                    // the rest as UTF-8 (2/3-byte forms, no surrogates).
                    if (cp < 0x80) {
                        out += static_cast<char>(cp);
                    } else if (cp < 0x800) {
                        out += static_cast<char>(0xC0 | (cp >> 6));
                        out += static_cast<char>(0x80 | (cp & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (cp >> 12));
                        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (cp & 0x3F));
                    }
                    break;
                }
                default:
                    ASUCA_REQUIRE(false, "bad escape '\\" << e << "' at "
                                                          << location());
            }
        }
    }

    double number() {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        ASUCA_REQUIRE(pos_ > start, "expected a number at " << location());
        char* end = nullptr;
        const std::string tok = text_.substr(start, pos_ - start);
        const double d = std::strtod(tok.c_str(), &end);
        ASUCA_REQUIRE(end != nullptr && *end == '\0',
                      "malformed number \"" << tok << "\" at " << location());
        return d;
    }

    const std::string& text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

}  // namespace detail

inline JsonValue json_parse(const std::string& text) {
    return detail::JsonParser(text).parse();
}

inline JsonValue json_load(const std::string& path) {
    std::ifstream in(path);
    ASUCA_REQUIRE(in.good(), "cannot open JSON file " << path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return json_parse(buf.str());
}

/// Write `v` (plus a trailing newline) crash-safely: the document lands
/// under a temp name and is committed by atomic rename, so a failed
/// write throws and leaves any previous file at `path` intact.
inline void json_save(const std::string& path, const JsonValue& v) {
    write_file_atomic(path, v.dump() + "\n");
}

}  // namespace asuca::io
