#include "obs/jsonl.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/check.h"

namespace roboads::obs::json {
namespace {

// Deepest real schema nesting is 4 (object → array → object → histogram
// → array); anything far beyond that is not one of ours.
constexpr std::size_t kMaxDepth = 64;

class LineParser {
 public:
  LineParser(const std::string& line, const std::string& context)
      : s_(line), context_(context) {}

  std::map<std::string, Value> parse_object_line() {
    skip_ws();
    Value v = parse_value();
    if (v.kind != Value::Kind::kObject) fail("expected an object");
    skip_ws();
    if (i_ != s_.size()) fail("trailing characters after object");
    return std::move(v.members);
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw CheckError(context_ + ": " + what);
  }

  char peek() const {
    if (i_ >= s_.size()) fail("unexpected end of line");
    return s_[i_];
  }
  char next() {
    const char c = peek();
    ++i_;
    return c;
  }
  void expect(char c) {
    if (next() != c) fail(std::string("expected '") + c + "'");
  }
  void skip_ws() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\r')) {
      ++i_;
    }
  }
  bool literal(const char* word) {
    const std::size_t n = std::char_traits<char>::length(word);
    if (s_.compare(i_, n, word) != 0) return false;
    i_ += n;
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = next();
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char e = next();
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_ascii_escape(); break;
        default: fail("unsupported escape");
      }
    }
  }

  // The four hex digits of a \uXXXX escape. Writers only escape control
  // characters; a code point past ASCII would need UTF-8 encoding, so it is
  // refused rather than truncated to one byte.
  char parse_ascii_escape() {
    const std::size_t begin = i_;
    for (int n = 0; n < 4; ++n) {
      if (!std::isxdigit(static_cast<unsigned char>(next()))) {
        fail("\\u escape needs four hex digits");
      }
    }
    const unsigned long code = std::strtoul(s_.substr(begin, 4).c_str(),
                                            nullptr, 16);
    if (code >= 0x80) fail("unsupported non-ASCII \\u escape");
    return static_cast<char>(code);
  }

  bool at(char c) const { return i_ < s_.size() && s_[i_] == c; }
  // Consumes a run of digits; false when there is none.
  bool digits() {
    const std::size_t begin = i_;
    while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') ++i_;
    return i_ > begin;
  }

  // JSON number syntax only — strtod alone would also take "inf", "nan",
  // hex floats and a leading '+'.
  double parse_number() {
    const std::size_t begin = i_;
    if (at('-')) ++i_;
    if (at('0')) {
      ++i_;
    } else if (!digits()) {
      fail("malformed number");
    }
    if (at('.')) {
      ++i_;
      if (!digits()) fail("malformed number");
    }
    if (at('e') || at('E')) {
      ++i_;
      if (at('+') || at('-')) ++i_;
      if (!digits()) fail("malformed number");
    }
    return std::strtod(s_.substr(begin, i_ - begin).c_str(), nullptr);
  }

  Value parse_value(std::size_t depth = 0) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    Value v;
    const char c = peek();
    if (c == 'n') {
      if (!literal("null")) fail("bad literal");
      v.kind = Value::Kind::kNull;
      v.num = std::numeric_limits<double>::quiet_NaN();
    } else if (c == 't' || c == 'f') {
      v.kind = Value::Kind::kBool;
      if (literal("true")) {
        v.b = true;
      } else if (literal("false")) {
        v.b = false;
      } else {
        fail("bad literal");
      }
    } else if (c == '"') {
      v.kind = Value::Kind::kString;
      v.str = parse_string();
    } else if (c == '[') {
      ++i_;
      v.kind = Value::Kind::kArray;
      skip_ws();
      if (peek() == ']') {
        ++i_;
        return v;
      }
      while (true) {
        v.items.push_back(parse_value(depth + 1));
        skip_ws();
        const char e = next();
        if (e == ']') break;
        if (e != ',') fail("expected ',' or ']'");
      }
    } else if (c == '{') {
      ++i_;
      v.kind = Value::Kind::kObject;
      skip_ws();
      if (peek() == '}') {
        ++i_;
        return v;
      }
      while (true) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        v.members[std::move(key)] = parse_value(depth + 1);
        skip_ws();
        const char e = next();
        if (e == '}') break;
        if (e != ',') fail("expected ',' or '}'");
      }
    } else {
      v.kind = Value::Kind::kNumber;
      const std::size_t begin = i_;
      v.num = parse_number();
      v.str = s_.substr(begin, i_ - begin);
    }
    return v;
  }

  const std::string& s_;
  std::size_t i_ = 0;
  const std::string& context_;
};

}  // namespace

std::map<std::string, Value> parse_object_line(const std::string& line,
                                               const std::string& context) {
  return LineParser(line, context).parse_object_line();
}

const Value& Fields::at(const char* key) const {
  const auto it = fields_.find(key);
  if (it == fields_.end()) {
    throw CheckError(context_ + ": missing field '" + key + "'");
  }
  return it->second;
}

namespace {

// Exact conversion of a parsed number to a 64-bit integer. Plain integer
// literals are converted from their text, so values past 2^53 (seeds,
// large counters) keep every digit. Anything else (1e3, 2.0) goes through
// the double, with every check made before the cast: null (NaN), ±inf,
// 2.7 and 1e300 are refused instead of reaching an undefined float→int
// conversion. 2^63 and 2^64 are exact doubles, hence the half-open bound.
template <class T>
bool to_integer(const Value& v, T& out) {
  if (v.kind != Value::Kind::kNumber) return false;
  const bool negative = v.str[0] == '-';
  if (v.str.find_first_of(".eE") == std::string::npos &&
      !(std::is_unsigned_v<T> && negative)) {
    errno = 0;
    if constexpr (std::is_signed_v<T>) {
      out = std::strtoll(v.str.c_str(), nullptr, 10);
    } else {
      out = std::strtoull(v.str.c_str(), nullptr, 10);
    }
    return errno == 0;
  }
  constexpr double kMin = std::is_signed_v<T> ? -0x1p63 : 0.0;
  constexpr double kEnd = std::is_signed_v<T> ? 0x1p63 : 0x1p64;
  if (v.num != std::trunc(v.num) || !(v.num >= kMin && v.num < kEnd)) {
    return false;
  }
  out = static_cast<T>(v.num);
  return true;
}

}  // namespace

double Fields::number(const char* key) const {
  const Value& v = at(key);
  if (v.kind != Value::Kind::kNumber && v.kind != Value::Kind::kNull) {
    fail(key, "a number");
  }
  return v.num;
}

std::int64_t Fields::integer(const char* key) const {
  std::int64_t out = 0;
  if (!to_integer(at(key), out)) fail(key, "a 64-bit integer");
  return out;
}

std::uint64_t Fields::unsigned_integer(const char* key) const {
  std::uint64_t out = 0;
  if (!to_integer(at(key), out)) fail(key, "a non-negative 64-bit integer");
  return out;
}

bool Fields::boolean(const char* key) const {
  const Value& v = at(key);
  if (v.kind != Value::Kind::kBool) fail(key, "a bool");
  return v.b;
}

const std::string& Fields::string(const char* key) const {
  const Value& v = at(key);
  if (v.kind != Value::Kind::kString) fail(key, "a string");
  return v.str;
}

const Value& Fields::array(const char* key) const {
  const Value& v = at(key);
  if (v.kind != Value::Kind::kArray) fail(key, "an array");
  return v;
}

std::vector<double> Fields::numbers(const char* key) const {
  const Value& v = array(key);
  std::vector<double> out;
  out.reserve(v.items.size());
  for (const Value& item : v.items) {
    if (item.kind != Value::Kind::kNumber &&
        item.kind != Value::Kind::kNull) {
      fail(key, "a numeric array");
    }
    out.push_back(item.num);
  }
  return out;
}

template <class T>
std::vector<T> Fields::integer_array(const char* key, const char* want) const {
  const Value& v = array(key);
  std::vector<T> out(v.items.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!to_integer(v.items[i], out[i])) fail(key, want);
  }
  return out;
}

std::vector<std::int64_t> Fields::integers(const char* key) const {
  return integer_array<std::int64_t>(key, "a 64-bit integer array");
}

std::vector<std::uint64_t> Fields::unsigned_integers(const char* key) const {
  return integer_array<std::uint64_t>(
      key, "a non-negative 64-bit integer array");
}

std::vector<std::string> Fields::strings(const char* key) const {
  const Value& v = array(key);
  std::vector<std::string> out;
  out.reserve(v.items.size());
  for (const Value& item : v.items) {
    if (item.kind != Value::Kind::kString) fail(key, "a string array");
    out.push_back(item.str);
  }
  return out;
}

Fields Fields::object(const char* key) const {
  const Value& v = at(key);
  if (v.kind != Value::Kind::kObject) fail(key, "an object");
  return Fields(v.members, context_ + " field '" + key + "'");
}

std::vector<Fields> Fields::objects(const char* key) const {
  const Value& v = array(key);
  std::vector<Fields> out;
  out.reserve(v.items.size());
  for (const Value& item : v.items) {
    if (item.kind != Value::Kind::kObject) fail(key, "an object array");
    out.emplace_back(item.members, context_);
  }
  return out;
}

void Fields::fail(const char* key, const char* want) const {
  throw CheckError(context_ + ": field '" + std::string(key) + "' is not " +
                   want);
}

void FieldReader::expect(const char* key, const char* word) const {
  if (f_.string(key) != word) {
    throw CheckError(f_.context() + ": field '" + key + "' is \"" +
                     f_.string(key) + "\", expected \"" + word + "\"");
  }
}

void FieldReader::expect(const char* key, std::int64_t value) const {
  if (f_.integer(key) != value) {
    throw CheckError(f_.context() + ": field '" + key + "' is " +
                     std::to_string(f_.integer(key)) + ", expected " +
                     std::to_string(value));
  }
}

TailTolerantRead read_jsonl_tail_tolerant(
    const std::string& path,
    const std::function<void(const std::string& line, std::size_t line_no)>&
        consume,
    bool repair,
    const std::function<void(const std::exception&)>& on_corrupt) {
  TailTolerantRead result;
  std::ifstream is(path, std::ios::binary);
  if (!is) return result;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string text = buffer.str();

  std::size_t line_no = 0;
  std::size_t offset = 0;    // start of the current line
  std::size_t good_end = 0;  // byte length of the valid prefix
  while (offset < text.size()) {
    const std::size_t newline = text.find('\n', offset);
    const bool complete = newline != std::string::npos;
    const std::string line =
        text.substr(offset, complete ? newline - offset : std::string::npos);
    ++line_no;
    // A line without a terminating newline is by definition mid-write.
    bool ok = complete && !line.empty();
    if (ok) {
      try {
        consume(line, line_no);
        ++result.lines;
      } catch (const std::exception& e) {
        ok = false;
        const bool final_line = newline + 1 >= text.size();
        if (!final_line) {
          if (on_corrupt) on_corrupt(e);
          throw CheckError(path + ": corrupt record (" +
                           std::string(e.what()) + ")");
        }
      }
    }
    if (!ok) {
      result.torn = true;
      break;
    }
    good_end = newline + 1;
    offset = newline + 1;
  }

  if (result.torn && repair) {
    std::filesystem::resize_file(path, good_end);
  }
  return result;
}

std::string read_published_line(const std::string& path,
                                const std::string& noun,
                                const std::string& missing_hint) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw CheckError(path + ": no " + noun + " (" + missing_hint + ")");
  std::string line;
  ROBOADS_CHECK(static_cast<bool>(std::getline(is, line)),
                path + ": empty " + noun);
  return line;
}

void publish_line(const std::string& path, const std::string& line,
                  const std::string& noun) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc | std::ios::binary);
    ROBOADS_CHECK(static_cast<bool>(os), "cannot write " + noun + " " + tmp);
    os << line << '\n';
    os.flush();
    ROBOADS_CHECK(static_cast<bool>(os),
                  "write failed for " + noun + " " + tmp);
  }
  ROBOADS_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
                "cannot publish " + noun + " " + path);
}

}  // namespace roboads::obs::json
