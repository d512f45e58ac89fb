// Line-oriented JSON: the one writer/parser pair behind every JSONL schema
// in the library (postmortem bundles, shard manifests, checkpoints, status
// and telemetry lines, fleet status, merged campaign reports). Each line is
// a single JSON object; values may be null / bool / number / string /
// array / object, nested arbitrarily.
//
// Records declare their shape once. A record type provides a free
// function, found by argument-dependent lookup, that lists its fields in
// line order:
//
//   template <class V> void visit_fields(RobotStat& r, V& v) {
//     v("robot", r.robot);
//     v("shard", r.shard);
//     v("traced", r.traced);
//   }
//
// FieldWriter turns that list into `{"robot":42,"shard":1,"traced":true}`
// and FieldReader into a checked parse in which every listed key is
// required. The member's C++ type picks the encoding: integers via `<<`
// (and the strict Fields::integer / Fields::unsigned_integer readers),
// double via write_number (non-finite → null → NaN), bool as true/false,
// std::string escaped, std::optional<double> with nullopt as null,
// vectors of doubles/integers/strings as arrays, a nested record as its
// visited object (a HistogramSnapshot is read back through parse_histogram,
// which also checks the bucket layout), std::vector<Record> as an array of
// visited objects, and std::map<std::string, Record> as an array of
// visited objects whose map key is stored under a caller-named field.
// Constant header fields (`"event":"status"`) go through v.expect(), which
// writes the constant and checks it on read; schema_tag() is the
// event/name/version triple every versioned schema opens with.
//
// Numbers are emitted with round-trip precision (obs/json.h) and parsed
// with JSON number syntax via strtod (integer fields from their literal
// text), so values survive a write→parse cycle exactly — which is what
// lets two independently produced files be compared byte-for-byte.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace roboads::obs::json {

// One parsed JSON value. `num` doubles as the NaN payload of null so flat
// numeric readers can treat null-in-numeric-context uniformly.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;  // kString; for kNumber, the literal as written
  std::vector<Value> items;               // kArray
  std::map<std::string, Value> members;   // kObject
};

// Parses one line holding exactly one JSON object; throws CheckError with
// `context` (e.g. "bundle line 12") prefixed to every diagnostic.
std::map<std::string, Value> parse_object_line(const std::string& line,
                                               const std::string& context);

// Typed field access over a parsed object with loud, context-tagged
// failures — schema drift should be a clear error, not a default-initialized
// record.
class Fields {
 public:
  Fields(std::map<std::string, Value> fields, std::string context)
      : fields_(std::move(fields)), context_(std::move(context)) {}

  bool has(const char* key) const { return fields_.count(key) != 0; }
  const Value& at(const char* key) const;

  // null parses as NaN, mirroring the writer.
  double number(const char* key) const;
  // Integral numbers only: null, non-finite, fractional and out-of-range
  // values throw (a count must never come back as a wrapped or truncated
  // value). unsigned_integer also rejects negatives.
  std::int64_t integer(const char* key) const;
  std::uint64_t unsigned_integer(const char* key) const;
  bool boolean(const char* key) const;
  const std::string& string(const char* key) const;
  // Array of numbers/nulls (null → NaN). Throws on non-numeric elements.
  std::vector<double> numbers(const char* key) const;
  // Arrays under the integer/unsigned_integer rules above.
  std::vector<std::int64_t> integers(const char* key) const;
  std::vector<std::uint64_t> unsigned_integers(const char* key) const;
  std::vector<std::string> strings(const char* key) const;
  // Nested object, with "<context> field '<key>'" as its context.
  Fields object(const char* key) const;
  // Array of objects, re-wrapped as Fields sharing this object's context.
  std::vector<Fields> objects(const char* key) const;

  const std::string& context() const { return context_; }

 private:
  [[noreturn]] void fail(const char* key, const char* want) const;
  const Value& array(const char* key) const;
  template <class T>
  std::vector<T> integer_array(const char* key, const char* want) const;

  std::map<std::string, Value> fields_;
  std::string context_;
};

// --- Field visitors (see the top of this file).

template <class R>
void write_record(std::ostream& os, const R& record);
template <class R>
void read_record(const Fields& fields, R& record);

namespace detail {
template <class T>
struct is_vector : std::false_type {};
template <class T>
struct is_vector<std::vector<T>> : std::true_type {};
template <class T>
inline constexpr bool is_integer_v =
    std::is_integral_v<T> && !std::is_same_v<T, bool>;
}  // namespace detail

// Writes each visited field as `"key":value`, in visit order.
class FieldWriter {
 public:
  explicit FieldWriter(std::ostream& os) : os_(os) {}

  template <class T>
  void operator()(const char* key, const T& value) {
    write_key(key);
    write_value(value);
  }
  // A keyed collection, as an array of objects carrying their map key
  // under `key_field` ahead of the record's own fields.
  template <class R>
  void operator()(const char* key, const std::map<std::string, R>& records,
                  const char* key_field) {
    write_key(key);
    os_ << '[';
    bool first = true;
    for (const auto& [name, record] : records) {
      if (!first) os_ << ',';
      first = false;
      FieldWriter item(os_);
      os_ << '{';
      item(key_field, name);
      visit_fields(const_cast<R&>(record), item);
      os_ << '}';
    }
    os_ << ']';
  }
  void expect(const char* key, const char* word) {
    (*this)(key, std::string(word));
  }
  void expect(const char* key, std::int64_t value) { (*this)(key, value); }

 private:
  void write_key(const char* key) {
    if (!first_) os_ << ',';
    first_ = false;
    os_ << '"' << key << "\":";
  }

  template <class T>
  void write_value(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      os_ << (v ? "true" : "false");
    } else if constexpr (detail::is_integer_v<T>) {
      os_ << v;
    } else if constexpr (std::is_same_v<T, double>) {
      write_number(os_, v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      write_escaped(os_, v);
    } else if constexpr (std::is_same_v<T, std::optional<double>>) {
      if (v.has_value()) {
        write_number(os_, *v);
      } else {
        os_ << "null";
      }
    } else if constexpr (detail::is_vector<T>::value) {
      os_ << '[';
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (i > 0) os_ << ',';
        write_value(v[i]);
      }
      os_ << ']';
    } else {
      write_record(os_, v);  // a nested visited record
    }
  }

  std::ostream& os_;
  bool first_ = true;
};

// Reads each visited field back; a missing or mistyped key throws
// CheckError naming it.
class FieldReader {
 public:
  explicit FieldReader(const Fields& fields) : f_(fields) {}
  FieldReader(Fields&&) = delete;  // holds a reference: no temporaries

  template <class T>
  void operator()(const char* key, T& out) const {
    if constexpr (std::is_same_v<T, bool>) {
      out = f_.boolean(key);
    } else if constexpr (detail::is_integer_v<T>) {
      static_assert(sizeof(T) == sizeof(std::int64_t),
                    "integer fields are 64-bit");
      if constexpr (std::is_signed_v<T>) {
        out = f_.integer(key);
      } else {
        out = f_.unsigned_integer(key);
      }
    } else if constexpr (std::is_same_v<T, double>) {
      out = f_.number(key);
    } else if constexpr (std::is_same_v<T, std::string>) {
      out = f_.string(key);
    } else if constexpr (std::is_same_v<T, std::optional<double>>) {
      const double v = f_.number(key);
      out = v == v ? std::optional<double>(v) : std::nullopt;
    } else if constexpr (std::is_same_v<T, std::vector<double>>) {
      out = f_.numbers(key);
    } else if constexpr (std::is_same_v<T, std::vector<std::int64_t>>) {
      out = f_.integers(key);
    } else if constexpr (std::is_same_v<T, std::vector<std::uint64_t>>) {
      out = f_.unsigned_integers(key);
    } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
      out = f_.strings(key);
    } else if constexpr (std::is_same_v<T, HistogramSnapshot>) {
      out = parse_histogram(f_.object(key));  // validates the bucket layout
    } else if constexpr (detail::is_vector<T>::value) {
      out.clear();
      for (const Fields& item : f_.objects(key)) {
        read_record(item, out.emplace_back());
      }
    } else {
      read_record(f_.object(key), out);
    }
  }
  template <class R>
  void operator()(const char* key, std::map<std::string, R>& out,
                  const char* key_field) const {
    out.clear();
    for (const Fields& item : f_.objects(key)) {
      R record;
      read_record(item, record);
      out.emplace(item.string(key_field), std::move(record));
    }
  }
  void expect(const char* key, const char* word) const;
  void expect(const char* key, std::int64_t value) const;

 private:
  const Fields& f_;
};

// The `"event":...,"name":...,"version":N` header of a versioned schema.
template <class V>
void schema_tag(V& v, const char* event, const char* name, int version) {
  v.expect("event", event);
  v.expect("name", name);
  v.expect("version", version);
}

// One object from an ad-hoc field list: `visit(writer)` lists the fields.
template <class Visit>
void write_object(std::ostream& os, Visit&& visit) {
  FieldWriter writer(os);
  os << '{';
  visit(writer);
  os << '}';
}

template <class R>
void write_record(std::ostream& os, const R& record) {
  // The writer only reads; visit_fields takes a mutable record so that one
  // field list serves both directions.
  write_object(
      os, [&](FieldWriter& w) { visit_fields(const_cast<R&>(record), w); });
}

// write_record as a string (one line, no newline).
template <class R>
std::string record_line(const R& record) {
  std::ostringstream os;
  write_record(os, record);
  return os.str();
}

// Reads an ad-hoc field list: `visit(reader)` lists the fields.
template <class Visit>
void read_object(const Fields& fields, Visit&& visit) {
  FieldReader reader(fields);
  visit(reader);
}

template <class R>
void read_record(const Fields& fields, R& record) {
  read_object(fields, [&](FieldReader& r) { visit_fields(record, r); });
}

// parse_object_line + read_record.
template <class R>
R parse_record(const std::string& line, const std::string& context) {
  R record;
  read_record(Fields(parse_object_line(line, context), context), record);
  return record;
}

// Atomically replaces `path` with `line` plus a newline: writes `path.tmp`,
// flushes and checks the stream, then renames over `path`, so a reader never
// sees a half-written file. Failures throw CheckError naming `noun` (e.g.
// "status", "heartbeat") and the file.
void publish_line(const std::string& path, const std::string& line,
                  const std::string& noun);

// Reads back a publish_line file's line. A missing file throws CheckError
// "<path>: no <noun> (<missing_hint>)", an empty one "<path>: empty <noun>".
std::string read_published_line(const std::string& path,
                                const std::string& noun,
                                const std::string& missing_hint);

// --- Torn-tail-tolerant reading of append-only JSONL stream files (shard
// checkpoints, worker telemetry). A process killed mid-append leaves at most
// one damaged line, and by construction it is the last one.

struct TailTolerantRead {
  std::size_t lines = 0;  // complete lines handed to `consume`
  bool torn = false;      // a torn tail was dropped (and repaired if asked)
};

// Reads `path` line by line, invoking `consume(line, line_no)` for each
// newline-terminated line. The *final* line is allowed to be mid-write: if
// it lacks its newline, is empty, or `consume` throws on it, it is dropped
// (and the file truncated back to the valid prefix when `repair` is set).
// A line that fails anywhere *earlier* is real corruption, not a torn tail
// — silently dropping completed records would undercount — so the consume
// exception is rethrown through `on_corrupt` (which must throw; defaults
// to CheckError tagged with `path`). A missing file reads as empty.
TailTolerantRead read_jsonl_tail_tolerant(
    const std::string& path,
    const std::function<void(const std::string& line, std::size_t line_no)>&
        consume,
    bool repair,
    const std::function<void(const std::exception&)>& on_corrupt = {});

}  // namespace roboads::obs::json
