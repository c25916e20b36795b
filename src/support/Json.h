//===- support/Json.h - Streaming JSON writer -------------------*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small streaming JSON writer shared by every JSON producer in the tree
/// (trace exporter, metrics snapshots, time reports, cache-stats trailers).
/// It handles commas, nesting, and string escaping so no call site ever
/// splices user-controlled text into a JSON literal by hand — the bug class
/// this type exists to retire. Output is canonical-compact: no whitespace,
/// keys emitted in call order, doubles printed with a fixed caller-chosen
/// precision so equal inputs always render equal bytes.
///
/// Alongside the writer lives JsonValue, the recursive-descent reader the
/// compile server and load generator use to parse wire messages. It is
/// strict (no trailing garbage, bounded nesting depth, full string-escape
/// handling including surrogate pairs) and never throws: parse failures
/// return false with a position-stamped error, which is exactly the
/// behavior the protocol fuzzer's oracle needs.
///
//===----------------------------------------------------------------------===//

#ifndef GCA_SUPPORT_JSON_H
#define GCA_SUPPORT_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gca {

class JsonWriter {
public:
  JsonWriter &beginObject();
  JsonWriter &endObject();
  JsonWriter &beginArray();
  JsonWriter &endArray();

  /// Emits an object key (escaped); the next value/begin* call attaches to
  /// it. Must only be called directly inside an object.
  JsonWriter &key(const std::string &K);

  JsonWriter &value(std::string_view S);
  /// Keeps string literals off the bool overload.
  JsonWriter &value(const char *S) { return value(std::string_view(S)); }
  JsonWriter &value(int64_t N);
  JsonWriter &value(uint64_t N);
  JsonWriter &value(int N) { return value(static_cast<int64_t>(N)); }
  JsonWriter &value(bool B);
  /// Fixed-point double with \p Precision digits after the point (printf
  /// %.*f), matching the repo's historical %.6f timing fields.
  JsonWriter &value(double D, int Precision = 6);
  JsonWriter &null();

  /// Splices \p Json verbatim as one value. The caller guarantees it is a
  /// complete, valid JSON value (used to embed sub-reports that already
  /// render themselves).
  JsonWriter &raw(const std::string &Json);

  /// The document so far. Valid JSON once every begin* has been closed.
  const std::string &str() const { return Out; }

private:
  void separate();

  std::string Out;
  /// One entry per open container: true until the first element lands.
  std::vector<bool> FirstInScope{true};
  bool AfterKey = false;
};

/// A parsed JSON document: a tagged tree. Objects keep their members in
/// document order (duplicate keys: the first wins on lookup). Numbers store
/// both the double value and, when the literal was integral and in range,
/// the exact int64.
class JsonValue {
public:
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool boolValue(bool Default = false) const { return isBool() ? B : Default; }
  double numberValue(double Default = 0) const {
    return isNumber() ? Num : Default;
  }
  /// The integral value; \p Default when not a number or not integral.
  int64_t intValue(int64_t Default = 0) const {
    return isNumber() && Integral ? Int : Default;
  }
  bool isIntegral() const { return isNumber() && Integral; }
  const std::string &stringValue() const { return Str; }
  const std::vector<JsonValue> &array() const { return Arr; }
  const std::vector<std::pair<std::string, JsonValue>> &members() const {
    return Obj;
  }

  /// Object member lookup; null when this is not an object or the key is
  /// absent.
  const JsonValue *get(const std::string &Key) const;

  /// Parses \p Text as exactly one JSON document (leading/trailing
  /// whitespace allowed, anything else after the value is an error). On
  /// failure \p Err names the problem and byte offset. Nesting is capped at
  /// 64 levels so adversarial input cannot exhaust the stack.
  static bool parse(const std::string &Text, JsonValue &Out, std::string &Err);

  /// --- Construction (used by tests and by parse) ------------------------
  static JsonValue makeNull() { return JsonValue(); }
  static JsonValue makeBool(bool V);
  static JsonValue makeNumber(double V);
  static JsonValue makeInt(int64_t V);
  static JsonValue makeString(std::string V);
  static JsonValue makeArray(std::vector<JsonValue> V);
  static JsonValue makeObject(std::vector<std::pair<std::string, JsonValue>> V);

private:
  Kind K = Kind::Null;
  bool B = false;
  bool Integral = false;
  double Num = 0;
  int64_t Int = 0;
  std::string Str;
  std::vector<JsonValue> Arr;
  std::vector<std::pair<std::string, JsonValue>> Obj;
};

} // namespace gca

#endif // GCA_SUPPORT_JSON_H
