//===- support/Json.cpp - Streaming JSON writer ---------------------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include "support/StrUtil.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

using namespace gca;

void JsonWriter::separate() {
  if (AfterKey) {
    AfterKey = false;
    return;
  }
  if (!FirstInScope.back())
    Out += ",";
  FirstInScope.back() = false;
}

JsonWriter &JsonWriter::beginObject() {
  separate();
  Out += "{";
  FirstInScope.push_back(true);
  return *this;
}

JsonWriter &JsonWriter::endObject() {
  Out += "}";
  FirstInScope.pop_back();
  return *this;
}

JsonWriter &JsonWriter::beginArray() {
  separate();
  Out += "[";
  FirstInScope.push_back(true);
  return *this;
}

JsonWriter &JsonWriter::endArray() {
  Out += "]";
  FirstInScope.pop_back();
  return *this;
}

JsonWriter &JsonWriter::key(const std::string &K) {
  if (!FirstInScope.back())
    Out += ",";
  FirstInScope.back() = false;
  Out += '"';
  jsonEscapeInto(Out, K);
  Out += "\":";
  AfterKey = true;
  return *this;
}

JsonWriter &JsonWriter::value(std::string_view S) {
  separate();
  Out += '"';
  jsonEscapeInto(Out, S);
  Out += '"';
  return *this;
}

JsonWriter &JsonWriter::value(int64_t N) {
  separate();
  Out += strFormat("%lld", static_cast<long long>(N));
  return *this;
}

JsonWriter &JsonWriter::value(uint64_t N) {
  separate();
  Out += strFormat("%llu", static_cast<unsigned long long>(N));
  return *this;
}

JsonWriter &JsonWriter::value(bool B) {
  separate();
  Out += B ? "true" : "false";
  return *this;
}

JsonWriter &JsonWriter::value(double D, int Precision) {
  separate();
  Out += strFormat("%.*f", Precision, D);
  return *this;
}

JsonWriter &JsonWriter::null() {
  separate();
  Out += "null";
  return *this;
}

JsonWriter &JsonWriter::raw(const std::string &Json) {
  separate();
  Out += Json;
  return *this;
}

//===----------------------------------------------------------------------===//
// JsonValue
//===----------------------------------------------------------------------===//

JsonValue JsonValue::makeBool(bool V) {
  JsonValue J;
  J.K = Kind::Bool;
  J.B = V;
  return J;
}

JsonValue JsonValue::makeNumber(double V) {
  JsonValue J;
  J.K = Kind::Number;
  J.Num = V;
  return J;
}

JsonValue JsonValue::makeInt(int64_t V) {
  JsonValue J;
  J.K = Kind::Number;
  J.Num = static_cast<double>(V);
  J.Int = V;
  J.Integral = true;
  return J;
}

JsonValue JsonValue::makeString(std::string V) {
  JsonValue J;
  J.K = Kind::String;
  J.Str = std::move(V);
  return J;
}

JsonValue JsonValue::makeArray(std::vector<JsonValue> V) {
  JsonValue J;
  J.K = Kind::Array;
  J.Arr = std::move(V);
  return J;
}

JsonValue
JsonValue::makeObject(std::vector<std::pair<std::string, JsonValue>> V) {
  JsonValue J;
  J.K = Kind::Object;
  J.Obj = std::move(V);
  return J;
}

const JsonValue *JsonValue::get(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[Name, Value] : Obj)
    if (Name == Key)
      return &Value;
  return nullptr;
}

namespace {

/// Strict recursive-descent parser over a byte buffer. Never throws; every
/// failure records a message with the byte offset. Depth-capped.
class JsonParser {
public:
  JsonParser(const std::string &Text, std::string &Err)
      : Text(Text), Err(Err) {}

  bool run(JsonValue &Out) {
    skipWs();
    if (!parseValue(Out, 0))
      return false;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing bytes after document");
    return true;
  }

private:
  static constexpr int MaxDepth = 64;

  bool fail(const std::string &Msg) {
    Err = strFormat("json: %s at offset %zu", Msg.c_str(), Pos);
    return false;
  }

  void skipWs() {
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C != ' ' && C != '\t' && C != '\n' && C != '\r')
        break;
      ++Pos;
    }
  }

  bool literal(const char *Word) {
    size_t Len = std::strlen(Word);
    if (Text.compare(Pos, Len, Word) != 0)
      return fail("invalid literal");
    Pos += Len;
    return true;
  }

  bool parseValue(JsonValue &Out, int Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    switch (Text[Pos]) {
    case 'n':
      return literal("null") && (Out = JsonValue::makeNull(), true);
    case 't':
      return literal("true") && (Out = JsonValue::makeBool(true), true);
    case 'f':
      return literal("false") && (Out = JsonValue::makeBool(false), true);
    case '"': {
      std::string S;
      if (!parseString(S))
        return false;
      Out = JsonValue::makeString(std::move(S));
      return true;
    }
    case '[':
      return parseArray(Out, Depth);
    case '{':
      return parseObject(Out, Depth);
    default:
      return parseNumber(Out);
    }
  }

  bool parseArray(JsonValue &Out, int Depth) {
    ++Pos; // '['
    std::vector<JsonValue> Elems;
    skipWs();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      Out = JsonValue::makeArray(std::move(Elems));
      return true;
    }
    while (true) {
      JsonValue Elem;
      skipWs();
      if (!parseValue(Elem, Depth + 1))
        return false;
      Elems.push_back(std::move(Elem));
      skipWs();
      if (Pos >= Text.size())
        return fail("unterminated array");
      char C = Text[Pos++];
      if (C == ']')
        break;
      if (C != ',')
        return fail("expected ',' or ']' in array");
    }
    Out = JsonValue::makeArray(std::move(Elems));
    return true;
  }

  bool parseObject(JsonValue &Out, int Depth) {
    ++Pos; // '{'
    std::vector<std::pair<std::string, JsonValue>> Members;
    skipWs();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      Out = JsonValue::makeObject(std::move(Members));
      return true;
    }
    while (true) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected object key");
      std::string Key;
      if (!parseString(Key))
        return false;
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != ':')
        return fail("expected ':' after object key");
      ++Pos;
      skipWs();
      JsonValue Value;
      if (!parseValue(Value, Depth + 1))
        return false;
      Members.emplace_back(std::move(Key), std::move(Value));
      skipWs();
      if (Pos >= Text.size())
        return fail("unterminated object");
      char C = Text[Pos++];
      if (C == '}')
        break;
      if (C != ',')
        return fail("expected ',' or '}' in object");
    }
    Out = JsonValue::makeObject(std::move(Members));
    return true;
  }

  static void appendUtf8(std::string &S, uint32_t Cp) {
    if (Cp < 0x80) {
      S.push_back(static_cast<char>(Cp));
    } else if (Cp < 0x800) {
      S.push_back(static_cast<char>(0xc0 | (Cp >> 6)));
      S.push_back(static_cast<char>(0x80 | (Cp & 0x3f)));
    } else if (Cp < 0x10000) {
      S.push_back(static_cast<char>(0xe0 | (Cp >> 12)));
      S.push_back(static_cast<char>(0x80 | ((Cp >> 6) & 0x3f)));
      S.push_back(static_cast<char>(0x80 | (Cp & 0x3f)));
    } else {
      S.push_back(static_cast<char>(0xf0 | (Cp >> 18)));
      S.push_back(static_cast<char>(0x80 | ((Cp >> 12) & 0x3f)));
      S.push_back(static_cast<char>(0x80 | ((Cp >> 6) & 0x3f)));
      S.push_back(static_cast<char>(0x80 | (Cp & 0x3f)));
    }
  }

  bool parseHex4(uint32_t &Out) {
    if (Pos + 4 > Text.size())
      return fail("truncated \\u escape");
    Out = 0;
    for (int I = 0; I != 4; ++I) {
      char C = Text[Pos++];
      Out <<= 4;
      if (C >= '0' && C <= '9')
        Out |= static_cast<uint32_t>(C - '0');
      else if (C >= 'a' && C <= 'f')
        Out |= static_cast<uint32_t>(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        Out |= static_cast<uint32_t>(C - 'A' + 10);
      else
        return fail("invalid \\u escape");
    }
    return true;
  }

  bool parseString(std::string &Out) {
    ++Pos; // opening '"'
    Out.clear();
    while (true) {
      // Copy the run of plain bytes up to the next quote, backslash or
      // control byte in one append.
      size_t Run = Pos;
      while (Pos < Text.size()) {
        unsigned char C = static_cast<unsigned char>(Text[Pos]);
        if (C == '"' || C == '\\' || C < 0x20)
          break;
        ++Pos;
      }
      Out.append(Text, Run, Pos - Run);
      if (Pos >= Text.size())
        return fail("unterminated string");
      unsigned char C = static_cast<unsigned char>(Text[Pos++]);
      if (C == '"')
        return true;
      if (C < 0x20)
        return fail("unescaped control character in string");
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out.push_back(E);
        break;
      case 'b':
        Out.push_back('\b');
        break;
      case 'f':
        Out.push_back('\f');
        break;
      case 'n':
        Out.push_back('\n');
        break;
      case 'r':
        Out.push_back('\r');
        break;
      case 't':
        Out.push_back('\t');
        break;
      case 'u': {
        uint32_t Cp;
        if (!parseHex4(Cp))
          return false;
        if (Cp >= 0xd800 && Cp <= 0xdbff) {
          // High surrogate: must be followed by \uDC00..\uDFFF.
          if (Pos + 1 >= Text.size() || Text[Pos] != '\\' ||
              Text[Pos + 1] != 'u')
            return fail("unpaired surrogate");
          Pos += 2;
          uint32_t Lo;
          if (!parseHex4(Lo))
            return false;
          if (Lo < 0xdc00 || Lo > 0xdfff)
            return fail("invalid low surrogate");
          Cp = 0x10000 + ((Cp - 0xd800) << 10) + (Lo - 0xdc00);
        } else if (Cp >= 0xdc00 && Cp <= 0xdfff) {
          return fail("unpaired surrogate");
        }
        appendUtf8(Out, Cp);
        break;
      }
      default:
        return fail("invalid escape character");
      }
    }
  }

  bool parseNumber(JsonValue &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    size_t DigitsStart = Pos;
    while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
      ++Pos;
    if (Pos == DigitsStart)
      return fail("invalid number");
    // JSON forbids leading zeros ("01"), but the writer never emits them
    // and being lenient here costs nothing, so accept them.
    bool Integral = true;
    if (Pos < Text.size() && Text[Pos] == '.') {
      Integral = false;
      ++Pos;
      size_t FracStart = Pos;
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
      if (Pos == FracStart)
        return fail("invalid number fraction");
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      Integral = false;
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      size_t ExpStart = Pos;
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
      if (Pos == ExpStart)
        return fail("invalid number exponent");
    }
    std::string Literal = Text.substr(Start, Pos - Start);
    if (Integral) {
      errno = 0;
      char *End = nullptr;
      long long V = std::strtoll(Literal.c_str(), &End, 10);
      if (errno == 0 && End && *End == '\0') {
        Out = JsonValue::makeInt(V);
        return true;
      }
      // Out-of-range integer: fall through to double.
    }
    errno = 0;
    char *End = nullptr;
    double D = std::strtod(Literal.c_str(), &End);
    if (!End || *End != '\0')
      return fail("invalid number");
    Out = JsonValue::makeNumber(D);
    return true;
  }

  const std::string &Text;
  std::string &Err;
  size_t Pos = 0;
};

} // namespace

bool JsonValue::parse(const std::string &Text, JsonValue &Out,
                      std::string &Err) {
  Err.clear();
  return JsonParser(Text, Err).run(Out);
}
