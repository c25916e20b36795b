//===- support/ResultCache.cpp - Content-addressed result cache -----------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "support/ResultCache.h"

#include "support/Json.h"
#include "support/StrUtil.h"
#include "support/Trace.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>

using namespace gca;

//===----------------------------------------------------------------------===//
// Hashing
//===----------------------------------------------------------------------===//

uint64_t gca::fnv1a64(const std::string &Bytes, uint64_t Basis) {
  uint64_t H = Basis;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

CacheKey CacheKey::of(const std::string &Material) {
  CacheKey K;
  K.Lo = fnv1a64(Material);
  // A second independent stream: different basis, and fold in the length so
  // the two words never degenerate to a function of one another.
  K.Hi = fnv1a64(Material, 0xcbf29ce484222325ull ^ 0x9e3779b97f4a7c15ull) ^
         (Material.size() * 0x94d049bb133111ebull);
  return K;
}

std::string CacheKey::hex() const {
  return strFormat("%016llx%016llx", static_cast<unsigned long long>(Hi),
                   static_cast<unsigned long long>(Lo));
}

//===----------------------------------------------------------------------===//
// CachedResult serialization
//===----------------------------------------------------------------------===//

size_t CachedResult::byteSize() const {
  size_t N = sizeof(CachedResult) + Errors.size() + Diagnostics.size();
  for (const auto &[Name, Text] : Plans)
    N += Name.size() + Text.size() + 2 * sizeof(std::string);
  for (const auto &[Name, Text] : Dumps)
    N += Name.size() + Text.size() + 2 * sizeof(std::string);
  for (const auto &[Name, Value] : Counters)
    N += Name.size() + sizeof(Value) + 48; // Node overhead estimate.
  return N;
}

namespace {

void appendBlob(std::string &S, const char *Tag, const std::string &Bytes) {
  S += strFormat("%s %zu\n", Tag, Bytes.size());
  S += Bytes;
  S += '\n';
}

/// Strict cursor over the serialized form; every helper returns false on any
/// deviation from the expected format.
class Reader {
public:
  explicit Reader(const std::string &S) : S(S) {}

  size_t pos() const { return Pos; }
  bool atEnd() const { return Pos == S.size(); }

  /// Reads one '\n'-terminated line (without the terminator).
  bool line(std::string &Out) {
    size_t Nl = S.find('\n', Pos);
    if (Nl == std::string::npos)
      return false;
    Out.assign(S, Pos, Nl - Pos);
    Pos = Nl + 1;
    return true;
  }

  /// Parses "Tag N\n" followed by exactly N raw bytes and a '\n'.
  bool blob(const char *Tag, std::string &Out) {
    std::string Header;
    if (!line(Header))
      return false;
    std::string Expect = std::string(Tag) + ' ';
    if (Header.rfind(Expect, 0) != 0)
      return false;
    size_t Size = 0;
    if (!parseSize(Header.substr(Expect.size()), Size))
      return false;
    if (Pos + Size + 1 > S.size() || S[Pos + Size] != '\n')
      return false;
    Out.assign(S, Pos, Size);
    Pos += Size + 1;
    return true;
  }

  /// Parses "Tag N\n" into \p Count.
  bool count(const char *Tag, size_t &Count) {
    std::string Header;
    if (!line(Header))
      return false;
    std::string Expect = std::string(Tag) + ' ';
    if (Header.rfind(Expect, 0) != 0)
      return false;
    return parseSize(Header.substr(Expect.size()), Count);
  }

  static bool parseSize(const std::string &Digits, size_t &Out) {
    if (Digits.empty())
      return false;
    Out = 0;
    for (char C : Digits) {
      if (C < '0' || C > '9')
        return false;
      Out = Out * 10 + static_cast<size_t>(C - '0');
    }
    return true;
  }

private:
  const std::string &S;
  size_t Pos = 0;
};

bool readPairList(Reader &R, const char *ListTag,
                  std::vector<std::pair<std::string, std::string>> &Out) {
  size_t N = 0;
  if (!R.count(ListTag, N) || N > (1u << 20))
    return false;
  Out.clear();
  for (size_t I = 0; I != N; ++I) {
    std::string Name, Text;
    if (!R.blob("name", Name) || !R.blob("text", Text))
      return false;
    Out.emplace_back(std::move(Name), std::move(Text));
  }
  return true;
}

} // namespace

std::string CachedResult::serialize() const {
  std::string S = "GCACHE2\n";
  S += strFormat("flags %d %d\n", Ok ? 1 : 0, VerifyOk ? 1 : 0);
  appendBlob(S, "errors", Errors);
  appendBlob(S, "diagnostics", Diagnostics);
  S += strFormat("plans %zu\n", Plans.size());
  for (const auto &[Name, Text] : Plans) {
    appendBlob(S, "name", Name);
    appendBlob(S, "text", Text);
  }
  S += strFormat("dumps %zu\n", Dumps.size());
  for (const auto &[Name, Text] : Dumps) {
    appendBlob(S, "name", Name);
    appendBlob(S, "text", Text);
  }
  S += strFormat("counters %zu\n", Counters.size());
  for (const auto &[Name, Value] : Counters) {
    appendBlob(S, "name", Name);
    S += strFormat("value %lld\n", static_cast<long long>(Value));
  }
  S += strFormat("sum %016llx\n",
                 static_cast<unsigned long long>(fnv1a64(S)));
  return S;
}

std::optional<CachedResult> CachedResult::deserialize(const std::string &S) {
  Reader R(S);
  CachedResult Out;
  std::string Line;
  if (!R.line(Line) || Line != "GCACHE2")
    return std::nullopt;
  if (!R.line(Line) || Line.rfind("flags ", 0) != 0 || Line.size() != 9 ||
      (Line[6] != '0' && Line[6] != '1') || Line[7] != ' ' ||
      (Line[8] != '0' && Line[8] != '1'))
    return std::nullopt;
  Out.Ok = Line[6] == '1';
  Out.VerifyOk = Line[8] == '1';
  if (!R.blob("errors", Out.Errors) || !R.blob("diagnostics", Out.Diagnostics))
    return std::nullopt;
  if (!readPairList(R, "plans", Out.Plans) ||
      !readPairList(R, "dumps", Out.Dumps))
    return std::nullopt;
  size_t NumCounters = 0;
  if (!R.count("counters", NumCounters) || NumCounters > (1u << 20))
    return std::nullopt;
  for (size_t I = 0; I != NumCounters; ++I) {
    std::string Name;
    if (!R.blob("name", Name))
      return std::nullopt;
    if (!R.line(Line) || Line.rfind("value ", 0) != 0)
      return std::nullopt;
    long long Value = 0;
    try {
      size_t Used = 0;
      Value = std::stoll(Line.substr(6), &Used);
      if (Used != Line.size() - 6)
        return std::nullopt;
    } catch (...) {
      return std::nullopt;
    }
    Out.Counters[Name] = Value;
  }
  size_t BeforeSum = R.pos();
  if (!R.line(Line) || Line.rfind("sum ", 0) != 0 || Line.size() != 20)
    return std::nullopt;
  unsigned long long Want = 0;
  if (std::sscanf(Line.c_str() + 4, "%16llx", &Want) != 1)
    return std::nullopt;
  if (fnv1a64(S.substr(0, BeforeSum)) != Want)
    return std::nullopt;
  if (!R.atEnd())
    return std::nullopt;
  return Out;
}

//===----------------------------------------------------------------------===//
// CacheStats
//===----------------------------------------------------------------------===//

std::string CacheStats::str() const {
  return strFormat("cache: hits=%lld misses=%lld evictions=%lld bytes=%lld "
                   "entries=%lld disk-hits=%lld disk-errors=%lld "
                   "routine-hits=%lld routine-misses=%lld",
                   static_cast<long long>(Hits),
                   static_cast<long long>(Misses),
                   static_cast<long long>(Evictions),
                   static_cast<long long>(Bytes),
                   static_cast<long long>(Entries),
                   static_cast<long long>(DiskHits),
                   static_cast<long long>(DiskErrors),
                   static_cast<long long>(RoutineHits),
                   static_cast<long long>(RoutineMisses));
}

std::string CacheStats::json() const {
  JsonWriter W;
  W.beginObject();
  W.key("hits").value(Hits);
  W.key("misses").value(Misses);
  W.key("evictions").value(Evictions);
  W.key("bytes").value(Bytes);
  W.key("entries").value(Entries);
  W.key("disk_hits").value(DiskHits);
  W.key("disk_errors").value(DiskErrors);
  W.key("routine_hits").value(RoutineHits);
  W.key("routine_misses").value(RoutineMisses);
  W.endObject();
  return W.str();
}

//===----------------------------------------------------------------------===//
// Trace emission
//===----------------------------------------------------------------------===//

/// "cache-hit"/"cache-miss"/"cache-disk-read" instant on the calling
/// thread's lane; \p Bytes < 0 omits the size argument.
static void traceCacheInstant(const char *Name, const CacheKey &K,
                              int64_t Bytes) {
  TraceCollector &C = TraceCollector::instance();
  if (!C.enabled())
    return;
  std::vector<TraceArg> Args;
  Args.emplace_back("key", K.hex());
  if (Bytes >= 0)
    Args.emplace_back("bytes", Bytes);
  C.instant(Name, "cache", std::move(Args));
}

/// Samples the memory tier's resident bytes as a counter track.
static void traceCacheBytes(int64_t MemBytes) {
  TraceCollector &C = TraceCollector::instance();
  if (C.enabled())
    C.counter("cache.mem-bytes", "cache", MemBytes);
}

//===----------------------------------------------------------------------===//
// ResultCache
//===----------------------------------------------------------------------===//

ResultCache::ResultCache() : ResultCache(Config{}) {}

ResultCache::ResultCache(Config C) : Cfg(std::move(C)) {
  if (!Cfg.Dir.empty()) {
    std::error_code Ec;
    std::filesystem::create_directories(Cfg.Dir, Ec);
    if (Ec)
      Cfg.Dir.clear(); // Degrade to memory-only on an unusable directory.
  }
}

ResultCache::Entry *ResultCache::findLocked(const KeyT &K) {
  auto It = Mem.find(K);
  if (It == Mem.end())
    return nullptr;
  Lru.splice(Lru.begin(), Lru, It->second.LruIt);
  return &It->second;
}

void ResultCache::insertLocked(const KeyT &K, const CachedResult &R) {
  auto It = Mem.find(K);
  if (It != Mem.end()) {
    MemBytes -= It->second.Bytes;
    It->second.Result = R;
    It->second.Bytes = R.byteSize();
    MemBytes += It->second.Bytes;
    Lru.splice(Lru.begin(), Lru, It->second.LruIt);
  } else {
    Lru.push_front(K);
    Entry E;
    E.Result = R;
    E.Bytes = R.byteSize();
    E.LruIt = Lru.begin();
    MemBytes += E.Bytes;
    Mem.emplace(K, std::move(E));
  }
  evictToBudgetLocked();
}

void ResultCache::evictToBudgetLocked() {
  while (MemBytes > Cfg.MemBudgetBytes && Mem.size() > 1) {
    KeyT Victim = Lru.back();
    auto It = Mem.find(Victim);
    MemBytes -= It->second.Bytes;
    Mem.erase(It);
    Lru.pop_back();
    ++NEvictions;
  }
}

std::optional<CachedResult> ResultCache::lookup(const CacheKey &K) {
  return lookupTallied(K, /*Routine=*/false);
}

std::optional<CachedResult> ResultCache::lookupRoutine(const CacheKey &K) {
  return lookupTallied(K, /*Routine=*/true);
}

std::optional<CachedResult> ResultCache::lookupTallied(const CacheKey &K,
                                                       bool Routine) {
  KeyT Key{K.Hi, K.Lo};
  {
    std::lock_guard<std::mutex> L(Mu);
    if (Entry *E = findLocked(Key)) {
      ++(Routine ? NRoutineHits : NHits);
      traceCacheInstant("cache-hit", K, static_cast<int64_t>(E->Bytes));
      return E->Result;
    }
  }
  if (std::optional<CachedResult> D = readDisk(K)) {
    traceCacheInstant("cache-disk-read", K,
                      static_cast<int64_t>(D->byteSize()));
    int64_t Resident;
    {
      std::lock_guard<std::mutex> L(Mu);
      insertLocked(Key, *D);
      ++(Routine ? NRoutineHits : NHits);
      ++NDiskHits;
      Resident = static_cast<int64_t>(MemBytes);
    }
    traceCacheInstant("cache-hit", K, static_cast<int64_t>(D->byteSize()));
    traceCacheBytes(Resident);
    return D;
  }
  {
    std::lock_guard<std::mutex> L(Mu);
    ++(Routine ? NRoutineMisses : NMisses);
  }
  traceCacheInstant("cache-miss", K, -1);
  return std::nullopt;
}

void ResultCache::store(const CacheKey &K, const CachedResult &R) {
  writeDisk(K, R);
  int64_t Resident;
  {
    std::lock_guard<std::mutex> L(Mu);
    insertLocked({K.Hi, K.Lo}, R);
    Resident = static_cast<int64_t>(MemBytes);
  }
  traceCacheBytes(Resident);
}

CachedResult
ResultCache::getOrCompute(const CacheKey &K,
                          const std::function<CachedResult()> &Compute,
                          bool *Hit) {
  KeyT Key{K.Hi, K.Lo};
  std::unique_lock<std::mutex> L(Mu);
  for (;;) {
    if (Entry *E = findLocked(Key)) {
      ++NHits;
      traceCacheInstant("cache-hit", K, static_cast<int64_t>(E->Bytes));
      if (Hit)
        *Hit = true;
      return E->Result;
    }
    if (!InFlight.count(Key))
      break;
    FlightCV.wait(L);
  }
  InFlight.insert(Key);
  L.unlock();

  // Holder of the in-flight marker; disk probe and compute both run outside
  // the lock so other keys proceed unimpeded.
  auto Finish = [&](const CachedResult &R, bool FromDisk) {
    if (!FromDisk)
      writeDisk(K, R);
    L.lock();
    insertLocked(Key, R);
    if (FromDisk) {
      ++NHits;
      ++NDiskHits;
    } else {
      ++NMisses;
    }
    int64_t Resident = static_cast<int64_t>(MemBytes);
    InFlight.erase(Key);
    FlightCV.notify_all();
    L.unlock();
    traceCacheInstant(FromDisk ? "cache-hit" : "cache-miss", K,
                      FromDisk ? static_cast<int64_t>(R.byteSize()) : -1);
    traceCacheBytes(Resident);
  };

  if (std::optional<CachedResult> D = readDisk(K)) {
    traceCacheInstant("cache-disk-read", K,
                      static_cast<int64_t>(D->byteSize()));
    Finish(*D, /*FromDisk=*/true);
    if (Hit)
      *Hit = true;
    return *D;
  }

  CachedResult R;
  try {
    R = Compute();
  } catch (...) {
    L.lock();
    InFlight.erase(Key);
    FlightCV.notify_all();
    throw;
  }
  Finish(R, /*FromDisk=*/false);
  if (Hit)
    *Hit = false;
  return R;
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> L(Mu);
  CacheStats S;
  S.Hits = NHits;
  S.Misses = NMisses;
  S.Evictions = NEvictions;
  S.Bytes = static_cast<int64_t>(MemBytes);
  S.Entries = static_cast<int64_t>(Mem.size());
  S.DiskHits = NDiskHits;
  S.DiskErrors = NDiskErrors;
  S.RoutineHits = NRoutineHits;
  S.RoutineMisses = NRoutineMisses;
  return S;
}

//===----------------------------------------------------------------------===//
// Disk tier
//===----------------------------------------------------------------------===//

std::optional<CachedResult> ResultCache::readDisk(const CacheKey &K) {
  if (Cfg.Dir.empty())
    return std::nullopt;
  std::filesystem::path Path =
      std::filesystem::path(Cfg.Dir) / (K.hex() + ".gcache");
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return std::nullopt;
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  if (!In.good() && !In.eof()) {
    std::lock_guard<std::mutex> L(Mu);
    ++NDiskErrors;
    return std::nullopt;
  }
  std::optional<CachedResult> R = CachedResult::deserialize(Bytes);
  if (!R) {
    std::lock_guard<std::mutex> L(Mu);
    ++NDiskErrors;
  }
  return R;
}

void ResultCache::writeDisk(const CacheKey &K, const CachedResult &R) {
  if (Cfg.Dir.empty())
    return;
  static std::atomic<uint64_t> TmpCounter{0};
  std::filesystem::path Dir(Cfg.Dir);
  std::filesystem::path Final = Dir / (K.hex() + ".gcache");
  std::filesystem::path Tmp =
      Dir / strFormat("%s.tmp.%llu", K.hex().c_str(),
                      static_cast<unsigned long long>(
                          TmpCounter.fetch_add(1, std::memory_order_relaxed)));
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out) {
      std::lock_guard<std::mutex> L(Mu);
      ++NDiskErrors;
      return;
    }
    std::string Bytes = R.serialize();
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    if (!Out.good()) {
      std::lock_guard<std::mutex> L(Mu);
      ++NDiskErrors;
      Out.close();
      std::error_code Ec;
      std::filesystem::remove(Tmp, Ec);
      return;
    }
  }
  std::error_code Ec;
  std::filesystem::rename(Tmp, Final, Ec);
  if (Ec) {
    std::lock_guard<std::mutex> L(Mu);
    ++NDiskErrors;
    std::filesystem::remove(Tmp, Ec);
  }
}
