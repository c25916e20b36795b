//===- support/ResultCache.h - Content-addressed result cache ---*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe, content-addressed cache for compilation results. The paper
/// does communication placement once, globally, instead of repeatedly per
/// loop nest; the same economy applies across compilations — a batch or fuzz
/// run that compiles the same (source, options) pair twice should pay for it
/// once. Keys are 128-bit FNV-1a digests of everything that can change the
/// output (the driver builds them; see driver/CachedPipeline.h); values are
/// CachedResult: the rendered artifacts of one compilation — plan text,
/// diagnostics, dump-after records, counters — which is exactly what a
/// replay must reproduce bitwise.
///
/// Two tiers:
///   - a memory tier with an LRU byte budget (evictions are counted), and
///   - an optional disk tier (one file per key under a cache directory,
///     written to a temp file and atomically renamed; corrupt, truncated or
///     otherwise undecodable entries are treated as misses).
///
/// getOrCompute() is single-flight: concurrent requests for the same key
/// block while the first computes, then all observe a hit — duplicated
/// inputs in a parallel batch never compute twice.
///
//===----------------------------------------------------------------------===//

#ifndef GCA_SUPPORT_RESULTCACHE_H
#define GCA_SUPPORT_RESULTCACHE_H

#include "support/Stats.h"

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace gca {

/// 64-bit FNV-1a over \p Bytes, starting from \p Basis.
uint64_t fnv1a64(const std::string &Bytes,
                 uint64_t Basis = 1469598103934665603ull);

/// A 128-bit content digest (two independent FNV-1a streams). 64 bits keeps
/// accidental collisions plausible over long fuzz campaigns; 128 does not.
struct CacheKey {
  uint64_t Hi = 0;
  uint64_t Lo = 0;

  bool operator==(const CacheKey &O) const = default;
  /// 32 lowercase hex digits (the disk-tier file stem).
  std::string hex() const;

  /// Digest of \p Material.
  static CacheKey of(const std::string &Material);
};

/// The replayable artifacts of one compilation: everything a cache hit must
/// reproduce bitwise without re-running passes.
struct CachedResult {
  bool Ok = false;
  bool VerifyOk = true;
  std::string Errors;
  std::string Diagnostics;
  /// (routine name, rendered CommPlan::str text), in routine order.
  std::vector<std::pair<std::string, std::string>> Plans;
  /// (pass name, dump text) in execution order — Session::Dumps verbatim.
  std::vector<std::pair<std::string, std::string>> Dumps;
  /// The session's full counter registry at end of compilation.
  StatsRegistry::Snapshot Counters;

  bool operator==(const CachedResult &O) const = default;

  /// Approximate in-memory footprint, used against the LRU byte budget.
  size_t byteSize() const;

  /// Length-prefixed, checksummed byte serialization (the disk format).
  std::string serialize() const;

  /// Strict inverse of serialize(): any truncation, tampering, checksum or
  /// trailing-garbage mismatch yields nullopt (the caller treats it as a
  /// cache miss).
  static std::optional<CachedResult> deserialize(const std::string &Bytes);
};

/// Counter snapshot of one cache (names match the `cache.*` stats the batch
/// driver reports).
struct CacheStats {
  int64_t Hits = 0;       ///< Lookups served from memory or disk.
  int64_t Misses = 0;     ///< Lookups that had to (re)compute.
  int64_t Evictions = 0;  ///< Memory-tier entries dropped to the budget.
  int64_t Bytes = 0;      ///< Memory-tier bytes currently resident.
  int64_t Entries = 0;    ///< Memory-tier entries currently resident.
  int64_t DiskHits = 0;   ///< Subset of Hits that came from the disk tier.
  int64_t DiskErrors = 0; ///< Corrupt/unwritable disk entries encountered.
  /// Routine-granularity lookups (CachedPipeline's incremental
  /// recompilation): tallied separately from the whole-file counters so
  /// "how many routines replayed" is directly visible — and so existing
  /// whole-file hit/miss expectations stay unperturbed.
  int64_t RoutineHits = 0;
  int64_t RoutineMisses = 0;

  /// One-line "cache: hits=... misses=..." rendering (the --cache-stats
  /// output of gca-compile).
  std::string str() const;
  /// {"hits":...,...} rendering for --time-report=json.
  std::string json() const;
};

class ResultCache {
public:
  struct Config {
    /// Memory-tier budget; least-recently-used entries are evicted past it
    /// (the most recent entry always stays resident).
    size_t MemBudgetBytes = 64ull << 20;
    /// Disk-tier directory; empty means memory-only. Created on demand.
    std::string Dir;
  };

  /// Default-configured: 64 MiB memory tier, no disk tier.
  ResultCache();
  explicit ResultCache(Config C);
  ResultCache(const ResultCache &) = delete;
  ResultCache &operator=(const ResultCache &) = delete;

  /// The cached result for \p K, or nullopt. Hits refresh LRU recency;
  /// disk-tier hits are promoted into the memory tier.
  std::optional<CachedResult> lookup(const CacheKey &K);

  /// lookup() for a routine-granularity key: identical storage and tiers,
  /// but tallied under the cache.routine-{hits,misses} counters instead of
  /// the whole-file ones.
  std::optional<CachedResult> lookupRoutine(const CacheKey &K);

  /// Inserts \p R under \p K in both tiers (overwriting any prior entry).
  void store(const CacheKey &K, const CachedResult &R);

  /// Single-flight lookup-or-compute: returns the cached result for \p K,
  /// or runs \p Compute and stores its result. Concurrent callers with the
  /// same key wait for the in-flight computation instead of duplicating it.
  /// \p Hit, when non-null, reports whether the result was replayed.
  CachedResult getOrCompute(const CacheKey &K,
                            const std::function<CachedResult()> &Compute,
                            bool *Hit = nullptr);

  CacheStats stats() const;

private:
  using KeyT = std::pair<uint64_t, uint64_t>;
  struct Entry {
    CachedResult Result;
    size_t Bytes = 0;
    std::list<KeyT>::iterator LruIt;
  };

  std::optional<CachedResult> lookupTallied(const CacheKey &K, bool Routine);
  Entry *findLocked(const KeyT &K);
  void insertLocked(const KeyT &K, const CachedResult &R);
  void evictToBudgetLocked();

  std::optional<CachedResult> readDisk(const CacheKey &K);
  void writeDisk(const CacheKey &K, const CachedResult &R);

  Config Cfg;
  mutable std::mutex Mu;
  std::condition_variable FlightCV; ///< Signals in-flight completions.
  std::set<KeyT> InFlight;
  std::map<KeyT, Entry> Mem;
  std::list<KeyT> Lru; ///< Front = most recently used.
  size_t MemBytes = 0;
  int64_t NHits = 0, NMisses = 0, NEvictions = 0, NDiskHits = 0,
          NDiskErrors = 0;
  int64_t NRoutineHits = 0, NRoutineMisses = 0;
};

} // namespace gca

#endif // GCA_SUPPORT_RESULTCACHE_H
