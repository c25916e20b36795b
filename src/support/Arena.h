//===- support/Arena.h - Bump-pointer allocation ----------------*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bump-pointer arena for the placement engine's slot sets and scratch
/// tables. Allocation is a pointer increment inside the current block; blocks
/// are geometrically sized and never move, so spans handed out stay valid for
/// the arena's lifetime. Only trivially-destructible element types are
/// supported (no destructors run on reset or teardown).
///
/// Retired blocks are parked in a small per-thread cache and handed to the
/// next arena constructed on the same thread, so a steady-state compile loop
/// (the benchmark's repeat runs, the batch driver's queue) reuses the same
/// memory instead of hitting the system allocator once per plan.
///
//===----------------------------------------------------------------------===//

#ifndef GCA_SUPPORT_ARENA_H
#define GCA_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace gca {

class Arena {
public:
  explicit Arena(size_t FirstBlockBytes = kDefaultBlockBytes)
      : NextBlockBytes(FirstBlockBytes) {
    // Adopt a cached block before touching malloc.
    BlockCache &Cache = blockCache();
    if (Cache.Count != 0) {
      Blocks.push_back(Cache.Parked[--Cache.Count]);
      Cur = Blocks.back().Data;
      End = Cur + Blocks.back().Bytes;
      NextBlockBytes = std::max(NextBlockBytes, Blocks.back().Bytes * 2);
    }
  }

  ~Arena() {
    // Park up to kMaxCachedBlocks on this thread for the next arena; free
    // the rest. Blocks are plain byte storage, so which thread allocated
    // them is irrelevant.
    BlockCache &Cache = blockCache();
    for (const Block &B : Blocks) {
      if (Cache.Count < kMaxCachedBlocks)
        Cache.Parked[Cache.Count++] = B;
      else
        std::free(B.Data);
    }
  }

  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Allocates \p Bytes with \p Align alignment (power of two).
  void *alloc(size_t Bytes, size_t Align) {
    uintptr_t P = reinterpret_cast<uintptr_t>(Cur);
    uintptr_t Aligned = (P + Align - 1) & ~(Align - 1);
    if (Aligned + Bytes > reinterpret_cast<uintptr_t>(End)) {
      newBlock(Bytes + Align);
      P = reinterpret_cast<uintptr_t>(Cur);
      Aligned = (P + Align - 1) & ~(Align - 1);
    }
    Cur = reinterpret_cast<char *>(Aligned + Bytes);
    return reinterpret_cast<void *>(Aligned);
  }

  /// Allocates an uninitialized array of \p N trivially-destructible Ts.
  template <typename T> T *allocArray(size_t N) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena never runs destructors");
    if (N == 0)
      return nullptr;
    return static_cast<T *>(alloc(N * sizeof(T), alignof(T)));
  }

  /// Frees every block parked in this thread's cache. Threads that die
  /// before the process does (thread-pool workers, connection threads) must
  /// call this on their way out: the cache is deliberately never destructed
  /// (see BlockCache), so blocks still parked when the thread's storage
  /// vanishes would otherwise be unreachable — a real leak, and a reported
  /// one under LeakSanitizer.
  static void freeThreadCache() {
    BlockCache &Cache = blockCache();
    while (Cache.Count != 0)
      std::free(Cache.Parked[--Cache.Count].Data);
  }

private:
  struct Block {
    char *Data;
    size_t Bytes;
  };

  static constexpr size_t kDefaultBlockBytes = 64 * 1024;
  static constexpr size_t kMaxCachedBlocks = 8;

  /// Trivially destructible on purpose: no thread_local destructor gets
  /// registered, so arenas held by objects of static storage duration (test
  /// fixtures, cached pipelines) can still park blocks during program
  /// teardown, after the point where a vector cache would already have been
  /// destroyed. Parked blocks at thread exit are reclaimed by the OS.
  struct BlockCache {
    Block Parked[kMaxCachedBlocks];
    size_t Count = 0;
  };

  static BlockCache &blockCache() {
    thread_local BlockCache Cache;
    return Cache;
  }

  void newBlock(size_t MinBytes) {
    size_t Bytes = std::max(NextBlockBytes, MinBytes);
    NextBlockBytes = Bytes * 2;
    char *Data = static_cast<char *>(std::malloc(Bytes));
    if (!Data)
      throw std::bad_alloc();
    Blocks.push_back({Data, Bytes});
    Cur = Data;
    End = Data + Bytes;
  }

  std::vector<Block> Blocks;
  char *Cur = nullptr;
  char *End = nullptr;
  size_t NextBlockBytes;
};

} // namespace gca

#endif // GCA_SUPPORT_ARENA_H
