#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace serve {

/// Cache-line size the serving layer packs for.  64 bytes covers every
/// x86-64 and most AArch64 parts; the layout only relies on it being a
/// multiple of every pool element's alignment.
inline constexpr std::size_t kCacheLine = 64;

// The snapshot format (src/snapshot, DESIGN.md §8) memory-maps these
// pools byte-for-byte: a snapshot file IS a little-endian image of the
// arena, with every section aligned to kCacheLine.  Two platform
// assumptions are therefore load-bearing and checked here, at the root
// of the serving layer, rather than discovered as silent corruption at
// load time.  Porting to a big-endian machine requires byte-swapping
// readers/writers in src/snapshot (snapshot::open additionally rejects
// cross-endian *files* at runtime via FileHeader::endian_tag, so a
// mixed-endian fleet degrades to a Status, never to garbage answers).
static_assert(std::endian::native == std::endian::little,
              "serve arena pools and the snapshot format assume a "
              "little-endian host; add byte-swapping codecs to "
              "src/snapshot before porting to a big-endian platform");
static_assert(kCacheLine == 64,
              "snapshot section alignment (snapshot::kSectionAlign) is "
              "fixed at 64 bytes; keep the two constants in lockstep");

/// Allocations at or above this size are requested from mmap and marked
/// MADV_HUGEPAGE (DESIGN.md §12): a 2 MiB huge page covers what would be
/// 512 4-KiB TLB entries, which is what keeps the batch kernels' random
/// walks over multi-MiB pools from stalling on TLB refills.  Below the
/// threshold (or when mmap/madvise is unavailable) allocation falls back
/// to aligned_alloc — the fallback is silent and purely a performance
/// matter, never a correctness one.
inline constexpr std::size_t kHugePageBytes = 2u << 20;

/// One raw cache-line-aligned allocation, huge-page-backed when large
/// enough.  `map_bytes > 0` means the memory came from mmap (and must go
/// back via munmap); 0 means aligned_alloc/free.  Zero-initialized in
/// both paths (mmap anonymous memory is zero by contract).
struct RawAlloc {
  void* ptr = nullptr;
  std::size_t map_bytes = 0;
};

/// Allocate `bytes` (must be a multiple of kCacheLine, > 0) per the
/// huge-page policy above.  Throws std::bad_alloc on exhaustion.
[[nodiscard]] inline RawAlloc raw_alloc(std::size_t bytes) {
  RawAlloc a;
#if defined(__linux__)
  if (bytes >= kHugePageBytes) {
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p != MAP_FAILED) {
#if defined(MADV_HUGEPAGE)
      // Best-effort: a kernel without THP (or with it disabled) serves
      // the mapping with base pages and everything still works.
      (void)::madvise(p, bytes, MADV_HUGEPAGE);
#endif
      a.ptr = p;
      a.map_bytes = bytes;
      return a;
    }
    // mmap exhaustion falls through to the malloc path below, which has
    // its own failure report; no capability is lost, only huge pages.
  }
#endif
  a.ptr = std::aligned_alloc(kCacheLine, bytes);
  if (a.ptr == nullptr) {
    throw std::bad_alloc();
  }
  std::memset(a.ptr, 0, bytes);
  return a;
}

inline void raw_free(RawAlloc& a) {
  if (a.ptr == nullptr) {
    return;
  }
#if defined(__linux__)
  if (a.map_bytes > 0) {
    ::munmap(a.ptr, a.map_bytes);
    a.ptr = nullptr;
    return;
  }
#endif
  std::free(a.ptr);
  a.ptr = nullptr;
}

/// A fixed-size array in ONE cache-line-aligned allocation — the backing
/// store of the serving arena's SoA pools.  Unlike std::vector it never
/// reallocates, so a FlatCascade's raw pointers stay valid for its whole
/// lifetime, and the start of every pool sits on a cache-line boundary.
/// Pools past kHugePageBytes are huge-page-backed via raw_alloc.
///
/// T must be trivially copyable/destructible (the pools hold keys and
/// integer offsets only); elements are value-initialized.
///
/// A pool can alternatively be a non-owning *view* of externally managed
/// memory (Pool::view): the zero-copy path of snapshot::open points pools
/// straight into a read-only mmap.  A view is never freed and must never
/// be written through — the serving layer only writes pools during
/// compile(), which always uses owning pools.
template <typename T>
class Pool {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "arena pools hold plain scalar data only");
  static_assert(kCacheLine % alignof(T) == 0);

 public:
  Pool() = default;

  explicit Pool(std::size_t n) : size_(n) {
    if (n == 0) {
      return;
    }
    // raw_alloc requires the size to be a multiple of the alignment.
    const std::size_t bytes =
        (n * sizeof(T) + kCacheLine - 1) / kCacheLine * kCacheLine;
    alloc_ = raw_alloc(bytes);
    data_ = static_cast<T*>(alloc_.ptr);
  }

  /// A non-owning view of `n` elements at `data` (e.g. inside a mmapped
  /// snapshot).  The memory must outlive the pool and is treated as
  /// read-only: the const_cast below exists only so owning and borrowed
  /// pools share one representation — nothing in the serving hot path
  /// writes through data().
  [[nodiscard]] static Pool view(const T* data, std::size_t n) {
    Pool p;
    p.data_ = const_cast<T*>(data);
    p.size_ = n;
    p.owned_ = false;
    return p;
  }

  ~Pool() {
    if (owned_) {
      raw_free(alloc_);
    }
  }

  Pool(Pool&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)),
        owned_(std::exchange(o.owned_, true)),
        alloc_(std::exchange(o.alloc_, RawAlloc{})) {}
  Pool& operator=(Pool&& o) noexcept {
    if (this != &o) {
      if (owned_) {
        raw_free(alloc_);
      }
      data_ = std::exchange(o.data_, nullptr);
      size_ = std::exchange(o.size_, 0);
      owned_ = std::exchange(o.owned_, true);
      alloc_ = std::exchange(o.alloc_, RawAlloc{});
    }
    return *this;
  }
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// False for views (snapshot-backed arenas report zero owned bytes).
  [[nodiscard]] bool owns() const { return owned_; }

  /// True when the backing store came from mmap under the huge-page
  /// policy (diagnostics/tests; false for views and small pools).
  [[nodiscard]] bool huge_backed() const { return alloc_.map_bytes > 0; }

  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] std::span<const T> span() const { return {data_, size_}; }

  /// Bytes actually reserved (for space accounting in benches/docs).
  /// Views report the bytes they span — for a snapshot-backed arena that
  /// is the mapped footprint, the fair comparison against owned pools.
  [[nodiscard]] std::size_t allocated_bytes() const {
    return size_ == 0
               ? 0
               : (size_ * sizeof(T) + kCacheLine - 1) / kCacheLine * kCacheLine;
  }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
  bool owned_ = true;
  RawAlloc alloc_;
};

/// A chunked bump allocator for build-time and per-batch scratch: alloc()
/// carves cache-line-aligned slices off large reusable chunks, and
/// reset() rewinds every chunk without returning memory to the OS, so a
/// compile-to-arena pass (or a steady-state batch loop) stops paying
/// malloc/free per temporary.  Chunks themselves go through raw_alloc and
/// are therefore huge-page-backed when large.  With `chunk_bytes` 0 every
/// chunk is exactly the size of the allocation that opened it.
///
/// Allocations are NOT initialized after the first reset() (fresh chunks
/// are zero only because raw_alloc zeroes).  Not thread-safe; intended
/// for one builder or one worker's scratch.
class BumpArena {
 public:
  explicit BumpArena(std::size_t chunk_bytes = std::size_t{1} << 20)
      : chunk_bytes_(
            (chunk_bytes + kCacheLine - 1) / kCacheLine * kCacheLine) {}

  ~BumpArena() {
    for (Chunk& c : chunks_) {
      raw_free(c.alloc);
    }
  }

  BumpArena(BumpArena&& o) noexcept
      : chunk_bytes_(o.chunk_bytes_),
        chunks_(std::move(o.chunks_)),
        at_(std::exchange(o.at_, 0)) {
    o.chunks_.clear();
  }
  BumpArena& operator=(BumpArena&& o) noexcept {
    if (this != &o) {
      for (Chunk& c : chunks_) {
        raw_free(c.alloc);
      }
      chunk_bytes_ = o.chunk_bytes_;
      chunks_ = std::move(o.chunks_);
      o.chunks_.clear();
      at_ = std::exchange(o.at_, 0);
    }
    return *this;
  }
  BumpArena(const BumpArena&) = delete;
  BumpArena& operator=(const BumpArena&) = delete;

  /// `n` elements of T, start aligned to kCacheLine.  Pointers stay valid
  /// until reset() or destruction (chunks never move).
  template <typename T>
  [[nodiscard]] T* alloc(std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "bump arenas hold plain scalar scratch only");
    static_assert(kCacheLine % alignof(T) == 0);
    const std::size_t bytes =
        (n * sizeof(T) + kCacheLine - 1) / kCacheLine * kCacheLine;
    if (bytes == 0) {
      return reinterpret_cast<T*>(empty_);
    }
    if (at_ >= chunks_.size() || chunks_[at_].used + bytes >
                                     chunks_[at_].capacity) {
      next_chunk(bytes);
    }
    Chunk& c = chunks_[at_];
    T* p = reinterpret_cast<T*>(static_cast<unsigned char*>(c.alloc.ptr) +
                                c.used);
    c.used += bytes;
    return p;
  }

  /// Rewind every chunk; all outstanding pointers become invalid but no
  /// memory is released, so the next fill cycle allocates nothing.
  void reset() {
    for (Chunk& c : chunks_) {
      c.used = 0;
    }
    at_ = 0;
  }

  /// Total bytes reserved from the OS (space accounting).
  [[nodiscard]] std::size_t reserved_bytes() const {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) {
      total += c.capacity;
    }
    return total;
  }

 private:
  struct Chunk {
    RawAlloc alloc;
    std::size_t capacity = 0;
    std::size_t used = 0;
  };

  /// Advance to the first existing chunk that fits `bytes`, else grow.
  void next_chunk(std::size_t bytes) {
    while (at_ < chunks_.size()) {
      if (chunks_[at_].used == 0 && chunks_[at_].capacity >= bytes) {
        return;
      }
      ++at_;
    }
    Chunk c;
    c.capacity = bytes > chunk_bytes_ ? bytes : chunk_bytes_;
    c.alloc = raw_alloc(c.capacity);
    chunks_.push_back(c);
  }

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t at_ = 0;  ///< index of the chunk currently bump-allocating
  alignas(kCacheLine) unsigned char empty_[1] = {};  ///< n == 0 sentinel
};

}  // namespace serve
