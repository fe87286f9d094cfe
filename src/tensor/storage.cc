#include "tensor/storage.h"

#include <sanitizer/asan_interface.h>

#include <cstdlib>
#include <new>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"

namespace ddpkit {

namespace {

/// Bytes the free list may hold in total; a block freed while it is full
/// goes back to free(). A training loop frees the same few shapes every
/// step, so the cap only bounds a process whose shapes keep changing.
constexpr size_t kMaxCachedTotalBytes = size_t{64} << 20;

/// The process-wide free list: exact byte size -> freed blocks, reused last
/// in, first out so the most recently touched (cache-warm) block goes out
/// first. Under AddressSanitizer a cached block stays poisoned until it is
/// handed out again, so a use after free is still reported.
class BlockCache {
 public:
  void* Take(size_t bytes) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    auto it = free_.find(bytes);
    if (it == free_.end() || it->second.empty()) return nullptr;
    void* block = it->second.back();
    it->second.pop_back();
    cached_bytes_ -= bytes;
    ASAN_UNPOISON_MEMORY_REGION(block, bytes);
    return block;
  }

  /// Keeps `block` for reuse; false when the cache is full.
  bool Give(void* block, size_t bytes) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    if (cached_bytes_ + bytes > kMaxCachedTotalBytes) return false;
    free_[bytes].push_back(block);
    cached_bytes_ += bytes;
    ASAN_POISON_MEMORY_REGION(block, bytes);
    return true;
  }

 private:
  Mutex mu_;
  std::unordered_map<size_t, std::vector<void*>> free_ GUARDED_BY(mu_);
  size_t cached_bytes_ GUARDED_BY(mu_) = 0;
};

BlockCache& Cache() {
  // Never destroyed: tensors held by statics may be freed after it would be.
  static BlockCache* cache = new BlockCache;
  return *cache;
}

/// A zero-byte storage still owns a distinct one-byte block.
size_t BlockBytes(size_t nbytes) { return nbytes > 0 ? nbytes : 1; }

}  // namespace

Storage::Storage(size_t nbytes, int device_id)
    : data_(nullptr), nbytes_(nbytes), device_id_(device_id) {
  const size_t bytes = BlockBytes(nbytes);
  if (bytes <= kMaxCachedBlockBytes) {
    data_ = static_cast<uint8_t*>(Cache().Take(bytes));
  }
  if (data_ == nullptr) data_ = static_cast<uint8_t*>(std::malloc(bytes));
  if (data_ == nullptr) throw std::bad_alloc();
}

Storage::~Storage() {
  const size_t bytes = BlockBytes(nbytes_);
  if (bytes <= kMaxCachedBlockBytes && Cache().Give(data_, bytes)) return;
  std::free(data_);
}

}  // namespace ddpkit
