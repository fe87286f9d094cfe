#ifndef DDPKIT_TENSOR_STORAGE_H_
#define DDPKIT_TENSOR_STORAGE_H_

#include <cstddef>
#include <cstdint>

namespace ddpkit {

/// Reference-counted flat byte buffer backing one or more tensor views.
/// `device_id` is the *simulated* device the buffer notionally lives on
/// (all memory is host RAM; the id drives bucket/parameter affinity checks,
/// mirroring the paper's "buckets are created on the same device as the
/// parameters").
///
/// The bytes start uninitialized. Blocks of at most kMaxCachedBlockBytes
/// come from, and go back to, one process-wide free list keyed by exact
/// byte size, so a training step that allocates the shapes the previous
/// step freed reuses those blocks instead of faulting in fresh pages.
/// Larger blocks go straight to malloc/free (DESIGN.md §10).
class Storage {
 public:
  static constexpr size_t kMaxCachedBlockBytes = size_t{1} << 20;

  /// Allocates `nbytes` of uninitialized memory.
  Storage(size_t nbytes, int device_id);
  ~Storage();

  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  size_t nbytes() const { return nbytes_; }
  int device_id() const { return device_id_; }

 private:
  uint8_t* data_;
  size_t nbytes_;
  int device_id_;
};

}  // namespace ddpkit

#endif  // DDPKIT_TENSOR_STORAGE_H_
